"""Closed-form expected values, computed without the package under test.

Everything here is plain integer arithmetic on matrices of size at most
2x2, so it shares no code path with ``kummer_kulikov``.  Matrices are lists
of rows; a lattice is given by its basis rows.
"""

from __future__ import annotations

from math import gcd

KULIKOV_TYPE = {0: "I", 1: "II", 2: "III"}

# Edge directions of the unit-cell triangulations the generator writes.
EDGE_DIRECTIONS = {
    "standard": {1: [(1,)], 2: [(1, 0), (0, 1), (1, 1)]},
    "anti": {2: [(1, 0), (0, 1), (1, -1)]},
}


def det(m: list[list[int]]) -> int:
    t = len(m)
    if t == 0:
        return 1
    if t == 1:
        return m[0][0]
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def adjugate(m: list[list[int]]) -> list[list[int]]:
    if len(m) == 1:
        return [[1]]
    return [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]


def unimodular_inverse(m: list[list[int]]) -> list[list[int]]:
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"not unimodular: det {d}")
    return [[d * x for x in row] for row in adjugate(m)]


def is_even(m: list[list[int]]) -> bool:
    return all(x % 2 == 0 for row in m for x in row)


def axioms(phi: list[list[int]], b: list[list[int]]) -> dict[str, bool]:
    """The four named axioms of a datum, in the order the CLI reports them.

    For t > 0 the quadratic identity extends a integrally exactly when the
    pairing M = b·phi is symmetric.
    """
    t = len(b)
    m = matmul(b, phi) if t else []
    sym = all(m[i][j] == m[j][i] for i in range(t) for j in range(t))
    minors = [det([row[:k] for row in m[:k]]) for k in range(1, t + 1)]
    return {
        "phi_injective": t == 0 or det(phi) != 0,
        "pairing_symmetric": sym,
        "pairing_positive_definite": all(x > 0 for x in minors),
        "a_integral": t == 0 or sym,
    }


def divisors(b: list[list[int]]) -> list[int]:
    """Nontrivial elementary divisors of b from gcds of minors (t <= 2)."""
    t = len(b)
    if t == 0:
        return []
    d1 = 0
    for row in b:
        for x in row:
            d1 = gcd(d1, x)
    ds = [d1] if t == 1 else [d1, abs(det(b)) // d1]
    return [d for d in ds if d != 1]


def component_counts(b: list[list[int]]) -> tuple[int, int]:
    """N_A = |det b| and N_X = |det b|/2 + 2^(t-1); rank 0 gives (1, 1)."""
    t = len(b)
    if t == 0:
        return 1, 1
    n_a = abs(det(b))
    return n_a, n_a // 2 + 2 ** (t - 1)


def base_change_n_l(b: list[list[int]], e: int) -> int:
    """N_L = e^t N - 2^(t-1) (e^t - 1)."""
    t = len(b)
    n = component_counts(b)[1]
    return e ** t * n - 2 ** (t - 1) * (e ** t - 1)


def dual_cells(t: int, d: int) -> list[int]:
    """Cells of Δ_A for a periodic triangulation with d vertex classes."""
    return {0: [1, 0, 0], 1: [d, d, 0], 2: [d, 3 * d, 2 * d]}[t]


def quotient_cells(t: int, d: int) -> list[int]:
    """Cells of Δ_X for an even lattice: 2^t fixed vertices, free elsewhere."""
    return {0: [1, 0, 0], 1: [d // 2 + 1, d // 2, 0],
            2: [d // 2 + 2, 3 * d // 2, d]}[t]


def euler(cells: list[int]) -> int:
    return cells[0] - cells[1] + cells[2]


def in_lattice(v: tuple[int, ...], basis: list[list[int]]) -> bool:
    """v = y·basis with y integral iff v·adj(basis) = 0 mod det(basis)."""
    d = det(basis)
    adj = adjugate(basis)
    return all(sum(v[i] * adj[i][j] for i in range(len(v))) % d == 0
               for j in range(len(v)))


def property_d_violated(basis: list[list[int]], kind: str) -> bool:
    """Every simplex of the unit-cell triangulations lies in a unit box, so a
    translate by λ with ‖λ‖∞ >= 2 is disjoint from it; among λ with
    ‖λ‖∞ = 1, exactly the edge directions make an edge meet its translate."""
    return any(in_lattice(e, basis) for e in EDGE_DIRECTIONS[kind][len(basis)])


def h_violated(basis: list[list[int]]) -> bool:
    """-S = S + λ for the edge [p, p+e] forces λ = -2p - e; the edge
    directions cover every nonzero class mod 2, so a fixed edge exists iff
    the lattice is not contained in 2·Z^t."""
    return not is_even(basis)


def polarization_holds(kind: str) -> bool:
    """Q(m, n) = m² + n² - mn on the unit square: the margin across the
    (1,1) diagonal is Q(1,0) + Q(0,1) - Q(0,0) - Q(1,1) = 1 > 0, and across
    the anti-diagonal it is the negative, -1."""
    return kind == "standard"
