"""Exact integer linear algebra: the one elimination core of the package.

Determinant and rank come from fraction-free (Bareiss) elimination, inverses
and small solves from the adjugate (Cramer's rule), and cokernels from the
Smith normal form.  All arithmetic is over Python's arbitrary-precision
integers, so nothing here can overflow.  Matrices are immutable.  The Smith
normal form uses a deterministic pivot rule (smallest absolute value, ties
broken in row-major order) so the transform matrices are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import SingularPairing


def _bareiss(entries: Sequence[Sequence[int]], cols: int) -> tuple[int, int]:
    """Fraction-free row echelon form: (rank, signed last pivot).

    A column that is zero in every row not yet pivoted is skipped.  After
    each step the trailing entries are minors of the rows and columns used so
    far (Sylvester's identity), so every division by the previous pivot is
    exact.  For a square matrix of full rank the signed last pivot is the
    determinant; with no pivot at all it is 1.
    """
    a = [list(row) for row in entries]
    n = len(a)
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        piv = rank
        while piv < n and a[piv][col] == 0:
            piv += 1
        if piv == n:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for row in a[rank + 1:]:
            f = row[col]
            for j in range(col + 1, cols):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == n:
            break
    return rank, sign * prev


class IntMatrix:
    """Immutable integer matrix.  Degenerate shapes (0 rows/cols) are allowed."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], shape: tuple[int, int] | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if shape is not None:
            r, c = shape
            if len(rows) not in (0, r) or any(len(row) != c for row in rows):
                raise ValueError(f"entries do not match shape {shape}")
            if len(rows) == 0 and r > 0:
                raise ValueError(f"entries do not match shape {shape}")
        else:
            r = len(rows)
            c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], shape=(n, n))

    @staticmethod
    def diagonal(values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        return IntMatrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)],
                         shape=(n, n))

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
                         shape=(self.cols, self.rows))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
              for j in range(other.cols)] for i in range(self.rows)],
            shape=(self.rows, other.cols))

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(self.entries[i][k] * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        rank, last = _bareiss(self.entries, self.cols)
        return last if rank == self.rows else 0

    def rank(self) -> int:
        return _bareiss(self.entries, self.cols)[0]

    def adjugate(self) -> "IntMatrix":
        """adj(m) with m·adj(m) = adj(m)·m = det(m)·I, by cofactors."""
        if not self.is_square():
            raise ValueError("adjugate of non-square matrix")
        n = self.rows

        def minor(i: int, j: int) -> int:
            return IntMatrix([[x for q, x in enumerate(row) if q != j]
                              for p, row in enumerate(self.entries) if p != i],
                             shape=(n - 1, n - 1)).det()

        # adj(m)[i][j] is the (j, i) cofactor.
        return IntMatrix([[(-1) ** (i + j) * minor(j, i) for j in range(n)] for i in range(n)],
                         shape=(n, n))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*m*V = D in Smith normal form.

    D is diagonal with nonnegative entries forming a divisibility chain,
    and U, V are unimodular.  Pivots are chosen by smallest absolute value
    with row-major tie-breaking, so the output is deterministic.
    """
    r, c = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_sub(i, k, q):
        if q == 0:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):
        if q == 0:
            return
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    k = 0
    n = min(r, c)
    while k < n:
        # Smallest-absolute-value pivot in the trailing block, row-major ties.
        pivot = None
        best = None
        for i in range(k, r):
            for j in range(k, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    pivot, best = (i, j), abs(x)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])

        while True:
            dirty = False
            for i in range(k + 1, r):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    row_sub(i, k, q)
                    if a[i][k] != 0:
                        # Remainder is strictly smaller; promote it to pivot.
                        swap_rows(i, k)
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, c):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    col_sub(j, k, q)
                    if a[k][j] != 0:
                        swap_cols(j, k)
                        dirty = True
            if dirty:
                continue
            # Divisibility: the pivot must divide the trailing block.
            offender = None
            for i in range(k + 1, r):
                for j in range(k + 1, c):
                    if a[i][j] % a[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(k, offender, -1)

        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1

    return IntMatrix(a, shape=(r, c)), IntMatrix(u, shape=(r, r)), IntMatrix(v, shape=(c, c))


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix: det·adj with det = ±1."""
    d = m.det()
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {d})")
    return IntMatrix([[d * x for x in row] for row in m.adjugate().entries],
                     shape=(m.rows, m.cols))


def solve(m: IntMatrix, rhs: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The system m·x = rhs by Cramer's rule, as the integer pair
    (adj(m)·rhs, det m): the solution is x = adj(m)·rhs / det m."""
    d = m.det()
    if d == 0:
        raise ValueError("singular system")
    return m.adjugate().matvec(rhs), d


def leading_principal_minors(m: IntMatrix) -> list[int]:
    """det of the top-left k x k blocks, k = 1..n (Sylvester's criterion)."""
    return [IntMatrix([row[: k + 1] for row in m.entries[: k + 1]], shape=(k + 1, k + 1)).det()
            for k in range(m.rows)]


def minor_gcd_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Elementary divisors computed from gcds of k x k minors.

    Independent of the reduction algorithm; intended as a cross-check for
    small matrices (cost grows with binomial(n, k)^2).
    """
    n = min(m.rows, m.cols)
    gs = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix([[m.entries[i][j] for j in cols] for i in rows], shape=(k, k))
                g = math.gcd(g, sub.det())
        gs.append(g)
    out = []
    for k in range(1, n + 1):
        if gs[k] == 0:
            out.append(0)
        else:
            out.append(gs[k] // gs[k - 1])
    return tuple(out)


@dataclass(frozen=True)
class ComponentGroup:
    """Finite abelian group ⊕ Z/d_i with d_1 | d_2 | ... | d_t, all d_i > 1."""

    divisors: tuple[int, ...]

    def __post_init__(self):
        ds = tuple(int(d) for d in self.divisors)
        object.__setattr__(self, "divisors", ds)
        if any(d < 2 for d in ds):
            raise ValueError("divisors must be > 1 (trivial factors are dropped)")
        for a, b in zip(ds, ds[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")

    @property
    def order(self) -> int:
        return math.prod(self.divisors)

    def __repr__(self) -> str:
        if not self.divisors:
            return "ComponentGroup(trivial)"
        return "ComponentGroup(" + " x ".join(f"Z/{d}" for d in self.divisors) + ")"


def component_group(b: IntMatrix) -> ComponentGroup:
    """Component group of the Neron model: coker(Y -> X^v), y -> b(y,-).

    The map's matrix (columns = images of the Y basis) is b^T; its cokernel
    is Z^t modulo the lattice spanned by the rows of b.
    """
    if not b.is_square():
        raise ValueError("pairing matrix must be square")
    t = b.rows
    if t == 0:
        return ComponentGroup(())
    if b.det() == 0:
        raise SingularPairing("pairing has determinant 0; Y -> X^v is not injective")
    d, _, _ = smith_normal_form(b.transpose())
    return ComponentGroup(tuple(x for x in d.diagonal_entries() if x != 1))


def two_torsion_order(group: ComponentGroup) -> int:
    """#Phi[2] = prod gcd(d_i, 2); equals 2^t when every divisor is even."""
    return math.prod(math.gcd(d, 2) for d in group.divisors)

