import math
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_kulikov import lattice
from kummer_kulikov.errors import SingularPairing
from kummer_kulikov.lattice import (
    ComponentGroup,
    IntMatrix,
    component_group,
    smith_normal_form,
    solve,
    two_torsion_order,
)


def assert_snf_contract(m):
    """U·m·V = D for the rows m, with U, V unimodular and D diagonal with a
    divisibility chain; returns the diagonal of D."""
    diag, u, v = smith_normal_form(m)
    d = [[diag[i] if i == j else 0 for j in range(len(v))] for i in range(len(u))]
    assert IntMatrix(u).mul(IntMatrix(m)).mul(IntMatrix(v)) == IntMatrix(d)
    assert abs(lattice.det(u)) == 1
    assert abs(lattice.det(v)) == 1
    assert len(diag) == min(len(u), len(v))
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


def minor_gcd_divisors(m):
    """Elementary divisors of the rows m from the gcds of k x k minors by
    Leibniz: independent of the reduction, for small matrices only (cost
    grows with binomial(n, k)^2)."""
    rows, cols = len(m), len(m[0]) if m else 0
    gs = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = math.gcd(g, leibniz_det([[m[i][j] for j in cs] for i in rs]))
        gs.append(g)
    return tuple(0 if gs[k] == 0 else gs[k] // gs[k - 1] for k in range(1, len(gs)))


def test_snf_already_diagonal():
    assert assert_snf_contract([[2, 0], [0, 4]]) == (2, 4)


def test_snf_hand_reduction():
    # Oracle: gcd of entries is 1, |det| = 3, so divisors are (1, 3).
    m = [[2, 1], [1, 2]]
    assert minor_gcd_divisors(m) == (1, 3)
    assert assert_snf_contract(m) == (1, 3)


def test_snf_empty_matrix():
    assert smith_normal_form([]) == ((), [], [])
    assert assert_snf_contract([]) == ()


# Exact (D, U, V): any unimodular pair passes the contract, but the coset
# representatives U⁻¹·r, and so every developed class, follow this U.
@pytest.mark.parametrize("m, expected", [
    ([[4, 2], [2, 6]], ((2, 10), [(1, 0), (3, -1)], [(0, 1), (1, -2)])),
    ([[2, 4, 4], [-6, 6, 12]],
     ((2, 6), [(1, 0), (3, 1)], [(1, 0, -2), (0, -1, 4), (0, 1, -3)])),
    ([[1, 2], [3, 4], [5, 6]],
     ((1, 2), [(1, 0, 0), (3, -1, 0), (1, -2, 1)], [(1, -2), (0, 1)])),
    ([[2, 4], [1, 2]], ((1, 0), [(0, 1), (1, -2)], [(1, -2), (0, 1)])),
    ([[1, 10**7], [0, 1]], ((1, 1), [(1, 0), (0, 1)], [(1, -10**7), (0, 1)])),
    ([[0, 0, 0], [0, 6, 0]],
     ((6, 0), [(0, 1), (1, 0)], [(0, 1, 0), (1, 0, 0), (0, 0, 1)])),
], ids=["square", "wide", "tall", "singular", "skewed", "zero-row"])
def test_snf_transforms_are_pinned(m, expected):
    assert smith_normal_form(m) == expected
    assert_snf_contract(m)


def test_snf_idempotent_on_diagonal_forms():
    for diag in [(1, 2), (2, 4), (3,), (1, 1, 6)]:
        m = [[x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)]
        d, _, _ = smith_normal_form(m)
        assert d == diag


def test_ragged_rows_are_refused():
    ragged = [[1, 2], [3]]
    for call in (lambda: lattice.det(ragged), lambda: lattice.rank(ragged),
                 lambda: smith_normal_form(ragged), lambda: solve(ragged, [(1,), (1,)]),
                 lambda: solve([[1, 0], [0, 1]], ragged)):
        with pytest.raises(ValueError):
            call()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_random_matrices(rows, cols, data):
    entries = [[data.draw(st.integers(-30, 30)) for _ in range(cols)] for _ in range(rows)]
    assert assert_snf_contract(entries) == minor_gcd_divisors(entries)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_snf_divisor_product_is_det(n, data):
    entries = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    m = IntMatrix(entries)
    det = m.det()
    if det == 0:
        return
    d, _, _ = smith_normal_form(entries)
    prod = 1
    for x in d:
        prod *= x
    assert prod == abs(det)


# -- the elimination core against independent routes ----------------------------

def leibniz_det(m):
    """Sum over permutations of the rows m; shares no code with the Bareiss
    elimination."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@st.composite
def int_matrices(draw, square=False):
    # Half the entries are 0, so singular matrices and zero columns are common.
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True))
def test_det_matches_leibniz(m):
    assert lattice.det(m) == leibniz_det(m) == IntMatrix(m).det()


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_rank_matches_minor_gcd_divisors(m):
    assert lattice.rank(m) == sum(1 for x in minor_gcd_divisors(m) if x != 0)


def cofactor_adjugate(m):
    """adj(m) by cofactor expansion, adj(m)[i][j] being the (j, i) cofactor:
    the package's former route, with Leibniz minors, so it shares no code
    with the elimination."""
    n = len(m)

    def minor(i, j):
        return leibniz_det([[x for q, x in enumerate(row) if q != j]
                            for p, row in enumerate(m) if p != i])

    return [tuple((-1) ** (i + j) * minor(j, i) for j in range(n)) for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True))
def test_adjugate_times_matrix_is_det(m):
    identity = [tuple(int(i == j) for j in range(len(m))) for i in range(len(m))]
    det = leibniz_det(m)
    if det == 0:
        with pytest.raises(ValueError, match="singular system"):
            solve(m, identity)
        return
    adj = cofactor_adjugate(m)
    assert solve(m, identity) == (adj, det)
    scalar = IntMatrix([[det if i == j else 0 for j in range(len(m))] for i in range(len(m))])
    assert IntMatrix(m).mul(IntMatrix(adj)) == scalar
    assert IntMatrix(adj).mul(IntMatrix(m)) == scalar


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True), st.integers(0, 3), st.data())
def test_solve_satisfies_the_system(m, width, data):
    rhs = [[data.draw(st.integers(-9, 9)) for _ in range(width)] for _ in range(len(m))]
    if lattice.det(m) == 0:
        with pytest.raises(ValueError, match="singular system"):
            solve(m, rhs)
        return
    x, det = solve(m, rhs)
    assert det == lattice.det(m)
    assert all(isinstance(v, int) for row in x for v in row)
    assert IntMatrix(m).mul(IntMatrix(x)) == IntMatrix([[det * y for y in row] for row in rhs])


def test_the_empty_system():
    assert solve([], []) == ([], 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        solve([], [(1,)])


def test_component_group_examples():
    assert component_group(IntMatrix([[2, 0], [0, 2]])).divisors == (2, 2)
    assert component_group(IntMatrix([[2, 0], [0, 2]])).order == 4
    assert component_group(IntMatrix([[4]])).divisors == (4,)
    assert component_group(IntMatrix([])).order == 1
    assert component_group(IntMatrix([[2, 1], [1, 2]])).divisors == (3,)


def test_component_group_order_is_det():
    rng = random.Random(7)
    for _ in range(50):
        entries = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        m = IntMatrix(entries)
        if m.det() == 0:
            continue
        assert component_group(m).order == abs(m.det())


def test_component_group_singular():
    with pytest.raises(SingularPairing):
        component_group(IntMatrix([[1, 1], [1, 1]]))


def test_component_group_divisibility_enforced():
    with pytest.raises(ValueError):
        ComponentGroup((2, 3))
    with pytest.raises(ValueError):
        ComponentGroup((1, 2))


def test_two_torsion_examples():
    assert two_torsion_order(ComponentGroup((2, 2))) == 4
    # Z/4 by enumeration: {0, 2} are the 2-torsion elements.
    brute = sum(1 for x in range(4) if (2 * x) % 4 == 0)
    assert brute == 2
    assert two_torsion_order(ComponentGroup((4,))) == brute
    assert two_torsion_order(ComponentGroup(())) == 1


def _brute_two_torsion_classes(b):
    """Count 2-torsion classes of Z^t / (row lattice of b) by box enumeration.

    Membership in the lattice is tested with the adjugate: v is in the image
    of b^T iff adj(b^T)·v ≡ 0 mod det.  The box [0, |det|)^t meets every
    class in exactly |det|^(t-1) points.
    """
    t = b.rows
    bt = IntMatrix(zip(*b.entries))
    det = bt.det()
    n = abs(det)
    if t == 1:
        adj = [[1]]
    else:
        adj = [[bt.entries[1][1], -bt.entries[0][1]], [-bt.entries[1][0], bt.entries[0][0]]]

    def in_lattice(v):
        return all(sum(a * x for a, x in zip(row, v)) % det == 0 for row in adj)

    hits = sum(1 for v in product(range(n), repeat=t)
               if in_lattice(tuple(2 * x for x in v)))
    assert hits % n ** (t - 1) == 0
    return hits // n ** (t - 1)


def test_two_torsion_brute_force_agreement():
    rng = random.Random(2024)
    checked = 0
    while checked < 25:
        entries = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        m = IntMatrix(entries)
        det = m.det()
        if det == 0 or abs(det) > 100:
            continue
        assert two_torsion_order(component_group(m)) == _brute_two_torsion_classes(m)
        checked += 1
    for k in (1, 2, 3, 4, 50, 99):
        m = IntMatrix([[k]])
        assert two_torsion_order(component_group(m)) == _brute_two_torsion_classes(m)
