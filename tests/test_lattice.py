import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_kulikov.errors import SingularPairing
from kummer_kulikov.lattice import (
    ComponentGroup,
    IntMatrix,
    component_group,
    minor_gcd_divisors,
    smith_normal_form,
    solve,
    two_torsion_order,
    unimodular_inverse,
)


def assert_snf_contract(m):
    d, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v) == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    assert all(x == 0 for i, row in enumerate(d.entries) for j, x in enumerate(row) if i != j)
    diag = [x for x in d.diagonal_entries() if x != 0]
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    return d


def test_snf_already_diagonal():
    d = assert_snf_contract(IntMatrix([[2, 0], [0, 4]]))
    assert d.entries == ((2, 0), (0, 4))


def test_snf_hand_reduction():
    # Oracle: gcd of entries is 1, |det| = 3, so divisors are (1, 3).
    m = IntMatrix([[2, 1], [1, 2]])
    assert minor_gcd_divisors(m) == (1, 3)
    d = assert_snf_contract(m)
    assert d.entries == ((1, 0), (0, 3))


def test_snf_empty_matrix():
    d, u, v = smith_normal_form(IntMatrix([], shape=(0, 0)))
    assert (d.rows, d.cols) == (0, 0)
    assert (u.rows, v.rows) == (0, 0)


def test_snf_idempotent_on_diagonal_forms():
    for diag in [(1, 2), (2, 4), (3,), (1, 1, 6)]:
        m = IntMatrix.diagonal(list(diag))
        d, _, _ = smith_normal_form(m)
        assert d == m


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_random_matrices(rows, cols, data):
    entries = [[data.draw(st.integers(-30, 30)) for _ in range(cols)] for _ in range(rows)]
    m = IntMatrix(entries)
    d = assert_snf_contract(m)
    assert d.diagonal_entries() == minor_gcd_divisors(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_snf_divisor_product_is_det(n, data):
    entries = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    m = IntMatrix(entries)
    det = m.det()
    if det == 0:
        return
    d, _, _ = smith_normal_form(m)
    prod = 1
    for x in d.diagonal_entries():
        prod *= x
    assert prod == abs(det)


# -- the elimination core against independent routes ----------------------------

def leibniz_det(m):
    """Sum over permutations; shares no code with the Bareiss elimination."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m.entries[i][j]
        total += term
    return total


@st.composite
def int_matrices(draw, square=False):
    # Half the entries are 0, so singular matrices and zero columns are common.
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    return IntMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True))
def test_det_matches_leibniz(m):
    assert m.det() == leibniz_det(m)


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_rank_matches_minor_gcd_divisors(m):
    assert m.rank() == sum(1 for x in minor_gcd_divisors(m) if x != 0)


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True))
def test_adjugate_times_matrix_is_det(m):
    scalar = IntMatrix.diagonal([m.det()] * m.rows)
    assert m.mul(m.adjugate()) == scalar
    assert m.adjugate().mul(m) == scalar


@settings(max_examples=200, deadline=None)
@given(int_matrices(square=True), st.data())
def test_solve_satisfies_the_system(m, data):
    rhs = [data.draw(st.integers(-9, 9)) for _ in range(m.rows)]
    if m.det() == 0:
        with pytest.raises(ValueError, match="singular system"):
            solve(m, rhs)
        return
    x, det = solve(m, rhs)
    assert det == m.det()
    assert all(isinstance(v, int) for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in m.entries] == [det * y for y in rhs]


def test_unimodular_inverse():
    m = IntMatrix([[2, 3], [1, 2]])
    inv = unimodular_inverse(m)
    assert m.mul(inv) == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))


def test_component_group_examples():
    assert component_group(IntMatrix([[2, 0], [0, 2]])).divisors == (2, 2)
    assert component_group(IntMatrix([[2, 0], [0, 2]])).order == 4
    assert component_group(IntMatrix([[4]])).divisors == (4,)
    assert component_group(IntMatrix([], shape=(0, 0))).order == 1
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
    bt = b.transpose()
    det = bt.det()
    n = abs(det)
    if t == 1:
        adj = IntMatrix([[1]])
    else:
        adj = IntMatrix([[bt.entries[1][1], -bt.entries[0][1]],
                         [-bt.entries[1][0], bt.entries[0][0]]])

    def in_lattice(v):
        return all(x % det == 0 for x in adj.matvec(v))

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
