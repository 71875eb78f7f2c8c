import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_kulikov.complexes import KulikovType
from kummer_kulikov.errors import (
    BadSquare,
    HypothesisFailed,
    InvalidIndex,
    MultiplicativityError,
    NotNilpotent,
    NotUnipotent,
    SchemaError,
)
from kummer_kulikov.monodromy import (
    WEDGE_BASIS,
    RationalOperator,
    TwoTorsionPermutation,
    exp_nilpotent,
    kummer_monodromy,
    log_unipotent,
    nilpotency_index,
    operator_from_json,
    operator_to_json,
    quadratic_twist_character,
    standard_N,
    toric_rank_from_N,
    two_torsion_trivial,
    type_from_index,
    unipotent_or_negative,
    wedge_derivation,
    wedge_square,
)

from conftest import I4, elem, random_square_zero, random_unimodular, random_unipotent


def test_log_examples():
    assert log_unipotent(I4).is_zero()
    sigma = I4 + elem(0, 1)
    assert log_unipotent(sigma) == elem(0, 1)
    sigma2 = I4 + elem(0, 1) + elem(0, 2)
    n = log_unipotent(sigma2)
    assert n == sigma2 - I4
    assert (n * n).is_zero()


def test_log_rejects_non_unipotent():
    with pytest.raises(NotUnipotent):
        log_unipotent(-I4)
    with pytest.raises(NotUnipotent):
        log_unipotent(RationalOperator([[2, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_exp_log_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        sigma = random_unipotent(rng)
        assert exp_nilpotent(log_unipotent(sigma)) == sigma


def test_standard_N():
    assert standard_N(0).is_zero()
    n1 = standard_N(1)
    assert n1.entries[0][1] == 1 and sum(1 for r in n1.entries for x in r if x) == 1
    n2 = standard_N(2)
    assert n2.entries[0][1] == 1 and n2.entries[2][3] == 1
    assert (n2 * n2).is_zero()
    from kummer_kulikov.errors import UnsupportedRank
    with pytest.raises(UnsupportedRank):
        standard_N(3)


def test_kummer_monodromy_images():
    # t = 1: N_X(e2^e3) = e1^e3, N_X(e2^e4) = e1^e4, everything else to 0.
    w = kummer_monodromy(standard_N(1)).wedge
    assert WEDGE_BASIS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    col = lambda m, c: tuple(m.entries[r][c] for r in range(6))
    e = lambda i: tuple(Fraction(1 if r == i else 0) for r in range(6))
    zero6 = tuple(Fraction(0) for _ in range(6))
    assert col(w, WEDGE_BASIS.index((1, 2))) == e(WEDGE_BASIS.index((0, 2)))
    assert col(w, WEDGE_BASIS.index((1, 3))) == e(WEDGE_BASIS.index((0, 3)))
    for pair in ((0, 1), (0, 2), (0, 3), (2, 3)):
        assert col(w, WEDGE_BASIS.index(pair)) == zero6

    # t = 2: N_X(e2^e4) = e1^e4 + e2^e3 and N_X^2(e2^e4) = 2 e1^e3.
    w2 = kummer_monodromy(standard_N(2)).wedge
    c24 = WEDGE_BASIS.index((1, 3))
    image = col(w2, c24)
    expected = [Fraction(0)] * 6
    expected[WEDGE_BASIS.index((0, 3))] = Fraction(1)
    expected[WEDGE_BASIS.index((1, 2))] = Fraction(1)
    assert image == tuple(expected)
    sq = w2 * w2
    image2 = col(sq, c24)
    expected2 = [Fraction(0)] * 6
    expected2[WEDGE_BASIS.index((0, 2))] = Fraction(2)
    assert image2 == tuple(expected2)


def test_kummer_monodromy_zero_and_errors():
    k = kummer_monodromy(RationalOperator.zero(4))
    assert k.wedge.is_zero()
    assert k.dim == 22
    with pytest.raises(NotNilpotent):
        kummer_monodromy(I4)
    jordan3 = elem(0, 1) + elem(1, 2)  # nilpotent but square nonzero
    with pytest.raises(BadSquare):
        kummer_monodromy(jordan3)


def test_nilpotency_index():
    assert nilpotency_index(RationalOperator.zero(4)) == 1
    assert nilpotency_index(kummer_monodromy(standard_N(0))) == 1
    assert nilpotency_index(kummer_monodromy(standard_N(1))) == 2
    assert nilpotency_index(kummer_monodromy(standard_N(2))) == 3
    with pytest.raises(NotNilpotent):
        nilpotency_index(I4)


def test_type_from_index():
    assert type_from_index(1) is KulikovType.I
    assert type_from_index(2) is KulikovType.II
    assert type_from_index(3) is KulikovType.III
    with pytest.raises(InvalidIndex):
        type_from_index(4)
    with pytest.raises(InvalidIndex):
        type_from_index(0)


def test_toric_rank_from_N():
    assert toric_rank_from_N(RationalOperator.zero(4)) == 0
    assert toric_rank_from_N(standard_N(1)) == 1
    rng = random.Random(33)
    for t in (0, 1, 2):
        g, ginv = random_unimodular(rng)
        assert toric_rank_from_N(g * standard_N(t) * ginv) == t
    with pytest.raises(BadSquare):
        toric_rank_from_N(elem(0, 1) + elem(1, 2))
    with pytest.raises(NotNilpotent):
        toric_rank_from_N(I4)


def test_nilpotency_index_conjugation_invariant():
    rng = random.Random(17)
    for t in (0, 1, 2):
        base = nilpotency_index(kummer_monodromy(standard_N(t)))
        for _ in range(20):
            g, ginv = random_unimodular(rng)
            conj = g * standard_N(t) * ginv
            assert nilpotency_index(kummer_monodromy(conj)) == base == t + 1


def test_wedge_square_examples():
    assert wedge_square(I4) == RationalOperator.identity(6)
    assert wedge_square(-I4) == RationalOperator.identity(6)
    diag = RationalOperator([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    w = wedge_square(diag)
    assert [w.entries[i][i] for i in range(6)] == [1, 1, 2, 1, 2, 2]
    assert all(w.entries[i][j] == 0 for i in range(6) for j in range(6) if i != j)


def test_wedge_square_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        f = RationalOperator([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        g = RationalOperator([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        assert wedge_square(f * g) == wedge_square(f) * wedge_square(g)


def test_derivation_rule():
    # log of the wedge-square of exp N equals N∧Id + Id∧N when N² = 0.
    rng = random.Random(8)
    for _ in range(50):
        n = random_square_zero(rng)
        assert (n * n).is_zero()
        lhs = log_unipotent(wedge_square(exp_nilpotent(n)))
        assert lhs == wedge_derivation(n)


def test_unipotent_or_negative():
    assert unipotent_or_negative(I4) == 1
    assert unipotent_or_negative(-I4) == -1
    assert unipotent_or_negative(-(I4 + elem(0, 1))) == -1
    assert unipotent_or_negative(I4 + elem(0, 1)) == 1
    with pytest.raises(HypothesisFailed):
        unipotent_or_negative(RationalOperator([[2, 0, 0, 0], [0, 1, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_sign_consistency_random():
    rng = random.Random(12)
    for _ in range(40):
        u = random_unipotent(rng)
        s = rng.choice((1, -1))
        assert unipotent_or_negative(u.scale(s)) == s


def test_quadratic_twist_character():
    assert quadratic_twist_character([I4, -I4]) == (1, -1)
    assert quadratic_twist_character([-(I4 + elem(0, 1))]) == (-1,)
    assert quadratic_twist_character([I4 + elem(0, 1)]) == (1,)
    # Closed sample: signs multiply along products that appear in the list.
    s1 = I4 + elem(0, 1)
    s2 = -I4
    s3 = s1 * s2
    assert quadratic_twist_character([s1, s2, s3]) == (1, -1, -1)


def test_quadratic_twist_multiplicativity_violation():
    # u, v unipotent with uv of characteristic polynomial (x+1)^4: the sign
    # family on (u, v, uv) cannot be multiplicative.
    u = RationalOperator([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    v = RationalOperator([[1, 0, 0, 0], [-2, 1, 0, 0], [0, 0, 1, 0], [0, 0, -2, 1]])
    prod = u * v
    assert (-prod).is_unipotent()
    with pytest.raises(MultiplicativityError):
        quadratic_twist_character([u, v, prod])


def test_two_torsion_trivial():
    assert two_torsion_trivial(TwoTorsionPermutation.identity())
    swap = list(range(16))
    swap[0], swap[1] = 1, 0
    assert not two_torsion_trivial(TwoTorsionPermutation(tuple(swap)))
    cycle = TwoTorsionPermutation(tuple((i + 1) % 16 for i in range(16)))
    assert not two_torsion_trivial(cycle)


def test_two_torsion_unipotence_equivalence():
    # For permutation matrices, unipotent and identity coincide.
    rng = random.Random(4)
    for _ in range(10):
        perm = list(range(16))
        rng.shuffle(perm)
        p = TwoTorsionPermutation(tuple(perm))
        assert p.matrix().is_unipotent() == (tuple(perm) == tuple(range(16)))


def test_operator_json_round_trip():
    m = RationalOperator([[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0],
                          [0, 0, Fraction(-3, 7), 0], [0, 0, 0, 2]])
    doc = operator_to_json(m)
    assert doc["dim"] == 4
    assert doc["entries"][0][0] == "1/2"
    assert operator_from_json(doc) == m
    assert operator_from_json({"dim": 1, "entries": [[5]]}).entries[0][0] == 5


def test_operator_json_schema_errors():
    with pytest.raises(SchemaError):
        operator_from_json({"dim": 2, "entries": [[1, 0]]})
    with pytest.raises(SchemaError):
        operator_from_json({"dim": 1, "entries": [["x/y"]]})
    with pytest.raises(SchemaError):
        operator_from_json({"entries": [[1]]})


# -- rank and unipotence against independent routes --------------------------------

def fraction_gauss_jordan_rank(op):
    """Rank by Gauss-Jordan over Fractions, independent of the integer core."""
    m = [list(r) for r in op.entries]
    n = op.dim
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


rationals = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_matches_fraction_gauss_jordan(n, k, data):
    # B·C with B n x k and C k x n has rank <= k, so deficient ranks are common.
    b = [[data.draw(rationals) for _ in range(k)] for _ in range(n)]
    c = [[data.draw(rationals) for _ in range(n)] for _ in range(k)]
    op = RationalOperator([[sum(b[i][l] * c[l][j] for l in range(k)) for j in range(n)]
                           for i in range(n)])
    assert op.rank() == fraction_gauss_jordan_rank(op)


def unimodular_pair(data, n):
    """A product of integer shears and its exact inverse."""
    g = ginv = RationalOperator.identity(n)
    for _ in range(data.draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = data.draw(st.permutations(range(n)))[:2]
        c = data.draw(st.integers(-2, 2))
        shear = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)]
                 for r in range(n)]
        inverse = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(n)]
                   for r in range(n)]
        g, ginv = g * RationalOperator(shear), RationalOperator(inverse) * ginv
    return g, ginv


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_is_unipotent_matches_char_poly(n, data):
    # Jordan blocks with one eigenvalue, optionally perturbed in one entry,
    # then conjugated: unipotent and non-unipotent operators both occur.
    eigenvalue = data.draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                            Fraction(1, 2)]))
    rows = [[eigenvalue if r == s else Fraction(0) for s in range(n)] for r in range(n)]
    for r in range(n - 1):
        rows[r][r + 1] = Fraction(data.draw(st.integers(0, 1)))
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] += data.draw(rationals)
    g, ginv = unimodular_pair(data, n)
    op = g * RationalOperator(rows) * ginv
    x_minus_1_to_n = tuple(Fraction((-1) ** k * comb(n, k)) for k in range(n + 1))
    assert op.is_unipotent() == (op.char_poly() == x_minus_1_to_n)
