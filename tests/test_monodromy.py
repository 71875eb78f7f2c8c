import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_kulikov.complexes import KulikovType
from kummer_kulikov.errors import (
    BadSquare,
    HypothesisFailed,
    InvalidIndex,
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
    standard_N,
    two_torsion_trivial,
    type_from_index,
    unipotent_or_negative,
    wedge_derivation,
    wedge_square,
)

from conftest import I4, elem, random_square_zero, random_unimodular, random_unipotent, shear

ZERO4 = RationalOperator([[0] * 4 for _ in range(4)])
JORDAN3 = RationalOperator([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


def test_log_examples():
    assert log_unipotent(I4).is_zero()
    sigma = shear(0, 1, 1)
    assert log_unipotent(sigma) == elem(0, 1)
    sigma2 = RationalOperator([[1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    n = log_unipotent(sigma2)
    assert n == RationalOperator([[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
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
    k = kummer_monodromy(ZERO4)
    assert k.wedge.is_zero()
    assert k.dim == 22
    with pytest.raises(NotNilpotent):
        kummer_monodromy(I4)
    with pytest.raises(BadSquare):  # nilpotent but square nonzero
        kummer_monodromy(JORDAN3)


def test_nilpotency_index():
    assert nilpotency_index(ZERO4) == 1
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
    # The route of ``monodromy``: kummer_monodromy refuses N unless N² = 0,
    # and then rank N is the toric rank.
    def toric_rank(n_op):
        kummer_monodromy(n_op)
        return n_op.rank()

    assert toric_rank(ZERO4) == 0
    assert toric_rank(standard_N(1)) == 1
    rng = random.Random(33)
    for t in (0, 1, 2):
        g, ginv = random_unimodular(rng)
        assert toric_rank(g * standard_N(t) * ginv) == t
    with pytest.raises(BadSquare):
        toric_rank(JORDAN3)
    with pytest.raises(NotNilpotent):
        toric_rank(I4)


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
    assert unipotent_or_negative(-shear(0, 1, 1)) == -1
    assert unipotent_or_negative(shear(0, 1, 1)) == 1
    with pytest.raises(HypothesisFailed):
        unipotent_or_negative(RationalOperator([[2, 0, 0, 0], [0, 1, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_sign_consistency_random():
    rng = random.Random(12)
    for _ in range(40):
        u = random_unipotent(rng)
        s = rng.choice((1, -1))
        assert unipotent_or_negative(u if s == 1 else -u) == s


def test_two_torsion_trivial():
    assert two_torsion_trivial(TwoTorsionPermutation(tuple(range(16))))
    swap = list(range(16))
    swap[0], swap[1] = 1, 0
    assert not two_torsion_trivial(TwoTorsionPermutation(tuple(swap)))
    cycle = TwoTorsionPermutation(tuple((i + 1) % 16 for i in range(16)))
    assert not two_torsion_trivial(cycle)


def test_two_torsion_unipotence_equivalence():
    # For permutation matrices, unipotent and identity coincide, so
    # two_torsion_trivial reads the permutation alone.
    rng = random.Random(4)
    perms = [list(range(16)), [1, 0, *range(2, 16)]]
    for _ in range(10):
        perm = list(range(16))
        rng.shuffle(perm)
        perms.append(perm)
    for perm in perms:
        matrix = RationalOperator([[int(perm[j] == i) for j in range(16)] for i in range(16)])
        identity = tuple(perm) == tuple(range(16))
        assert matrix.is_unipotent() == identity
        assert two_torsion_trivial(TwoTorsionPermutation(tuple(perm))) == identity


def test_operator_json_round_trip():
    m = RationalOperator([[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0],
                          [0, 0, Fraction(-3, 7), 0], [0, 0, 0, 2]])
    doc = {"dim": 4, "entries": [["1/2", "0", "0", "0"], ["0", "1", "0", "0"],
                                 ["0", "0", "-3/7", "0"], ["0", "0", "0", "2"]]}
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


def unimodular_pair(data, n, coefficients=st.integers(-2, 2)):
    """A product of shears, integer unless other coefficients are given, and
    its exact inverse."""
    g = ginv = RationalOperator.identity(n)
    for _ in range(data.draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = data.draw(st.permutations(range(n)))[:2]
        c = data.draw(coefficients)
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


# -- the integer representation against the former Fraction-per-entry one ----------

class FractionOperator:
    """The former representation, one Fraction per entry, kept as a reference."""

    def __init__(self, entries):
        self.entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        self.dim = len(self.entries)

    def __add__(self, other):
        return FractionOperator([[a + b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return FractionOperator([[a - b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return FractionOperator([[-a for a in r] for r in self.entries])

    def scale(self, c):
        return FractionOperator([[Fraction(c) * a for a in r] for r in self.entries])

    def __mul__(self, other):
        cols = list(zip(*other.entries))
        return FractionOperator([[sum((x * y for x, y in zip(r, c)), Fraction(0))
                                  for c in cols] for r in self.entries])

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)

    def trace(self):
        return sum((self.entries[i][i] for i in range(self.dim)), Fraction(0))

    def char_poly(self):
        n = self.dim
        identity = FractionOperator([[int(i == j) for j in range(n)] for i in range(n)])
        coeffs = [Fraction(1)]
        m = FractionOperator([[0] * n for _ in range(n)])
        for k in range(1, n + 1):
            m = self * (m + identity.scale(coeffs[-1]))
            coeffs.append(-m.trace() / k)
        return tuple(coeffs)

    def is_unipotent(self):
        n = self.dim
        s = self - FractionOperator([[int(i == j) for j in range(n)] for i in range(n)])
        power = s
        for _ in range(n - 1):
            power = power * s
        return power.is_zero()

    def wedge_square(self):
        e = self.entries
        return FractionOperator([[e[k][i] * e[l][j] - e[k][j] * e[l][i]
                                  for (i, j) in WEDGE_BASIS] for (k, l) in WEDGE_BASIS])

    def wedge_derivation(self):
        # Column (i, j) is the image of e_i ^ e_j, a bilinear expansion in the basis.
        e = self.entries
        cols = [[Fraction(0)] * 6 for _ in range(6)]
        for ci, (i, j) in enumerate(WEDGE_BASIS):
            for k in range(4):
                if k != j:
                    pos, sign = (WEDGE_BASIS.index((k, j)), 1) if k < j \
                        else (WEDGE_BASIS.index((j, k)), -1)
                    cols[ci][pos] += sign * e[k][i]
            for l in range(4):
                if l != i:
                    pos, sign = (WEDGE_BASIS.index((i, l)), 1) if i < l \
                        else (WEDGE_BASIS.index((l, i)), -1)
                    cols[ci][pos] += sign * e[l][j]
        return FractionOperator([[cols[c][r] for c in range(6)] for r in range(6)])


small_rationals = st.one_of(st.just(Fraction(0)),
                            st.fractions(min_value=-6, max_value=6, max_denominator=12))
nonzero_rationals = small_rationals.filter(lambda x: x != 0)


@st.composite
def rational_rows(draw, n):
    """An n x n matrix of rationals with some zero rows and zero columns, each
    entry given to the constructor as an int (when integral), a Fraction or a
    "p/q" string."""
    rows = [[draw(small_rationals) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if draw(st.integers(0, 3)) == 0:
            rows[i] = [Fraction(0)] * n
    for j in range(n):
        if draw(st.integers(0, 3)) == 0:
            for r in rows:
                r[j] = Fraction(0)
    as_input = draw(st.sampled_from([Fraction, str, lambda x: int(x) if x.denominator == 1
                                     else x]))
    return [[as_input(x) for x in r] for r in rows]


def assert_canonical(op):
    assert op.den > 0
    assert all(type(x) is int for r in op.num for x in r)
    assert gcd(op.den, *(x for r in op.num for x in r)) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_operator_matches_fraction_per_entry_reference(n, data):
    a_rows, b_rows = data.draw(rational_rows(n)), data.draw(rational_rows(n))
    a, b = RationalOperator(a_rows), RationalOperator(b_rows)
    ra, rb = FractionOperator(a_rows), FractionOperator(b_rows)
    c = data.draw(nonzero_rationals)
    assert a.entries == ra.entries
    assert_canonical(a)
    for new, ref in [(a * b, ra * rb), (-a, -ra)]:
        assert new.entries == ref.entries
        assert new.is_zero() == ref.is_zero()
        assert_canonical(new)
    assert a.rank() == fraction_gauss_jordan_rank(ra)
    assert a.char_poly() == ra.char_poly()
    assert a.is_unipotent() == ra.is_unipotent()
    # The identity plus the strictly upper part of A is unipotent.
    upper = [[Fraction(int(i == j)) if i >= j else x for j, x in enumerate(r)]
             for i, r in enumerate(ra.entries)]
    assert RationalOperator(upper).is_unipotent() and FractionOperator(upper).is_unipotent()
    # Equal operators have one form: scaling there and back gives A, hash and all.
    scaled = RationalOperator([[c * x for x in r] for r in a.entries])
    back = RationalOperator([[x / c for x in r] for r in scaled.entries])
    assert back == a and hash(back) == hash(a)
    assert (back.num, back.den) == (a.num, a.den)


def test_products_that_cancel_or_are_empty_match_the_reference():
    # Row 0 of A meets every column of B in a sum that cancels to 0, though
    # no row of A and no column of B is zero; the other rows do not cancel.
    a_rows = [[1, 1, 0], [Fraction(1, 2), 0, 3], [0, 2, -1]]
    b_rows = [[1, 2, 3], [-1, -2, -3], [4, Fraction(1, 3), 0]]
    # Every row of C cancels, so the product is 0, in the canonical form 0/1.
    c_rows = [[1, -1], [Fraction(2, 3), Fraction(-2, 3)]]
    d_rows = [[1, 3], [1, 3]]
    for left, right in [(a_rows, b_rows), (c_rows, d_rows), ([], [])]:
        new = RationalOperator(left) * RationalOperator(right)
        ref = FractionOperator(left) * FractionOperator(right)
        assert new.entries == ref.entries
        assert new.is_zero() == ref.is_zero()
        assert_canonical(new)
    assert RationalOperator(c_rows) * RationalOperator(d_rows) == RationalOperator([[0, 0], [0, 0]])
    empty = RationalOperator([]) * RationalOperator([])
    assert (empty.dim, empty.num, empty.den) == (0, (), 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        RationalOperator([]) * RationalOperator([[1]])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wedges_match_fraction_per_entry_reference(data):
    rows = data.draw(rational_rows(4))
    f, ref = RationalOperator(rows), FractionOperator(rows)
    for new, old in [(wedge_square(f), ref.wedge_square()),
                     (wedge_derivation(f), ref.wedge_derivation())]:
        assert new.entries == old.entries
        assert_canonical(new)


# -- log, exp and the index against term-by-term series ----------------------------

def reference_identity(n):
    return FractionOperator([[int(i == j) for j in range(n)] for i in range(n)])


def reference_powers(m, error):
    """The terms M, M², ..., M^(dim-1) of a full series, zero or not; raises
    error unless M^dim = 0."""
    powers = [m]
    while len(powers) < m.dim:
        powers.append(powers[-1] * m)
    if not powers[-1].is_zero():
        raise error
    return powers[:-1]


def reference_index(m):
    power = m
    for k in range(1, m.dim + 1):
        if power.is_zero():
            return k
        power = power * m
    raise NotNilpotent


def reference_log(sigma):
    out = FractionOperator([[0] * sigma.dim for _ in range(sigma.dim)])
    s = sigma - reference_identity(sigma.dim)
    for m, power in enumerate(reference_powers(s, NotUnipotent), start=1):
        out = out + power.scale(Fraction((-1) ** (m + 1), m))
    return out


def reference_exp(n_op):
    out = reference_identity(n_op.dim)
    for k, power in enumerate(reference_powers(n_op, NotNilpotent), start=1):
        out = out + power.scale(Fraction(1, factorial(k)))
    return out


def outcome(f, op):
    """f(op) as a comparable value: the entries, the integer, or the exception class."""
    try:
        value = f(op)
    except (NotNilpotent, NotUnipotent) as exc:
        return type(exc)
    return value if isinstance(value, int) else value.entries


@st.composite
def power_sequence_operators(draw):
    """M from four families: strictly upper triangular (nilpotent of any
    index), a single Jordan block of full index, and a one-entry perturbation
    of a Jordan block that is not nilpotent (the corner entry makes M^n a
    nonzero multiple of Id, a diagonal entry gives a nonzero trace), each of
    dimension 1-8 and conjugated by a product of rational shears; and a
    strictly upper triangular M of dimension 1-16 relabelled by a signed
    permutation, so that the zero rows and columns of its powers are spread
    over the matrix instead of gathered at one end."""
    family = draw(st.sampled_from(["upper", "jordan", "perturbed", "relabelled"]))
    n = draw(st.integers(1, 16 if family == "relabelled" else 8))
    if family in ("upper", "relabelled"):
        rows = [[draw(small_rationals) if i < j else Fraction(0) for j in range(n)]
                for i in range(n)]
    else:
        rows = [[draw(nonzero_rationals) if j == i + 1 else Fraction(0) for j in range(n)]
                for i in range(n)]
        if family == "perturbed":
            i, j = draw(st.sampled_from([(n - 1, 0)] + [(k, k) for k in range(n)]))
            rows[i][j] += draw(nonzero_rationals)
    if family == "relabelled":
        order = draw(st.permutations(range(n)))
        signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
        return RationalOperator([[signs[i] * signs[j] * rows[order[i]][order[j]]
                                  for j in range(n)] for i in range(n)])
    g, ginv = unimodular_pair(draw(st.data()), n, small_rationals)
    return g * RationalOperator(rows) * ginv


@settings(max_examples=150, deadline=None)
@given(power_sequence_operators())
def test_log_exp_and_index_match_term_by_term_series(m):
    ref = FractionOperator(m.entries)
    ref_sigma = ref + reference_identity(m.dim)
    sigma = RationalOperator(ref_sigma.entries)
    assert outcome(nilpotency_index, m) == outcome(reference_index, ref)
    assert outcome(exp_nilpotent, m) == outcome(reference_exp, ref)
    assert outcome(log_unipotent, sigma) == outcome(reference_log, ref_sigma)
    if ref_sigma.is_unipotent():
        assert exp_nilpotent(log_unipotent(sigma)) == sigma
