"""Exact-rational monodromy operators and the Kummer monodromy formula.

The operators in play are all defined over Q: the monodromy N = log σ on
the degree-1 cohomology of an abelian surface (4-dimensional, N² = 0), its
wedge-square derivation N∧Id + Id∧N (6-dimensional), the permutation action
on the sixteen 2-torsion points, and the resulting 22-dimensional operator

    N_X = (N∧Id + Id∧N) ⊕ 0

on wedge-square ⊕ (16-dim permutation part).  The nilpotency index of N_X
(1, 2 or 3) determines the degeneration type.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain, combinations
from math import factorial, gcd, lcm
from operator import mul

from .complexes import KulikovType
from .errors import (
    BadSquare,
    HypothesisFailed,
    InvalidIndex,
    NotNilpotent,
    NotUnipotent,
    SchemaError,
    UnsupportedRank,
)
from .lattice import rank as matrix_rank

# Lexicographic basis of the wedge square of a 4-space, fixed once:
# e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4.
WEDGE_BASIS: tuple[tuple[int, int], ...] = tuple(combinations(range(4), 2))


class RationalOperator:
    """Immutable square matrix of exact rationals acting on column vectors.

    Stored as integer numerators ``num`` over one denominator ``den > 0`` with
    gcd(den, every numerator) = 1.  That form is unique, so equality and hashing
    compare (num, den), and arithmetic is integer arithmetic plus one gcd."""

    __slots__ = ("dim", "num", "den")

    def __init__(self, entries: Iterable[Iterable]):
        rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
                for row in entries]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("operator matrix must be square")
        den = lcm(*(x.denominator for r in rows for x in r))
        self._store([[x.numerator * (den // x.denominator) for x in r] for r in rows], den)

    @staticmethod
    def _reduced(num, den: int) -> "RationalOperator":
        """The operator num/den (integers, den > 0) in lowest terms."""
        op = object.__new__(RationalOperator)
        op._store(num, den)
        return op

    def _store(self, num, den: int) -> None:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num, den = [[x // g for x in r] for r in num], den // g
        object.__setattr__(self, "dim", len(num))
        object.__setattr__(self, "num", tuple(map(tuple, num)))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalOperator is immutable")

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.num)

    @staticmethod
    def identity(n: int) -> "RationalOperator":
        return RationalOperator._reduced([[int(i == j) for j in range(n)] for i in range(n)], 1)

    def __neg__(self) -> "RationalOperator":
        return RationalOperator._reduced([[-x for x in r] for r in self.num], self.den)

    def __mul__(self, other: "RationalOperator") -> "RationalOperator":
        """The product.  A zero row of self gives a zero row and a zero column
        of other a zero column, so only the other dot products are formed; the
        power M^k of a nilpotent M has at least k zero rows and k zero columns."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = [c if any(c) else None for c in zip(*other.num)]
        zero = [0] * self.dim
        return RationalOperator._reduced(
            [[sum(map(mul, r, c)) if c else 0 for c in cols] if any(r) else zero
             for r in self.num], self.den * other.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def char_poly(self) -> tuple[Fraction, ...]:
        """Coefficients (1, c1, ..., cn) of x^n + c1 x^(n-1) + ... + cn,
        by the Faddeev-LeVerrier recursion M_k = A·(M_(k-1) + c_(k-1)·Id),
        c_k = -tr(M_k)/k (exact).  For A = num/den it runs on the numerators:
        P_k = M_k·den^k and C_k = c_k·den^k are the recursion's terms for the
        integer matrix num, and each C_k, a coefficient of its characteristic
        polynomial, is an integer."""
        n = self.dim
        coeffs, p = [1], [[0] * n for _ in range(n)]
        for k in range(1, n + 1):
            shifted = [[x + coeffs[-1] * (i == j) for j, x in enumerate(r)]
                       for i, r in enumerate(p)]
            p = [[sum(map(mul, r, c)) for c in zip(*shifted)] for r in self.num]
            coeffs.append(-sum(p[i][i] for i in range(n)) // k)
        return tuple(Fraction(c, self.den ** k) for k, c in enumerate(coeffs))

    def is_unipotent(self) -> bool:
        """Characteristic polynomial equals (x - 1)^n, decided as (σ - 1)^n = 0.

        Cayley-Hamilton gives (σ - 1)^n = 0 from the polynomial; conversely
        the minimal polynomial then divides (x - 1)^n, so 1 is the only
        eigenvalue and the characteristic polynomial is (x - 1)^n."""
        return _is_nilpotent(_minus_identity(self))

    def rank(self) -> int:
        """Rank over Q: that of the numerators, since den is a nonzero scalar."""
        return matrix_rank(self.num)

    def __eq__(self, other) -> bool:
        same_type = isinstance(other, RationalOperator)
        return same_type and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalOperator({[list(map(str, r)) for r in self.entries]!r})"


def _is_nilpotent(m: RationalOperator) -> bool:
    """M^dim = 0, by squaring: the index of a nilpotent operator is at most dim."""
    # Squaring, not ``_powers``: at most ⌈log2 dim⌉ products instead of up to dim − 1.
    exponent = 1
    while not m.is_zero():
        if exponent >= m.dim:
            return False
        m, exponent = m * m, 2 * exponent
    return True


def _minus_identity(m: RationalOperator) -> RationalOperator:
    """M - Id, formed on the numerators by subtracting den on the diagonal."""
    return RationalOperator._reduced([[x - m.den * (i == j) for j, x in enumerate(r)]
                                      for i, r in enumerate(m.num)], m.den)


def _powers(m: RationalOperator) -> list[RationalOperator] | None:
    """The nonzero powers M, M², ..., M^(k-1) for the nilpotency index k <= dim,
    or None when M^dim != 0.  At most dim - 1 products; M^(dim+1) is never formed."""
    powers, power = [], m
    while not power.is_zero():
        if len(powers) == m.dim - 1:  # power is M^dim
            return None
        powers.append(power)
        power = power * m
    return powers


def _series(n: int, constant: int, divisors: list[int], powers: list) -> RationalOperator:
    """constant·Id + Σ powers[i] / divisors[i], summed on the numerators over one
    common denominator L·den with the integer coefficients L / divisors[i];
    a zero row of a power adds nothing and is passed over."""
    L, den = lcm(*divisors), lcm(*(p.den for p in powers))
    rows = [[constant * L * den * (i == j) for j in range(n)] for i in range(n)]
    for d, p in zip(divisors, powers):
        w = L // d * (den // p.den)
        rows = [[x + w * y for x, y in zip(r, pr)] if any(pr) else r
                for r, pr in zip(rows, p.num)]
    return RationalOperator._reduced(rows, L * den)


def log_unipotent(sigma: RationalOperator) -> RationalOperator:
    """N = log σ = Σ (-1)^(m+1)/m (σ-1)^m; the series terminates because
    σ - 1 is nilpotent.  When (σ-1)² = 0 this reduces to N = σ - 1."""
    powers = _powers(_minus_identity(sigma))
    if powers is None:
        raise NotUnipotent("characteristic polynomial is not (x-1)^n")
    return _series(sigma.dim, 0, [(-1) ** (m + 1) * m for m in range(1, len(powers) + 1)], powers)


def exp_nilpotent(n_op: RationalOperator) -> RationalOperator:
    """exp of a nilpotent operator; exact inverse of log_unipotent."""
    powers = _powers(n_op)
    if powers is None:
        raise NotNilpotent("operator is not nilpotent")
    return _series(n_op.dim, 1, [factorial(k) for k in range(1, len(powers) + 1)], powers)


def standard_N(t: int) -> RationalOperator:
    """Model monodromy operator of toric rank t: t Jordan blocks of size 2
    (N e2 = e1 and, for t = 2, N e4 = e3), so N² = 0 and rank N = t."""
    if t not in (0, 1, 2):
        raise UnsupportedRank(f"toric rank {t} does not occur for abelian surfaces")
    rows = [[0] * 4 for _ in range(4)]
    if t >= 1:
        rows[0][1] = 1
    if t == 2:
        rows[2][3] = 1
    return RationalOperator(rows)


def wedge_square(f: RationalOperator) -> RationalOperator:
    """Matrix of ∧²f on the lexicographic basis; entries are 2x2 minors."""
    if f.dim != 4:
        raise ValueError("wedge_square expects a 4x4 operator")
    e = f.num
    rows = [[e[k][i] * e[l][j] - e[k][j] * e[l][i] for (i, j) in WEDGE_BASIS]
            for (k, l) in WEDGE_BASIS]
    return RationalOperator._reduced(rows, f.den ** 2)


def wedge_derivation(n_op: RationalOperator) -> RationalOperator:
    """N∧Id + Id∧N on the lexicographic wedge basis: the ε-coefficient of
    ∧²(Id + εN), whose entries are the 2x2 minors of ``wedge_square``, so the
    entry at row (k, l) and column (i, j) is
    N_ki·δ_lj + δ_ki·N_lj − N_kj·δ_li − δ_kj·N_li."""
    if n_op.dim != 4:
        raise ValueError("wedge_derivation expects a 4x4 operator")
    e = n_op.num
    rows = [[e[k][i] * (l == j) + (k == i) * e[l][j] - e[k][j] * (l == i) - (k == j) * e[l][i]
             for (i, j) in WEDGE_BASIS] for (k, l) in WEDGE_BASIS]
    return RationalOperator._reduced(rows, n_op.den)


class KummerOperator(namedtuple("KummerOperator", "wedge")):
    """The 22-dimensional monodromy operator on wedge-square ⊕ 2-torsion part.

    Stored block-structured: the 6x6 derivation block plus an implicit zero
    block of dimension 16 (the Galois action on the 2-torsion part of a
    semistable Kummer degeneration is trivial)."""

    __slots__ = ()
    torsion_dim = 16

    @property
    def dim(self) -> int:
        return self.wedge.dim + self.torsion_dim


def kummer_monodromy(n_op: RationalOperator) -> KummerOperator:
    """N_X = (N∧Id + Id∧N) ⊕ 0 for a 4x4 monodromy operator N with N² = 0."""
    if n_op.dim != 4:
        raise ValueError("kummer_monodromy expects a 4x4 operator")
    _require_square_zero(n_op)
    return KummerOperator(wedge_derivation(n_op))


def _require_square_zero(n_op: RationalOperator) -> None:
    """Raise NotNilpotent, else BadSquare, unless N² = 0; N is nilpotent iff N² is."""
    square = n_op * n_op
    if not square.is_zero():
        if not _is_nilpotent(square):
            raise NotNilpotent("operator is not nilpotent")
        raise BadSquare("semiabelian monodromy satisfies N² = 0")


def nilpotency_index(m) -> int:
    """Smallest m >= 1 with M^m = 0 (convention M^0 = Id)."""
    if isinstance(m, KummerOperator):
        m = m.wedge  # the zero block contributes nothing to powers
    if not isinstance(m, RationalOperator):
        raise TypeError("expected a RationalOperator or KummerOperator")
    powers = _powers(m)
    if powers is None:
        raise NotNilpotent(f"no power up to {m.dim} vanishes")
    return len(powers) + 1


def type_from_index(m: int) -> KulikovType:
    """Nilpotency index 1, 2, 3 of N_X corresponds to type I, II, III."""
    mapping = {1: KulikovType.I, 2: KulikovType.II, 3: KulikovType.III}
    if m not in mapping:
        raise InvalidIndex(f"nilpotency index must be 1, 2 or 3, got {m}")
    return mapping[m]


def unipotent_or_negative(f: RationalOperator) -> int:
    """Given ∧²f unipotent, return the sign s with s·f unipotent.

    Exactly one sign works: all eigenvalues of f are equal to a common
    ±1 once the pairwise products are 1."""
    if f.dim != 4:
        raise ValueError("unipotent_or_negative expects a 4x4 operator")
    if not wedge_square(f).is_unipotent():
        raise HypothesisFailed("∧²f is not unipotent; the dichotomy does not apply")
    if f.is_unipotent():
        return 1
    if (-f).is_unipotent():
        return -1
    raise HypothesisFailed("neither f nor -f is unipotent despite unipotent ∧²f")


class TwoTorsionPermutation(namedtuple("TwoTorsionPermutation", "mapping")):
    """Permutation of the sixteen 2-torsion points, stored 0-based."""

    __slots__ = ()

    def __new__(cls, mapping: Iterable[int]):
        m = tuple(int(x) for x in mapping)
        if sorted(m) != list(range(16)):
            raise ValueError("mapping must be a bijection of 16 labels")
        return super().__new__(cls, m)


def two_torsion_trivial(p: TwoTorsionPermutation) -> bool:
    """True iff p acts trivially, read off the permutation: p is the identity.

    That is the same as its 16x16 permutation matrix being unipotent, since
    a permutation matrix has finite order and a unipotent matrix of finite
    order over Q is the identity; a test checks that equivalence."""
    return p.mapping == tuple(range(16))


# -- JSON documents ---------------------------------------------------------------
#
# Matrix document: {"dim": n, "entries": [[rational strings "p/q"]]}
# A string must be "p" or "p/q", signed or not: Fraction alone would also
# read "1e100000000", and build its 10^8-digit integer first.
_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def operator_from_json(doc: Mapping) -> RationalOperator:
    if not isinstance(doc, Mapping):
        raise SchemaError("matrix document must be a JSON object")
    n = doc.get("dim")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SchemaError("field 'dim' must be a nonnegative integer")
    raw = doc.get("entries")
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in raw)):
        raise SchemaError(f"field 'entries' must be an {n}x{n} array")
    rows = []
    for r in raw:
        row = []
        for x in r:
            if isinstance(x, bool) or not isinstance(x, (int, str)) or (
                    isinstance(x, str) and not _RATIONAL.fullmatch(x)):
                raise SchemaError(f"matrix entries must be integers or 'p/q' strings, got {x!r}")
            if isinstance(x, str):  # a JSON integer is kept as an int
                try:
                    x = Fraction(x)
                except (ValueError, ZeroDivisionError) as exc:
                    raise SchemaError(f"bad rational {x!r}: {exc}") from exc
            row.append(x)
        rows.append(row)
    return RationalOperator(rows)
