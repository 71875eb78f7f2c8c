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

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .complexes import KulikovType
from .errors import (
    BadSquare,
    ConsistencyError,
    HypothesisFailed,
    InvalidIndex,
    NotNilpotent,
    NotUnipotent,
    SchemaError,
    UnsupportedRank,
)
from .lattice import IntMatrix

# Lexicographic basis of the wedge square of a 4-space, fixed once:
# e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4.
WEDGE_BASIS: tuple[tuple[int, int], ...] = tuple(combinations(range(4), 2))
_WEDGE_POS = {p: i for i, p in enumerate(WEDGE_BASIS)}


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

    @staticmethod
    def zero(n: int) -> "RationalOperator":
        return RationalOperator._reduced([[0] * n for _ in range(n)], 1)

    def __add__(self, other: "RationalOperator") -> "RationalOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return RationalOperator._reduced([[a * x + b * y for x, y in zip(r1, r2)]
                                          for r1, r2 in zip(self.num, other.num)], den)

    def __sub__(self, other: "RationalOperator") -> "RationalOperator":
        return self + -other

    def __neg__(self) -> "RationalOperator":
        return RationalOperator._reduced([[-x for x in r] for r in self.num], self.den)

    def scale(self, c) -> "RationalOperator":
        c = Fraction(c)
        return RationalOperator._reduced([[c.numerator * x for x in r] for r in self.num],
                                         c.denominator * self.den)

    def __mul__(self, other: "RationalOperator") -> "RationalOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.num))
        return RationalOperator._reduced([[sum(map(mul, r, c)) for c in cols]
                                          for r in self.num], self.den * other.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def trace(self) -> Fraction:
        return Fraction(sum(self.num[i][i] for i in range(self.dim)), self.den)

    def char_poly(self) -> tuple[Fraction, ...]:
        """Coefficients (1, c1, ..., cn) of x^n + c1 x^(n-1) + ... + cn,
        by the Faddeev-LeVerrier recursion (exact)."""
        n = self.dim
        coeffs = [Fraction(1)]
        m = RationalOperator.zero(n)
        for k in range(1, n + 1):
            m = self * (m + RationalOperator.identity(n).scale(coeffs[-1]))
            coeffs.append(-m.trace() / k)
        return tuple(coeffs)

    def is_unipotent(self) -> bool:
        """Characteristic polynomial equals (x - 1)^n, decided as (σ - 1)^n = 0.

        Cayley-Hamilton gives (σ - 1)^n = 0 from the polynomial; conversely
        the minimal polynomial then divides (x - 1)^n, so 1 is the only
        eigenvalue and the characteristic polynomial is (x - 1)^n."""
        return _is_nilpotent(self - RationalOperator.identity(self.dim))

    def rank(self) -> int:
        """Rank over Q: that of the numerators, since den is a nonzero scalar."""
        return IntMatrix(self.num, shape=(self.dim, self.dim)).rank()

    def __eq__(self, other) -> bool:
        same_type = isinstance(other, RationalOperator)
        return same_type and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalOperator({[list(map(str, r)) for r in self.entries]!r})"


def _is_nilpotent(m: RationalOperator) -> bool:
    """M^dim = 0, by squaring: the index of a nilpotent operator is at most dim."""
    exponent = 1
    while not m.is_zero():
        if exponent >= m.dim:
            return False
        m, exponent = m * m, 2 * exponent
    return True


def log_unipotent(sigma: RationalOperator) -> RationalOperator:
    """N = log σ = Σ (-1)^(m+1)/m (σ-1)^m; the series terminates because
    σ - 1 is nilpotent.  When (σ-1)² = 0 this reduces to N = σ - 1."""
    if not sigma.is_unipotent():
        raise NotUnipotent("characteristic polynomial is not (x-1)^n")
    n = sigma.dim
    s = sigma - RationalOperator.identity(n)
    out = RationalOperator.zero(n)
    term = RationalOperator.identity(n)
    for m in range(1, n):
        term = term * s
        if term.is_zero():
            break
        out = out + term.scale(Fraction((-1) ** (m + 1), m))
    return out


def exp_nilpotent(n_op: RationalOperator) -> RationalOperator:
    """exp of a nilpotent operator; exact inverse of log_unipotent."""
    if not _is_nilpotent(n_op):
        raise NotNilpotent("operator is not nilpotent")
    n = n_op.dim
    out = RationalOperator.identity(n)
    term = RationalOperator.identity(n)
    for k in range(1, n):
        term = term * n_op
        if term.is_zero():
            break
        out = out + term.scale(Fraction(1, factorial(k)))
    return out


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
    """N∧Id + Id∧N on the lexicographic wedge basis."""
    if n_op.dim != 4:
        raise ValueError("wedge_derivation expects a 4x4 operator")
    e = n_op.num
    cols = [[0] * 6 for _ in range(6)]
    for ci, (i, j) in enumerate(WEDGE_BASIS):
        # image of e_i ^ e_j: sum_k e[k][i] e_k ^ e_j + sum_l e[l][j] e_i ^ e_l
        for k in range(4):
            if e[k][i] != 0 and k != j:
                (a, b), sign = ((k, j), 1) if k < j else ((j, k), -1)
                cols[ci][_WEDGE_POS[(a, b)]] += sign * e[k][i]
        for l in range(4):
            if e[l][j] != 0 and l != i:
                (a, b), sign = ((i, l), 1) if i < l else ((l, i), -1)
                cols[ci][_WEDGE_POS[(a, b)]] += sign * e[l][j]
    return RationalOperator._reduced(list(zip(*cols)), n_op.den)


@dataclass(frozen=True)
class KummerOperator:
    """The 22-dimensional monodromy operator on wedge-square ⊕ 2-torsion part.

    Stored block-structured: the 6x6 derivation block plus an implicit zero
    block of dimension 16 (the Galois action on the 2-torsion part of a
    semistable Kummer degeneration is trivial)."""

    wedge: RationalOperator
    torsion_dim: int = 16

    @property
    def dim(self) -> int:
        return self.wedge.dim + self.torsion_dim


def kummer_monodromy(n_op: RationalOperator) -> KummerOperator:
    """N_X = (N∧Id + Id∧N) ⊕ 0 for a 4x4 monodromy operator N with N² = 0."""
    if n_op.dim != 4:
        raise ValueError("kummer_monodromy expects a 4x4 operator")
    if not _is_nilpotent(n_op):
        raise NotNilpotent("monodromy operator must be nilpotent")
    if not (n_op * n_op).is_zero():
        raise BadSquare("semiabelian monodromy satisfies N² = 0")
    return KummerOperator(wedge_derivation(n_op))


def nilpotency_index(m) -> int:
    """Smallest m >= 1 with M^m = 0 (convention M^0 = Id)."""
    if isinstance(m, KummerOperator):
        m = m.wedge  # the zero block contributes nothing to powers
    if not isinstance(m, RationalOperator):
        raise TypeError("expected a RationalOperator or KummerOperator")
    power = m
    for k in range(1, m.dim + 1):
        if power.is_zero():
            return k
        power = power * m
    raise NotNilpotent(f"no power up to {m.dim} vanishes")


def type_from_index(m: int) -> KulikovType:
    """Nilpotency index 1, 2, 3 of N_X corresponds to type I, II, III."""
    mapping = {1: KulikovType.I, 2: KulikovType.II, 3: KulikovType.III}
    if m not in mapping:
        raise InvalidIndex(f"nilpotency index must be 1, 2 or 3, got {m}")
    return mapping[m]


def toric_rank_from_N(n_op: RationalOperator) -> int:
    """rank_Q N; equals the toric rank for semiabelian monodromy."""
    if not _is_nilpotent(n_op):
        raise NotNilpotent("operator is not nilpotent")
    if not (n_op * n_op).is_zero():
        raise BadSquare("semiabelian monodromy satisfies N² = 0")
    return n_op.rank()


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


@dataclass(frozen=True)
class TwoTorsionPermutation:
    """Permutation of the sixteen 2-torsion points, stored 0-based."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(x) for x in self.mapping)
        object.__setattr__(self, "mapping", m)
        if sorted(m) != list(range(16)):
            raise ValueError("mapping must be a bijection of 16 labels")

    @staticmethod
    def identity() -> "TwoTorsionPermutation":
        return TwoTorsionPermutation(tuple(range(16)))

    def matrix(self) -> RationalOperator:
        rows = [[0] * 16 for _ in range(16)]
        for j, i in enumerate(self.mapping):
            rows[i][j] = 1
        return RationalOperator(rows)


def two_torsion_trivial(p: TwoTorsionPermutation) -> bool:
    """True iff the permutation matrix is unipotent, i.e. p is the identity.

    Both routes are computed and asserted to agree: a permutation matrix has
    finite order, so unipotence forces it to be the identity."""
    is_id = p.mapping == tuple(range(16))
    unip = p.matrix().is_unipotent()
    if is_id != unip:
        raise ConsistencyError("unipotence and identity checks disagree")
    return is_id


# -- JSON documents ---------------------------------------------------------------
#
# Matrix document: {"dim": n, "entries": [[rational strings "p/q"]]}


def operator_to_json(m: RationalOperator) -> dict:
    return {"dim": m.dim, "entries": [[str(x) for x in row] for row in m.entries]}


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
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise SchemaError(f"matrix entries must be integers or 'p/q' strings, got {x!r}")
            try:
                row.append(Fraction(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad rational {x!r}: {exc}") from exc
        rows.append(row)
    return RationalOperator(rows)
