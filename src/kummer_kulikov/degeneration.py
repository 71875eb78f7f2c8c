"""Split degeneration data of abelian surfaces and the Y⋊H action.

A degeneration datum is the combinatorial tuple (X, Y, φ, a, b): two rank-t
lattices (t = toric rank, here 0, 1 or 2), an injective map φ: Y → X, a
bilinear pairing b: Y × X → Z whose composite with φ is symmetric positive
definite, and a quadratic function a: Y → Z tied to b by

    a(y + y') - a(y) - a(y') = b(y, φ(y')).

Since that identity determines a from its values on a basis, only those t
integers are stored.  The group Γ = Y ⋊ {±1} acts on X^v ⊕ Z by

    S_(y,h)(l, s) = (h·l + s·b(y,-), s),

which is the combinatorial shadow of the translation/inversion action on a
degenerating abelian surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvalidScale, SchemaError, UnsupportedRank
from .lattice import IntMatrix, leading_principal_minors


@dataclass(frozen=True)
class DegenerationData:
    """The tuple (X, Y, φ, a, b) with X = Y = Z^rank.

    b.entries[i][j] = b(e_i^Y, e_j^X); phi is the matrix of φ (columns are
    images of basis vectors); a_basis[i] = a(e_i^Y).
    """

    rank: int
    phi: IntMatrix
    b: IntMatrix
    a_basis: tuple[int, ...]

    def __post_init__(self):
        t = self.rank
        if t < 0:
            raise SchemaError("rank must be nonnegative")
        if t > 2:
            raise UnsupportedRank(f"toric rank {t} does not occur for abelian surfaces")
        for name, m in (("phi", self.phi), ("b", self.b)):
            if m.rows != t or m.cols != t:
                raise SchemaError(f"{name} must be {t}x{t}, got {m.rows}x{m.cols}")
        if len(self.a_basis) != t:
            raise SchemaError(f"a_basis must have length {t}")
        object.__setattr__(self, "a_basis", tuple(int(x) for x in self.a_basis))

    def pairing_matrix(self) -> IntMatrix:
        """Matrix of (y, y') -> b(y, φ(y')), i.e. b·phi."""
        return self.b.mul(self.phi)


@dataclass(frozen=True)
class GammaElement:
    """Element (y, h) of Γ = Y ⋊ H with H = {Id, [-1]} recorded as h = ±1."""

    y: tuple[int, ...]
    h: int = 1

    def __post_init__(self):
        if self.h not in (1, -1):
            raise ValueError("h must be +1 or -1")
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))


@dataclass(frozen=True)
class ConePoint:
    """Point (l, s) of X^v ⊕ Z; s is the height, s = 0 only at the apex."""

    l: tuple[int, ...]
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("height must be nonnegative")
        object.__setattr__(self, "l", tuple(int(v) for v in self.l))


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AxiomCheck, ...]
    h_invariant: bool

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def validate(d: DegenerationData) -> ValidationReport:
    """Check the category axioms; failures are report entries, not exceptions."""
    t = d.rank
    m = d.pairing_matrix()

    inj = t == 0 or d.phi.det() != 0
    checks = [AxiomCheck("phi_injective", inj,
                         "det(phi) != 0" if inj else "det(phi) = 0")]

    sym = m == m.transpose()
    checks.append(AxiomCheck("pairing_symmetric", sym,
                             "b(-, phi(-)) symmetric" if sym else "pairing matrix is asymmetric"))

    minors = leading_principal_minors(m)
    pd = all(x > 0 for x in minors)
    checks.append(AxiomCheck("pairing_positive_definite", pd,
                             f"leading principal minors {minors}"))

    # a_value is an integer for every y (C(y_i, 2), y_i·y_j and y_i·a_i are),
    # and expanding it gives
    #   a(y + y') - a(y) - a(y') = sum_i y_i y'_i M_ii
    #                              + sum_{i<j} (y_i y'_j + y'_i y_j) M_ij,
    # which equals y^T M y' for all y, y' iff M_ij = M_ji.  So any integer
    # basis values extend exactly when the pairing is symmetric (at t = 0 the
    # empty pairing is).
    integral = sym
    checks.append(AxiomCheck("a_integral", integral,
                             "quadratic identity extends a integrally" if integral
                             else "quadratic identity fails (a has no integral extension)"))

    return ValidationReport(tuple(checks), h_invariance_check(d))


def a_value(d: DegenerationData, y: Sequence[int]) -> int:
    """The unique extension of a_basis satisfying the quadratic identity.

    a(y) = sum_{i<j} y_i y_j M_ij + sum_i C(y_i, 2) M_ii + sum_i y_i a_i
    with M the pairing matrix; in particular a(0) = 0.
    """
    t = d.rank
    yv = tuple(int(v) for v in y)
    if len(yv) != t:
        raise ValueError(f"expected a vector of length {t}")
    m = d.pairing_matrix().entries
    total = 0
    for i in range(t):
        total += yv[i] * (yv[i] - 1) // 2 * m[i][i] + yv[i] * d.a_basis[i]
        for j in range(i + 1, t):
            total += yv[i] * yv[j] * m[i][j]
    return total


def b_row(d: DegenerationData, y: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of the functional b(y, -) in X^v."""
    t = d.rank
    return tuple(sum(y[i] * d.b.entries[i][j] for i in range(t)) for j in range(t))


def gamma_act(d: DegenerationData, g: GammaElement, p: ConePoint) -> ConePoint:
    """S_(y,h)(l, s) = (h·l + s·b(y,-), s); the height is preserved."""
    lam = b_row(d, g.y)
    return ConePoint(tuple(g.h * a + p.s * lb for a, lb in zip(p.l, lam)), p.s)


def is_even(d: DegenerationData) -> bool:
    """True iff b(y, ξ) is even for all y, ξ, i.e. every entry of b is even."""
    return all(x % 2 == 0 for row in d.b.entries for x in row)


def base_change(d: DegenerationData, nu: int) -> DegenerationData:
    """Data after a base extension of ramification index nu: (X, Y, φ, ν·a, ν·b)."""
    if nu < 1:
        raise InvalidScale(f"ramification index must be >= 1, got {nu}")
    return DegenerationData(
        rank=d.rank,
        phi=d.phi,
        b=IntMatrix([[nu * x for x in row] for row in d.b.entries], shape=(d.rank, d.rank)),
        a_basis=tuple(nu * x for x in d.a_basis),
    )


def h_invariance_check(d: DegenerationData) -> bool:
    """True iff a(-y) = a(y) for all y, i.e. 2·a(e_i) = M_ii for all i."""
    m = d.pairing_matrix().entries
    return all(2 * d.a_basis[i] == m[i][i] for i in range(d.rank))


# -- JSON document format ----------------------------------------------------
#
# {"rank": int, "phi": [[int]], "b": [[int]], "a_basis": [int] (optional)}
#
# When a_basis is omitted it defaults to the unique H-invariant choice
# a(e_i) = M_ii / 2, which requires every diagonal entry of the pairing
# matrix to be even.


def _require_matrix(doc: Mapping, key: str, t: int) -> IntMatrix:
    raw = doc.get(key)
    if raw is None:
        raise SchemaError(f"missing field {key!r}")
    if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
        raise SchemaError(f"field {key!r} must be a list of rows")
    if len(raw) != t or any(len(r) != t for r in raw):
        raise SchemaError(f"field {key!r} must be a {t}x{t} matrix")
    if any(not isinstance(x, int) or isinstance(x, bool) for r in raw for x in r):
        raise SchemaError(f"field {key!r} must contain integers")
    return IntMatrix(raw, shape=(t, t))


def from_json_dict(doc: Mapping) -> DegenerationData:
    if not isinstance(doc, Mapping):
        raise SchemaError("degeneration document must be a JSON object")
    t = doc.get("rank")
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise SchemaError("field 'rank' must be a nonnegative integer")
    if t > 2:  # before the fields are read, whatever they hold
        raise UnsupportedRank(f"toric rank {t} does not occur for abelian surfaces")
    phi = _require_matrix(doc, "phi", t)
    b = _require_matrix(doc, "b", t)
    raw_a = doc.get("a_basis")
    if raw_a is None:
        m = b.mul(phi).entries
        if any(m[i][i] % 2 != 0 for i in range(t)):
            raise SchemaError(
                "a_basis omitted but the pairing has an odd diagonal entry; "
                "the default H-invariant choice a(e_i) = M_ii/2 is not integral")
        a_basis = tuple(m[i][i] // 2 for i in range(t))
    else:
        if (not isinstance(raw_a, list) or len(raw_a) != t
                or any(not isinstance(x, int) or isinstance(x, bool) for x in raw_a)):
            raise SchemaError(f"field 'a_basis' must be a list of {t} integers")
        a_basis = tuple(raw_a)
    return DegenerationData(rank=t, phi=phi, b=b, a_basis=a_basis)


def to_json_dict(d: DegenerationData) -> dict:
    return {
        "rank": d.rank,
        "phi": [list(r) for r in d.phi.entries],
        "b": [list(r) for r in d.b.entries],
        "a_basis": list(d.a_basis),
    }
