"""Certified semistable fans in height-1 slice form.

A smooth Γ-admissible semistable cone decomposition of the cone over
X^v_R is stored as its height-1 slice: a Y-periodic unimodular
triangulation of R^t whose vertex set is X^v ≅ Z^t.  The translation
lattice is Λ_b, spanned by the functionals b(e_i, -) (the rows of b).
Cones are recovered as cones over the simplices placed at height 1; the
apex ray sits over the vertex 0.

The certification checks scan only as far as short proofs require.  A
translate λ with hull(S) ∩ hull(S + λ) nonempty is a difference of two
points of hull(S), so property (d) needs λ with ‖λ‖_∞ <= diameter(S) only.
A fixed class −S = S + λ of the inversion forces λ = lexmin(−S) − lexmin(S),
because translation preserves the lexicographic order, so H-freeness tests
one candidate per class.  Unimodularity and the polarization margins are
invariant under integer shifts and are computed once per simplex shape.
An explicit window below ``safe_window`` (property (d)) or
``required_window`` (H-freeness) still needs ``allow_unsafe``; with no
window neither bound is computed, since neither can bind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .degeneration import DegenerationData, base_change
from .errors import (
    ConsistencyError,
    SchemaError,
    SingularPairing,
    UncertifiedFan,
    UnsupportedRank,
    WindowTooSmall,
)
from .lattice import (
    IntMatrix,
    leading_principal_minors,
    smith_normal_form,
    solve,
    unimodular_inverse,
)

Vector = tuple[int, ...]


class LatticeSimplex:
    """A lattice simplex: 1 to t+1 distinct, affinely independent points of Z^t."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Sequence[int]]):
        verts = tuple(sorted(tuple(int(x) for x in v) for v in vertices))
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError(f"repeated vertices: {verts}")
        if len({len(v) for v in verts}) != 1:
            raise ValueError("vertices of mixed dimension")
        k = len(verts) - 1
        if k > 0:
            diffs = IntMatrix([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]],
                              shape=(k, len(verts[0])))
            if diffs.rank() != k:
                raise ValueError(f"vertices are affinely dependent: {verts}")

    def __setattr__(self, name, value):
        raise AttributeError("LatticeSimplex is immutable")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def translate(self, shift: Sequence[int]) -> "LatticeSimplex":
        """S + shift; translation preserves the lexicographic order."""
        return _simplex(tuple(tuple(map(add, v, shift)) for v in self.vertices))

    def negate(self) -> "LatticeSimplex":
        """−S; negation reverses the lexicographic order."""
        return _simplex(tuple(tuple(-a for a in v) for v in reversed(self.vertices)))

    def faces(self) -> list["LatticeSimplex"]:
        """Codimension-1 faces, in vertex-deletion order."""
        if self.dim == 0:
            return []
        vs = self.vertices
        return [_simplex(vs[:i] + vs[i + 1:]) for i in range(len(vs))]

    def diameter_inf(self) -> int:
        return max((max(c) - min(c) for c in zip(*self.vertices)), default=0)

    def max_coord(self) -> int:
        return max((abs(x) for v in self.vertices for x in v), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeSimplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticeSimplex({list(self.vertices)!r})"


def _simplex(vertices: tuple[Vector, ...]) -> LatticeSimplex:
    """A simplex from vertices already sorted, distinct and independent."""
    s = object.__new__(LatticeSimplex)
    object.__setattr__(s, "vertices", vertices)
    return s


def _apply(rows: tuple[Vector, ...], x: Sequence[int]) -> Vector:
    return tuple(sum(map(mul, row, x)) for row in rows)


class _CosetMap:
    """Canonical representatives of Z^t modulo the row span of a lattice matrix.

    lattice=None means the full lattice Z^t (every point is equivalent to 0).
    The Smith form U·L^T·V = D gives x ↦ U^{-1}·(U·x mod D); ``u`` and
    ``uinv`` hold the rows of U and U^{-1}.
    """

    def __init__(self, rank: int, lattice: IntMatrix | None):
        if lattice is None:
            self.diag = (1,) * rank
            self.u = self.uinv = IntMatrix.identity(rank).entries
            self.index = 1
            return
        if lattice.rows != rank or lattice.cols != rank:
            raise SchemaError(f"lattice must be {rank}x{rank}")
        if rank > 0 and lattice.det() == 0:
            raise SingularPairing("translation lattice is degenerate (det = 0)")
        d, u, _ = smith_normal_form(lattice.transpose())
        self.diag = d.diagonal_entries()
        self.u = u.entries
        self.uinv = unimodular_inverse(u).entries
        self.index = math.prod(self.diag)

    def canonical_point(self, x: Vector) -> Vector:
        r = [sum(map(mul, row, x)) % d for row, d in zip(self.u, self.diag)]
        return _apply(self.uinv, r)

    def coset_representatives(self) -> list[Vector]:
        return [_apply(self.uinv, r) for r in product(*(range(d) for d in self.diag))]


class PeriodicTriangulation:
    """Finite set of simplex classes modulo the translation lattice Λ_b.

    Representatives are canonical: the lex-least vertex of each simplex is
    moved to its canonical coset representative.  Classes of every dimension
    0..t are stored, closed under faces.  ``lattice=None`` denotes the
    unit-cell form (periodicity lattice Z^t itself), which is how the
    standard triangulations are built before a pairing is attached.

    ``face_classes[S]`` lists, in the vertex-deletion order of ``S.faces()``,
    the pair (canonical class of the face f, shift with f + shift equal to
    that class); the closure loop computes each pair once and keeps it.
    """

    def __init__(self, rank: int, simplices: Iterable[LatticeSimplex],
                 lattice: IntMatrix | None):
        self.rank = rank
        self.lattice = lattice
        self._cosets = _CosetMap(rank, lattice)
        face_classes: dict[LatticeSimplex, tuple[tuple[LatticeSimplex, Vector], ...]] = {}
        queue = list({self.canonical_simplex(s) for s in simplices})
        seen = set(queue)
        while queue:
            s = queue.pop()
            pairs = []
            for f in s.faces():
                shift = self.canonical_shift(f)
                cf = f.translate(shift)
                pairs.append((cf, shift))
                if cf not in seen:
                    seen.add(cf)
                    queue.append(cf)
            face_classes[s] = tuple(pairs)
        self.face_classes = face_classes
        self.simplices: tuple[LatticeSimplex, ...] = tuple(
            sorted(face_classes, key=lambda s: (s.dim, s.vertices)))
        self._by_dim: dict[int, tuple[LatticeSimplex, ...]] = {
            k: tuple(s for s in self.simplices if s.dim == k) for k in range(rank + 1)}
        self.certificates: dict[str, bool] = {}
        # Filled by certify(): the property-(d) and H-freeness violation lists.
        self.violations: dict[str, list[tuple[Vector, LatticeSimplex]]] = {}

    def canonical_point(self, x: Vector) -> Vector:
        return self._cosets.canonical_point(x)

    def canonical_shift(self, s: LatticeSimplex) -> Vector:
        anchor = s.vertices[0]
        target = self._cosets.canonical_point(anchor)
        return tuple(t - a for t, a in zip(target, anchor))

    def canonical_simplex(self, s: LatticeSimplex) -> LatticeSimplex:
        return s.translate(self.canonical_shift(s))

    def contains_class(self, s: LatticeSimplex) -> bool:
        return self.canonical_simplex(s) in self.face_classes

    def by_dim(self, k: int) -> tuple[LatticeSimplex, ...]:
        return self._by_dim.get(k, ())

    def class_index(self) -> int:
        return self._cosets.index

    def with_lattice(self, lattice: IntMatrix) -> "PeriodicTriangulation":
        """Develop a unit-cell triangulation over the cosets of Z^t modulo Λ_b."""
        if self.lattice is not None:
            raise ValueError("triangulation already has a lattice attached")
        cosets = _CosetMap(self.rank, lattice).coset_representatives()
        developed = [s.translate(g) for s in self.simplices for g in cosets]
        t = PeriodicTriangulation(self.rank, developed, lattice)
        expected = len(self.simplices) * len(cosets)
        if len(t.simplices) != expected:
            raise ValueError("unit-cell classes collapsed while developing")
        return t

    def max_diameter(self) -> int:
        return max((s.diameter_inf() for s in self.simplices), default=0)

    def max_vertex_coord(self) -> int:
        return max((s.max_coord() for s in self.simplices), default=0)

    def lattice_max(self) -> int:
        if self.lattice is None:
            return 1
        return max((abs(x) for row in self.lattice.entries for x in row), default=0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PeriodicTriangulation) and self.rank == other.rank
                and self.simplices == other.simplices and self.lattice == other.lattice)

    def __repr__(self) -> str:
        return (f"PeriodicTriangulation(rank={self.rank}, "
                f"classes={[len(self.by_dim(k)) for k in range(self.rank + 1)]})")


def standard_triangulation(t: int) -> PeriodicTriangulation:
    """The uniform triangulation of R^t with vertex set Z^t, in unit-cell form.

    t = 0: the single vertex.  t = 1: unit intervals.  t = 2: unit squares
    each cut by the diagonal of direction (1, 1).  The result carries no
    lattice; attach one with ``with_lattice``.
    """
    if t == 0:
        reps = [LatticeSimplex([()])]
    elif t == 1:
        reps = [LatticeSimplex([(0,)]), LatticeSimplex([(0,), (1,)])]
    elif t == 2:
        reps = [
            LatticeSimplex([(0, 0)]),
            LatticeSimplex([(0, 0), (1, 0)]),
            LatticeSimplex([(0, 0), (0, 1)]),
            LatticeSimplex([(0, 0), (1, 1)]),
            LatticeSimplex([(0, 0), (1, 0), (1, 1)]),
            LatticeSimplex([(0, 0), (0, 1), (1, 1)]),
        ]
    else:
        raise UnsupportedRank(f"toric rank {t} does not occur for abelian surfaces")
    return PeriodicTriangulation(t, reps, None)


def is_unimodular(s: LatticeSimplex) -> bool:
    """True iff the vectors (v, 1), v a vertex, extend to a basis of Z^(t+1)."""
    rows = [v + (1,) for v in s.vertices]
    d, _, _ = smith_normal_form(IntMatrix(rows, shape=(len(rows), len(rows[0]))))
    diag = d.diagonal_entries()
    return len(diag) == len(rows) and all(x == 1 for x in diag)


def check_semistable(t: PeriodicTriangulation) -> bool:
    """All rays of the developed fan are of the form (l, 1) and the apex ray
    over 0 belongs to the fan: every vertex is a lattice point (structural)
    and the class of the vertex 0 is present."""
    if not t.simplices:
        return False
    zero = LatticeSimplex([(0,) * t.rank])
    return t.contains_class(zero)


def safe_window(t: PeriodicTriangulation) -> int:
    """Smallest window property (d) accepts without ``allow_unsafe``.

    It exceeds the proven reach ``max_diameter`` of a violation; the scan
    itself stops at that reach.
    """
    return t.max_diameter() + t.lattice_max() + 1


def required_window(t: PeriodicTriangulation) -> int:
    """Smallest window accepted by every check without --unsafe.

    It exceeds 2·(largest vertex coordinate), a bound on the H-freeness
    candidate λ = −2·centroid(S), and ``safe_window``.
    """
    return max(safe_window(t), 2 * t.max_vertex_coord() + 1)


def _refuse_small_window(window: int, bound: int, allow_unsafe: bool) -> None:
    if window < bound and not allow_unsafe:
        raise WindowTooSmall(f"window {window} is below the safe bound {bound}")


def _lattice_translates(t: PeriodicTriangulation, window: int) -> list[Vector]:
    """Nonzero λ in the translation lattice with ‖λ‖_∞ <= window."""
    if t.rank == 0 or t.lattice is None:
        return []
    w = t.lattice
    n = t.rank
    # y = (W^T)^{-1} λ = adj(W^T) λ / det, so ‖y‖_∞ <= max-row-abs-sum of
    # adj(W^T) times ‖λ‖_∞ / |det|.
    norm = max(sum(abs(x) for x in row) for row in w.transpose().adjugate().entries)
    ybound = norm * window // abs(w.det()) + 1
    out = []
    for y in product(range(-ybound, ybound + 1), repeat=n):
        if all(v == 0 for v in y):
            continue
        lam = tuple(sum(y[i] * w.entries[i][j] for i in range(n)) for j in range(n))
        if max(abs(x) for x in lam) <= window:
            out.append(lam)
    return sorted(set(out))


def _lattice_coefficients(t: PeriodicTriangulation, lam: Vector) -> Vector:
    """Express λ in the row basis of the lattice (the Y-coordinates)."""
    sol = solve(t.lattice.transpose(), lam)
    if any(x.denominator != 1 for x in sol):
        raise ValueError(f"{lam} is not in the translation lattice")
    return tuple(int(x) for x in sol)


# -- convex hull intersection in rank <= 2 -----------------------------------

def _orient(a: Vector, b: Vector, c: Vector) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _point_in_hull(p: Vector, s: LatticeSimplex) -> bool:
    vs = s.vertices
    if len(vs) == 1:
        return p == vs[0]
    if len(p) == 1:
        lo, hi = vs[0][0], vs[-1][0]
        return lo <= p[0] <= hi
    if len(vs) == 2:
        a, b = vs
        if _orient(a, b, p) != 0:
            return False
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
    a, b, c = vs
    d1, d2, d3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)


def _on_segment(a: Vector, b: Vector, p: Vector) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_intersect(p1: Vector, p2: Vector, q1: Vector, q2: Vector) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _edges(s: LatticeSimplex) -> list[tuple[Vector, Vector]]:
    vs = s.vertices
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def hulls_intersect(s1: LatticeSimplex, s2: LatticeSimplex) -> bool:
    """Exact test for whether the convex hulls share a point (rank <= 2)."""
    t = len(s1.vertices[0])
    if t == 0:
        return True
    if t == 1:
        lo1, hi1 = s1.vertices[0][0], s1.vertices[-1][0]
        lo2, hi2 = s2.vertices[0][0], s2.vertices[-1][0]
        return max(lo1, lo2) <= min(hi1, hi2)
    if any(_point_in_hull(v, s2) for v in s1.vertices):
        return True
    if any(_point_in_hull(v, s1) for v in s2.vertices):
        return True
    return any(_segments_intersect(a, b, c, d)
               for a, b in _edges(s1) for c, d in _edges(s2))


# -- the certification checks -------------------------------------------------

def check_property_d(t: PeriodicTriangulation, window: int | None = None, *,
                     allow_unsafe: bool = False) -> list[tuple[Vector, LatticeSimplex]]:
    """Violations of the disjointness condition: nonzero λ = b(y,-) in the
    window with hull(S) ∩ hull(S + λ) nonempty.  Empty result = certified.

    A violating λ is p − q with p, q ∈ hull(S), so ‖λ‖_∞ <= diameter(S).
    The scan therefore covers ‖λ‖_∞ <= min(window, largest diameter) and
    tests S only against translates within its own diameter; any window
    at or above that reach gives the same list.
    """
    if t.lattice is None:
        raise ValueError("property (d) needs a translation lattice attached")
    limit = t.max_diameter()
    if window is not None:
        _refuse_small_window(window, safe_window(t), allow_unsafe)
        limit = min(window, limit)
    translates = [(lam, max(abs(x) for x in lam)) for lam in _lattice_translates(t, limit)]
    out = []
    for s in t.simplices:
        reach = s.diameter_inf()
        for lam, norm in translates:
            if norm <= reach and hulls_intersect(s, s.translate(lam)):
                out.append((lam, s))
    return out


def check_h_freeness(t: PeriodicTriangulation, *, window: int | None = None,
                     allow_unsafe: bool = False) -> list[tuple[Vector, LatticeSimplex]]:
    """Fixed classes of the inversion: pairs (y, S) with dim S >= 1 and
    -S = S + b(y,-).  Empty for even pairings; the odd control b = (3)
    produces -[1,2] = [1,2] - 3.

    y is reported in coordinates relative to the lattice's row basis, which
    are the Y-coordinates whenever the lattice is the row lattice of b.

    Translation preserves the lexicographic order, so −S = S + λ forces
    λ = lexmin(−S) − lexmin(S): each class has one candidate, kept when it
    is nonzero, within the window and in the translation lattice.  The
    candidate equals −2·centroid(S), so with no window every candidate is
    tested.
    """
    if t.lattice is None:
        raise ValueError("H-freeness needs a translation lattice attached")
    if window is not None:
        _refuse_small_window(window, required_window(t), allow_unsafe)
    out = []
    for s in t.simplices:
        if s.dim < 1:
            continue
        neg = s.negate()
        lam = tuple(a - b for a, b in zip(neg.vertices[0], s.vertices[0]))
        if (any(lam) and (window is None or max(abs(x) for x in lam) <= window)
                and s.translate(lam) == neg
                and not any(t.canonical_point(lam))):
            out.append((_lattice_coefficients(t, lam), s))
    return out


def vertices_complete(t: PeriodicTriangulation) -> bool:
    """Developed vertex set is all of X^v: one vertex class per coset."""
    return len(t.by_dim(0)) == t.class_index()


def check_gamma_admissible(t: PeriodicTriangulation, y_radius: int = 3) -> bool:
    """The developed fan is stable under S_(y,h) for ‖y‖_∞ <= y_radius, h = ±1."""
    if t.lattice is None:
        raise ValueError("Γ-admissibility needs a translation lattice attached")
    n = t.rank
    w = t.lattice
    for y in product(range(-y_radius, y_radius + 1), repeat=n):
        lam = tuple(sum(y[i] * w.entries[i][j] for i in range(n)) for j in range(n))
        for h in (1, -1):
            for s in t.simplices:
                image = (s if h == 1 else s.negate()).translate(lam)
                if not t.contains_class(image):
                    return False
    return True


# -- polarization surrogate ----------------------------------------------------

@dataclass(frozen=True)
class PolarizationForm:
    """Quadratic form Q(l) = l^T·gram·l used as PL vertex values.

    gram is symmetric with integer diagonal and half-integral off-diagonal
    entries, so Q takes integer values on Z^t.
    """

    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        g = tuple(tuple(Fraction(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
                if (2 * g[i][j]).denominator != 1:
                    raise ValueError("off-diagonal entries must be half-integral")
            if g[i][i].denominator != 1:
                raise ValueError("diagonal entries must be integral")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def value(self, l: Sequence[int]) -> int:
        total = Fraction(0)
        for i in range(self.rank):
            for j in range(self.rank):
                total += self.gram[i][j] * l[i] * l[j]
        assert total.denominator == 1
        return int(total)

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion on the integral 2·gram: det(2·G_k) = 2^k·det(G_k)."""
        doubled = IntMatrix([[int(2 * x) for x in row] for row in self.gram],
                            shape=(self.rank, self.rank))
        return all(m > 0 for m in leading_principal_minors(doubled))


def default_polarization_form(t: int) -> PolarizationForm:
    """Strictly convex form compatible with the standard triangulation.

    For t = 2 this is Q(m, n) = m² + n² - mn, whose Delaunay subdivision is
    exactly the (1,1)-diagonal cut of the unit squares.
    """
    if t == 0:
        return PolarizationForm(())
    if t == 1:
        return PolarizationForm(((Fraction(1),),))
    if t == 2:
        h = Fraction(-1, 2)
        return PolarizationForm(((Fraction(1), h), (h, Fraction(1))))
    raise UnsupportedRank(f"toric rank {t} does not occur for abelian surfaces")


def _offset(v: Vector, origin: Vector) -> Vector:
    return tuple(a - b for a, b in zip(v, origin))


def _shape(s: LatticeSimplex) -> tuple[Vector, ...]:
    """The vertices of s relative to its first vertex: s up to translation."""
    return tuple(_offset(v, s.vertices[0]) for v in s.vertices)


def _wall_neighbors(t: PeriodicTriangulation):
    """For each facet of each top-dimensional representative, the developed
    simplex on the other side.  Yields (top, facet, neighbor) or
    (top, facet, None) when the wall is not interior."""
    walls = []
    incidence: dict[LatticeSimplex, list[tuple[LatticeSimplex, Vector]]] = {}
    for s in t.by_dim(t.rank):
        for f, (key, shift) in zip(s.faces(), t.face_classes[s]):
            walls.append((s, f, shift, key))
            incidence.setdefault(key, []).append((s, shift))
    for s, f, shift, key in walls:
        neighbors = []
        for other, other_shift in incidence[key]:
            cand = other.translate(tuple(a - b for a, b in zip(other_shift, shift)))
            if cand != s:
                neighbors.append(cand)
        yield s, f, (neighbors[0] if len(neighbors) == 1 else None)


def _polarization_margins(t: PeriodicTriangulation,
                          form: PolarizationForm) -> list[Fraction] | None:
    """Convexity margins across the interior walls; None if a wall has no
    unique neighbor (not a proper periodic triangulation)."""
    if t.rank == 0:
        return []
    # Q(l + μ) − Q(l) is affine in l, so a margin depends only on the wall's
    # shape: its vertices and w relative to the first vertex of s.
    by_shape: dict[tuple, Fraction] = {}
    margins = []
    for s, f, neighbor in _wall_neighbors(t):
        if neighbor is None:
            return None
        w = next(v for v in neighbor.vertices if v not in set(f.vertices))
        key = (_shape(s), _offset(w, s.vertices[0]))
        if key not in by_shape:
            # Affine interpolation of Q over the vertices of s, evaluated at w.
            coeffs = solve(IntMatrix([(1,) + v for v in s.vertices]),
                           [form.value(v) for v in s.vertices])
            affine_at_w = coeffs[0] + sum(c * x for c, x in zip(coeffs[1:], w))
            by_shape[key] = form.value(w) - affine_at_w
        margins.append(by_shape[key])
    return margins


def check_polarization(t: PeriodicTriangulation, form: PolarizationForm) -> bool:
    """Surrogate for the existence of a Γ-admissible polarization function:
    the PL interpolation of Q over the triangulation is strictly convex
    across every interior wall.  Central symmetry Q(-l) = Q(l) and the
    affine-linearity of Q(l + λ) - Q(l) hold for every quadratic Q.
    """
    if not (t.certificates.get("semistable") and t.certificates.get("unimodular")):
        raise UncertifiedFan(
            "polarization check requires semistable + unimodular certificates")
    return _polarization_check(t, form)


def _polarization_check(t: PeriodicTriangulation, form: PolarizationForm) -> bool:
    if form.rank != t.rank:
        return False
    if t.rank > 0 and not form.is_positive_definite():
        return False
    margins = _polarization_margins(t, form)
    return margins is not None and all(m > 0 for m in margins)


# -- certification and scaling --------------------------------------------------

def certify(t: PeriodicTriangulation, *, window: int | None = None,
            allow_unsafe: bool = False) -> dict[str, bool]:
    """Run every check and attach the certificate dict to the triangulation,
    and the property-(d) and H-freeness violation lists as ``t.violations``.

    Unimodularity is tested once per simplex shape: (x, h) ↦ (x + hμ, h) is
    unimodular, so it is invariant under integer shifts.
    """
    violations = {
        "property_d": check_property_d(t, window, allow_unsafe=allow_unsafe),
        "h_free": check_h_freeness(t, window=window, allow_unsafe=allow_unsafe),
    }
    shapes = {_shape(s): s for s in t.simplices}
    certs = {
        "semistable": check_semistable(t),
        "unimodular": all(is_unimodular(s) for s in shapes.values()),
        "property_d": not violations["property_d"],
        "h_free": not violations["h_free"],
        "vertices_complete": vertices_complete(t),
    }
    if certs["semistable"] and certs["unimodular"]:
        certs["polarization"] = _polarization_check(t, default_polarization_form(t.rank))
    else:
        certs["polarization"] = False
    t.certificates = dict(certs)
    t.violations = violations
    return certs


def auto_scale(d: DegenerationData) -> tuple[int, PeriodicTriangulation]:
    """Smallest base-change index ν for which the standard triangulation with
    lattice Λ_(ν·b) passes all four fan checks; the returned triangulation is
    certified for base_change(d, ν).

    ν <= 2.  The standard triangulation is semistable and unimodular, and
    its simplices have diameter <= 1.  At ν = 2 every nonzero λ ∈ Λ_(2b)
    lies in 2·Z^t, so ‖λ‖_∞ >= 2 and property (d) holds.  A fixed class
    −S = S + λ would make S symmetric about the lattice point −λ/2: an edge
    (direction (1), (1,0), (0,1) or (1,1)) has no lattice midpoint, and a
    triangle would fix one vertex and swap the other two about it, making
    all three collinear.  So H-freeness holds too, as it must for the even
    pairing 2b.
    """
    unit = standard_triangulation(d.rank)
    for nu in (1, 2):
        scaled = base_change(d, nu)
        tri = unit.with_lattice(scaled.b)
        certs = certify(tri)
        if all(certs[k] for k in ("semistable", "unimodular", "property_d", "h_free")):
            return nu, tri
    raise ConsistencyError("the standard triangulation fails certification at ν = 2")


# -- JSON documents --------------------------------------------------------------
#
# Fan document: {"rank": int, "lattice": [[int]], "simplices": [[[int]]]}
# auto_scale result: {"nu": int, "fan": <fan document>, "certificates": {...}}


def fan_to_json(t: PeriodicTriangulation) -> dict:
    if t.lattice is None:
        raise ValueError("cannot serialize a triangulation without a lattice")
    return {
        "rank": t.rank,
        "lattice": [list(row) for row in t.lattice.entries],
        "simplices": [[list(v) for v in s.vertices] for s in t.simplices],
    }


def fan_from_json(doc: Mapping) -> PeriodicTriangulation:
    if not isinstance(doc, Mapping):
        raise SchemaError("fan document must be a JSON object")
    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise SchemaError("field 'rank' must be a nonnegative integer")
    raw_lattice = doc.get("lattice")
    if (not isinstance(raw_lattice, list) or len(raw_lattice) != rank
            or any(not isinstance(r, list) or len(r) != rank for r in raw_lattice)
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for r in raw_lattice for x in r)):
        raise SchemaError(f"field 'lattice' must be a {rank}x{rank} integer matrix")
    raw_simplices = doc.get("simplices")
    if not isinstance(raw_simplices, list):
        raise SchemaError("field 'simplices' must be a list of simplices")
    simplices = []
    for raw in raw_simplices:
        if (not isinstance(raw, list) or not raw
                or any(not isinstance(v, list) or len(v) != rank for v in raw)
                or any(not isinstance(x, int) or isinstance(x, bool) for v in raw for x in v)):
            raise SchemaError("each simplex must be a nonempty list of rank-length "
                              "integer vectors")
        try:
            simplices.append(LatticeSimplex(raw))
        except ValueError as exc:
            raise SchemaError(f"bad simplex {raw}: {exc}") from exc
    try:
        return PeriodicTriangulation(rank, simplices, IntMatrix(raw_lattice, shape=(rank, rank)))
    except (ValueError, SingularPairing) as exc:
        raise SchemaError(str(exc)) from exc
