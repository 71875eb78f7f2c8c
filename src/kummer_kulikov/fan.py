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
because translation preserves the lexicographic order, so H-freeness reads
whether each class is its own carried negative.  Unimodularity and the
polarization margins are invariant under integer shifts and are computed
once per simplex shape.
An explicit window below ``safe_window`` (property (d)) or
``required_window`` (H-freeness) still needs ``allow_unsafe``; with no
window neither bound is computed, since neither can bind.

``certify`` runs the checks on any developed fan; it serves ``fan check``
and the ``complex`` commands, which read documents.  ``certify_unit_cell``
decides the same six flags for ``unit.with_lattice(Λ)`` on the unit cell
alone, so ``auto_scale`` develops only the base change it accepts.  Every
developed class is s + g for a unit class s (lexmin vertex 0) and a coset
representative g of Z^t/Λ, and no two of them coincide, because the unit
classes are distinct modulo Z^t ⊃ Λ.

``with_lattice`` develops by arithmetic on residues, with no class made
canonical again.  Let U·Λ^T·V = D = diag(d_1, ..., d_t) be the Smith form.
The coset of x ∈ Z^t is its residue ρ(x) = U·x mod D in ∏ Z/d_i, and its
canonical point is rep[ρ(x)] = U^{-1}·ρ(x); ρ is additive and
ρ(rep[r]) = r.  So dev[u, r] = u + rep[r] has the canonical lexmin vertex
rep[r], and is the stored class.

- Face pairs.  Let f + z = uf be the unit pair of the i-th face f of u.
  The i-th face of dev[u, r] is f + rep[r]; its lexmin is rep[r] − z, of
  residue r' = (r − U·z) mod D.  Its canonical shift is therefore
  rep[r'] − rep[r] + z, and the shifted face is uf + rep[r'] = dev[uf, r'].
- Negatives.  Let −u + w = u* be canonical in the unit cell (w = lexmax u).
  Then −dev[u, r] = u* − w − rep[r] has lexmin −w − rep[r], of residue
  r* = (−U·w − r) mod D, so its class is dev[u*, r*].  When −u is not a
  unit class, −dev[u, r] ≡ −u mod Z^t is no developed class either, since
  each developed class is congruent mod Z^t to the unit class it came from.
- Order.  dev[u, r] and dev[u', r'] compare first by rep[r] against
  rep[r'], and for r = r' as u against u' (translation keeps the order).
  The sorted classes of dimension k are thus the unit classes of dimension
  k, in their order, for each representative in lexicographic order.

The six flags agree:

- Property (d) is invariant under translation, so the developed violations
  are the translates of (λ, s) with λ ∈ Λ∖{0}, ‖λ‖_∞ <= diameter(s) and
  hull(s) ∩ hull(s + λ) nonempty; λ ∈ Λ iff its residue is 0.
- H-freeness: for S = s + g, λ = lexmin(−S) − lexmin(S) = μ_s − 2g with
  μ_s = lexmin(−s) = −lexmax(s).  The edge of S from lexmin(S) to lexmax(S)
  has the same λ, and an edge is symmetric about its midpoint, so S is a
  fixed class only if that edge is one: it suffices to test the unit edge
  classes e = [0, v], for which −e = e − v.  Such an e gives a fixed class
  iff −v − 2g ∈ Λ for some coset representative g; λ = 0, a class with
  −S = S, counts.  Such a g exists iff v ∈ 2·Z^t + Λ, that is iff v is
  congruent mod 2 to a sum of rows of Λ: 2^t parity tests.
- Unimodularity: the developed shapes are the unit shapes.
- Polarization: a developed wall occurrence (s + g, i) has face class
  (f_i(s) + z) + (g − z) for the unit class f_i(s) + z of its face, so the
  occurrences of each developed face class are the translates of those of
  one unit face class, and the neighbour across a developed wall is the
  translate of the unit neighbour.  The margins depend only on shapes, so
  the unit cell gives the same margins, each |Z^t/Λ| times.
- Semistability and vertex completeness: every vertex is ≡ 0 mod Z^t, so
  the developed vertex classes are the coset representatives, one per
  coset exactly when the unit cell has a vertex.

These four flags do not depend on Λ, so they are cached per unit cell, and
``certify`` reads a development's off its unit cell.

``fan_from_json`` reads a document through ``with_lattice`` when it can.
Each listed simplex S is u + x for its shape u (lexmin vertex 0) and
x = lexmin(S).  The unit cell of the distinct shapes develops to the classes
dev[u, r], and the class of S is dev[u, ρ(x)], because translation keeps the
lexmin vertex.  ``PeriodicTriangulation(rank, simplices, Λ)`` stores the set
C of the listed classes closed under faces.  It orders C by (dim, vertices);
its face pairs are (class of f, canonical shift of f) and its negatives the
class of −S when that lies in C.  Each is a function of C and Λ alone, and
``with_lattice`` gives the same functions of its own classes (above).  So a
document whose C is the developed class set *is* the development, with the
same order, face pairs and negatives.  C lies inside that set, since it is
closed under the developed face pairs, which are the canonical ones; the two
are equal exactly when the walk from the listed classes over those face
pairs reaches every developed class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from operator import add, mul, sub
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

    __slots__ = ("vertices", "_hash")

    def __init__(self, vertices: Iterable[Sequence[int]]):
        verts = tuple(sorted(tuple(int(x) for x in v) for v in vertices))
        _set_vertices(self, verts)
        _set_hash(self, hash(verts))
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
        return self._hash

    def __repr__(self) -> str:
        return f"LatticeSimplex({list(self.vertices)!r})"


# The slot setters, which bypass the immutability guard of __setattr__.
_set_vertices = LatticeSimplex.vertices.__set__
_set_hash = LatticeSimplex._hash.__set__


def _simplex(vertices: tuple[Vector, ...]) -> LatticeSimplex:
    """A simplex from vertices already sorted, distinct and independent."""
    s = object.__new__(LatticeSimplex)
    _set_vertices(s, vertices)
    _set_hash(s, hash(vertices))
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

    def residue(self, x: Sequence[int]) -> list[int]:
        """U·x mod D: the coset of x, zero exactly on the lattice."""
        return [sum(map(mul, row, x)) % d for row, d in zip(self.u, self.diag)]

    def residue_index(self, x: Sequence[int]) -> int:
        """The index of ρ(x) in the order of ``coset_representatives``."""
        i = 0
        for r, d in zip(self.residue(x), self.diag):
            i = i * d + r
        return i

    def canonical_point(self, x: Vector) -> Vector:
        return _apply(self.uinv, self.residue(x))

    def coset_representatives(self) -> list[Vector]:
        """U^{-1}·r for every residue r, listed by residue index (the order
        of ``product``, last coordinate fastest)."""
        return [_apply(self.uinv, r) for r in product(*(range(d) for d in self.diag))]

    def shifts(self, z: Vector) -> list[Vector]:
        """For each residue index of r, the canonical shift of rep[r] − z.

        Let U·z = a + D·m with a = ρ(z).  The residue of rep[r] − z is
        r' = r − a + D·b, where b_i = 1 if r_i < a_i and 0 otherwise, so the
        shift rep[r'] − rep[r] + z = U^{-1}·(r' − r + U·z) = U^{-1}·D·(m + b)
        is one of 2^t vectors, shared by the cosets with the same b.
        """
        uz = _apply(self.u, z)
        a = [x % d for x, d in zip(uz, self.diag)]
        vectors = [_apply(self.uinv, [x - ai + d * bi
                                      for x, ai, d, bi in zip(uz, a, self.diag, b)])
                   for b in product((0, 1), repeat=len(a))]
        pattern = [0]
        for ai, d in zip(a, self.diag):
            carries = [r < ai for r in range(d)]
            pattern = [2 * i + c for i in pattern for c in carries]
        return list(map(vectors.__getitem__, pattern))

    def index_map(self, c: Sequence[int], sign: int) -> list[int]:
        """For each residue index of r, the index of (sign·r + c) mod D."""
        out = [0]
        for ci, d in zip(c, self.diag):
            digits = [(sign * r + ci) % d for r in range(d)]
            out = [i * d + x for i in out for x in digits]
        return out


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
    ``negatives[S]`` is the class of −S, or None when −S is not a class.
    """

    def __init__(self, rank: int, simplices: Iterable[LatticeSimplex],
                 lattice: IntMatrix | None):
        self._cosets = _CosetMap(rank, lattice)
        face_classes: dict[LatticeSimplex, tuple[tuple[LatticeSimplex, Vector], ...]] = {}
        queue = list({self.canonical_simplex(s) for s in simplices})
        seen = set(queue)
        zero = (0,) * rank
        while queue:
            s = queue.pop()
            pairs = [(f, zero) for f in s.faces()]
            if pairs:
                # s is canonical, and the i-th face for i >= 1 keeps the lexmin
                # vertex s.vertices[0], so it is its own class with shift 0.
                f = pairs[0][0]
                shift = self.canonical_shift(f)
                pairs[0] = (f.translate(shift), shift)
            for cf, _ in pairs:
                if cf not in seen:
                    seen.add(cf)
                    queue.append(cf)
            face_classes[s] = tuple(pairs)
        ordered = sorted(face_classes, key=lambda s: (s.dim, s.vertices))
        self._fill(rank, lattice, face_classes,
                   {k: tuple(s for s in ordered if s.dim == k) for k in range(rank + 1)},
                   None, None)

    def _fill(self, rank: int, lattice: IntMatrix | None,
              face_classes: dict[LatticeSimplex, tuple[tuple[LatticeSimplex, Vector], ...]],
              by_dim: dict[int, tuple[LatticeSimplex, ...]],
              negatives: dict[LatticeSimplex, LatticeSimplex | None] | None,
              unit_blocks: dict[LatticeSimplex, list[LatticeSimplex]] | None) -> None:
        self.rank = rank
        self.lattice = lattice
        self.face_classes = face_classes
        self._by_dim = by_dim
        self.simplices: tuple[LatticeSimplex, ...] = tuple(chain.from_iterable(by_dim.values()))
        self._negatives = negatives
        # For a fan developed by ``with_lattice``: each class u of the unit
        # cell, in its order, with dev[u, r] by residue index r.  Else None.
        self._unit_blocks = unit_blocks
        self.certificates: dict[str, bool] = {}
        # Filled by certify(): the property-(d) and H-freeness violation lists.
        self.violations: dict[str, list[tuple[Vector, LatticeSimplex]]] = {}

    @property
    def negatives(self) -> dict[LatticeSimplex, LatticeSimplex | None]:
        """Carried by ``with_lattice``; otherwise computed on first use."""
        if self._negatives is None:
            classes = self.face_classes
            self._negatives = {s: (n if (n := self.canonical_simplex(s.negate())) in classes
                                   else None) for s in self.simplices}
        return self._negatives

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
        """Develop a unit-cell triangulation over the cosets of Z^t modulo Λ_b.

        The classes are dev[u, r] = u + rep[r], for each unit class u and
        residue r; their face pairs, negatives and order are read off the
        unit cell's by residue arithmetic (see the module docstring).
        """
        if self.lattice is not None:
            raise ValueError("triangulation already has a lattice attached")
        cosets = _CosetMap(self.rank, lattice)
        reps = cosets.coset_representatives()
        n = len(reps)
        # blocks[u][r] is dev[u, r] = u + rep[r], built one vertex column at a time.
        blocks = {u: list(map(_simplex, zip(*[[tuple(map(add, v, g)) for g in reps]
                                               for v in u.vertices])))
                  for u in self.simplices}

        @functools.cache
        def moved(v: Vector, sign: int) -> list[int]:
            """r ↦ (sign·r − U·v) mod D, by residue index."""
            return cosets.index_map([-x for x in cosets.residue(v)], sign)

        shifts = functools.cache(cosets.shifts)

        def face_column(uf: LatticeSimplex, z: Vector) -> list:
            """(dev[uf, r'], z + rep[r'] − rep[r]) for every r."""
            return list(zip(map(blocks[uf].__getitem__, moved(z, 1)), shifts(z)))

        face_classes = {}
        negatives = {}
        for u, block in blocks.items():
            columns = [face_column(uf, z) for uf, z in self.face_classes[u]]
            face_classes.update(zip(block, zip(*columns)) if columns else dict.fromkeys(block, ()))
            star = self.negatives[u]
            negatives.update(zip(block, [None] * n if star is None else
                                 map(blocks[star].__getitem__, moved(u.vertices[-1], -1))))
        if len(face_classes) != n * len(blocks):
            raise ValueError("unit-cell classes collapsed while developing")
        order = sorted(range(n), key=reps.__getitem__)
        by_dim = {}
        for k in range(self.rank + 1):
            units = [blocks[u] for u in self.by_dim(k)]
            by_dim[k] = tuple(block[r] for r in order for block in units)
        t = PeriodicTriangulation.__new__(PeriodicTriangulation)
        t._cosets = cosets
        t._fill(self.rank, lattice, face_classes, by_dim, negatives, blocks)
        return t

    @functools.cached_property
    def diameters(self) -> tuple[int, ...]:
        """``diameter_inf`` of each class, in the order of ``simplices``."""
        return tuple(s.diameter_inf() for s in self.simplices)

    def max_diameter(self) -> int:
        return max(self.diameters, default=0)

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


# auto_scale only reads the cell, so one per rank serves every call.
_standard_cell = functools.cache(standard_triangulation)


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
    for s, reach in zip(t.simplices, t.diameters):
        for lam, norm in translates:
            if norm <= reach and hulls_intersect(s, s.translate(lam)):
                out.append((lam, s))
    return out


def check_h_freeness(t: PeriodicTriangulation, *, window: int | None = None,
                     allow_unsafe: bool = False) -> list[tuple[Vector, LatticeSimplex]]:
    """Fixed classes of the inversion: pairs (y, S) with dim S >= 1 and
    -S = S + b(y,-), y = 0 included.  Empty for even pairings; the odd
    control b = (3) produces -[1,2] = [1,2] - 3.

    y is reported in coordinates relative to the lattice's row basis, which
    are the Y-coordinates whenever the lattice is the row lattice of b.

    Translation preserves the lexicographic order, so −S = S + λ forces
    λ = lexmin(−S) − lexmin(S), and the canonical class S is fixed exactly
    when it is its own carried negative.  A fixed class is kept when its λ
    is within the window.  λ equals −2·centroid(S), so with no window every
    fixed class is reported.
    """
    if t.lattice is None:
        raise ValueError("H-freeness needs a translation lattice attached")
    if window is not None:
        _refuse_small_window(window, required_window(t), allow_unsafe)
    negatives = t.negatives
    out = []
    for s in t.simplices:
        if s.dim < 1 or negatives[s] != s:
            continue
        # lexmin(−S) = −lexmax(S).
        lam = tuple(-a - b for a, b in zip(s.vertices[-1], s.vertices[0]))
        if window is None or max(abs(x) for x in lam) <= window:
            out.append((_lattice_coefficients(t, lam), s))
    return out


def vertices_complete(t: PeriodicTriangulation) -> bool:
    """Developed vertex set is all of X^v: one vertex class per coset."""
    return len(t.by_dim(0)) == t.class_index()


def check_gamma_admissible(t: PeriodicTriangulation) -> bool:
    """The developed fan is stable under every S_(y,h), h = ±1.

    Classes are stored modulo Λ, so stability under translation holds by
    construction; what remains is that −S is a class for every class S.
    """
    if t.lattice is None:
        raise ValueError("Γ-admissibility needs a translation lattice attached")
    return None not in t.negatives.values()


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


def _opposite_vertices(t: PeriodicTriangulation):
    """For each top-dimensional representative s, the vertex opposite each
    wall in the developed simplex on its other side, in the vertex-deletion
    order of ``s.faces()``; None where the wall is not interior.  Yields
    (s, opposite vertices).

    A wall is an occurrence (top, face index) of a face class in the carried
    ``face_classes``.  When its class has exactly one other occurrence
    (o, j), and z, z_o shift the two occurrences into the class, the
    neighbour is o + z_o − z and the vertex opposite the wall is
    o.vertices[j] + z_o − z.
    """
    tops = t.by_dim(t.rank)
    incidence: dict[LatticeSimplex, list[tuple[LatticeSimplex, int, Vector]]] = {}
    for s in tops:
        for i, (key, z) in enumerate(t.face_classes[s]):
            incidence.setdefault(key, []).append((s, i, z))
    for s in tops:
        opposite = []
        for i, (key, z) in enumerate(t.face_classes[s]):
            others = [(o, j, z_o) for o, j, z_o in incidence[key] if (o, j) != (s, i)]
            if len(others) == 1:
                o, j, z_o = others[0]
                opposite.append(tuple(v + a - b for v, a, b in zip(o.vertices[j], z_o, z)))
            else:
                opposite.append(None)
        yield s, opposite


def _wall_neighbors(t: PeriodicTriangulation):
    """For each facet of each top-dimensional representative, the developed
    simplex on the other side.  Yields (top, facet, neighbor) or
    (top, facet, None) when the wall is not interior."""
    for s, opposite in _opposite_vertices(t):
        for f, w in zip(s.faces(), opposite):
            yield s, f, (None if w is None else LatticeSimplex([*f.vertices, w]))


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
    for s, opposite in _opposite_vertices(t):
        if None in opposite:
            return None
        shape = _shape(s)
        for w in opposite:
            key = (shape, _offset(w, s.vertices[0]))
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

    A fan developed by ``with_lattice`` takes the four lattice-free flags
    from its unit cell, with which they agree (module docstring).
    """
    violations = {
        "property_d": check_property_d(t, window, allow_unsafe=allow_unsafe),
        "h_free": check_h_freeness(t, window=window, allow_unsafe=allow_unsafe),
    }
    blocks = t._unit_blocks
    flags = _lattice_free_flags(t) if blocks is None else _unit_cell_flags(t.rank, tuple(blocks))
    certs = _certificates(flags, not violations["property_d"], not violations["h_free"])
    t.certificates = dict(certs)
    t.violations = violations
    return certs


def _lattice_free_flags(t: PeriodicTriangulation) -> tuple[bool, bool, bool, bool]:
    """(semistable, unimodular, vertices_complete, polarization).

    t is the developed fan or its unit cell, which agree on these four
    flags.  Unimodularity is tested once per simplex shape: (x, h) ↦ (x + hμ, h)
    is unimodular, so it is invariant under integer shifts.
    """
    semistable = check_semistable(t)
    unimodular = all(is_unimodular(s) for s in {_shape(s): s for s in t.simplices}.values())
    polarization = (semistable and unimodular
                    and _polarization_check(t, default_polarization_form(t.rank)))
    return semistable, unimodular, vertices_complete(t), polarization


# Bounded, since fan documents bring unit cells from outside the program.
@functools.lru_cache(maxsize=64)
def _unit_cell_flags(rank: int,
                     classes: tuple[LatticeSimplex, ...]) -> tuple[bool, bool, bool, bool]:
    """``_lattice_free_flags`` of the unit cell with these classes, computed
    once per process for each of the 64 cells used most recently."""
    return _lattice_free_flags(PeriodicTriangulation(rank, classes, None))


def _certificates(flags: tuple[bool, bool, bool, bool], property_d: bool,
                  h_free: bool) -> dict[str, bool]:
    """The certificate dict: the lattice-free flags around the two others."""
    semistable, unimodular, complete, polarization = flags
    return {"semistable": semistable, "unimodular": unimodular, "property_d": property_d,
            "h_free": h_free, "vertices_complete": complete, "polarization": polarization}


def certify_unit_cell(unit: PeriodicTriangulation, lattice: IntMatrix) -> dict[str, bool]:
    """The certificates ``certify(unit.with_lattice(lattice))`` would give,
    decided on the classes of the unit cell without developing them.

    The module docstring proves that each flag agrees.  Only two depend on
    Λ: property (d) tests the nonzero λ ∈ Λ with ‖λ‖_∞ <= diameter(s) for
    each unit class s, and H-freeness tests the parity of each unit edge
    against the 2^t sums of rows of Λ.
    """
    if unit.lattice is not None:
        raise ValueError("expected a unit-cell triangulation")
    rank = unit.rank
    cosets = _CosetMap(rank, lattice)
    property_d = not any(
        any(lam) and not any(cosets.residue(lam))
        and hulls_intersect(s, s.translate(lam))
        for s in unit.simplices
        for lam in product(range(-s.diameter_inf(), s.diameter_inf() + 1), repeat=rank))
    row_sums = {tuple(sum(row[k] for row, e in zip(lattice.entries, pick) if e) % 2
                      for k in range(rank))
                for pick in product((0, 1), repeat=rank)}
    # The edge class [0, v] is fixed iff v ∈ 2·Z^t + Λ.
    h_free = not any(tuple(x % 2 for x in e.vertices[1]) in row_sums for e in unit.by_dim(1))
    return _certificates(_unit_cell_flags(rank, unit.simplices), property_d, h_free)


def auto_scale(d: DegenerationData) -> tuple[int, PeriodicTriangulation]:
    """Smallest base-change index ν for which the standard triangulation with
    lattice Λ_(ν·b) passes all four fan checks; the returned triangulation is
    certified for base_change(d, ν).

    Each ν is decided by ``certify_unit_cell`` on the ≤ 6 classes of the
    standard cell, and only the accepted ν is developed.  Its certificates,
    with empty violation lists, are attached to the returned triangulation.
    On the standard cell the proofs of the module docstring read: property
    (d) tests the nonzero λ ∈ Λ with ‖λ‖_∞ <= 1; H-freeness fails iff an
    edge direction v ∈ {(1), (1,0), (0,1), (1,1)} lies in 2·Z^t + Λ; the
    developed shapes, and so unimodularity, are the unit ones; the
    polarization margins are the unit margins, each repeated once per
    coset; and the cell has a vertex, so it is semistable and
    vertex-complete over every Λ.  These four flags and the cell itself
    are computed once per rank and process.

    ν <= 2.  The standard triangulation is semistable and unimodular, and
    its simplices have diameter <= 1.  At ν = 2 every nonzero λ ∈ Λ_(2b)
    lies in 2·Z^t, so ‖λ‖_∞ >= 2 and property (d) holds.  A fixed class
    −S = S + λ would make S symmetric about the lattice point −λ/2: an edge
    (direction (1), (1,0), (0,1) or (1,1)) has no lattice midpoint, and a
    triangle would fix one vertex and swap the other two about it, making
    all three collinear.  So H-freeness holds too, as it must for the even
    pairing 2b.
    """
    unit = _standard_cell(d.rank)
    for nu in (1, 2):
        lattice = base_change(d, nu).b
        certs = certify_unit_cell(unit, lattice)
        if all(certs[k] for k in ("semistable", "unimodular", "property_d", "h_free")):
            tri = unit.with_lattice(lattice)
            tri.certificates = certs
            tri.violations = {"property_d": [], "h_free": []}
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
    """The fan of a document: the development of the unit cell of its
    simplices' shapes when that is the document's fan, else the constructor's.

    Validity is translation-invariant, so the first simplex of each shape is
    validated, and a bad one is reported as the constructor would report it.
    """
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
    shapes: dict[tuple[Vector, ...], LatticeSimplex] = {}
    listed = []  # (shape, lexmin vertex) of each simplex
    for raw in raw_simplices:
        if (not isinstance(raw, list) or not raw
                or any(not isinstance(v, list) or len(v) != rank for v in raw)
                or any(not isinstance(x, int) or isinstance(x, bool) for v in raw for x in v)):
            raise SchemaError("each simplex must be a nonempty list of rank-length "
                              "integer vectors")
        verts = sorted(map(tuple, raw))
        lexmin = verts[0]
        shape = tuple(tuple(map(sub, v, lexmin)) for v in verts)
        if shape not in shapes:
            try:
                LatticeSimplex(raw)
            except ValueError as exc:
                raise SchemaError(f"bad simplex {raw}: {exc}") from exc
            shapes[shape] = _simplex(shape)
        listed.append((shapes[shape], lexmin))
    try:
        lattice = IntMatrix(raw_lattice, shape=(rank, rank))
        return (_development(rank, list(shapes.values()), listed, lattice)
                or PeriodicTriangulation(rank, [u.translate(x) for u, x in listed], lattice))
    except (ValueError, SingularPairing) as exc:
        raise SchemaError(str(exc)) from exc


def _development(rank: int, shapes: list[LatticeSimplex],
                 listed: list[tuple[LatticeSimplex, Vector]],
                 lattice: IntMatrix) -> PeriodicTriangulation | None:
    """``unit.with_lattice(lattice)`` for the unit cell of the shapes, if
    its classes are those of the listed simplices u + x closed under faces,
    and so the constructor's triangulation (module docstring); else None.
    """
    unit = PeriodicTriangulation(rank, shapes, None)
    # The listed classes closed under faces number at most their nonempty
    # faces; a development with more classes is not the document's fan.
    if len(unit.simplices) * abs(lattice.det()) > sum(2 ** len(u.vertices) - 1
                                                      for u, _ in listed):
        return None
    t = unit.with_lattice(lattice)
    blocks, index = t._unit_blocks, functools.cache(t._cosets.residue_index)
    reached = {blocks[u][index(x)] for u, x in listed}
    queue = list(reached)
    while queue:
        for f, _ in t.face_classes[queue.pop()]:
            if f not in reached:
                reached.add(f)
                queue.append(f)
    return t if len(reached) == len(t.simplices) else None
