"""Certified semistable fans in height-1 slice form.

A smooth Γ-admissible semistable cone decomposition of the cone over
X^v_R is stored as its height-1 slice: a Y-periodic unimodular
triangulation of R^t whose vertex set is X^v ≅ Z^t.  The translation
lattice is Λ_b, spanned by the functionals b(e_i, -) (the rows of b).
Cones are recovered as cones over the simplices placed at height 1; the
apex ray sits over the vertex 0.

The certification checks scan only as far as short proofs require.  A
translate λ with hull(S) ∩ hull(S + λ) nonempty is a difference of two
points of hull(S), so property (d) needs only the λ with |λ_i| <=
extent_i(S) = max_i(S) − min_i(S) in each coordinate i.  Each is tested in
the affine coordinates of S, in any rank: S with vertices v_0, ..., v_k
meets S + λ iff λ = Σγ_i·v_i for a γ with Σγ_i = 0, which is then unique,
and ‖γ‖₁ <= 2 (``_meets_translate``).  One exact solve per simplex shape
serves every translate.  A fixed class −S = S + λ of the inversion forces
λ = lexmin(−S) − lexmin(S), because translation preserves the
lexicographic order, so H-freeness reads whether each class is its own
carried negative.  Unimodularity and the polarization margins are
invariant under integer shifts and are computed once per simplex shape.

Every fan is a cell and coset representatives of Z^t/Λ: its class at
position q·m_k + j is the j-th k-class of the cell plus the q-th
representative.  A unit cell is the fan of its shapes over Z^t, each class
with the lexmin vertex 0.  A development (``with_lattice``) is a unit cell
over Λ with every representative; equal classes have one lexmin vertex, a
representative, and then one unit class.  A fan read class by class (the
constructor) is its own cell with the one representative 0.  ``certify``
checks any fan; ``auto_scale`` checks none (a parity theorem, its docstring).

``with_lattice`` develops by arithmetic on residues, with no class made
canonical again.  Let U·Λ^T·V = D = diag(d_1, ..., d_t) be the Smith form.
The coset of x ∈ Z^t is its residue ρ(x) = U·x mod D in ∏ Z/d_i, and its
canonical point is rep[ρ(x)] = U^{-1}·ρ(x); ρ is additive and
ρ(rep[r]) = r.  So dev[u, r] = u + rep[r] has the canonical lexmin vertex
rep[r], and is the stored class.  A development is carried as its unit
cell and integer tables (``tables``), and builds no developed simplex until
``simplices`` or ``by_dim`` is read.

- Faces.  Let f + z = uf be the unit class of the i-th face f of u: for
  i >= 1, f keeps the lexmin vertex 0 and z = 0, and for i = 0, z = −u[1].
  The i-th face of dev[u, r] is f + rep[r]; its lexmin is rep[r] − z, of
  residue r' = (r − U·z) mod D = moved(z, 1)[r], where moved(v, sign)
  maps r to (sign·r − U·v) mod D.  Its canonical shift is therefore
  rep[r'] − rep[r] + z, and the shifted face is uf + rep[r'] = dev[uf, r'].
- Negatives.  Let −u + w = u* be canonical in the unit cell (w = lexmax u).
  Then −dev[u, r] = u* − w − rep[r] has lexmin −w − rep[r], of residue
  r* = (−U·w − r) mod D = moved(w, −1)[r], so its class is dev[u*, r*].
  When −u is not a unit class, −dev[u, r] ≡ −u mod Z^t is no developed
  class either, since each developed class is congruent mod Z^t to the
  unit class it came from.
- Order.  dev[u, r] and dev[u', r'] compare first by rep[r] against
  rep[r'], and for r = r' as u against u' (translation keeps the order).
  The sorted classes of dimension k are thus the unit classes of dimension
  k, in their order, for each representative in lexicographic order:
  dev[u, r] is at position ord(r)·m_k + j(u), where ord(r) is the rank of
  rep[r] among the representatives, m_k the number of unit k-classes and
  j(u) the index of u among them.  ``tables`` holds, for each k-class by
  position, the positions of its faces and of its negative.

The six flags agree, and the violation lists equal those of the scans over
every developed class, in the order of ``simplices``:

- Property (d) is invariant under translation: dev[u, r] meets its
  translate by λ iff u does, for the same λ ∈ Λ∖{0} (λ ∈ Λ iff its residue
  is 0), and the extents of dev[u, r] are those of u.  So the scan's list
  holds (λ, dev[u, r]) for every residue r of each unit violation (λ, u),
  with |λ_i| <= extent_i(u) in each coordinate.  The scan visits the classes by
  position and, for each, the λ in lexicographic order; ``certify`` sorts
  the same pairs by the same keys.
- H-freeness: a class is fixed by the inversion iff it is its own
  negative, that is iff the negatives table maps its position to itself.
  The check reads that table, which the dual complex and Γ-admissibility
  read too, and builds only the fixed classes, in the order of their
  positions.
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

These four flags do not depend on Λ, so they are computed once per unit
cell and carried on it, and ``certify`` reads a development's off its unit
cell.  The unit cells themselves come from one cache keyed by rank and shape
set, so ``auto_scale`` and every document with the same shapes, over any
lattice, develop the same cell and compute its tables and flags once.

``fan_from_json`` reads a document as a development when it can.  Each listed
simplex S is u + x for its shape u (lexmin vertex 0) and x = lexmin(S).  The
unit cell of the distinct shapes develops to the classes dev[u, r], and the
class of S is dev[u, ρ(x)], because translation keeps the lexmin vertex.  The
simplices of each length are sorted and flattened once, so the columns of x
and the flat keys of u are strided slices, and ρ(x) is computed column by
column.  ``PeriodicTriangulation(rank, simplices, Λ)`` stores the set C of
the listed classes closed under faces.  It orders C by (dim, vertices); its
faces are the classes of the faces, and its negatives the class of −S when
that lies in C.  Each is a function of C and Λ alone, and a development
gives the same functions of its own classes (above).  So a document whose C
is the developed class set *is* the development, with the same order, faces
and negatives.  C lies inside that set, since it is closed under the
developed faces, which are the canonical ones; the two are equal exactly
when every maximal unit class is listed at every residue (``_development``).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, groupby, product, repeat
from operator import add, index, le, mod, mul, sub

from .degeneration import DegenerationData, base_change, is_even
from .errors import ResourceLimit, SchemaError, SingularPairing, UnsupportedRank
from .lattice import IntMatrix, smith_normal_form, solve
from .lattice import rank as matrix_rank

Vector = tuple[int, ...]

# Size limits, checked before the work they bound.  A development holds about
# 290 bytes per class at its peak (b = (10^6): 2·10^6 classes, 5 s, 577 MB),
# and property (d) takes about 30 µs and 2 kB per point of its translate box
# when every translate is a violation (10^5 points: 3 s, 230 MB), on a
# 2-vCPU Xeon VM under Python 3.11.
MAX_DEVELOPED_CLASSES = 3_000_000
MAX_TRANSLATE_BOX = 100_000


class LatticeSimplex(tuple):
    """A lattice simplex: 1 to t+1 distinct, affinely independent points of Z^t,
    stored as the tuple of its vertices in lexicographic order.  So it is
    immutable, and it equals and hashes as the plain tuple of its vertices."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[Sequence[int]]):
        verts = tuple(sorted(tuple(map(index, v)) for v in vertices))
        if not verts:
            raise ValueError("a simplex needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError(f"repeated vertices: {verts}")
        if len({len(v) for v in verts}) != 1:
            raise ValueError("vertices of mixed dimension")
        if matrix_rank([tuple(map(sub, v, verts[0])) for v in verts[1:]]) != len(verts) - 1:
            raise ValueError(f"vertices are affinely dependent: {verts}")
        return tuple.__new__(cls, verts)

    @property
    def vertices(self) -> tuple[Vector, ...]:
        """The vertices in lexicographic order, as a plain tuple."""
        return tuple(self)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def translate(self, shift: Sequence[int]) -> "LatticeSimplex":
        """S + shift; translation preserves the lexicographic order."""
        return _simplex(tuple(tuple(map(add, v, shift)) for v in self))

    def negate(self) -> "LatticeSimplex":
        """−S; negation reverses the lexicographic order."""
        return _simplex(tuple(tuple(-a for a in v) for v in reversed(self)))

    def faces(self) -> list["LatticeSimplex"]:
        """Codimension-1 faces, in vertex-deletion order."""
        if self.dim == 0:
            return []
        return [_simplex(self[:i] + self[i + 1:]) for i in range(len(self))]

    def __repr__(self) -> str:
        return f"LatticeSimplex({list(self)!r})"


def _simplex(vertices: tuple[Vector, ...]) -> LatticeSimplex:
    """A simplex from vertices already sorted, distinct and independent."""
    return tuple.__new__(LatticeSimplex, vertices)


def _identity(n: int) -> list[Vector]:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


class _CosetMap:
    """Canonical representatives of Z^t modulo the row span of a lattice matrix L.

    The Smith form U·L^T·V = D of the rows of L^T gives x ↦ U^{-1}·(U·x mod D);
    ``u`` and ``uinv`` hold the rows of U and U^{-1}, read off the rows of V
    as U^{-1} = L^T·V·D^{-1}: column j of L^T·V is d_j times column j of U^{-1}.
    """

    def __init__(self, rank: int, lattice: IntMatrix):
        self.lattice = lattice
        if lattice.rows != rank or lattice.cols != rank:
            raise SchemaError(f"lattice must be {rank}x{rank}")
        lt = list(zip(*lattice.entries))
        self.diag, self.u, v = smith_normal_form(lt)
        if 0 in self.diag:
            raise SingularPairing("translation lattice is degenerate (det = 0)")
        self.uinv = [[sum(map(mul, row, column)) // d for column, d in zip(zip(*v), self.diag)]
                     for row in lt]
        self.index = math.prod(self.diag)

    def residue(self, x: Sequence[int]) -> list[int]:
        """U·x mod D: the coset of x, zero exactly on the lattice."""
        return [sum(map(mul, row, x)) % d for row, d in zip(self.u, self.diag)]

    def residue_indices(self, columns: Sequence[Sequence[int]], n: int) -> list[int]:
        """The index of ρ(x) in the order of ``coset_representatives`` for
        each of n points x, given by their coordinate columns."""
        index = [0] * n
        for row, d in zip(self.u, self.diag):
            dot = repeat(0)
            for c, column in zip(row, columns):
                dot = map(add, dot, map(mul, column, repeat(c)))
            index = list(map(add, map(mul, index, repeat(d)), map(mod, dot, repeat(d))))
        return index

    def canonical_point(self, x: Vector) -> Vector:
        r = self.residue(x)
        return tuple(sum(map(mul, row, r)) for row in self.uinv)

    def coset_representatives(self) -> list[Vector]:
        """U^{-1}·r for every residue r, listed by residue index (the order of
        ``product``, last coordinate fastest), adding r_i·(column i of U^{-1})."""
        columns = [[0] for _ in self.diag]
        for d, step in zip(self.diag, zip(*self.uinv)):
            columns = [[x + r * c for x in column for r in range(d)]
                       for column, c in zip(columns, step)]
        return list(zip(*columns)) or [()]

    def moved(self, v: Vector, sign: int) -> list[int]:
        """For each residue index of r, the index of (sign·r − U·v) mod D."""
        out = [0]
        for c, d in zip(self.residue(v), self.diag):
            digits = [(sign * r - c) % d for r in range(d)]
            out = [i * d + x for i in out for x in digits]
        return out


class PeriodicTriangulation:
    """Finite set of simplex classes modulo the translation lattice Λ_b.

    Representatives are canonical: the lex-least vertex of each simplex is
    moved to its canonical coset representative.  Classes of every dimension
    0..t are stored, closed under faces.  A fan is a cell and coset
    representatives (module docstring): a unit cell is a fan over Z^t.

    The classes are stored by position, and ``tables`` holds the positions
    of their faces and negatives: the constructor sets both from the closure
    of its simplices, and a development (``with_lattice``) computes them from
    its unit cell and builds no class until ``simplices`` or ``by_dim`` is
    read.
    """

    def __init__(self, rank: int, simplices: Iterable[LatticeSimplex], lattice: IntMatrix):
        self._fill(rank, _CosetMap(rank, lattice), self, [(0,) * rank])
        faces: dict[LatticeSimplex, list[LatticeSimplex]] = {}
        queue = list({self.canonical_simplex(s) for s in simplices})
        seen = set(queue)
        while queue:
            s = queue.pop()
            row = faces[s] = s.faces()
            if row:
                # s is canonical, and the i-th face for i >= 1 keeps the lexmin
                # vertex s.vertices[0], so it is its own class.
                row[0] = self.canonical_simplex(row[0])
            for f in row:
                if f not in seen:
                    seen.add(f)
                    queue.append(f)
        ordered = sorted(faces, key=lambda s: (s.dim, s.vertices))
        by_dim = self._by_dim = {k: tuple(s for s in ordered if s.dim == k)
                                 for k in range(rank + 1)}
        position = {s: i for classes in by_dim.values() for i, s in enumerate(classes)}
        self.tables = (
            {k: tuple(tuple(map(position.__getitem__, faces[s])) for s in by_dim[k])
             for k in range(1, rank + 1)},
            {k: tuple(position.get(self.canonical_simplex(s.negate())) for s in classes)
             for k, classes in by_dim.items()})

    def _fill(self, rank: int, cosets: _CosetMap, unit: PeriodicTriangulation,
              reps: list[Vector]) -> None:
        self.rank = rank
        self.lattice = cosets.lattice
        self._cosets = cosets
        # The cell: a development's unit cell, and a constructor fan itself.
        self._unit = unit
        self._reps = reps
        # Set by certify() and auto_scale().
        self.certificate: Certificate | None = None

    @functools.cached_property
    def _by_dim(self) -> dict[int, tuple[LatticeSimplex, ...]]:
        # Set by the constructor.  A development's k-class at position
        # q·m_k + j is the j-th unit k-class plus the q-th representative.
        return {k: tuple(u.translate(g) for g in self._reps for u in self._unit.by_dim(k))
                for k in range(self.rank + 1)}

    @functools.cached_property
    def simplices(self) -> tuple[LatticeSimplex, ...]:
        return tuple(chain.from_iterable(self._by_dim.values()))

    @functools.cached_property
    def tables(self) -> tuple[dict[int, tuple[tuple[int, ...], ...]],
                              dict[int, tuple[int | None, ...]]]:
        """(faces, negatives) by position among the classes of a dimension.

        faces[k][p], for k >= 1, lists the positions of the faces of
        by_dim(k)[p] among the (k−1)-classes, in the order of ``faces()``;
        negatives[k][p] is the position of its negative, or None.  The
        constructor sets them; a development computes them from its unit cell
        by residue arithmetic (module docstring).
        """
        unit, rank = self._unit, self.rank
        n = len(self._reps)
        moved = functools.cache(self._moved)
        faces, negatives = {}, {}
        for k in range(rank + 1):
            units = unit.by_dim(k)
            m, below = len(units), len(unit.by_dim(k - 1))
            face_rows, images = [()] * (n * m), [None] * (n * m)
            for j, (u, row) in enumerate(zip(units, unit.tables[0].get(k, repeat(())))):
                # Only face 0 moves, by z = −u[1] (module docstring).
                if row:
                    first = [q * below + row[0] for q in moved(tuple(-x for x in u[1]), 1)]
                    face_rows[j::m] = zip(first, *[range(p, n * below, below) for p in row[1:]])
                if (i := unit.tables[1][k][j]) is not None:
                    images[j::m] = [q * m + i for q in moved(u.vertices[-1], -1)]
            if k:
                faces[k] = tuple(face_rows)
            negatives[k] = tuple(images)
        return faces, negatives

    @functools.cached_property
    def _flags(self) -> tuple[bool, bool, bool, bool]:
        # The four lattice-free flags, computed once per fan; a development
        # reads its unit cell's.
        return _lattice_free_flags(self)

    def _moved(self, v: Vector, sign: int) -> list[int]:
        """For each q, ord of moved(v, sign)[r] for the residue r of ord q."""
        moved, ords = self._cosets.moved(v, sign), self._ord
        return [ords[moved[r]] for r in self._order]

    def canonical_simplex(self, s: LatticeSimplex) -> LatticeSimplex:
        anchor = s[0]
        return s.translate(tuple(map(sub, self._cosets.canonical_point(anchor), anchor)))

    def by_dim(self, k: int) -> tuple[LatticeSimplex, ...]:
        return self._by_dim.get(k, ())

    def class_index(self) -> int:
        return self._cosets.index

    def class_labels(self, k: int) -> list[str]:
        """The label of each k-class by position, its vertices as in
        ``(0,0)|(1,0)``: one ``str.format`` template, a field per coordinate i
        of each vertex j, over columns.  The class at position q·m_k + p is the
        p-th k-class u of the cell plus the q-th representative g, of vertex j
        u[j] + g (``translate``), so column (j, i) lists u[j][i] + g[i] by position."""
        units, reps = self._unit.by_dim(k), self._reps
        template = "|".join(["(" + ",".join(["{}"] * self.rank) + ")"] * (k + 1))
        columns = [[u[j][i] + g[i] for g in reps for u in units]
                   for j in range(k + 1) for i in range(self.rank)]
        if not columns:  # rank 0: the template has no field
            return [template] * (len(reps) * len(units))
        return list(map(template.format, *columns))

    def with_lattice(self, lattice: IntMatrix) -> "PeriodicTriangulation":
        """Develop this fan of index 1 over the cosets of Z^t modulo Λ_b.

        The classes are dev[u, r] = u + rep[r], for each unit class u and
        residue r; their order, face pairs and negatives are read off the
        unit cell's by residue arithmetic (see the module docstring).  No two
        coincide, as at index 1 every class has the lexmin vertex 0; a fan of
        another index is refused with ValueError.  More than MAX_DEVELOPED_CLASSES
        classes are refused with ResourceLimit, before any is developed; each
        coset counts as one class at least, as its representative is listed.
        """
        if self.class_index() != 1:
            raise ValueError("only a fan of index 1 develops over a lattice")
        cosets = _CosetMap(self.rank, lattice)
        if cosets.index * max(len(self.simplices), 1) > MAX_DEVELOPED_CLASSES:
            raise ResourceLimit(f"the development would pass the limit of "
                                f"{MAX_DEVELOPED_CLASSES} classes")
        return self._develop(cosets)

    def _develop(self, cosets: _CosetMap) -> "PeriodicTriangulation":
        t = PeriodicTriangulation.__new__(PeriodicTriangulation)
        reps = cosets.coset_representatives()
        # _order lists the residue indices by rep; _ord[r] is the rank of rep[r].
        t._order = sorted(range(len(reps)), key=reps.__getitem__)
        t._ord = sorted(range(len(reps)), key=t._order.__getitem__)
        t._fill(self.rank, cosets, self, list(map(reps.__getitem__, t._order)))
        return t

    def __eq__(self, other) -> bool:
        return (isinstance(other, PeriodicTriangulation) and self.rank == other.rank
                and self.simplices == other.simplices and self.lattice == other.lattice)

    def __repr__(self) -> str:
        return (f"PeriodicTriangulation(rank={self.rank}, "
                f"classes={[len(self.by_dim(k)) for k in range(self.rank + 1)]})")


# Z^t, the lattice of a unit cell, for each rank that occurs.
_UNIT_LATTICES = {t: IntMatrix(_identity(t)) for t in range(3)}

# The classes of ``standard_triangulation(t)``, all listed as in a document of
# the standard fan, so that auto_scale and such documents share one cell.
_STANDARD_SHAPES = {t: frozenset(map(_simplex, shapes)) for t, shapes in (
    (0, [((),)]),
    (1, [((0,),), ((0,), (1,))]),
    (2, [((0, 0),), ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1)),
         ((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1))]))}


def _standard_shapes(t: int) -> frozenset[LatticeSimplex]:
    if t not in _STANDARD_SHAPES:
        raise UnsupportedRank(f"toric rank {t} does not occur for abelian surfaces")
    return _STANDARD_SHAPES[t]


def standard_triangulation(t: int) -> PeriodicTriangulation:
    """The uniform triangulation of R^t with vertex set Z^t, in unit-cell form.

    t = 0: the single vertex.  t = 1: unit intervals.  t = 2: unit squares
    each cut by the diagonal of direction (1, 1).
    """
    return PeriodicTriangulation(t, _standard_shapes(t), _UNIT_LATTICES[t])


# Bounded, since fan documents bring unit cells from outside the program.
@functools.lru_cache(maxsize=64)
def _unit_cell(rank: int, shapes: frozenset[LatticeSimplex]) -> PeriodicTriangulation:
    """The unit cell of these shapes, closed under faces, built once per
    process for each of the 64 shape sets used most recently.  Nothing in it
    depends on a lattice, so every development of it shares its classes,
    ``tables`` and lattice-free flags."""
    return PeriodicTriangulation(rank, shapes, _UNIT_LATTICES[rank])


def is_unimodular(s: LatticeSimplex) -> bool:
    """True iff the vectors (v, 1), v a vertex, extend to a basis of Z^(t+1)."""
    rows = [v + (1,) for v in s.vertices]
    diag, _, _ = smith_normal_form(rows)
    return len(diag) == len(rows) and all(x == 1 for x in diag)


def check_semistable(t: PeriodicTriangulation) -> bool:
    """All rays of the developed fan are of the form (l, 1) and the apex ray
    over 0 belongs to the fan: every vertex is a lattice point (structural)
    and the vertex 0, its own canonical class, is a vertex class."""
    return _simplex(((0,) * t.rank,)) in t.by_dim(0)


def _lattice_translates(t: PeriodicTriangulation, reach: Vector) -> list[Vector]:
    """Nonzero λ in the translation lattice with |λ_i| <= reach_i, sorted.

    λ = Wᵀ·y for the rows W of a basis, reduced by ``_reduced_basis``, and
    the integer coefficients y = adj(Wᵀ)·λ / det Wᵀ, so |y_i| <= Σ_j
    |adj(Wᵀ)_ij|·reach_j / |det|, and since |y_i| is an integer it is at
    most the floor of that bound: the box of y below is complete.  A box
    past MAX_TRANSLATE_BOX points is refused with ResourceLimit.
    """
    w = _reduced_basis(t.lattice.entries)
    n = t.rank
    adj, det = solve(list(zip(*w)), _identity(n))
    bounds = [sum(map(mul, map(abs, row), reach)) // abs(det) for row in adj]
    if math.prod(2 * b + 1 for b in bounds) > MAX_TRANSLATE_BOX:
        raise ResourceLimit(f"property (d) would scan more than {MAX_TRANSLATE_BOX} "
                            f"lattice translates")
    out = []
    for y in product(*(range(-b, b + 1) for b in bounds)):
        if all(v == 0 for v in y):
            continue
        lam = tuple(sum(y[i] * w[i][j] for i in range(n)) for j in range(n))
        if all(map(le, map(abs, lam), reach)):
            out.append(lam)
    return sorted(out)


def _reduced_basis(w: Sequence[Vector]) -> Sequence[Vector]:
    """Two independent rows reduced by Lagrange–Gauss to a basis a, b of
    their lattice with |a| <= |b| <= |b − q·a| for every integer q; the rows
    of any other rank as given."""
    if len(w) != 2:
        return w
    a, b = w
    while True:
        # b minus the multiple of a nearest its projection, rounded exactly.
        aa = sum(map(mul, a, a))
        q = (2 * sum(map(mul, a, b)) + aa) // (2 * aa)
        b = tuple(x - q * y for x, y in zip(b, a))
        if sum(map(mul, b, b)) >= aa:
            return a, b
        a, b = b, a


def _lattice_coefficients(t: PeriodicTriangulation, lam: Vector) -> Vector:
    """Express λ in the row basis of the lattice (the Y-coordinates)."""
    num, det = solve(list(zip(*t.lattice.entries)), [(x,) for x in lam])
    if any(x % det for (x,) in num):
        raise ValueError(f"{lam} is not in the translation lattice")
    return tuple(x // det for (x,) in num)


# -- the certification checks -------------------------------------------------

def _affine_frame(vertices: Sequence[Vector]) -> tuple[list, list[Vector], int]:
    """(rows of Eᵀ, rows of adj G·E, det G) for affinely independent v_0, ...,
    v_k: E has the rows v_i − v_0 and G = E·Eᵀ, whose determinant is
    positive.  Eᵀ has one row per coordinate, empty when k = 0.  adj G·E and
    det G come from one solve of G·X = E."""
    origin = vertices[0]
    et = [[v[j] - origin[j] for v in vertices[1:]] for j in range(len(origin))]
    e = list(zip(*et))
    solver, det = solve([[sum(map(mul, a, b)) for b in e] for a in e], e)
    return et, solver, det


def _meets_translate(frame: tuple[list, list[Vector], int], lam: Vector) -> bool:
    """Whether hull(S) and hull(S + λ) share a point, for the
    ``_affine_frame`` (rows of Eᵀ, rows of adj G·E, det G) of S, in any rank.

    Proof.  A common point is Σα_i·v_i = Σβ_i·v_i + λ for barycentric α, β,
    so one exists iff λ = Σγ_i·v_i for a γ = α − β.  A γ with Σγ_i = 0 is
    such a difference iff Σγ⁺ <= 1 (take α = γ⁺ + μ, β = γ⁻ + μ for μ >= 0 of
    sum 1 − Σγ⁺; conversely α >= γ⁺), that is ‖γ‖₁ <= 2, as Σγ⁺ = Σγ⁻.  Then
    Σγ_i·v_i = Eᵀ·γ' for γ' = (γ_1, ..., γ_k), and G·γ' = E·λ has the one
    solution γ' = c / det G, c = adj G·E·λ, since E has independent rows.  So
    λ is reached iff Eᵀ·c = det G·λ, and then γ_0 = −Σc / det G, and
    ‖γ‖₁ <= 2 iff |Σc| + Σ|c_i| <= 2·det G.
    """
    et, solver, det = frame
    c = [sum(map(mul, row, lam)) for row in solver]
    return ([sum(map(mul, row, c)) for row in et] == [det * x for x in lam]
            and abs(sum(c)) + sum(map(abs, c)) <= 2 * det)


def check_property_d(t: PeriodicTriangulation) -> list[tuple[Vector, LatticeSimplex]]:
    """Violations of the disjointness condition: nonzero λ = b(y,-) with
    hull(S) ∩ hull(S + λ) nonempty.  Empty result = certified.

    A violating λ is p − q with p, q ∈ hull(S), so |λ_i| <= extent_i(S) in
    each coordinate i.  The scan lists the translates within the largest
    extents once, keeps for each distinct extents those within them, and
    tests S against these in exact affine coordinates (``_meets_translate``):
    λ must be Σγ_i·v_i with Σγ_i = 0 and ‖γ‖₁ <= 2, in any rank.  The frame
    of that test is computed once per distinct shape of S, and no translate
    of S is built.  The cell is scanned, and each violation of the cell is
    listed at every representative (module docstring).
    """
    extents = {s: tuple(max(c) - min(c) for c in zip(*s.vertices)) for s in t._unit.simplices}
    # The largest extent in each coordinate, 0 when there is no class.
    largest = tuple(map(max, zip((0,) * t.rank, *extents.values())))
    translates = _lattice_translates(t, largest)

    @functools.cache
    def within(extent: Vector) -> list[Vector]:
        return [lam for lam in translates if all(map(le, map(abs, lam), extent))]

    frame = functools.cache(_affine_frame)

    def hits(s: LatticeSimplex) -> list[Vector]:
        return [lam for lam in within(extents[s]) if _meets_translate(frame(_shape(s)), lam)]

    out = []
    for k in range(t.rank + 1):
        found = [hits(u) for u in t._unit.by_dim(k)]
        if any(found):
            # The class at position q·m_k + j has the hits of cell class j.
            out += [(lam, _class_at(t, k, p)) for p in range(len(t._reps) * len(found))
                    for lam in found[p % len(found)]]
    return out


def check_h_freeness(t: PeriodicTriangulation) -> list[tuple[Vector, LatticeSimplex]]:
    """Fixed classes of the inversion: pairs (y, S) with dim S >= 1 and
    -S = S + b(y,-), y = 0 included.  Empty for even pairings; the odd
    control b = (3) produces -[1,2] = [1,2] - 3.

    y is reported in coordinates relative to the lattice's row basis, which
    are the Y-coordinates whenever the lattice is the row lattice of b.

    Translation preserves the lexicographic order, so −S = S + λ forces
    λ = lexmin(−S) − lexmin(S), and the class at position p is fixed
    exactly when the negatives table (``tables[1]``) maps p to p.  Only the
    fixed classes are built, in the order of their positions.
    """
    out = []
    for k in range(1, t.rank + 1):
        for s in [_class_at(t, k, p) for p, image in enumerate(t.tables[1][k]) if image == p]:
            # lexmin(−S) = −lexmax(S).
            lam = tuple(-a - b for a, b in zip(s.vertices[-1], s.vertices[0]))
            out.append((_lattice_coefficients(t, lam), s))
    return out


def _class_at(t: PeriodicTriangulation, k: int, p: int) -> LatticeSimplex:
    """The k-class at position p = q·m_k + j, built alone: the j-th k-class
    of the cell plus the q-th representative."""
    classes = t._unit.by_dim(k)
    q, j = divmod(p, len(classes))
    return classes[j].translate(t._reps[q])


def vertices_complete(t: PeriodicTriangulation) -> bool:
    """Developed vertex set is all of X^v: one vertex class per coset."""
    return len(t.by_dim(0)) == t.class_index()


def check_gamma_admissible(t: PeriodicTriangulation) -> bool:
    """The developed fan is stable under every S_(y,h), h = ±1.

    Classes are stored modulo Λ, so stability under translation holds by
    construction; what remains is that −S is a class for every class S.
    """
    return all(None not in images for images in t.tables[1].values())


# -- polarization surrogate ----------------------------------------------------

def _form(v: Vector) -> int:
    """The one form whose PL interpolation stands in for a polarization
    function: Q(m) = m² in rank 1, and Q(m, n) = m² + n² − mn in rank 2, whose
    Delaunay subdivision is the (1,1)-diagonal cut of the unit squares."""
    if len(v) == 1:
        return v[0] * v[0]
    m, n = v
    return m * m + n * n - m * n


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

    A wall is an occurrence (top, face index) of a face class position in
    ``tables[0]``.  When its class has exactly one other occurrence (o, j),
    the j-th face of o is moved onto the i-th face of s by the difference of
    their lexmin vertices, and so is o onto the neighbour.  The lexmin of the
    face without vertex i is vertex 1 for i = 0 and vertex 0 otherwise, so
    the opposite vertex is o[j] + s[i == 0] − o[j == 0].
    """
    tops = t.by_dim(t.rank)
    rows = t.tables[0].get(t.rank, [()] * len(tops))
    incidence: dict[int, list[tuple[LatticeSimplex, int]]] = {}
    for s, row in zip(tops, rows):
        for i, f in enumerate(row):
            incidence.setdefault(f, []).append((s, i))
    for s, row in zip(tops, rows):
        opposite = []
        for i, f in enumerate(row):
            others = [(o, j) for o, j in incidence[f] if (o, j) != (s, i)]
            if len(others) == 1:
                o, j = others[0]
                opposite.append(tuple(v + a - b for v, a, b in zip(o[j], s[i == 0], o[j == 0])))
            else:
                opposite.append(None)
        yield s, opposite


def _polarization_margins(t: PeriodicTriangulation) -> list[int] | None:
    """Convexity margins of the PL interpolation of ``_form`` across the
    interior walls; None if a wall has no unique neighbor.

    With (num, det) = solve([1 | v], Q(v)) on the vertices v of s, the margin
    at the opposite vertex w is Q(w) − (num_0 + Σ num_i·w_i) / det, and the
    integer det·(Q(w)·det − num_0 − Σ num_i·w_i) is det² times it.  On a
    unimodular simplex the rows (v, 1) are a basis of Z^(t+1), so det = ±1
    and this integer is the exact margin; ``_lattice_free_flags`` computes
    the margins only on unimodular fans.
    """
    if t.rank > 2:
        raise UnsupportedRank(f"toric rank {t.rank} does not occur for abelian surfaces")
    # Q(l + μ) − Q(l) is affine in l, so a margin depends only on the wall's
    # shape: the vertices of s and w relative to the first vertex of s.
    @functools.cache
    def margin(shape: tuple[Vector, ...], w: Vector) -> int:
        column, det = solve([(1,) + v for v in shape], [(_form(v),) for v in shape])
        num_0, *num = (x for (x,) in column)
        return det * (_form(w) * det - num_0 - sum(map(mul, num, w)))

    margins = []
    for s, opposite in _opposite_vertices(t):
        if None in opposite:
            return None
        shape = _shape(s)
        margins += [margin(shape, _offset(w, s.vertices[0])) for w in opposite]
    return margins


# -- certification and scaling --------------------------------------------------

class Certificate(namedtuple("Certificate", "semistable unimodular vertices_complete polarization "
                             "property_d_violations h_free_violations", defaults=((), ()))):
    """The verdicts of the checks on a fan: four flags, and the violations of
    property (d) and H-freeness, tuples of (vector, class) pairs, which hold
    exactly when there are none.

    ``passes`` is what ``fan check`` needs for exit 0; ``complex_refusal``
    names the first flag that the dual complex needs and that fails.
    """

    __slots__ = ()

    @property
    def property_d(self) -> bool:
        return not self.property_d_violations

    @property
    def h_free(self) -> bool:
        return not self.h_free_violations

    def flags(self) -> dict[str, bool]:
        """The six flags by name, in the order of the reports."""
        return {k: getattr(self, k) for k in ("semistable", "unimodular", "property_d",
                                              "h_free", "polarization", "vertices_complete")}

    def passes(self) -> bool:
        return (self.semistable and self.unimodular and self.property_d and self.h_free
                and self.vertices_complete)

    def complex_refusal(self) -> str | None:
        return next((k for k in ("semistable", "unimodular", "property_d")
                     if not getattr(self, k)), None)


def certify(t: PeriodicTriangulation) -> Certificate:
    """Run every check, and set and return ``t.certificate``.

    A development takes the four lattice-free flags from its unit cell,
    with which they agree, and its property-(d) violations are found on the
    unit cell (module docstring).
    """
    violations = tuple(check_property_d(t)), tuple(check_h_freeness(t))
    t.certificate = Certificate(*t._unit._flags, *violations)
    return t.certificate


def _lattice_free_flags(t: PeriodicTriangulation) -> tuple[bool, bool, bool, bool]:
    """(semistable, unimodular, vertices_complete, polarization).

    t is the developed fan or its unit cell, which agree on these four
    flags.  Unimodularity is tested once per simplex shape: (x, h) ↦ (x + hμ, h)
    is unimodular, so it is invariant under integer shifts.
    """
    semistable = check_semistable(t)
    unimodular = all(is_unimodular(s) for s in {_shape(s): s for s in t.simplices}.values())
    margins = _polarization_margins(t) if semistable and unimodular else None
    polarization = margins is not None and all(m > 0 for m in margins)
    return semistable, unimodular, vertices_complete(t), polarization


def auto_scale(d: DegenerationData) -> tuple[int, PeriodicTriangulation]:
    """Smallest base-change index ν for which the standard triangulation with
    lattice Λ_(ν·b) passes the four core checks (semistable, unimodular,
    property (d), H-freeness), and that development with its certificate.

    Theorem: ν = 1 if every entry of b is even, and ν = 2 otherwise; at that
    ν every check passes with no violation.  So no check runs here: the
    standard cell comes from the cache of unit cells, shared with documents
    of the standard fan, its four lattice-free flags are computed once per
    cell, and the development builds no simplex.

    Proof.  The standard cell has a vertex and is unimodular, so it is
    semistable and vertex-complete over every Λ, and its polarization margins
    are the unit ones (module docstring).  Its simplices have extents <= 1,
    and its edge directions, (1) or (1,0), (0,1), (1,1), cover every nonzero
    class of Z^t/2Z^t.
    - If Λ ⊂ 2Z^t, every nonzero λ ∈ Λ has ‖λ‖_∞ >= 2, so property (d) holds.
      A fixed class −S = S + λ would make S symmetric about the lattice point
      −λ/2: an edge of a direction above has no lattice midpoint, and a
      triangle would fix one vertex and swap the other two about it, making
      all three collinear.  So H-freeness holds.
    - Otherwise some λ ∈ Λ is v + 2m for an edge direction v and m ∈ Z^t, and
      −[m, m + v] = [−m − v, −m] = [m, m + v] − λ is a fixed class, so
      H-freeness fails at ν = 1.
    Λ_b is spanned by the rows of b, so Λ_b ⊂ 2Z^t exactly when b is even,
    and Λ_(2b) = 2·Λ_b always is.  In rank 0 there is no λ, and b is even.
    """
    nu = 1 if is_even(d) else 2
    unit = _unit_cell(d.rank, _standard_shapes(d.rank))
    tri = unit.with_lattice((d if nu == 1 else base_change(d, nu)).b)
    tri.certificate = Certificate(*unit._flags)
    return nu, tri


# -- JSON documents --------------------------------------------------------------
#
# Fan document: {"rank": int, "lattice": [[int]], "simplices": [[[int]]]}
# auto_scale result: {"nu": int, "fan": <fan document>, "certificates": {...}}


def fan_to_json(t: PeriodicTriangulation) -> dict:
    return {
        "rank": t.rank,
        "lattice": [list(row) for row in t.lattice.entries],
        "simplices": [[list(v) for v in s.vertices] for s in t.simplices],
    }


def fan_from_json(doc: Mapping) -> PeriodicTriangulation:
    """The fan of a document: the development of the unit cell of its
    simplices' shapes when that is the document's fan, else the constructor's.

    The schema is checked in one pass over the listing, and simplex by
    simplex, up to the first malformed one, only when that pass fails.  The
    simplices are read by columns, one pass per length.  Validity is
    translation-invariant, so the first simplex of each shape is validated,
    in listing order: the first bad simplex is named, by schema or geometry.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError("fan document must be a JSON object")
    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise SchemaError("field 'rank' must be a nonnegative integer")
    if rank > 2:
        raise UnsupportedRank(f"toric rank {rank} does not occur for abelian surfaces")
    raw_lattice = doc.get("lattice")
    if (not isinstance(raw_lattice, list) or len(raw_lattice) != rank
            or any(not isinstance(r, list) or len(r) != rank for r in raw_lattice)
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for r in raw_lattice for x in r)):
        raise SchemaError(f"field 'lattice' must be a {rank}x{rank} integer matrix")
    raw_simplices = doc.get("simplices")
    if not isinstance(raw_simplices, list):
        raise SchemaError("field 'simplices' must be a list of simplices")
    malformed = None if _well_formed(raw_simplices, rank) else next((
        i for i, raw in enumerate(raw_simplices) if not isinstance(raw, list) or not raw
        or any(not isinstance(v, list) or len(v) != rank for v in raw)
        or any(not isinstance(x, int) or isinstance(x, bool) for v in raw for x in v)), None)
    groups = list(_by_length(raw_simplices[:malformed], rank))
    for raw in map(raw_simplices.__getitem__, sorted(
            p for _, _, _, shapes in groups for _, p in shapes.values())):
        try:
            LatticeSimplex(raw)
        except ValueError as exc:
            raise SchemaError(f"bad simplex {raw}: {exc}") from exc
    if malformed is not None:
        raise SchemaError("each simplex must be a nonempty list of rank-length integer vectors")
    try:
        lattice = IntMatrix(raw_lattice)
        return _development(rank, groups, _CosetMap(rank, lattice)) or PeriodicTriangulation(
            rank, [_simplex(tuple(map(tuple, row))) for rows, _, _, _ in groups for row in rows],
            lattice)
    except (ValueError, SingularPairing) as exc:
        raise SchemaError(str(exc)) from exc


def _well_formed(raw_simplices: list, rank: int) -> bool:
    """Every simplex is a nonempty list of rank-length lists of ints: each
    test is one pass in C over the listing, its vectors or their entries."""
    if not (set(map(type, raw_simplices)) <= {list} and all(raw_simplices)):
        return False
    vectors = list(chain.from_iterable(raw_simplices))
    return (set(map(type, vectors)) <= {list} and set(map(len, vectors)) <= {rank}
            and set(map(type, chain.from_iterable(vectors))) <= {int})


def _by_length(raw_simplices: list, rank: int):
    """Per simplex length: the sorted simplices, their lexmin columns and keys
    (flat offsets from the lexmin vertex), and key -> (shape, listing position
    of its first simplex).  After one sort by length, each step is linear."""
    lengths = list(map(len, raw_simplices))
    by_length = sorted(range(len(lengths)), key=lengths.__getitem__)
    for _, group in groupby(by_length, key=lengths.__getitem__):
        positions = list(group)
        rows = list(map(sorted, map(raw_simplices.__getitem__, positions)))
        # A row flattened holds n·rank entries, the lexmin vertex first.
        flat, width = list(chain.from_iterable(chain.from_iterable(rows))), len(rows[0]) * rank
        lexmin = [flat[i::width] for i in range(rank)]
        keys = list(zip(*[map(sub, flat[p::width], lexmin[p % rank])
                          for p in range(rank, width)])) or [()] * len(rows)
        # Listed last to first, so each key keeps the index of its first row.
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        yield rows, lexmin, keys, {
            key: (_simplex(tuple(tuple(map(sub, v, rows[i][0])) for v in rows[i])), positions[i])
            for key, i in first.items()}


def _development(rank: int, groups: list, cosets: _CosetMap) -> PeriodicTriangulation | None:
    """``unit.with_lattice(lattice)`` for the unit cell of the listed shapes
    (``_by_length`` groups) if its classes are the listed ones closed under
    faces, and so the constructor's (module docstring); else None.  The cell
    comes from ``_unit_cell``, so documents with the same shapes, over any
    lattices, develop one cell and share its tables and flags.

    The closure C of the listed classes is the development exactly when each
    maximal unit class, a face of no other, is listed at all |Z^t/Λ|
    residues.  (⇐) Each unit class is an iterated face of a maximal one, and
    each face map dev[u, r] ↦ dev[uf, moved(z, 1)[r]] permutes the residues,
    so C holds every class.  (⇒) A class of a maximal shape is a face of no
    class, so it is in C only if listed; every maximal unit class is a listed
    shape, as the cell is the closure of the listed shapes.
    """
    # C has at most as many classes as the listed simplices have nonempty
    # faces, so a development with more is not the document's fan.  The empty
    # listing, which the criterion would pass, lists no coset.
    faces = sum(len(rows) * (2 ** len(rows[0]) - 1) for rows, _, _, _ in groups)
    if not groups or sum(len(shapes) for _, _, _, shapes in groups) * cosets.index > faces:
        return None
    reached = {}  # u -> residue indices of x for the listed u + x
    for rows, lexmin, keys, shapes in groups:
        residues = {key: set() for key in shapes}
        for key, r in zip(keys, cosets.residue_indices(lexmin, len(rows))):
            residues[key].add(r)
        reached.update((u, residues[key]) for key, (u, _) in shapes.items())
    unit = _unit_cell(rank, frozenset(reached))
    for k in range(rank + 1):
        below = set(chain.from_iterable(unit.tables[0].get(k + 1, ())))
        if any(len(reached[u]) != cosets.index
               for p, u in enumerate(unit.by_dim(k)) if p not in below):
            return None
    return unit._develop(cosets)
