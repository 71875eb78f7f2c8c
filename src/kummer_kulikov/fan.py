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

``certify`` runs the checks on any fan: ``fan check`` and the ``complex``
commands certify documents.  ``auto_scale`` runs none, since a parity
theorem decides the standard fan's certificates (its docstring).  Every
developed class is s + g for a unit class s (lexmin vertex 0) and a coset
representative g of Z^t/Λ, and no two of them coincide: equal classes have
equal lexmin vertices g, and then equal unit classes.  So a development has
|Z^t/Λ| classes per unit class.

``with_lattice`` develops by arithmetic on residues, with no class made
canonical again.  Let U·Λ^T·V = D = diag(d_1, ..., d_t) be the Smith form.
The coset of x ∈ Z^t is its residue ρ(x) = U·x mod D in ∏ Z/d_i, and its
canonical point is rep[ρ(x)] = U^{-1}·ρ(x); ρ is additive and
ρ(rep[r]) = r.  So dev[u, r] = u + rep[r] has the canonical lexmin vertex
rep[r], and is the stored class.  A development is carried as its unit
cell and integer tables (``tables``), and builds no developed simplex until
``simplices``, ``by_dim``, ``face_classes`` or ``negatives`` is read.

- Face pairs.  Let f + z = uf be the unit pair of the i-th face f of u.
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
- H-freeness: dev[u, r] is its own negative iff u* = u and r* = r, that is
  moved(w, −1)[r] = r for w = lexmax(u).  Its λ is
  lexmin(−S) − lexmin(S) = −w − 2·rep[r], and only these fixed classes are
  built, in the order of their positions.
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

``fan_from_json`` reads a document as a development when it can.  Each listed
simplex S is u + x for its shape u (lexmin vertex 0) and x = lexmin(S).  The
unit cell of the distinct shapes develops to the classes dev[u, r], and the
class of S is dev[u, ρ(x)], because translation keeps the lexmin vertex.  The
simplices of each length are sorted and flattened once, so the columns of x
and the flat keys of u are strided slices, and ρ(x) is computed column by
column.  ``PeriodicTriangulation(rank, simplices, Λ)`` stores the set C of
the listed classes closed under faces.  It orders C by (dim, vertices); its
face pairs are (class of f, canonical shift of f) and its negatives the
class of −S when that lies in C.  Each is a function of C and Λ alone, and a
development gives the same functions of its own classes (above).  So a
document whose C is the developed class set *is* the development, with the
same order, face pairs and negatives.  C lies inside that set, since it is
closed under the developed face pairs, which are the canonical ones; the two
are equal exactly when the walk from the listed pairs (u, ρ(x)) over the
face pairs (u, r) -> (uf, moved(z, 1)[r]), top dimension down, reaches every
pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, groupby, product, repeat
from operator import add, le, mod, mul, sub
from typing import Iterable, Mapping, Sequence

from .degeneration import DegenerationData, base_change, is_even
from .errors import SchemaError, SingularPairing, UnsupportedRank
from .lattice import (
    IntMatrix,
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

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeSimplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LatticeSimplex({list(self.vertices)!r})"


# The slot setters, which bypass the immutability guard of __setattr__.
_set_vertices = LatticeSimplex.vertices.__set__
_set_hash = LatticeSimplex._hash.__set__


def _simplex_label(s: LatticeSimplex) -> str:
    return "|".join("(" + ",".join(map(str, v)) + ")" for v in s.vertices)


def _simplex(vertices: tuple[Vector, ...]) -> LatticeSimplex:
    """A simplex from vertices already sorted, distinct and independent."""
    s = object.__new__(LatticeSimplex)
    _set_vertices(s, vertices)
    _set_hash(s, hash(vertices))
    return s


class _CosetMap:
    """Canonical representatives of Z^t modulo the row span of a lattice matrix.

    lattice=None means the full lattice Z^t (every point is equivalent to 0).
    The Smith form U·L^T·V = D gives x ↦ U^{-1}·(U·x mod D); ``u`` and
    ``uinv`` hold the rows of U and U^{-1}.
    """

    def __init__(self, rank: int, lattice: IntMatrix | None):
        self.lattice = lattice
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
        if self.lattice is None:  # every point of Z^t is equivalent to 0
            return (0,) * len(x)
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
    0..t are stored, closed under faces.  ``lattice=None`` denotes the
    unit-cell form (periodicity lattice Z^t itself), which is how the
    standard triangulations are built before a pairing is attached.

    The classes are stored by position, and ``tables`` holds the positions
    of their faces and negatives: the constructor sets both from the closure
    of its simplices, and a development (``with_lattice``) computes them from
    its unit cell and builds no class until ``simplices`` or ``by_dim`` is
    read.  ``face_classes[S]`` lists, in the vertex-deletion order of
    ``S.faces()``, the pair (canonical class of the face f, shift with
    f + shift equal to that class); ``negatives[S]`` is the class of −S, or
    None when −S is not a class.  Both are read off ``tables`` when first read.
    """

    def __init__(self, rank: int, simplices: Iterable[LatticeSimplex],
                 lattice: IntMatrix | None):
        self._fill(rank, _CosetMap(rank, lattice), None)
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

    def _fill(self, rank: int, cosets: _CosetMap, unit: PeriodicTriangulation | None) -> None:
        self.rank = rank
        self.lattice = cosets.lattice
        self._cosets = cosets
        # The unit cell of a development; None for a fan from the constructor.
        self._unit = unit
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
    def face_classes(self) -> dict[LatticeSimplex, tuple[tuple[LatticeSimplex, Vector], ...]]:
        out = dict.fromkeys(self.by_dim(0), ())
        for k, rows in self.tables[0].items():
            below = self.by_dim(k - 1)
            for s, row in zip(self.by_dim(k), rows):
                vs = s.vertices
                # The face without vertex i has the lexmin vs[0], or vs[1] for i = 0.
                out[s] = tuple((f, tuple(map(sub, f.vertices[0], vs[1 if i == 0 else 0])))
                               for i, f in enumerate(map(below.__getitem__, row)))
        return out

    @functools.cached_property
    def negatives(self) -> dict[LatticeSimplex, LatticeSimplex | None]:
        out = {}
        for k, images in self.tables[1].items():
            classes = self.by_dim(k)
            out.update(zip(classes, (None if p is None else classes[p] for p in images)))
        return out

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
        index = {u: j for k in range(rank + 1) for j, u in enumerate(unit.by_dim(k))}
        faces, negatives = {}, {}
        for k in range(rank + 1):
            units = unit.by_dim(k)
            m, below = len(units), len(unit.by_dim(k - 1))
            face_rows, images = [()] * (n * m), [None] * (n * m)
            for j, u in enumerate(units):
                columns = [[q * below + i for q in moved(z, 1)]
                           for i, z in [(index[f], z) for f, z in unit.face_classes[u]]]
                if columns:
                    face_rows[j::m] = zip(*columns)
                if (i := index.get(unit.negatives[u])) is not None:
                    images[j::m] = [q * m + i for q in moved(u.vertices[-1], -1)]
            if k:
                faces[k] = tuple(face_rows)
            negatives[k] = tuple(images)
        return faces, negatives

    def _moved(self, v: Vector, sign: int) -> list[int]:
        """For each q, ord of moved(v, sign)[r] for the residue r of ord q."""
        moved, ords = self._cosets.moved(v, sign), self._ord
        return [ords[moved[r]] for r in self._order]

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

    def class_labels(self, k: int) -> list[str]:
        """The label of each k-class by position, its vertices as in
        ``(0,0)|(1,0)``.  A development's class at q·m_k + j is u + g for the
        j-th unit k-class u and the q-th representative g, so u gives one
        ``str.format`` template, with a field for each coordinate i of each
        vertex v, over the columns v_i + g_i."""
        if self._unit is None:
            return list(map(_simplex_label, self.by_dim(k)))
        units, reps = self._unit.by_dim(k), self._reps
        fields: dict[tuple[int, int], int] = {}  # (i, v_i) -> field number
        templates = ["|".join("(" + ",".join("{%d}" % fields.setdefault(c, len(fields))
                                             for c in enumerate(v)) + ")" for v in u.vertices)
                     for u in units]
        g = list(zip(*reps))
        # At rank 0 no template has a field, and the representatives stand in.
        columns = [[x + a for a in g[i]] for i, x in fields] or [reps]
        return list(chain.from_iterable(zip(*[map(template.format, *columns)
                                              for template in templates])))

    def with_lattice(self, lattice: IntMatrix) -> "PeriodicTriangulation":
        """Develop a unit-cell triangulation over the cosets of Z^t modulo Λ_b.

        The classes are dev[u, r] = u + rep[r], for each unit class u and
        residue r; their order, face pairs and negatives are read off the
        unit cell's by residue arithmetic (see the module docstring).  No
        two coincide, because the unit classes all have the lexmin vertex 0,
        which ``lattice is None`` guarantees.
        """
        if self.lattice is not None:
            raise ValueError("triangulation already has a lattice attached")
        return self._develop(_CosetMap(self.rank, lattice))

    def _develop(self, cosets: _CosetMap) -> "PeriodicTriangulation":
        t = PeriodicTriangulation.__new__(PeriodicTriangulation)
        t._fill(self.rank, cosets, self)
        reps = cosets.coset_representatives()
        # _order lists the residue indices by rep; _ord[r] is the rank of rep[r].
        t._order = sorted(range(len(reps)), key=reps.__getitem__)
        t._reps = list(map(reps.__getitem__, t._order))
        t._ord = sorted(range(len(reps)), key=t._order.__getitem__)
        return t

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


def _lattice_translates(t: PeriodicTriangulation, reach: Vector) -> list[Vector]:
    """Nonzero λ in the translation lattice with |λ_i| <= reach_i, sorted."""
    if t.rank == 0 or t.lattice is None:
        return []
    w = t.lattice
    n = t.rank
    # y = (W^T)^{-1} λ = adj(W^T) λ / det, so |y_i| <= Σ_j |adj(W^T)_ij|·reach_j / |det|.
    det = abs(w.det())
    bounds = [sum(map(mul, map(abs, row), reach)) // det + 1
              for row in w.transpose().adjugate().entries]
    out = []
    for y in product(*(range(-b, b + 1) for b in bounds)):
        if all(v == 0 for v in y):
            continue
        lam = tuple(sum(y[i] * w.entries[i][j] for i in range(n)) for j in range(n))
        if all(map(le, map(abs, lam), reach)):
            out.append(lam)
    return sorted(out)


def _lattice_coefficients(t: PeriodicTriangulation, lam: Vector) -> Vector:
    """Express λ in the row basis of the lattice (the Y-coordinates)."""
    num, det = solve(t.lattice.transpose(), lam)
    if any(x % det for x in num):
        raise ValueError(f"{lam} is not in the translation lattice")
    return tuple(x // det for x in num)


# -- the certification checks -------------------------------------------------

def _affine_frame(vertices: Sequence[Vector]) -> tuple[IntMatrix, IntMatrix, int]:
    """(Eᵀ, adj G·E, det G) for affinely independent v_0, ..., v_k: E has the
    rows v_i − v_0 and G = E·Eᵀ, whose determinant is positive."""
    e = IntMatrix([tuple(map(sub, v, vertices[0])) for v in vertices[1:]],
                  shape=(len(vertices) - 1, len(vertices[0])))
    g = e.mul(e.transpose())
    return e.transpose(), g.adjugate().mul(e), g.det()


def _meets_translate(frame: tuple[IntMatrix, IntMatrix, int], lam: Vector) -> bool:
    """Whether hull(S) and hull(S + λ) share a point, for the
    ``_affine_frame`` (Eᵀ, adj G·E, det G) of S, in any rank.

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
    c = solver.matvec(lam)
    return (et.matvec(c) == tuple(det * x for x in lam)
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
    of S is built.  A development is scanned on its unit cell, and each unit
    violation is listed at every residue (module docstring).
    """
    if t.lattice is None:
        raise ValueError("property (d) needs a translation lattice attached")
    classes = t.simplices if t._unit is None else t._unit.simplices
    extents = {s: tuple(max(c) - min(c) for c in zip(*s.vertices)) for s in classes}
    # The largest extent in each coordinate, 0 when there is no class.
    largest = tuple(map(max, zip((0,) * t.rank, *extents.values())))
    translates = _lattice_translates(t, largest)

    @functools.cache
    def within(extent: Vector) -> list[Vector]:
        return [lam for lam in translates if all(map(le, map(abs, lam), extent))]

    frame = functools.cache(_affine_frame)

    def hits(s: LatticeSimplex) -> list[Vector]:
        return [lam for lam in within(extents[s]) if _meets_translate(frame(_shape(s)), lam)]

    if t._unit is None:
        return [(lam, s) for s in classes for lam in hits(s)]
    unit_hits = {u: hits(u) for u in classes}
    return _developed(t, lambda u: product(range(len(t._reps)), unit_hits[u])
                      if unit_hits[u] else ())


def check_h_freeness(t: PeriodicTriangulation) -> list[tuple[Vector, LatticeSimplex]]:
    """Fixed classes of the inversion: pairs (y, S) with dim S >= 1 and
    -S = S + b(y,-), y = 0 included.  Empty for even pairings; the odd
    control b = (3) produces -[1,2] = [1,2] - 3.

    y is reported in coordinates relative to the lattice's row basis, which
    are the Y-coordinates whenever the lattice is the row lattice of b.

    Translation preserves the lexicographic order, so −S = S + λ forces
    λ = lexmin(−S) − lexmin(S), and the canonical class S is fixed exactly
    when it is its own carried negative.  A development finds its fixed
    classes on the unit cell (module docstring).
    """
    if t.lattice is None:
        raise ValueError("H-freeness needs a translation lattice attached")
    unit = t._unit
    if unit is None:
        negatives = t.negatives
        fixed = [s for s in t.simplices if s.dim >= 1 and negatives[s] == s]
    else:
        def fixed_residues(u: LatticeSimplex) -> list[tuple[int, None]]:
            # dev[u, q] is its own negative iff u* = u and moved(lexmax u, −1) fixes q.
            if u.dim < 1 or unit.negatives[u] != u:
                return []
            return [(q, None) for q, image in enumerate(t._moved(u.vertices[-1], -1))
                    if image == q]

        fixed = [s for _, s in _developed(t, fixed_residues)]
    out = []
    for s in fixed:
        # lexmin(−S) = −lexmax(S).
        lam = tuple(-a - b for a, b in zip(s.vertices[-1], s.vertices[0]))
        out.append((_lattice_coefficients(t, lam), s))
    return out


def _developed(t: PeriodicTriangulation, found) -> list[tuple[object, LatticeSimplex]]:
    """[(payload, dev[u, q])] in the order of ``t.simplices``, for the pairs
    (q, payload) in ``found(u)`` for each unit class u: dev[u, q] is u plus
    the q-th representative, at position q·m_k + j(u) among the k-classes.
    The sort is stable, so the payloads of one class keep their order."""
    rows = []
    for k in range(t.rank + 1):
        units = t._unit.by_dim(k)
        for j, u in enumerate(units):
            rows += [((k, q * len(units) + j), payload, u, q) for q, payload in found(u)]
    rows.sort(key=lambda row: row[0])
    return [(payload, u.translate(t._reps[q])) for _, payload, u, q in rows]


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
        num, det = solve(IntMatrix([(1,) + v for v in shape]), list(map(_form, shape)))
        return det * (_form(w) * det - num[0] - sum(map(mul, num[1:], w)))

    margins = []
    for s, opposite in _opposite_vertices(t):
        if None in opposite:
            return None
        shape = _shape(s)
        margins += [margin(shape, _offset(w, s.vertices[0])) for w in opposite]
    return margins


# -- certification and scaling --------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """The verdicts of the checks on a fan: four flags, and the violations of
    property (d) and H-freeness, which hold exactly when there are none.

    ``passes`` is what ``fan check`` needs for exit 0; ``complex_refusal``
    names the first flag that the dual complex needs and that fails.
    """

    semistable: bool
    unimodular: bool
    vertices_complete: bool
    polarization: bool
    property_d_violations: tuple[tuple[Vector, LatticeSimplex], ...] = ()
    h_free_violations: tuple[tuple[Vector, LatticeSimplex], ...] = ()

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
    with which they agree, and its violations are found on the unit cell
    (module docstring).
    """
    violations = tuple(check_property_d(t)), tuple(check_h_freeness(t))
    unit = t._unit
    flags = _lattice_free_flags(t) if unit is None else _unit_cell_flags(t.rank, unit.simplices)
    t.certificate = Certificate(*flags, *violations)
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


# Bounded, since fan documents bring unit cells from outside the program.
@functools.lru_cache(maxsize=64)
def _unit_cell_flags(rank: int,
                     classes: tuple[LatticeSimplex, ...]) -> tuple[bool, bool, bool, bool]:
    """``_lattice_free_flags`` of the unit cell with these classes, computed
    once per process for each of the 64 cells used most recently."""
    return _lattice_free_flags(PeriodicTriangulation(rank, classes, None))


def auto_scale(d: DegenerationData) -> tuple[int, PeriodicTriangulation]:
    """Smallest base-change index ν for which the standard triangulation with
    lattice Λ_(ν·b) passes the four core checks (semistable, unimodular,
    property (d), H-freeness), and that development with its certificate.

    Theorem: ν = 1 if every entry of b is even, and ν = 2 otherwise; at that
    ν every check passes with no violation.  So no check runs here: the four
    lattice-free flags are the standard cell's, cached per rank and process,
    and the development builds no simplex.

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
    unit = _standard_cell(d.rank)
    tri = unit.with_lattice(base_change(d, nu).b)
    tri.certificate = Certificate(*_unit_cell_flags(d.rank, unit.simplices))
    return nu, tri


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
        lattice = IntMatrix(raw_lattice, shape=(rank, rank))
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
    faces, and so the constructor's (module docstring); else None."""
    # A development with more classes than the listed simplices' nonempty faces
    # is not the document's fan; the shapes, distinct unit classes, go first.
    faces = sum(len(rows) * (2 ** len(rows[0]) - 1) for rows, _, _, _ in groups)
    if sum(len(shapes) for _, _, _, shapes in groups) * cosets.index > faces:
        return None
    reached = {}  # u -> residue indices of x for the listed u + x
    for rows, lexmin, keys, shapes in groups:
        residues = {key: set() for key in shapes}
        for key, r in zip(keys, cosets.residue_indices(lexmin, len(rows))):
            residues[key].add(r)
        reached.update((u, residues[key]) for key, (u, _) in shapes.items())
    unit = PeriodicTriangulation(rank, reached, None)
    if len(unit.simplices) * cosets.index > faces:
        return None
    moved = functools.cache(cosets.moved)
    reached = {u: reached.get(u, set()) for u in unit.simplices}
    # The faces of a k-class are (k−1)-classes: one pass, top dimension down.
    for k in range(rank, 0, -1):
        for u in unit.by_dim(k):
            for f, z in unit.face_classes[u]:
                reached[f].update(map(moved(z, 1).__getitem__, reached[u]))
    if any(len(residues) != cosets.index for residues in reached.values()):
        return None
    return unit._develop(cosets)
