"""Dual complexes of the degenerate fibres and their inversion quotients.

The special fibre attached to a certified fan is stratified by the nonzero
cone classes, so the dual complex Δ_A has one k-cell per class of
k-simplices of the slice triangulation modulo Λ_b.  The inversion acts by
l -> -l; its quotient Δ_X is the dual complex of the Kummer-side model.
Quotients are Δ-complexes (cells with ordered face maps), since the
involution may identify faces of a single cell.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .degeneration import DegenerationData, base_change, is_even
from .errors import (
    ConsistencyError,
    InvalidScale,
    OddData,
    ShapeMismatch,
    UncertifiedFan,
    UnsupportedRank,
)
from .fan import LatticeSimplex, PeriodicTriangulation
from .lattice import component_group, two_torsion_order


class KulikovType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


_DIM_PREFIX = {0: "v", 1: "e", 2: "t"}


def _names(k: int, n: int) -> tuple[str, ...]:
    prefix = _DIM_PREFIX[k]
    return tuple(f"{prefix}{i}" for i in range(n))


class _Labels(Mapping):
    """The labels of a complex's cells, each formatted when it is read.

    ``label(k, i)`` formats the label of the i-th k-cell of ``cells``.
    """

    def __init__(self, cells: dict[int, tuple[str, ...]],
                 label: Callable[[int, int], str]):
        self._cells = cells
        self._label = label

    @functools.cached_property
    def _where(self) -> dict[str, tuple[int, int]]:
        return {c: (k, i) for k, names in self._cells.items() for i, c in enumerate(names)}

    def __getitem__(self, name: str) -> str:
        return self._label(*self._where[name])

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self._cells.values())

    def __len__(self) -> int:
        return sum(map(len, self._cells.values()))

    def __repr__(self) -> str:
        return repr(dict(self))


Boundary = dict[int, tuple[tuple[int, ...], ...]]


@dataclass(eq=True)
class DeltaComplex:
    """Cells with ordered face maps, dimensions 0..2.

    ``labels`` may be any mapping from cell names to strings; the complexes
    built here format each label only when it is read.  ``boundary`` gives,
    for k >= 1, the faces of each k-cell, in order, as positions among the
    (k−1)-cells; the complexes built here pass the positions they hold, and
    otherwise it is derived from ``faces``.
    """

    cells: dict[int, tuple[str, ...]]
    faces: dict[str, tuple[str, ...]]
    labels: Mapping[str, str]
    boundary: Boundary | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.boundary is None:
            self.boundary = {}
            for k in range(1, max(self.cells, default=0) + 1):
                below = {c: i for i, c in enumerate(self.cells.get(k - 1, ()))}
                self.boundary[k] = tuple(tuple(map(below.__getitem__, self.faces[c]))
                                         for c in self.cells.get(k, ()))

    def num(self, k: int) -> int:
        return len(self.cells.get(k, ()))


@dataclass(eq=True)
class InvolutionAction:
    """Per-dimension permutation of cell positions induced by l -> -l."""

    perms: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def validate(self, complex_: DeltaComplex) -> None:
        for k, perm in self.perms.items():
            n = complex_.num(k)
            if sorted(perm) != list(range(n)):
                raise ValueError(f"dimension {k}: not a permutation of {n} cells")
            if any(perm[perm[i]] != i for i in range(n)):
                raise ValueError(f"dimension {k}: square is not the identity")
        # Face compatibility: act(faces(c)) = faces(act(c)) as multisets.
        for k, rows in complex_.boundary.items():
            perm = self.perms.get(k, range(len(rows)))
            sub = self.perms.get(k - 1)
            for i, row in enumerate(rows):
                mapped = sorted(row if sub is None else map(sub.__getitem__, row))
                if mapped != sorted(rows[perm[i]]):
                    raise ValueError("involution does not commute with faces at "
                                     f"{complex_.cells[k][i]}")


def _simplex_label(s: LatticeSimplex) -> str:
    return "|".join("(" + ",".join(map(str, v)) + ")" for v in s.vertices)


def dual_complex(t: PeriodicTriangulation) -> tuple[DeltaComplex, InvolutionAction]:
    """Δ_A together with the inversion action.

    k-cells are the k-simplex classes of the triangulation; the i-th face of
    a cell is the class of the simplex with its i-th vertex deleted.  Raises
    UncertifiedFan when some −S is not a class, since the inversion then has
    no action on the cells.  A cell's label lists the vertices of its class.
    """
    needed = ("semistable", "unimodular", "property_d")
    if not all(t.certificates.get(k) for k in needed):
        raise UncertifiedFan(
            f"dual complex needs passing certificates {needed}; run certify() first")
    reps = {k: t.by_dim(k) for k in range(t.rank + 1)}
    position = {}  # each class's position among the classes of its dimension
    for classes in reps.values():
        position.update(zip(classes, range(len(classes))))
    cells = {k: _names(k, len(classes)) for k, classes in reps.items()}
    boundary = {k: tuple(tuple(position[cf] for cf, _ in t.face_classes[s]) for s in reps[k])
                for k in range(1, t.rank + 1)}
    faces = _face_names(cells, boundary)
    perms: dict[int, tuple[int, ...]] = {}
    negatives = t.negatives
    for k, classes in reps.items():
        images = [position.get(negatives[s]) for s in classes]
        if None in images:
            missing = classes[images.index(None)]
            raise UncertifiedFan(
                f"dual complex needs a fan stable under inversion; -S is not a class "
                f"for S = {[list(v) for v in missing.vertices]}")
        perms[k] = tuple(images)
    labels = _Labels(cells, lambda k, i: _simplex_label(reps[k][i]))
    return DeltaComplex(cells, faces, labels, boundary), InvolutionAction(perms)


def _face_names(cells: dict[int, tuple[str, ...]],
                boundary: Boundary) -> dict[str, tuple[str, ...]]:
    """The faces of each cell by name, from their positions."""
    faces = {}
    for k, rows in boundary.items():
        below = cells[k - 1]
        faces.update(zip(cells[k], [tuple(map(below.__getitem__, row)) for row in rows]))
    return faces


def h_quotient(complex_: DeltaComplex, act: InvolutionAction) -> DeltaComplex:
    """Quotient Δ-complex by the involution; identifications are permitted.

    Each quotient cell is an orbit {i, perm[i]}, recorded as the pair of its
    parent cells; its label is theirs, joined by " ~ " when they differ.
    """
    act.validate(complex_)
    orbits: dict[int, list[tuple[int, int]]] = {}
    orbit_of: dict[int, list[int]] = {}  # parent position -> quotient position
    for k, names in complex_.cells.items():
        perm = act.perms.get(k, range(len(names)))
        pairs = orbits[k] = []
        where = orbit_of[k] = [0] * len(names)
        for i, j in enumerate(perm):
            if j >= i:
                where[i] = where[j] = len(pairs)
                pairs.append((i, j))
    cells = {k: _names(k, len(pairs)) for k, pairs in orbits.items()}
    boundary = {k: tuple(tuple(map(orbit_of[k - 1].__getitem__, rows[i])) for i, _ in orbits[k])
                for k, rows in complex_.boundary.items()}
    parent_cells, parent_labels = complex_.cells, complex_.labels

    def label(k: int, q: int) -> str:
        i, j = orbits[k][q]
        if i == j:
            return parent_labels[parent_cells[k][i]]
        return parent_labels[parent_cells[k][i]] + " ~ " + parent_labels[parent_cells[k][j]]

    return DeltaComplex(cells, _face_names(cells, boundary), _Labels(cells, label), boundary)


def euler_characteristic(complex_: DeltaComplex) -> int:
    return sum((-1) ** k * len(names) for k, names in complex_.cells.items())


# -- structural predicates -------------------------------------------------------

def _vertex_degrees(complex_: DeltaComplex) -> dict[str, int]:
    deg = {v: 0 for v in complex_.cells.get(0, ())}
    for e in complex_.cells.get(1, ()):
        for v in complex_.faces[e]:
            deg[v] += 1
    return deg


def _reaches_all(adj: dict) -> bool:
    """Every node of the nonempty graph ``adj`` is reachable from the first."""
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def _is_connected(complex_: DeltaComplex) -> bool:
    verts = complex_.cells.get(0, ())
    if not verts:
        return False
    adj = {v: set() for v in verts}
    for e in complex_.cells.get(1, ()):
        a, b = complex_.faces[e]
        adj[a].add(b)
        adj[b].add(a)
    return _reaches_all(adj)


def is_chain(complex_: DeltaComplex) -> bool:
    """A path graph: connected, no 2-cells, degrees <= 2, two endpoints."""
    if complex_.num(2) != 0 or not _is_connected(complex_):
        return False
    deg = _vertex_degrees(complex_)
    if any(d > 2 for d in deg.values()):
        return False
    return sum(1 for d in deg.values() if d <= 1) == 2


def _triangle_vertices(complex_: DeltaComplex, tri: str) -> set[str]:
    out: set[str] = set()
    for e in complex_.faces[tri]:
        out.update(complex_.faces[e])
    return out


def _is_simplicial(complex_: DeltaComplex) -> bool:
    edge_sets = []
    for e in complex_.cells.get(1, ()):
        a, b = complex_.faces[e]
        if a == b:
            return False
        edge_sets.append(frozenset((a, b)))
    if len(set(edge_sets)) != len(edge_sets):
        return False
    tri_sets = []
    for tri in complex_.cells.get(2, ()):
        if len(set(complex_.faces[tri])) != 3 or len(_triangle_vertices(complex_, tri)) != 3:
            return False
        tri_sets.append(frozenset(_triangle_vertices(complex_, tri)))
    return len(set(tri_sets)) == len(tri_sets)


def _vertex_links_are_cycles(complex_: DeltaComplex) -> bool:
    # Only called on simplicial complexes; the link of each vertex must be a
    # single cycle in the graph whose nodes are the edges at the vertex and
    # whose adjacencies come from the triangle corners.  In a simplicial
    # complex each pair of a triangle's edges meets in one vertex.
    faces = complex_.faces
    links: dict[str, dict[str, list[str]]] = {v: {} for v in complex_.cells.get(0, ())}
    for e in complex_.cells.get(1, ()):
        for v in faces[e]:
            links[v][e] = []
    for tri in complex_.cells.get(2, ()):
        a, b, c = faces[tri]
        for e, f in ((a, b), (b, c), (a, c)):
            v, w = faces[e]
            link = links[v if v in faces[f] else w]
            link[e].append(f)
            link[f].append(e)
    return all(adj and all(len(nbrs) == 2 for nbrs in adj.values()) and _reaches_all(adj)
               for adj in links.values())


def is_closed_surface(complex_: DeltaComplex) -> bool:
    """Connected, every edge in exactly two triangles; for simplicial
    complexes the vertex links are additionally required to be cycles."""
    if complex_.num(2) == 0 or not _is_connected(complex_):
        return False
    incidence = Counter()
    for tri in complex_.cells.get(2, ()):
        incidence.update(complex_.faces[tri])
    if any(incidence.get(e, 0) != 2 for e in complex_.cells.get(1, ())):
        return False
    if _is_simplicial(complex_):
        return _vertex_links_are_cycles(complex_)
    return True


def classify_kummer_type(d: DegenerationData, quotient: DeltaComplex) -> KulikovType:
    """Type by toric rank, with the structural predicate verified:
    t=0 point, t=1 chain, t=2 closed surface with χ = 2."""
    t = d.rank
    if t == 0:
        if quotient.num(0) == 1 and quotient.num(1) == 0 and quotient.num(2) == 0:
            return KulikovType.I
        raise ShapeMismatch("rank 0 but the quotient complex is not a point")
    if t == 1:
        if is_chain(quotient):
            return KulikovType.II
        raise ShapeMismatch("rank 1 but the quotient complex is not a chain")
    if t == 2:
        if is_closed_surface(quotient) and euler_characteristic(quotient) == 2:
            return KulikovType.III
        raise ShapeMismatch("rank 2 but the quotient complex is not a 2-sphere")
    raise UnsupportedRank(f"toric rank {t} does not occur for abelian surfaces")


# -- component counts --------------------------------------------------------------

class ComponentCounts(NamedTuple):
    N_A: int
    N_X: int


def component_counts(d: DegenerationData) -> ComponentCounts:
    """N_A = #Φ and N_X = #Φ[2] + (#Φ - #Φ[2])/2.

    Requires an even pairing, under which every elementary divisor is even,
    so #Φ[2] = 2^t and N_X = #Φ/2 + 2^(t-1) for t >= 1.  A rank-0 datum has
    smooth reduction on both sides: N_A = N_X = 1.
    """
    if not is_even(d):
        raise OddData("component counts require every entry of b to be even")
    if d.rank == 0:
        return ComponentCounts(1, 1)
    phi = component_group(d.b)
    order = phi.order
    tt = two_torsion_order(phi)
    return ComponentCounts(order, tt + (order - tt) // 2)


class BaseChangeCounts(NamedTuple):
    N: int
    N_L: int
    formula_N_L: int


def base_change_counts(d: DegenerationData, e: int) -> BaseChangeCounts:
    """N_L by two routes: rebuilding the scaled datum and the closed formula
    N_L = e^t N - 2^(t-1) (e^t - 1).  The routes are asserted equal, as is
    #Φ_L = e^t #Φ."""
    if not is_even(d):
        raise OddData("base-change comparison requires an even pairing")
    if d.rank < 1:
        raise UnsupportedRank("base-change comparison needs toric rank >= 1")
    if e < 1:
        raise InvalidScale(f"ramification index must be >= 1, got {e}")
    t = d.rank
    scaled = base_change(d, e)
    n = component_counts(d).N_X
    n_l = component_counts(scaled).N_X
    formula = e**t * n - 2 ** (t - 1) * (e**t - 1)
    if n_l != formula:
        raise ConsistencyError(
            f"rebuild route N_L = {n_l} disagrees with formula {formula}")
    if component_group(scaled.b).order != e**t * component_group(d.b).order:
        raise ConsistencyError("#Φ_L != e^t · #Φ")
    return BaseChangeCounts(n, n_l, formula)


# -- JSON document -----------------------------------------------------------------
#
# {"vertices": [...], "edges": [[v,v],...], "triangles": [[e,e,e],...], "labels": {...}}


def complex_to_json(complex_: DeltaComplex) -> dict:
    labels = dict(complex_.labels)
    boundary = complex_.boundary
    return {
        "vertices": [labels[v] for v in complex_.cells.get(0, ())],
        "edges": [list(row) for row in boundary.get(1, ())],
        "triangles": [list(row) for row in boundary.get(2, ())],
        "labels": labels,
    }
