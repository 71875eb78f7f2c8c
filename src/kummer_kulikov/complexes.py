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
import re
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
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


_PREFIXES = "vet"
_NAME = re.compile(f"([{_PREFIXES}])(0|[1-9][0-9]*)")


def _names(k: int, n: int) -> tuple[str, ...]:
    prefix = _PREFIXES[k]
    return tuple(f"{prefix}{i}" for i in range(n))


class _Labels(Mapping):
    """The labels of a complex's cells by name, each formatted when it is read.

    The i-th k-cell is named ``"vet"[k] + str(i)``, and its label is
    ``label(k, i)``.
    """

    def __init__(self, counts: dict[int, int], label: Callable[[int, int], str]):
        self._counts = counts
        self._label = label

    def __getitem__(self, name: str) -> str:
        match = _NAME.fullmatch(name) if isinstance(name, str) else None
        k, i = (_PREFIXES.index(match[1]), int(match[2])) if match else (0, -1)
        if not 0 <= i < self._counts.get(k, 0):
            raise KeyError(name)
        return self._label(k, i)

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(_names(k, n) for k, n in self._counts.items())

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __repr__(self) -> str:
        return repr(dict(self))


Boundary = dict[int, tuple[tuple[int, ...], ...]]


@dataclass(eq=False)
class DeltaComplex:
    """Cells with ordered face maps, dimensions 0..2, on integer positions.

    ``counts[k]`` is the number of k-cells.  ``boundary[k]``, for k >= 1,
    lists the k+1 faces of each k-cell, in order, as positions among the
    (k−1)-cells: the ends of edge e are ``boundary[1][e]`` and the edges of
    triangle τ are ``boundary[2][τ]``.  ``label(k, i)`` formats the label of
    the i-th k-cell.  ``cells``, ``faces`` and ``labels`` view the same data
    by cell name (``"v0"``, ``"e3"``, ``"t1"``) and are built when first read.
    Two complexes are equal when their counts, boundaries and labels are.
    """

    counts: dict[int, int]
    boundary: Boundary
    label: Callable[[int, int], str] = field(repr=False)

    def num(self, k: int) -> int:
        return self.counts.get(k, 0)

    @functools.cached_property
    def cells(self) -> dict[int, tuple[str, ...]]:
        return {k: _names(k, n) for k, n in self.counts.items()}

    @functools.cached_property
    def faces(self) -> dict[str, tuple[str, ...]]:
        cells = self.cells
        return {name: tuple(cells[k - 1][f] for f in row)
                for k, rows in self.boundary.items() for name, row in zip(cells[k], rows)}

    @functools.cached_property
    def labels(self) -> Mapping[str, str]:
        return _Labels(self.counts, self.label)

    def __eq__(self, other):
        if not isinstance(other, DeltaComplex):
            return NotImplemented
        return ((self.counts, self.boundary, self.labels)
                == (other.counts, other.boundary, other.labels))


@dataclass(eq=True)
class InvolutionAction:
    """Per-dimension permutation of cell positions induced by l -> -l."""

    perms: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def validate(self, complex_: DeltaComplex) -> None:
        for k, perm in self.perms.items():
            n = complex_.num(k)
            if sorted(perm) != list(range(n)):
                raise ValueError(f"dimension {k}: not a permutation of {n} cells")
            if list(map(perm.__getitem__, perm)) != list(range(n)):
                raise ValueError(f"dimension {k}: square is not the identity")
        # Face compatibility: act(faces(c)) = faces(act(c)) as multisets.  On
        # Δ_A face j of −S is −(face t−j of S), so the mapped row reversed is
        # the image's row; the multisets are compared only when that fails.
        for k, rows in complex_.boundary.items():
            perm = self.perms.get(k, range(len(rows)))
            mapped = _map_rows(self.perms.get(k - 1, range(complex_.num(k - 1))), rows, -1)
            if mapped == list(map(rows.__getitem__, perm)):
                continue
            for i, row in enumerate(mapped):
                if sorted(row) != sorted(rows[perm[i]]):
                    raise ValueError("involution does not commute with faces at "
                                     f"{complex_.cells[k][i]}")


def _map_rows(where: Sequence[int], rows, step: int = 1) -> list[tuple[int, ...]]:
    """Each row read with ``step`` (−1 reverses it), its entries p replaced by where[p]."""
    return list(zip(*[[where[p] for p in column] for column in list(zip(*rows))[::step]]))


def _simplex_label(s: LatticeSimplex) -> str:
    return "|".join("(" + ",".join(map(str, v)) + ")" for v in s.vertices)


def _development_labels(t: PeriodicTriangulation, k: int) -> list[str]:
    """``_simplex_label`` of each k-class of a development, by position: the
    class at q·m_k + j is u + g for the j-th unit k-class u and the q-th
    representative g, so u gives one ``str.format`` template, with a field
    for each coordinate i of each vertex v, over the columns v_i + g_i."""
    units, reps = t._unit.by_dim(k), t._reps
    fields: dict[tuple[int, int], int] = {}  # (i, v_i) -> field number
    templates = ["|".join("(" + ",".join("{%d}" % fields.setdefault(c, len(fields))
                                         for c in enumerate(v)) + ")" for v in u.vertices)
                 for u in units]
    g = list(zip(*reps))
    # At rank 0 no template has a field, and the representatives stand in.
    columns = [[x + a for a in g[i]] for i, x in fields] or [reps]
    return list(chain.from_iterable(zip(*[map(template.format, *columns)
                                          for template in templates])))


def dual_complex(t: PeriodicTriangulation) -> tuple[DeltaComplex, InvolutionAction]:
    """Δ_A together with the inversion action.

    k-cells are the k-simplex classes of the triangulation; the i-th face of
    a cell is the class of the simplex with its i-th vertex deleted.  Raises
    UncertifiedFan when some −S is not a class, since the inversion then has
    no action on the cells.  A cell's label lists the vertices of its class.
    The boundary and the involution are the fan's position ``tables``; a
    development builds no class, and a constructor's fan only for labels.
    """
    needed = ("semistable", "unimodular", "property_d")
    if not all(t.certificates.get(k) for k in needed):
        raise UncertifiedFan(
            f"dual complex needs passing certificates {needed}; run certify() first")
    faces, negatives = t.tables
    for k, images in negatives.items():
        if None in images:
            missing = t.by_dim(k)[images.index(None)]
            raise UncertifiedFan(
                f"dual complex needs a fan stable under inversion; -S is not a class "
                f"for S = {[list(v) for v in missing.vertices]}")
    counts = {k: len(images) for k, images in negatives.items()}
    # A development formats all labels of a dimension when the first is read.
    by_dim = functools.cache(functools.partial(_development_labels, t))
    label = ((lambda k, i: _simplex_label(t.by_dim(k)[i])) if t._unit is None
             else (lambda k, i: by_dim(k)[i]))
    return DeltaComplex(counts, dict(faces), label), InvolutionAction(dict(negatives))


def h_quotient(complex_: DeltaComplex, act: InvolutionAction) -> DeltaComplex:
    """Quotient Δ-complex by the involution; identifications are permitted.

    Each quotient cell is an orbit {i, perm[i]}, recorded by its least parent
    position i; its label is theirs, joined by " ~ " when they differ.
    """
    act.validate(complex_)
    perms = {k: act.perms.get(k, range(n)) for k, n in complex_.counts.items()}
    firsts: dict[int, list[int]] = {}  # quotient position -> least parent position
    orbit_of: dict[int, list[int]] = {}  # parent position -> quotient position
    for k, perm in perms.items():
        first = firsts[k] = [i for i, j in enumerate(perm) if i <= j]
        where = orbit_of[k] = [0] * len(perm)
        for q, i in enumerate(first):
            where[i] = where[perm[i]] = q
    boundary = {k: tuple(_map_rows(orbit_of[k - 1], map(rows.__getitem__, firsts[k])))
                for k, rows in complex_.boundary.items()}
    parent = complex_.label

    def label(k: int, q: int) -> str:
        i = firsts[k][q]
        j = perms[k][i]
        return parent(k, i) if i == j else parent(k, i) + " ~ " + parent(k, j)

    return DeltaComplex({k: len(first) for k, first in firsts.items()}, boundary, label)


def euler_characteristic(complex_: DeltaComplex) -> int:
    return sum((-1) ** k * n for k, n in complex_.counts.items())


# -- structural predicates -------------------------------------------------------
#
# They run on positions: a graph is a list of adjacency lists indexed by node.

def _vertex_degrees(complex_: DeltaComplex) -> list[int]:
    ends = Counter(chain.from_iterable(complex_.boundary.get(1, ())))
    return [ends[v] for v in range(complex_.num(0))]


def _components(adj: list[list[int]]) -> int:
    """The number of connected components of the graph ``adj``."""
    seen = [False] * len(adj)
    count = 0
    for start in range(len(adj)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def _is_connected(complex_: DeltaComplex) -> bool:
    adj = [[] for _ in range(complex_.num(0))]
    for a, b in complex_.boundary.get(1, ()):
        adj[a].append(b)
        adj[b].append(a)
    return _components(adj) == 1


def is_chain(complex_: DeltaComplex) -> bool:
    """A path graph: connected, no 2-cells, degrees <= 2, two endpoints."""
    if complex_.num(2) != 0 or not _is_connected(complex_):
        return False
    deg = _vertex_degrees(complex_)
    return max(deg) <= 2 and deg.count(0) + deg.count(1) == 2


def _is_simplicial(complex_: DeltaComplex) -> bool:
    edges = complex_.boundary.get(1, ())
    if any(a == b for a, b in edges):
        return False
    if len({(a, b) if a < b else (b, a) for a, b in edges}) != len(edges):
        return False
    triangles = complex_.boundary.get(2, ())
    corners = set()
    for x, y, z in triangles:
        vertices = frozenset((*edges[x], *edges[y], *edges[z]))
        if x == y or y == z or x == z or len(vertices) != 3:
            return False
        corners.add(vertices)
    return len(corners) == len(triangles)


def _vertex_links_are_cycles(complex_: DeltaComplex) -> bool:
    # Only called on simplicial complexes; the link of each vertex must be a
    # single cycle in the graph whose nodes are the edges at the vertex and
    # whose adjacencies come from the triangle corners.  Node 2e + s is edge
    # e at its end boundary[1][e][s]; a corner joins two nodes at the same
    # vertex, so the links are cycles iff every node has two neighbours and
    # the components are as many as the vertices, each of which has an edge.
    # In a simplicial complex each pair of a triangle's edges meets in one
    # vertex.
    edges = complex_.boundary.get(1, ())
    link = [[] for _ in range(2 * len(edges))]
    for x, y, z in complex_.boundary.get(2, ()):
        for e, f in ((x, y), (y, z), (x, z)):
            a, b = edges[e]
            c, d = edges[f]
            p, q = (2 * e, 2 * f + (c != a)) if a in (c, d) else (2 * e + 1, 2 * f + (c != b))
            link[p].append(q)
            link[q].append(p)
    return (all(len(nbrs) == 2 for nbrs in link) and 0 not in _vertex_degrees(complex_)
            and _components(link) == complex_.num(0))


def is_closed_surface(complex_: DeltaComplex) -> bool:
    """Connected, every edge in exactly two triangles; for simplicial
    complexes the vertex links are additionally required to be cycles."""
    if complex_.num(2) == 0 or not _is_connected(complex_):
        return False
    incidence = Counter(chain.from_iterable(complex_.boundary.get(2, ())))
    if len(incidence) != complex_.num(1) or set(incidence.values()) != {2}:
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
    label, boundary = complex_.label, complex_.boundary
    labels = {name: label(k, i) for k, n in complex_.counts.items()
              for i, name in enumerate(_names(k, n))}
    return {
        "vertices": list(islice(labels.values(), complex_.num(0))),
        "edges": [list(row) for row in boundary.get(1, ())],
        "triangles": [list(row) for row in boundary.get(2, ())],
        "labels": labels,
    }
