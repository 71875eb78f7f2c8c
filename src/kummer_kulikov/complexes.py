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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .degeneration import DegenerationData, base_change, is_even
from .errors import (
    ConsistencyError,
    InvalidScale,
    OddData,
    ShapeMismatch,
    UncertifiedFan,
    UnsupportedRank,
)
from .lattice import component_group, two_torsion_order

if TYPE_CHECKING:  # annotations only: the counts and base change run without the fan
    from .fan import PeriodicTriangulation


class KulikovType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


Boundary = dict[int, tuple[tuple[int, ...], ...]]


@dataclass(eq=False)
class DeltaComplex:
    """Cells with ordered face maps, dimensions 0..2, on integer positions.

    ``counts[k]`` is the number of k-cells.  ``boundary[k]``, for k >= 1,
    lists the k+1 faces of each k-cell, in order, as positions among the
    (k−1)-cells: the ends of edge e are ``boundary[1][e]`` and the edges of
    triangle τ are ``boundary[2][τ]``.  ``label(k, i)`` formats the label of
    the i-th k-cell.  Two complexes are equal when their counts, boundaries
    and labels are.
    """

    counts: dict[int, int]
    boundary: Boundary
    label: Callable[[int, int], str] = field(repr=False)

    def num(self, k: int) -> int:
        return self.counts.get(k, 0)

    def __eq__(self, other):
        if not isinstance(other, DeltaComplex):
            return NotImplemented
        return (self.counts == other.counts and self.boundary == other.boundary
                and all(self.label(k, i) == other.label(k, i)
                        for k, n in self.counts.items() for i in range(n)))


def _check_involution(complex_: DeltaComplex, perms: dict[int, tuple[int, ...]]) -> None:
    """Raise ValueError unless ``perms`` permutes the cells of each of its
    dimensions, squares to the identity and commutes with the faces."""
    for k, perm in perms.items():
        n = complex_.num(k)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"dimension {k}: not a permutation of {n} cells")
        if list(map(perm.__getitem__, perm)) != list(range(n)):
            raise ValueError(f"dimension {k}: square is not the identity")
    # Face compatibility: act(faces(c)) = faces(act(c)) as multisets.  On
    # Δ_A face j of −S is −(face t−j of S), so the mapped row reversed is
    # the image's row; the multisets are compared only when that fails.
    for k, rows in complex_.boundary.items():
        perm = perms.get(k, range(len(rows)))
        mapped = _map_rows(perms.get(k - 1, range(complex_.num(k - 1))), rows, -1)
        if mapped == list(map(rows.__getitem__, perm)):
            continue
        for i, row in enumerate(mapped):
            if sorted(row) != sorted(rows[perm[i]]):
                raise ValueError(f"involution does not commute with faces at {'vet'[k]}{i}")


def _map_rows(where: Sequence[int], rows, step: int = 1) -> list[tuple[int, ...]]:
    """Each row read with ``step`` (−1 reverses it), its entries p replaced by where[p]."""
    return list(zip(*[[where[p] for p in column] for column in list(zip(*rows))[::step]]))


def dual_complex(t: PeriodicTriangulation) -> tuple[DeltaComplex, dict[int, tuple[int, ...]]]:
    """Δ_A together with the inversion action: for each dimension k, the
    position of the negative of each k-cell.

    k-cells are the k-simplex classes of the triangulation; the i-th face of
    a cell is the class of the simplex with its i-th vertex deleted.  Raises
    UncertifiedFan unless the fan's certificate has what the complex needs,
    or when some −S is not a class, since the inversion then has no action on
    the cells.  A cell's label lists the vertices of its class, and the
    labels of a dimension are formatted when the first is read.  The
    boundary and the involution are the fan's position ``tables``; a
    development builds no class, and a constructor's fan only for labels.
    """
    if t.certificate is None:
        raise UncertifiedFan("dual complex needs a certified fan; run certify() first")
    if (failing := t.certificate.complex_refusal()) is not None:
        raise UncertifiedFan(f"dual complex needs a fan that passes {failing}")
    faces, negatives = t.tables
    for k, images in negatives.items():
        if None in images:
            missing = t.by_dim(k)[images.index(None)]
            raise UncertifiedFan(
                f"dual complex needs a fan stable under inversion; -S is not a class "
                f"for S = {[list(v) for v in missing.vertices]}")
    counts = {k: len(images) for k, images in negatives.items()}
    by_dim = functools.cache(t.class_labels)
    return DeltaComplex(counts, dict(faces), lambda k, i: by_dim(k)[i]), dict(negatives)


def h_quotient(complex_: DeltaComplex, perms: dict[int, tuple[int, ...]]) -> DeltaComplex:
    """Quotient Δ-complex by the involution ``perms``, the permutation of the
    cell positions of each dimension (the identity where it has none);
    identifications are permitted.  Raises ValueError unless ``perms`` is an
    involution that commutes with the faces.

    Each quotient cell is an orbit {i, perm[i]}, recorded by its least parent
    position i; its label is theirs, joined by " ~ " when they differ.
    """
    _check_involution(complex_, perms)
    perms = {k: perms.get(k, range(n)) for k, n in complex_.counts.items()}
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
    t=0 point, t=1 chain, t=2 closed surface with χ = 2.  ``DegenerationData``
    has no other rank."""
    t = d.rank
    if t == 0:
        if quotient.num(0) == 1 and quotient.num(1) == 0 and quotient.num(2) == 0:
            return KulikovType.I
        raise ShapeMismatch("rank 0 but the quotient complex is not a point")
    if t == 1:
        if is_chain(quotient):
            return KulikovType.II
        raise ShapeMismatch("rank 1 but the quotient complex is not a chain")
    if is_closed_surface(quotient) and euler_characteristic(quotient) == 2:
        return KulikovType.III
    raise ShapeMismatch("rank 2 but the quotient complex is not a 2-sphere")


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
    """The document of a complex, the one place that names cells: the i-th
    k-cell is ``"vet"[k] + str(i)``, and ``vertices`` lists the labels of
    the 0-cells by position."""
    label, boundary = complex_.label, complex_.boundary
    labels = {k: [label(k, i) for i in range(n)] for k, n in complex_.counts.items()}
    return {
        "vertices": labels.get(0, []),
        "edges": [list(row) for row in boundary.get(1, ())],
        "triangles": [list(row) for row in boundary.get(2, ())],
        "labels": {"vet"[k] + str(i): x for k, row in labels.items() for i, x in enumerate(row)},
    }
