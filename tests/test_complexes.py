import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummer_kulikov.cli as cli_module
import kummer_kulikov.complexes as complexes_module
import kummer_kulikov.fan as fan_module

from conftest import make_data
from kummer_kulikov.complexes import (
    BaseChangeCounts,
    ComponentCounts,
    DeltaComplex,
    KulikovType,
    base_change_counts,
    classify_kummer_type,
    complex_to_json,
    component_counts,
    dual_complex,
    euler_characteristic,
    h_quotient,
    is_chain,
    is_closed_surface,
)
from kummer_kulikov.errors import (
    OddData,
    ShapeMismatch,
    UncertifiedFan,
    UnsupportedRank,
)
from kummer_kulikov.fan import auto_scale, certify, fan_to_json, standard_triangulation
from kummer_kulikov.lattice import IntMatrix, component_group, two_torsion_order


def build(d):
    _, t = auto_scale(d)
    delta_a, act = dual_complex(t)
    return delta_a, act, h_quotient(delta_a, act)


def test_dual_complex_requires_certificates():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    with pytest.raises(UncertifiedFan):
        dual_complex(t)
    # b = I: the unit translates meet the triangles, so property (d) fails.
    t = standard_triangulation(2).with_lattice(IntMatrix([[1, 0], [0, 1]]))
    assert certify(t).complex_refusal() == "property_d"
    with pytest.raises(UncertifiedFan, match="property_d"):
        dual_complex(t)


def test_dual_complex_t1_cycle():
    d = make_data(1, [[2]])
    delta_a, act, delta_x = build(d)
    assert [delta_a.num(k) for k in range(3)] == [2, 2, 0]
    assert euler_characteristic(delta_a) == 0
    # Quotient: both vertices fixed, the two edges swap.
    assert [delta_x.num(k) for k in range(3)] == [2, 1, 0]
    assert is_chain(delta_x)


def test_dual_complex_t2_torus_and_quotient():
    d = make_data(2, [[2, 0], [0, 2]])
    delta_a, act, delta_x = build(d)
    assert [delta_a.num(k) for k in range(3)] == [4, 12, 8]
    assert euler_characteristic(delta_a) == 0
    assert [delta_x.num(k) for k in range(3)] == [4, 6, 4]
    assert euler_characteristic(delta_x) == 2
    assert is_closed_surface(delta_x)


def test_dual_complex_t0_point():
    d = make_data(0, [])
    delta_a, act, delta_x = build(d)
    assert [delta_a.num(k) for k in range(3)] == [1, 0, 0]
    assert [delta_x.num(k) for k in range(3)] == [1, 0, 0]
    assert euler_characteristic(delta_x) == 1


def test_involution_is_valid():
    for b_rows, rank in [([[2]], 1), ([[4]], 1), ([[2, 0], [0, 2]], 2),
                         ([[4, 2], [2, 6]], 2)]:
        d = make_data(rank, b_rows)
        _, t = auto_scale(d)
        delta_a, perms = dual_complex(t)
        h_quotient(delta_a, perms)  # raises unless perms is a valid involution
        for k, perm in perms.items():
            assert all(perm[perm[i]] == i for i in range(len(perm)))


@pytest.mark.parametrize("rank, b_rows", [(2, [[2, 0], [0, 2]]), (1, [[4]])])
def test_involution_validate_rejects(rank, b_rows):
    _, t = auto_scale(make_data(rank, b_rows))
    delta_a, perms = dual_complex(t)

    def altered(k, perm):
        return {**perms, k: tuple(perm)}

    n = delta_a.num(0)
    with pytest.raises(ValueError, match="not a permutation"):
        h_quotient(delta_a, altered(0, [0] * n))
    with pytest.raises(ValueError, match="not a permutation"):
        h_quotient(delta_a, altered(0, range(n - 1)))
    with pytest.raises(ValueError, match="square is not the identity"):
        h_quotient(delta_a, altered(0, [1, 2, 0, *range(3, n)]))
    # The identity on the top cells is a permutation and an involution, but
    # the inversion fixes no top cell: on (4) it swaps the vertex classes 1
    # and 3 and so every edge; on diag(2, 2) it fixes no edge, so it moves
    # the edges of every triangle.
    top = delta_a.num(rank)
    assert all(perms[rank][i] != i for i in range(top))
    with pytest.raises(ValueError, match="does not commute with faces"):
        h_quotient(delta_a, altered(rank, range(top)))
    h_quotient(delta_a, perms)


def _with_triangles(complex_, triangles):
    counts = {**complex_.counts, 2: len(triangles)}
    return DeltaComplex(counts, {**complex_.boundary, 2: tuple(triangles)}, complex_.label)


def test_involution_validate_falls_back_to_face_multisets():
    # On Δ_A the inversion maps each face row, reversed, onto its image's
    # row.  Rotating one row breaks that comparison but keeps every multiset
    # of faces, so the quotient must still accept it; repeating an edge breaks
    # both.
    _, t = auto_scale(make_data(2, [[2, 0], [0, 2]]))
    delta_a, perms = dual_complex(t)
    perm, sub = perms[2], perms[1]

    def reversed_rows_match(c):
        rows = c.boundary[2]
        return [tuple(sub[e] for e in reversed(row)) for row in rows] == [rows[j] for j in perm]

    rows = list(delta_a.boundary[2])
    assert reversed_rows_match(delta_a)
    j = perm[0]
    rows[j] = rows[j][1:] + rows[j][:1]
    rotated = _with_triangles(delta_a, rows)
    assert not reversed_rows_match(rotated)
    h_quotient(rotated, perms)
    x, _, z = rows[j]
    rows[j] = (x, x, z)
    # The first row whose image is row j is row 0.
    with pytest.raises(ValueError, match="does not commute with faces at t0$"):
        h_quotient(_with_triangles(delta_a, rows), perms)


def test_classify_and_report_build_no_cell_name(monkeypatch, tmp_path, capsys):
    # Cells are named only in a complex document, by complex_to_json.
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    named = []
    to_json = complexes_module.complex_to_json
    monkeypatch.setattr(complexes_module, "complex_to_json",
                        lambda c: named.append(c.counts) or to_json(c))
    data = [write("d2.json", {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[4, 2], [2, 6]]}),
            write("d1.json", {"rank": 1, "phi": [[1]], "b": [[8]]}),
            write("d0.json", {"rank": 0, "phi": [], "b": []})]
    for path in data:
        for argv in (["classify", path], ["report", path]):
            assert cli_module.main([*argv, "--quiet"]) == 0
    assert named == []
    document = write("f.json", fan_to_json(standard_triangulation(2).with_lattice(
        IntMatrix([[2, 0], [0, 2]]))))
    assert cli_module.main(["complex", "quotient", document, "--quiet"]) == 0
    capsys.readouterr()
    assert named == [{0: 4, 1: 6, 2: 4}]


def test_labels_are_formatted_when_read(monkeypatch, tmp_path, capsys):
    # A development formats all labels of a dimension when the first is
    # read, and classify and report format none.
    formatted = []
    by_dim, label = fan_module.PeriodicTriangulation.class_labels, fan_module._simplex_label
    monkeypatch.setattr(fan_module.PeriodicTriangulation, "class_labels",
                        lambda t, k: formatted.append(k) or by_dim(t, k))
    monkeypatch.setattr(fan_module, "_simplex_label", lambda s: formatted.append(s) or label(s))
    for i, datum in enumerate(({"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[4, 2], [2, 6]]},
                               {"rank": 1, "phi": [[1]], "b": [[8]]},
                               {"rank": 0, "phi": [], "b": []})):
        path = tmp_path / f"d{i}.json"
        path.write_text(json.dumps(datum))
        for command in ("classify", "report"):
            assert cli_module.main([command, str(path), "--quiet"]) == 0
    capsys.readouterr()
    assert formatted == []
    delta_a, act, delta_x = build(make_data(1, [[4]]))
    assert formatted == []
    assert delta_x.label(0, 1) == "(1) ~ (3)"
    assert formatted == [0]
    assert delta_x.label(0, 2) == "(2)"
    assert formatted == [0]
    assert complex_to_json(delta_a)["labels"] == {
        "v0": "(0)", "v1": "(1)", "v2": "(2)", "v3": "(3)",
        "e0": "(0)|(1)", "e1": "(1)|(2)", "e2": "(2)|(3)", "e3": "(3)|(4)"}
    assert formatted == [0, 1]
    assert complex_to_json(delta_x) == {
        "vertices": ["(0)", "(1) ~ (3)", "(2)"], "edges": [[1, 0], [2, 1]], "triangles": [],
        "labels": {"v0": "(0)", "v1": "(1) ~ (3)", "v2": "(2)",
                   "e0": "(0)|(1) ~ (3)|(4)", "e1": "(1)|(2) ~ (2)|(3)"}}
    assert delta_x.boundary == {1: ((1, 0), (2, 1))}
    names = {0: ["(0)", "(1) ~ (3)", "(2)"], 1: ["(0)|(1) ~ (3)|(4)", "(1)|(2) ~ (2)|(3)"]}
    assert delta_x == DeltaComplex({0: 3, 1: 2}, {1: ((1, 0), (2, 1))}, lambda k, i: names[k][i])
    assert delta_x != DeltaComplex({0: 3, 1: 2}, {1: ((1, 0), (2, 1))}, lambda k, i: "x")


def test_euler_characteristic_examples():
    d = make_data(2, [[2, 0], [0, 2]])
    delta_a, _, delta_x = build(d)
    assert euler_characteristic(delta_a) == 4 - 12 + 8 == 0
    assert euler_characteristic(delta_x) == 4 - 6 + 4 == 2
    d0 = make_data(0, [])
    _, _, point = build(d0)
    assert euler_characteristic(point) == 1


def test_classify_examples():
    d0 = make_data(0, [])
    _, _, x0 = build(d0)
    assert classify_kummer_type(d0, x0) is KulikovType.I

    d4 = make_data(1, [[4]])
    _, _, x4 = build(d4)
    assert classify_kummer_type(d4, x4) is KulikovType.II
    assert x4.num(0) == 3  # chain with 3 vertices

    d22 = make_data(2, [[2, 0], [0, 2]])
    _, _, x22 = build(d22)
    assert classify_kummer_type(d22, x22) is KulikovType.III
    assert euler_characteristic(x22) == 2


def test_classify_shape_mismatch():
    d4 = make_data(1, [[4]])
    delta_a, _, _ = build(d4)
    # The unquotiented cycle is not a chain.
    with pytest.raises(ShapeMismatch):
        classify_kummer_type(d4, delta_a)
    d22 = make_data(2, [[2, 0], [0, 2]])
    delta_a22, _, _ = build(d22)
    with pytest.raises(ShapeMismatch):
        classify_kummer_type(d22, delta_a22)  # torus, chi = 0


def test_component_counts_examples():
    assert component_counts(make_data(2, [[2, 0], [0, 2]])) == ComponentCounts(4, 4)
    assert component_counts(make_data(1, [[4]])) == ComponentCounts(4, 3)
    assert component_counts(make_data(0, [])) == ComponentCounts(1, 1)
    with pytest.raises(OddData):
        component_counts(make_data(2, [[2, 1], [1, 2]], a_basis=(1, 1)))


def test_component_counts_formula_route():
    # N_X = #Phi/2 + 2^(t-1) whenever the pairing is even.
    for b_rows, rank in [([[2, 0], [0, 2]], 2), ([[4, 0], [0, 4]], 2),
                         ([[2, 0], [0, 4]], 2), ([[6, 0], [0, 6]], 2),
                         ([[4, 2], [2, 6]], 2), ([[2]], 1), ([[8]], 1)]:
        d = make_data(rank, b_rows)
        counts = component_counts(d)
        assert counts.N_X == counts.N_A // 2 + 2 ** (rank - 1)


def test_quotient_vertex_count_cross_check():
    # #vertices(Delta_X) = #Phi[2] + (#Phi - #Phi[2]) / 2 = N_X for the family
    # {2k I2, diag(2,4), (2k)} with k <= 5.
    family = [(2, [[2 * k, 0], [0, 2 * k]]) for k in range(1, 6)]
    family += [(2, [[2, 0], [0, 4]])]
    family += [(1, [[2 * k]]) for k in range(1, 6)]
    for rank, b_rows in family:
        d = make_data(rank, b_rows)
        _, _, delta_x = build(d)
        phi = component_group(d.b)
        tt = two_torsion_order(phi)
        expected = tt + (phi.order - tt) // 2
        assert delta_x.num(0) == expected == component_counts(d).N_X


def test_t1_cycle_and_chain_sizes():
    for k in range(1, 6):
        d = make_data(1, [[2 * k]])
        delta_a, _, delta_x = build(d)
        order = component_group(d.b).order
        assert delta_a.num(0) == delta_a.num(1) == order  # cycle of length #Phi
        assert is_chain(delta_x)
        assert delta_x.num(0) == order // 2 + 1


def test_t2_surface_properties():
    for b_rows in [[[2, 0], [0, 2]], [[4, 0], [0, 4]], [[2, 0], [0, 4]],
                   [[4, 2], [2, 6]]]:
        d = make_data(2, b_rows)
        delta_a, _, delta_x = build(d)
        assert euler_characteristic(delta_a) == 0
        assert euler_characteristic(delta_x) == 2
        assert is_closed_surface(delta_x)


def test_base_change_examples():
    assert base_change_counts(make_data(1, [[4]]), 3) == BaseChangeCounts(3, 7, 7)
    assert base_change_counts(make_data(1, [[4]]), 1).N_L == 3
    assert base_change_counts(make_data(2, [[2, 0], [0, 2]]), 2) == \
        BaseChangeCounts(4, 10, 10)


def test_base_change_identity_family():
    family = [(2, [[2, 0], [0, 2]]), (2, [[4, 0], [0, 4]]),
              (2, [[2, 0], [0, 4]]), (2, [[6, 0], [0, 6]]),
              (1, [[2]]), (1, [[4]]), (1, [[6]]), (1, [[8]])]
    for rank, b_rows in family:
        d = make_data(rank, b_rows)
        for e in range(1, 7):
            counts = base_change_counts(d, e)
            assert counts.N_L == counts.formula_N_L


def test_base_change_preconditions():
    with pytest.raises(OddData):
        base_change_counts(make_data(2, [[2, 1], [1, 2]], a_basis=(1, 1)), 2)
    with pytest.raises(UnsupportedRank):
        base_change_counts(make_data(0, []), 2)


def test_complex_json_schema():
    d = make_data(2, [[2, 0], [0, 2]])
    _, _, delta_x = build(d)
    doc = complex_to_json(delta_x)
    assert set(doc) == {"vertices", "edges", "triangles", "labels"}
    assert len(doc["vertices"]) == 4
    assert all(len(e) == 2 and all(0 <= v < 4 for v in e) for e in doc["edges"])
    assert all(len(t) == 3 and all(0 <= e < len(doc["edges"]) for e in t)
               for t in doc["triangles"])
    assert doc["labels"]
    # The vertices are the 0-cells' labels, whatever the order of the counts.
    edge = DeltaComplex({1: 1, 0: 2}, {1: ((0, 1),)}, lambda k, i: f"{k}:{i}")
    assert complex_to_json(edge) == {"vertices": ["0:0", "0:1"], "edges": [[0, 1]],
                                     "triangles": [],
                                     "labels": {"e0": "1:0", "v0": "0:0", "v1": "0:1"}}


def test_quotient_of_b2I2_is_tetrahedron():
    # 4 vertices, 6 edges, 4 triangles, simplicial, every pair of vertices
    # spans an edge: the boundary of a tetrahedron.
    d = make_data(2, [[2, 0], [0, 2]])
    _, _, delta_x = build(d)
    doc = complex_to_json(delta_x)
    edge_sets = {frozenset(e) for e in doc["edges"]}
    assert len(edge_sets) == 6
    assert all(len(e) == 2 for e in edge_sets)


# -- the vertex-link predicate ----------------------------------------------------

def named_views(complex_):
    """The former name-keyed views of a complex: the names of its cells by
    dimension, ``"vet"[k] + str(i)``, and the names of each cell's faces."""
    cells = {k: tuple(f"{'vet'[k]}{i}" for i in range(n)) for k, n in complex_.counts.items()}
    faces = {name: tuple(cells[k - 1][f] for f in row)
             for k, rows in complex_.boundary.items() for name, row in zip(cells[k], rows)}
    return cells, faces


def quadratic_vertex_links_are_cycles(complex_):
    """The former per-vertex scan over every edge and triangle, as an oracle."""
    cells, faces = named_views(complex_)
    for v in cells.get(0, ()):
        nodes = [e for e in cells.get(1, ()) if v in faces[e]]
        adj = {e: [] for e in nodes}
        count = 0
        for tri in cells.get(2, ()):
            at_v = [e for e in faces[tri] if v in faces[e]]
            if len(at_v) == 2:
                adj[at_v[0]].append(at_v[1])
                adj[at_v[1]].append(at_v[0])
                count += 1
        if not nodes or any(len(nbrs) != 2 for nbrs in adj.values()) or count != len(nodes):
            return False
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(nodes):
            return False
    return True


def wedge(c1, c2):
    """Disjoint union of two Δ-complexes with their first vertices identified."""
    def place(k, p):  # the position of c2's p-th k-cell in the wedge
        if k == 0:
            return 0 if p == 0 else c1.num(0) + p - 1
        return c1.num(k) + p

    counts = {k: c1.num(k) + c2.num(k) - (k == 0) for k in range(3)}
    boundary = {k: c1.boundary.get(k, ()) + tuple(tuple(place(k - 1, f) for f in row)
                                                  for row in c2.boundary.get(k, ()))
                for k in (1, 2)}
    return DeltaComplex(counts, boundary, lambda k, i: f"{k}:{i}")


def test_tetrahedra_glued_at_a_vertex_are_not_a_surface():
    # Simplicial, connected, every edge in two triangles; the link of the
    # glued vertex is two disjoint 3-cycles.
    _, _, tetra = build(make_data(2, [[2, 0], [0, 2]]))
    assert is_closed_surface(tetra)
    glued = wedge(tetra, tetra)
    assert [glued.num(k) for k in range(3)] == [7, 12, 8]
    assert complexes_module._is_simplicial(glued)
    assert not complexes_module._vertex_links_are_cycles(glued)
    assert not quadratic_vertex_links_are_cycles(glued)
    assert not is_closed_surface(glued)
    # Add an isolated vertex: its empty link and the glued vertex's two link
    # cycles are as many as the vertices, yet neither link is one cycle.
    isolated = DeltaComplex({**glued.counts, 0: 8}, glued.boundary, glued.label)
    assert complexes_module._is_simplicial(isolated)
    assert not complexes_module._vertex_links_are_cycles(isolated)
    assert not quadratic_vertex_links_are_cycles(isolated)


even_rank2 = st.tuples(*[st.integers(-3, 3)] * 4).filter(
    lambda r: r[0] * r[3] != r[1] * r[2] and abs(r[0] * r[3] - r[1] * r[2]) <= 3).map(
    lambda r: [[2 * (r[0] * r[0] + r[2] * r[2]), 2 * (r[0] * r[1] + r[2] * r[3])],
               [2 * (r[0] * r[1] + r[2] * r[3]), 2 * (r[1] * r[1] + r[3] * r[3])]])


@settings(max_examples=20, deadline=None)
@given(even_rank2, even_rank2)
def test_vertex_links_match_quadratic_scan(b1, b2):
    delta_a, _, delta_x = build(make_data(2, b1))
    _, _, other_x = build(make_data(2, b2))
    for c in (delta_a, delta_x, wedge(delta_x, other_x)):
        if complexes_module._is_simplicial(c):
            assert (complexes_module._vertex_links_are_cycles(c)
                    == quadratic_vertex_links_are_cycles(c))
    glued = wedge(delta_x, other_x)
    if complexes_module._is_simplicial(glued):
        assert not is_closed_surface(glued)


# -- the position predicates against the former name-based ones ------------------
#
# These are the predicates as they ran on cell names, over the name-keyed
# views (``named_views``), kept as an oracle.

def named_euler_characteristic(complex_):
    cells, _ = named_views(complex_)
    return sum((-1) ** k * len(names) for k, names in cells.items())


def named_vertex_degrees(complex_):
    cells, faces = named_views(complex_)
    deg = {v: 0 for v in cells.get(0, ())}
    for e in cells.get(1, ()):
        for v in faces[e]:
            deg[v] += 1
    return deg


def named_reaches_all(adj):
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def named_is_connected(complex_):
    cells, faces = named_views(complex_)
    verts = cells.get(0, ())
    if not verts:
        return False
    adj = {v: set() for v in verts}
    for e in cells.get(1, ()):
        a, b = faces[e]
        adj[a].add(b)
        adj[b].add(a)
    return named_reaches_all(adj)


def named_is_chain(complex_):
    if complex_.num(2) != 0 or not named_is_connected(complex_):
        return False
    deg = named_vertex_degrees(complex_)
    if any(d > 2 for d in deg.values()):
        return False
    return sum(1 for d in deg.values() if d <= 1) == 2


def named_triangle_vertices(faces, tri):
    out = set()
    for e in faces[tri]:
        out.update(faces[e])
    return out


def named_is_simplicial(complex_):
    cells, faces = named_views(complex_)
    edge_sets = []
    for e in cells.get(1, ()):
        a, b = faces[e]
        if a == b:
            return False
        edge_sets.append(frozenset((a, b)))
    if len(set(edge_sets)) != len(edge_sets):
        return False
    tri_sets = []
    for tri in cells.get(2, ()):
        if (len(set(faces[tri])) != 3
                or len(named_triangle_vertices(faces, tri)) != 3):
            return False
        tri_sets.append(frozenset(named_triangle_vertices(faces, tri)))
    return len(set(tri_sets)) == len(tri_sets)


def named_vertex_links_are_cycles(complex_):
    cells, faces = named_views(complex_)
    links = {v: {} for v in cells.get(0, ())}
    for e in cells.get(1, ()):
        for v in faces[e]:
            links[v][e] = []
    for tri in cells.get(2, ()):
        a, b, c = faces[tri]
        for e, f in ((a, b), (b, c), (a, c)):
            v, w = faces[e]
            link = links[v if v in faces[f] else w]
            link[e].append(f)
            link[f].append(e)
    return all(adj and all(len(nbrs) == 2 for nbrs in adj.values()) and named_reaches_all(adj)
               for adj in links.values())


def named_is_closed_surface(complex_):
    cells, faces = named_views(complex_)
    if complex_.num(2) == 0 or not named_is_connected(complex_):
        return False
    incidence = {}
    for tri in cells.get(2, ()):
        for e in faces[tri]:
            incidence[e] = incidence.get(e, 0) + 1
    if any(incidence.get(e, 0) != 2 for e in cells.get(1, ())):
        return False
    if named_is_simplicial(complex_):
        return named_vertex_links_are_cycles(complex_)
    return True


def named_predicates(c):
    simplicial = named_is_simplicial(c)
    return (named_euler_characteristic(c), list(named_vertex_degrees(c).values()),
            named_is_connected(c), named_is_chain(c), simplicial,
            simplicial and named_vertex_links_are_cycles(c), named_is_closed_surface(c))


def position_predicates(c):
    m = complexes_module
    simplicial = m._is_simplicial(c)
    return (euler_characteristic(c), m._vertex_degrees(c), m._is_connected(c), is_chain(c),
            simplicial, simplicial and m._vertex_links_are_cycles(c), is_closed_surface(c))


def damaged(c, kind, i):
    """``c`` with one defect at cell i (mod the count), or ``c`` if it has no
    cell to damage."""
    edges, triangles = c.boundary.get(1, ()), list(c.boundary.get(2, ()))
    if kind == "isolated vertex":
        return DeltaComplex({**c.counts, 0: c.num(0) + 1}, c.boundary, c.label)
    if kind == "duplicated edge" and edges:
        return DeltaComplex({**c.counts, 1: len(edges) + 1},
                            {**c.boundary, 1: edges + (edges[i % len(edges)],)}, c.label)
    if not triangles:
        return c
    i %= len(triangles)
    if kind == "repeated edge":
        x, _, z = triangles[i]
        triangles[i] = (x, x, z)
    else:  # a dropped triangle
        del triangles[i]
    return _with_triangles(c, triangles)


complex_cases = st.one_of(st.just((0, [])), st.integers(1, 6).map(lambda k: (1, [[2 * k]])),
                          even_rank2.map(lambda b: (2, b)))


@settings(max_examples=40, deadline=None)
@given(complex_cases, complex_cases, st.integers(0, 10**6))
def test_position_predicates_match_named_ones(case, other, i):
    delta_a, _, delta_x = build(make_data(*case))
    _, _, other_x = build(make_data(*other))
    for c in (delta_a, delta_x, wedge(delta_x, other_x)):
        for variant in (c, *(damaged(c, kind, i) for kind in
                             ("isolated vertex", "duplicated edge", "repeated edge",
                              "dropped triangle"))):
            assert position_predicates(variant) == named_predicates(variant)
