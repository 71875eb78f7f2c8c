import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummer_kulikov.complexes as complexes_module

from conftest import make_data
from kummer_kulikov.complexes import (
    BaseChangeCounts,
    ComponentCounts,
    DeltaComplex,
    InvolutionAction,
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
from kummer_kulikov.fan import auto_scale, standard_triangulation
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
        delta_a, act = dual_complex(t)
        act.validate(delta_a)  # raises on failure
        for k, perm in act.perms.items():
            assert all(perm[perm[i]] == i for i in range(len(perm)))


@pytest.mark.parametrize("rank, b_rows", [(2, [[2, 0], [0, 2]]), (1, [[4]])])
def test_involution_validate_rejects(rank, b_rows):
    _, t = auto_scale(make_data(rank, b_rows))
    delta_a, act = dual_complex(t)

    def altered(k, perm):
        return InvolutionAction({**act.perms, k: tuple(perm)})

    n = delta_a.num(0)
    with pytest.raises(ValueError, match="not a permutation"):
        altered(0, [0] * n).validate(delta_a)
    with pytest.raises(ValueError, match="not a permutation"):
        altered(0, range(n - 1)).validate(delta_a)
    with pytest.raises(ValueError, match="square is not the identity"):
        altered(0, [1, 2, 0, *range(3, n)]).validate(delta_a)
    # The identity on the top cells is a permutation and an involution, but
    # the inversion fixes no top cell: on (4) it swaps the vertex classes 1
    # and 3 and so every edge; on diag(2, 2) it fixes no edge, so it moves
    # the edges of every triangle.
    top = delta_a.num(rank)
    assert all(act.perms[rank][i] != i for i in range(top))
    with pytest.raises(ValueError, match="does not commute with faces"):
        altered(rank, range(top)).validate(delta_a)
    act.validate(delta_a)


def test_labels_are_formatted_when_read(monkeypatch):
    formatted = []
    label = complexes_module._simplex_label
    monkeypatch.setattr(complexes_module, "_simplex_label",
                        lambda s: formatted.append(s) or label(s))
    delta_a, act, delta_x = build(make_data(1, [[4]]))
    assert formatted == []
    assert delta_x.labels["v1"] == "(1) ~ (3)"
    assert len(formatted) == 2
    assert delta_a.labels == {"v0": "(0)", "v1": "(1)", "v2": "(2)", "v3": "(3)",
                              "e0": "(0)|(1)", "e1": "(1)|(2)", "e2": "(2)|(3)",
                              "e3": "(3)|(4)"}
    assert dict(delta_x.labels) == {"v0": "(0)", "v1": "(1) ~ (3)", "v2": "(2)",
                                    "e0": "(0)|(1) ~ (3)|(4)", "e1": "(1)|(2) ~ (2)|(3)"}
    assert delta_x.boundary == {1: ((1, 0), (2, 1))}
    assert delta_x == DeltaComplex(dict(delta_x.cells), dict(delta_x.faces),
                                   dict(delta_x.labels))


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

def quadratic_vertex_links_are_cycles(complex_):
    """The former per-vertex scan over every edge and triangle, as an oracle."""
    for v in complex_.cells.get(0, ()):
        nodes = [e for e in complex_.cells.get(1, ()) if v in complex_.faces[e]]
        adj = {e: [] for e in nodes}
        count = 0
        for tri in complex_.cells.get(2, ()):
            at_v = [e for e in complex_.faces[tri] if v in complex_.faces[e]]
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
    glue = c1.cells[0][0]

    def rename(c, tag):
        name = {x: f"{tag}{x}" for xs in c.cells.values() for x in xs}
        name[c.cells[0][0]] = glue
        return name

    n1, n2 = rename(c1, "a"), rename(c2, "b")
    cells = {k: tuple(dict.fromkeys([n1[x] for x in c1.cells.get(k, ())]
                                    + [n2[x] for x in c2.cells.get(k, ())]))
             for k in range(3)}
    faces = {n[x]: tuple(n[f] for f in fs)
             for c, n in ((c1, n1), (c2, n2)) for x, fs in c.faces.items()}
    return DeltaComplex(cells, faces, {y: y for ys in cells.values() for y in ys})


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
