import contextlib
import io
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kummer_kulikov.cli as cli_module
import kummer_kulikov.complexes as complexes_module
import kummer_kulikov.fan as fan_module
import kummer_kulikov.lattice as lattice_module
from conftest import (
    SQUARE_CUTS,
    certify_loop,
    flipped_fans,
    hulls_intersect,
    lattice_points,
    make_data,
    scan_h_freeness,
    scan_property_d,
)
from kummer_kulikov.degeneration import base_change, is_even, validate
from kummer_kulikov.errors import SchemaError, UncertifiedFan, UnsupportedRank
from kummer_kulikov.fan import (
    LatticeSimplex,
    PeriodicTriangulation,
    auto_scale,
    certify,
    check_gamma_admissible,
    check_h_freeness,
    check_property_d,
    check_semistable,
    fan_from_json,
    fan_to_json,
    is_unimodular,
    standard_triangulation,
    vertices_complete,
)
from kummer_kulikov.lattice import IntMatrix, component_group, smith_normal_form, solve

GOLDEN_INPUTS = Path(__file__).parent / "data" / "golden" / "inputs"
JSON_FANS = sorted(GOLDEN_INPUTS.glob("f_*.json"))


def read_fan(path):
    return fan_from_json(json.loads(path.read_text()))


def test_simplex_validation():
    with pytest.raises(ValueError):
        LatticeSimplex([(0, 0), (0, 0)])  # repeated
    with pytest.raises(ValueError):
        LatticeSimplex([(0, 0), (1, 1), (2, 2)])  # collinear
    s = LatticeSimplex([(1, 1), (0, 0), (1, 0)])
    assert s.vertices == ((0, 0), (1, 0), (1, 1))  # sorted
    assert s.dim == 2
    assert [f.vertices for f in s.faces()] == [
        (((1, 0), (1, 1))), (((0, 0), (1, 1))), (((0, 0), (1, 0)))]


def test_simplex_is_an_immutable_tuple_of_sorted_vertices():
    s = LatticeSimplex([(1, 1), (0, 0), (1, 0)])
    assert isinstance(s, tuple)
    for name in ("vertices", "dim", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, ())
    other = LatticeSimplex([(1, 0), (1, 1), (0, 0)])
    assert s == other and hash(s) == hash(other)
    assert s == ((0, 0), (1, 0), (1, 1)) and hash(s) == hash(((0, 0), (1, 0), (1, 1)))
    # Demo 02 prints .vertices, so it is a plain tuple, not a simplex.
    assert type(s.vertices) is tuple and type(s.translate((1, 1)).vertices) is tuple
    assert repr(s) == "LatticeSimplex([(0, 0), (1, 0), (1, 1)])"
    assert repr(s.faces()[0]) == "LatticeSimplex([(1, 0), (1, 1)])"


def test_standard_triangulation_classes():
    t0 = standard_triangulation(0)
    assert [len(t0.by_dim(k)) for k in range(1)] == [1]
    t1 = standard_triangulation(1)
    assert [s.vertices for s in t1.by_dim(0)] == [((0,),)]
    assert [s.vertices for s in t1.by_dim(1)] == [((0,), (1,))]
    t2 = standard_triangulation(2)
    assert len(t2.by_dim(0)) == 1
    assert len(t2.by_dim(1)) == 3
    assert {s.vertices for s in t2.by_dim(2)} == {
        ((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1))}
    with pytest.raises(UnsupportedRank):
        standard_triangulation(3)


def test_is_unimodular():
    assert is_unimodular(LatticeSimplex([(0, 0), (1, 0), (1, 1)]))
    assert not is_unimodular(LatticeSimplex([(0, 0), (2, 0), (0, 1)]))
    assert is_unimodular(LatticeSimplex([(0,), (1,)]))
    assert not is_unimodular(LatticeSimplex([(0,), (2,)]))
    assert is_unimodular(LatticeSimplex([(5, 7)]))  # single vertex, (v,1) primitive


def test_check_semistable():
    assert check_semistable(standard_triangulation(2))
    # No class of the vertex 0: lattice 3Z developed from edge [1,2] only.
    shifted = PeriodicTriangulation(
        1, [LatticeSimplex([(1,), (2,)])], IntMatrix([[3]]))
    assert not check_semistable(shifted)
    empty = PeriodicTriangulation(1, [], IntMatrix([[2]]))
    assert not check_semistable(empty)


def meets_translate(s, lam):
    return fan_module._meets_translate(fan_module._affine_frame(s.vertices), lam)


def test_meets_translate_basics():
    tri = LatticeSimplex([(0, 0), (1, 0), (1, 1)])
    assert meets_translate(tri, (1, 0))  # shares vertex (1,0)
    assert not meets_translate(tri, (2, 0))
    assert meets_translate(tri, (-1, -1))  # shares (0,0)
    edge = LatticeSimplex([(0,), (1,)])
    assert meets_translate(edge, (1,))
    assert not meets_translate(edge, (2,))


@st.composite
def simplices_and_translates(draw):
    """A simplex of any dimension 0..t in rank t = 1, 2, with coordinates in
    [−3, 3], and a translate λ in [−6, 6]^t."""
    t = draw(st.integers(1, 2))
    k = draw(st.integers(0, t))
    point = st.tuples(*[st.integers(-3, 3)] * t)
    vertices = draw(st.lists(point, min_size=k + 1, max_size=k + 1, unique=True))
    edges = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    assume(lattice_module.rank(edges) == k)
    return LatticeSimplex(vertices), draw(st.tuples(*[st.integers(-6, 6)] * t))


@settings(max_examples=400, deadline=None)
@given(simplices_and_translates())
def test_meets_translate_agrees_with_the_orientation_tests(case):
    s, lam = case
    assert meets_translate(s, lam) == hulls_intersect(s, s.translate(lam))


def test_property_d_in_rank_3():
    # The translates of this edge by (0, 0, ±2) are disjoint, though their
    # projections to the first two coordinates coincide.
    t = PeriodicTriangulation(3, [LatticeSimplex([(1, 1, 0), (2, 1, 2)])],
                              IntMatrix([[4, 0, 0], [0, 4, 0], [0, 0, 2]]))
    assert check_property_d(t) == []
    edge = LatticeSimplex([(0, 0, 0), (0, 0, 1)])
    assert not meets_translate(edge, (0, 0, 5))
    assert meets_translate(edge, (0, 0, 1))


def test_property_d_certified_and_violated():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    assert check_property_d(t) == []

    d1 = make_data(2, [[1, 0], [0, 1]], a_basis=(0, 0))
    t1 = standard_triangulation(2).with_lattice(d1.b)
    violations = check_property_d(t1)
    assert (((1, 0)), LatticeSimplex([(0, 0), (1, 0), (1, 1)])) in violations

    t_zero = standard_triangulation(0).with_lattice(IntMatrix([]))
    assert check_property_d(t_zero) == []


def test_h_freeness_even_vs_odd():
    d2 = make_data(1, [[2]])
    t2 = standard_triangulation(1).with_lattice(d2.b)
    assert check_h_freeness(t2) == []

    d3 = make_data(1, [[3]], a_basis=(2,))
    t3 = standard_triangulation(1).with_lattice(d3.b)
    violations = check_h_freeness(t3)
    assert violations == [((-1,), LatticeSimplex([(1,), (2,)]))]

    t0 = standard_triangulation(0).with_lattice(IntMatrix([]))
    assert check_h_freeness(t0) == []


def test_checks_invariant_under_representative_translation():
    d = make_data(1, [[3]], a_basis=(2,))
    t = standard_triangulation(1).with_lattice(d.b)
    # Same classes, different representatives (translated by lattice vectors).
    shifted = PeriodicTriangulation(
        1, [s.translate((3,)) for s in t.simplices], IntMatrix([[3]]))
    assert len(shifted.simplices) == len(t.simplices)
    assert len(check_h_freeness(shifted)) == len(check_h_freeness(t))
    assert len(check_property_d(shifted)) == len(check_property_d(t))


def test_auto_scale_examples():
    nu, t = auto_scale(make_data(2, [[2, 0], [0, 2]]))
    assert nu == 1
    assert all(is_unimodular(s) for s in t.simplices)
    assert t.certificate.property_d and t.certificate.h_free

    nu2, t2 = auto_scale(make_data(2, [[1, 0], [0, 1]], a_basis=(0, 0)))
    assert nu2 == 2
    assert t2.lattice == IntMatrix([[2, 0], [0, 2]])

    nu3, _ = auto_scale(make_data(1, [[2]]))
    assert nu3 == 1

    nu_odd, t_odd = auto_scale(make_data(1, [[3]], a_basis=(2,)))
    assert nu_odd == 2  # H-freeness fails at nu = 1
    assert is_even(base_change(make_data(1, [[3]], a_basis=(2,)), nu_odd))

    nu0, t0 = auto_scale(make_data(0, []))
    assert nu0 == 1
    assert len(t0.simplices) == 1


def test_auto_scale_even_family_h_free():
    for b_rows, rank in [([[2, 0], [0, 2]], 2), ([[4, 0], [0, 4]], 2),
                         ([[2, 0], [0, 4]], 2), ([[4, 2], [2, 6]], 2),
                         ([[2]], 1), ([[6]], 1)]:
        d = make_data(rank, b_rows)
        nu, t = auto_scale(d)
        assert nu == 1
        assert check_h_freeness(t) == []
        assert check_property_d(t) == []


def test_vertices_complete():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    assert vertices_complete(t)
    assert len(t.by_dim(0)) == 4
    # Dropping a vertex class breaks completeness.
    partial = PeriodicTriangulation(
        2, [s for s in t.by_dim(2)][:1], IntMatrix([[2, 0], [0, 2]]))
    assert not vertices_complete(partial)


def negation_closed_in_window(t):
    """Whether −S is some class translated by a λ of the window, for every
    class S.  −S = C + λ bounds ‖λ‖_∞ by twice the largest vertex coordinate,
    which ``full_windows`` passes."""
    zero = (0,) * t.rank
    lams = [zero] + [lam for lam, _ in lattice_points(t.lattice.entries, full_windows(t)[1])]
    classes = set(t.simplices)
    return all(any(s.negate().translate(lam) in classes for lam in lams) for s in t.simplices)


def test_gamma_admissibility_window():
    # check_gamma_admissible reads the carried negatives; the oracle looks for
    # −S among the classes translated by every λ in a window.
    for b_rows, rank in [([[2, 0], [0, 2]], 2), ([[4, 2], [2, 6]], 2), ([[4]], 1)]:
        d = make_data(rank, b_rows)
        _, t = auto_scale(d)
        assert check_gamma_admissible(t)
        assert negation_closed_in_window(t)
    # The asymmetric cut: −S is not a class for the square cut differently at (0, 0).
    asym = read_fan(GOLDEN_INPUTS / "f_asym_cut_22.json")
    assert not check_gamma_admissible(asym)
    assert not negation_closed_in_window(asym)


def test_polarization_examples():
    # The standard fans are strictly convex for the form in ranks 1 and 2.
    for rank, rows in ((2, [[2, 0], [0, 2]]), (1, [[2]])):
        _, t = auto_scale(make_data(rank, rows))
        margins = fan_module._polarization_margins(t)
        assert margins and all(m > 0 for m in margins)
        assert certify(t).polarization
    # Rank 3 does not occur: a semistable unimodular fan of that rank is refused.
    tetrahedron = LatticeSimplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(UnsupportedRank):
        certify(PeriodicTriangulation(3, [tetrahedron],
                                      IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])))


def test_polarization_margin_value():
    # Q(m,n) = m^2 + n^2 - mn across the diagonal wall has margin exactly 1:
    # Q(1,0) + Q(0,1) - Q(0,0) - Q(1,1) = 1.
    q = fan_module._form
    assert q((1, 0)) + q((0, 1)) - q((0, 0)) - q((1, 1)) == 1
    assert q((1, 1)) == 1
    assert q((0,)) + q((2,)) - 2 * q((1,)) == 2


def test_certify_attaches_flags():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    assert t.certificate is None
    cert = certify(t)
    assert t.certificate is cert
    assert list(cert.flags()) == ["semistable", "unimodular", "property_d", "h_free",
                                  "polarization", "vertices_complete"]
    assert all(cert.flags().values()) and cert.passes() and cert.complex_refusal() is None
    assert not hasattr(t, "certificates") and not hasattr(t, "violations")


def test_fan_json_round_trip():
    d = make_data(2, [[2, 0], [0, 2]])
    _, t = auto_scale(d)
    doc = fan_to_json(t)
    assert set(doc) == {"rank", "lattice", "simplices"}
    t2 = fan_from_json(doc)
    assert t2 == t


def test_fan_json_schema_errors():
    with pytest.raises(SchemaError):
        fan_from_json({"rank": 2, "lattice": [[2, 0], [0, 2]]})
    with pytest.raises(SchemaError):
        fan_from_json({"rank": 2, "lattice": [[2, 0]], "simplices": []})
    with pytest.raises(SchemaError):
        fan_from_json({"rank": 2, "lattice": [[2, 0], [0, 2]],
                       "simplices": [[[0, 0], [0, 0]]]})  # degenerate simplex


def test_user_fan_closed_under_faces():
    # Supplying only the top simplices is enough: faces are generated.
    d = make_data(2, [[2, 0], [0, 2]])
    _, t = auto_scale(d)
    tops = [[list(v) for v in s.vertices] for s in t.by_dim(2)]
    doc = {"rank": 2, "lattice": [[2, 0], [0, 2]], "simplices": tops}
    rebuilt = fan_from_json(doc)
    assert rebuilt == t


def nu_by_certify(d):
    """``certify_loop``'s ν with its certificate."""
    nu, t = certify_loop(d)
    return nu, t.certificate


def valid_datum(rank, phi, s, a):
    """Data valid by construction: b = φ^T·S for a positive definite S, so the
    pairing matrix b·φ = φ^T·S·φ is symmetric positive definite."""
    b = [[sum(phi[k][i] * s[k][j] for k in range(rank)) for j in range(rank)]
         for i in range(rank)]
    return make_data(rank, b, phi, a[:rank])


shears = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
                   st.integers(-2, 2)).filter(lambda e: e[0] * e[3] != e[1] * e[2])
positive_forms = st.tuples(st.integers(1, 4), st.integers(-2, 2), st.integers(1, 4)).filter(
    lambda e: e[0] * e[2] > e[1] ** 2)
valid_data = st.one_of(
    st.just(make_data(0, [])),
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 5),
              st.lists(st.integers(-3, 3), min_size=2, max_size=2)).map(
        lambda e: valid_datum(1, [[e[0]]], [[e[1]]], e[2])),
    st.tuples(shears, positive_forms, st.lists(st.integers(-3, 3), min_size=2, max_size=2)).map(
        lambda e: valid_datum(2, [[e[0][0], e[0][1]], [e[0][2], e[0][3]]],
                              [[e[1][0], e[1][1]], [e[1][1], e[1][2]]], e[2])))


def test_auto_scale_stops_at_nu_2(monkeypatch):
    # b = I is odd, so ν = 2, and auto_scale runs no check on the way: the
    # certify loop rejects Λ = Z^2 and accepts Λ = 2Z^2.
    d = make_data(2, [[1, 0], [0, 1]], a_basis=(0, 0))
    for name in ("certify", "check_property_d", "check_h_freeness"):
        monkeypatch.setattr(fan_module, name, lambda t: pytest.fail("auto_scale ran a check"))
    nu, t = auto_scale(d)
    monkeypatch.undo()
    assert (nu, t.lattice) == (2, IntMatrix([[2, 0], [0, 2]]))
    unit = standard_triangulation(2)
    assert not certify(unit.with_lattice(IntMatrix([[1, 0], [0, 1]]))).h_free
    assert nu_by_certify(d) == (2, t.certificate)


@settings(max_examples=100, deadline=None)
@given(valid_data)
@example(make_data(2, [[1, 0], [0, 1]], a_basis=(0, 0)))
@example(make_data(1, [[3]], a_basis=(2,)))
@example(make_data(2, [[2, 1], [1, 2]], a_basis=(1, 1)))
def test_auto_scale_nu_by_parity_matches_certify(d):
    # auto_scale decides ν by the parity of b and runs no check; the oracle
    # certifies ν = 1 and then ν = 2.
    assert validate(d).ok
    nu, t = auto_scale(d)
    assert (nu, t.certificate) == nu_by_certify(d)
    assert nu == (1 if is_even(d) else 2)
    assert t.lattice == base_change(d, nu).b


# -- differential tests against the full-window scans ------------------------------

ANTI_CELL = [[(0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 1)], [(1, 0), (0, 1)],
             [(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]
# Z^t by rank, the lattice of a unit cell.
UNIT_LATTICES = fan_module._UNIT_LATTICES


def developed(kind, rows):
    """The standard or anti-diagonal unit cell developed over the lattice."""
    n = len(rows)
    unit = (standard_triangulation(n) if kind == "standard" else
            PeriodicTriangulation(2, [LatticeSimplex(s) for s in ANTI_CELL], UNIT_LATTICES[2]))
    return unit.with_lattice(IntMatrix(rows))


def pairwise_diameter(s):
    vs = s.vertices
    return max((abs(a - b) for v in vs for w in vs for a, b in zip(v, w)), default=0)


def full_windows(t):
    """Windows for the property-(d) and H-freeness scans, read off the classes
    and the lattice alone: past the largest diameter, and past twice the
    largest vertex coordinate (|λ| = |lexmax S + lexmin S| for a fixed class)."""
    diameter = max(map(pairwise_diameter, t.simplices), default=0)
    coord = max((abs(x) for s in t.simplices for v in s.vertices for x in v), default=0)
    entry = max((abs(x) for row in t.lattice.entries for x in row), default=0)
    return diameter + entry + 1, max(diameter + entry + 1, 2 * coord + 1)


def direct_margins(t):
    """Every wall's convexity margin, solved on its own by Cramer's rule."""
    form = fan_module._form
    out = []
    for s, f, neighbor in former_wall_neighbors(t):
        w = next(v for v in neighbor.vertices if v not in f.vertices)
        rows = [[1, *v] for v in s.vertices]
        values = [form(v) for v in s.vertices]
        det = IntMatrix(rows).det()
        coeffs = []
        for c in range(len(rows)):
            swapped = [r[:c] + [values[i]] + r[c + 1:] for i, r in enumerate(rows)]
            coeffs.append(Fraction(IntMatrix(swapped).det(), det))
        out.append(form(w) - coeffs[0] - sum(c * x for c, x in zip(coeffs[1:], w)))
    return out


small = st.integers(-4, 4)
rank1 = st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=1).map(
    lambda xs: [[xs[0]]])
rank2 = st.tuples(small, small, small, small).filter(
    lambda e: e[0] * e[3] != e[1] * e[2] and abs(e[0] * e[3] - e[1] * e[2]) <= 16).map(
    lambda e: [[e[0], e[1]], [e[2], e[3]]])
fans = st.one_of(
    rank1.map(lambda rows: ("standard", rows)),
    st.tuples(st.sampled_from(["standard", "anti"]), rank2),
    st.sampled_from([("standard", [[1]]), ("standard", [[1, 0], [0, 1]]),
                     ("anti", [[0, 1], [-1, 0]]), ("standard", [[3, 1], [1, 3]]),
                     ("standard", [[1, 0], [0, 9]]), ("anti", [[2, 0], [1, 8]])]))


def partial_document(case):
    """The fan of a document that lists an edge at all but one coset
    representative ("partial" in ``document_cases``), which the constructor
    reads when there is more than one coset."""
    (rank, name, rows), rng = case
    listing = document_listing(unit_cell(rank, name).with_lattice(IntMatrix(rows)), rows, rng,
                               "partial")
    return fan_from_json({"rank": rank, "lattice": rows, "simplices": listing})


@settings(max_examples=60, deadline=None)
@given(st.one_of(fans.map(lambda fan: developed(*fan)),
                 st.deferred(lambda: st.tuples(cell_cases, st.randoms(use_true_random=False)))
                 .map(partial_document)))
# The two goldens that the constructor reads, a single vertex over Z^2, and
# a constructor fan with a violation: an edge meeting its translate by 2.
@example(read_fan(GOLDEN_INPUTS / "f_asym_cut_22.json"))
@example(read_fan(GOLDEN_INPUTS / "f_one_triangle_22.json"))
@example(read_fan(GOLDEN_INPUTS / "f_single_vertex_Z2.json"))
@example(PeriodicTriangulation(1, [LatticeSimplex([(0,), (2,)])], IntMatrix([[2]])))
def test_bounded_checks_match_full_window_scans(t):
    wd, wh = full_windows(t)
    expected_d = scan_property_d(t, wd)
    expected_h = scan_h_freeness(t, wh)
    assert check_property_d(t) == expected_d
    assert check_h_freeness(t) == expected_h
    # The checks build a class as cell class j plus representative q.
    for k in range(t.rank + 1):
        assert [fan_module._class_at(t, k, p) for p in range(len(t.by_dim(k)))] == list(
            t.by_dim(k))

    cert = certify(t)
    assert cert.property_d_violations == tuple(expected_d)
    assert cert.h_free_violations == tuple(expected_h)
    assert cert.property_d == (not expected_d)
    assert cert.h_free == (not expected_h)
    assert cert.unimodular == all(is_unimodular(s) for s in t.simplices)
    if cert.semistable and cert.unimodular:
        # None where a wall has no unique neighbour, as on one triangle.
        margins = fan_module._polarization_margins(t)
        neighbors = [neighbor for _, _, neighbor in former_wall_neighbors(t)]
        assert margins == (None if None in neighbors else direct_margins(t))
        assert cert.polarization == (margins is not None and all(m > 0 for m in margins))


def skinny_strip(n):
    """An irregular triangulation periodic under diag(n, 1): the bottom edges
    fanned to (0, 1) and (n, 1), the top edges fanned to (n/2, 0)."""
    h = n // 2
    tops = ([[(i, 0), (i + 1, 0), (0, 1)] for i in range(h)]
            + [[(i, 0), (i + 1, 0), (n, 1)] for i in range(h, n)]
            + [[(j, 1), (j + 1, 1), (h, 0)] for j in range(n)])
    return PeriodicTriangulation(2, [LatticeSimplex(s) for s in tops],
                                 IntMatrix([[n, 0], [0, 1]]))


def test_property_d_tests_only_translates_within_the_extents(monkeypatch):
    # Every class of the strip is at most one unit tall, so of the translates
    # within its diameter (up to n/2) only λ = (0, ±1) can meet it.
    t = skinny_strip(120)
    calls = []
    meets = fan_module._meets_translate
    monkeypatch.setattr(fan_module, "_meets_translate",
                        lambda frame, lam: calls.append(None) or meets(frame, lam))
    got = check_property_d(t)
    monkeypatch.undo()
    assert got and len(calls) <= 2 * len(t.simplices)
    assert got == scan_property_d(t, max(map(pairwise_diameter, t.simplices)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(rank1, rank2))
def test_standard_fan_certified_at_nu_2(rows):
    # The bound of auto_scale: the standard fan over Λ_(2b) passes every core check.
    doubled = [[2 * x for x in r] for r in rows]
    assert certify(developed("standard", doubled)).passes()


# -- oracles for the sort-free simplices and the carried face map -----------------

oracle_fans = st.one_of(fans.map(lambda fan: developed(*fan)),
                        st.sampled_from(JSON_FANS).map(read_fan),
                        flipped_fans().map(lambda case: fan_from_json(case[1])))


def matrix_canonical_point(lattice, x):
    """The coset representative by the matrix route: U^{-1}·(U·x mod D), with
    U^{-1} = adj(U)·det U from a solve of U·X = I, det U = ±1."""
    d, u, _ = smith_normal_form(list(zip(*lattice.entries)))
    r = tuple(sum(a * b for a, b in zip(row, x)) % di for row, di in zip(u, d))
    adj, det = solve(u, [tuple(int(i == j) for j in range(len(u))) for i in range(len(u))])
    return tuple(det * sum(a * b for a, b in zip(row, r)) for row in adj)


@settings(max_examples=60, deadline=None)
@given(oracle_fans)
def test_carried_face_classes_match_recomputation(t):
    assert t.tables[0] == faces_by_canonical_points(t)
    for k in range(1, t.rank + 1):
        below = t.by_dim(k - 1)
        for s, row in zip(t.by_dim(k), t.tables[0][k]):
            faces = s.faces()
            # Every class has a canonical lexmin vertex, so faces 1..k, which
            # keep it, are their own classes; face 0 is moved by the shift of
            # its lexmin vertex s[1] to its canonical point.
            assert [below[p] for p in row[1:]] == faces[1:]
            shift = tuple(c - a for c, a in zip(t._cosets.canonical_point(s[1]), s[1]))
            assert below[row[0]] == faces[0].translate(shift)
    assert t.tables[1] == negatives_table(t, negatives_by_canonical_points(t))


@settings(max_examples=60, deadline=None)
@given(oracle_fans, st.lists(st.integers(-40, 40), min_size=2, max_size=2))
def test_sort_free_simplices_match_sorting_constructor(t, shift):
    lam = tuple(shift[:t.rank])
    for s in t.simplices:
        moved = s.translate(lam)
        assert moved.vertices == LatticeSimplex(
            [tuple(a + b for a, b in zip(v, lam)) for v in s.vertices]).vertices
        assert s.negate().vertices == LatticeSimplex(
            [tuple(-a for a in v) for v in s.vertices]).vertices
        vs = moved.vertices
        expected_faces = [LatticeSimplex(vs[:i] + vs[i + 1:]).vertices
                          for i in range(len(vs))] if moved.dim else []
        assert [f.vertices for f in moved.faces()] == expected_faces


@settings(max_examples=60, deadline=None)
@given(oracle_fans, st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                             min_size=1, max_size=8))
def test_canonical_point_matches_matrix_route(t, points):
    for p in points:
        x = p[:t.rank]
        assert t._cosets.canonical_point(x) == matrix_canonical_point(t.lattice, x)
    for x in {s.vertices[0] for s in t.simplices}:
        assert t._cosets.canonical_point(x) == matrix_canonical_point(t.lattice, x)


# -- unit cells and lattices --------------------------------------------------------

# Unit cells beyond the standard one make every flag fail somewhere: the
# anti-diagonal cut is not convex for the fixed form, WIDE is not
# unimodular, LONG_1 and LONG_2 are symmetric about a lattice point (the
# λ = 0 case of H-freeness), and an empty cell has no vertex.
WIDE = [[(0, 0), (1, 0), (2, 3)]]
LONG_1 = [[(0,), (2,)]]
LONG_2 = [[(0, 0), (2, 0)], [(0, 0), (0, 1)]]
UNIT_CELLS = {0: {"standard": None},
              1: {"standard": None, "long": LONG_1, "empty": []},
              2: {"standard": None, "anti": ANTI_CELL, "wide": WIDE, "long": LONG_2,
                  "empty": []}}


def unit_cell(rank, name):
    cell = UNIT_CELLS[rank][name]
    if cell is None:
        return standard_triangulation(rank)
    return PeriodicTriangulation(rank, [LatticeSimplex(s) for s in cell], UNIT_LATTICES[rank])


lattices_1 = st.one_of(rank1, st.sampled_from([[[1]], [[-1]], [[2]], [[-3]], [[4]], [[5]]]))
lattices_2 = st.one_of(
    rank2,
    st.integers(1, 12).map(lambda n: [[2, 0], [0, n]]),
    st.integers(-6, 6).map(lambda k: [[2, k], [0, 2]]),
    st.sampled_from([[[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[1, 1], [-1, 1]],
                     [[1, 0], [0, 7]], [[3, 1], [1, 3]], [[4, 2], [2, 6]], [[-2, 0], [1, -3]]]))
unit_cases = st.one_of(
    st.tuples(st.just(1), st.sampled_from(sorted(UNIT_CELLS[1])), lattices_1),
    st.tuples(st.just(2), st.sampled_from(sorted(UNIT_CELLS[2])), lattices_2))


# -- the residue development against developing by canonical points -------------

def develop_by_canonical_points(unit, lattice):
    """The former ``with_lattice``: translate every unit class by every coset
    representative and make the result canonical through ``__init__``."""
    reps = fan_module._CosetMap(unit.rank, lattice).coset_representatives()
    t = PeriodicTriangulation(unit.rank, [s.translate(g) for s in unit.simplices for g in reps],
                              lattice)
    assert len(t.simplices) == len(unit.simplices) * len(reps)
    return t


def negatives_by_canonical_points(t):
    classes = set(t.simplices)
    negated = {s: t.canonical_simplex(s.negate()) for s in t.simplices}
    return {s: (n if n in classes else None) for s, n in negated.items()}


def face_pairs(t, s):
    """For each face f of the class s, in the order of ``faces()``, its
    canonical class and the shift that moves f onto that class."""
    return [(c, tuple(a - b for a, b in zip(c.vertices[0], f.vertices[0])))
            for f, c in zip(s.faces(), map(t.canonical_simplex, s.faces()))]


def faces_by_canonical_points(t):
    """``tables[0]`` rebuilt from the classes: for each class of dimension
    k >= 1, the positions of the canonical classes of its faces."""
    position = {s: i for k in range(t.rank + 1) for i, s in enumerate(t.by_dim(k))}
    return {k: tuple(tuple(position[c] for c, _ in face_pairs(t, s)) for s in t.by_dim(k))
            for k in range(1, t.rank + 1)}


def negatives_table(t, negatives):
    """A dict of negatives as ``tables[1]``: for each dimension, the position
    of each class's negative among the classes, or None."""
    table = {}
    for k in range(t.rank + 1):
        position = {s: i for i, s in enumerate(t.by_dim(k))}
        table[k] = tuple(None if negatives[s] is None else position[negatives[s]]
                         for s in t.by_dim(k))
    return table


def assert_residue_route_matches(unit, lattice):
    t = unit.with_lattice(lattice)
    expected = develop_by_canonical_points(unit, lattice)
    assert t.simplices == expected.simplices
    assert [t.by_dim(k) for k in range(t.rank + 1)] == [
        expected.by_dim(k) for k in range(t.rank + 1)]
    assert t.tables == expected.tables
    assert t.tables[0] == faces_by_canonical_points(expected)
    assert expected.tables[1] == negatives_table(expected, negatives_by_canonical_points(expected))
    assert t == expected


# (rank, unit cell name, lattice rows) for the fans above and the unit cases.
cell_cases = st.one_of(
    fans.map(lambda fan: (len(fan[1]), fan[0] if fan[0] == "anti" else "standard", fan[1])),
    unit_cases)


@settings(max_examples=60, deadline=None)
@given(cell_cases)
def test_residue_development_matches_canonical_points(case):
    rank, name, rows = case
    assert_residue_route_matches(unit_cell(rank, name), IntMatrix(rows))


@pytest.mark.parametrize("path", JSON_FANS, ids=lambda p: p.stem)
def test_residue_development_on_golden_fans(path):
    # Each golden fan's classes taken modulo Z^t, developed over its lattice.
    doc = read_fan(path)
    unit = PeriodicTriangulation(doc.rank, doc.simplices, UNIT_LATTICES[doc.rank])
    assert_residue_route_matches(unit, doc.lattice)
    # A document the constructor reads carries the negatives of its closure.
    assert doc.tables[1] == negatives_table(doc, negatives_by_canonical_points(doc))


def test_residue_development_edge_cases():
    assert_residue_route_matches(standard_triangulation(0), IntMatrix([]))
    assert_residue_route_matches(unit_cell(2, "empty"), IntMatrix([[2, 1], [0, 3]]))
    # −WIDE is no unit class, so no developed class has a negative.
    wide = unit_cell(2, "wide")
    assert_residue_route_matches(wide, IntMatrix([[3, 1], [1, 3]]))
    t = wide.with_lattice(IntMatrix([[3, 1], [1, 3]]))
    assert t.tables[1][2] == (None,) * 8
    assert not check_gamma_admissible(t)


# The cell cases and the rank-0 cell.
cell_cases_0 = st.one_of(st.just((0, "standard", [])), cell_cases)


@settings(max_examples=60, deadline=None)
@given(cell_cases_0, st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                              max_size=8))
def test_coset_map_columns_match_per_point_routes(case, points):
    # The representatives against U^{-1}·r for each residue r in the order of
    # product, and the residue indices of points read by columns against the
    # residue of each point.
    rank, _, rows = case
    cosets = fan_module._CosetMap(rank, IntMatrix(rows))
    residues = list(product(*(range(d) for d in cosets.diag)))
    reps = cosets.coset_representatives()
    assert reps == [tuple(sum(a * b for a, b in zip(row, r)) for row in cosets.uinv)
                    for r in residues]
    xs = [p[:rank] for p in points]
    indices = cosets.residue_indices([[x[i] for x in xs] for i in range(rank)], len(xs))
    assert [residues[i] for i in indices] == [tuple(cosets.residue(x)) for x in xs]
    assert [reps[i] for i in indices] == [cosets.canonical_point(x) for x in xs]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    cell_cases_0.map(lambda case: unit_cell(*case[:2]).with_lattice(IntMatrix(case[2]))),
    flipped_fans().map(lambda case: fan_from_json(case[1]))))
# Two lattices whose representatives have negative coordinates, and the
# asymmetric cut, which the constructor reads.
@example(developed("standard", [[-2, 0], [1, -3]]))
@example(developed("anti", [[2, -3], [0, 2]]))
@example(read_fan(GOLDEN_INPUTS / "f_asym_cut_22.json"))
def test_development_labels_match_simplex_labels(t):
    # A development's labels are formatted per dimension from unit-cell
    # templates and the columns of the representatives, a constructor fan's
    # class by class (the flipped fans and the asymmetric cut); both against
    # each class formatted on its own.
    for k in range(t.rank + 1):
        assert t.class_labels(k) == list(map(fan_module._simplex_label, t.by_dim(k)))


# -- certify on a development against the oracle: the classes made canonical ----
# -- one by one and scanned over the full window -----------------------------------

def assert_unit_route_matches(rank, name, rows):
    """certify on the development, which finds its violations on the unit
    cell, against the constructor's fan on every developed class and the
    full-window scans of that fan."""
    unit = unit_cell(rank, name)
    lattice = IntMatrix(rows)
    t = unit.with_lattice(lattice)
    cert = certify(t)
    expected = develop_by_canonical_points(unit, lattice)
    assert cert == certify(expected)
    wd, wh = full_windows(expected)
    assert (cert.property_d_violations, cert.h_free_violations) == (
        tuple(scan_property_d(expected, wd)), tuple(scan_h_freeness(expected, wh)))
    # certify reads a development's lattice-free flags off its unit cell;
    # the developed classes give the same.
    assert fan_module._lattice_free_flags(t) == (
        cert.semistable, cert.unimodular, cert.vertices_complete, cert.polarization)
    return cert


@settings(max_examples=80, deadline=None)
@given(cell_cases)
def test_unit_cell_certificates_match_developed(case):
    assert_unit_route_matches(*case)


def test_unit_cell_flags_take_both_values():
    seen = {}
    cases = [(0, "standard", [])] + [
        (rank, name, rows) for rank, lattices in (
            (1, [[[1]], [[-3]], [[3]], [[4]]]),
            (2, [[[1, 0], [0, 1]], [[2, 0], [0, 2]], [[3, 1], [1, 3]], [[2, 0], [0, 5]]]))
        for name in UNIT_CELLS[rank] for rows in lattices]
    for rank, name, rows in cases:
        cert = assert_unit_route_matches(rank, name, rows)
        for flag, value in cert.flags().items():
            seen.setdefault(flag, set()).add(value)
    assert seen == {flag: {True, False} for flag in seen}
    assert len(seen) == 6


def test_unit_cell_route_needs_a_unit_cell():
    # Only a fan of index 1 develops: a development or a constructor fan of
    # index 2 is refused.
    t = standard_triangulation(1).with_lattice(IntMatrix([[2]]))
    with pytest.raises(ValueError, match="index 1"):
        t.with_lattice(IntMatrix([[2]]))
    with pytest.raises(ValueError, match="index 1"):
        PeriodicTriangulation(1, t.simplices, IntMatrix([[2]])).with_lattice(IntMatrix([[2]]))


@pytest.mark.parametrize("rank", [1, 2])
def test_unit_cell_is_certified_as_the_fan_over_z_t(rank):
    # The cell's verdicts are those of the scans over the identity lattice:
    # every edge is fixed by the inversion, and every class of extent 1 meets
    # a translate, such as the triangle (0,0),(1,0),(1,1) its translate by (1, 0).
    t = standard_triangulation(rank)
    cert = certify(t)
    wd, wh = full_windows(t)
    assert (cert.property_d_violations, cert.h_free_violations) == (
        tuple(scan_property_d(t, wd)), tuple(scan_h_freeness(t, wh)))
    assert cert.h_free_violations
    if rank == 2:
        assert ((1, 0), LatticeSimplex([(0, 0), (1, 0), (1, 1)])) in cert.property_d_violations


def test_unit_cell_document_round_trips():
    cell = standard_triangulation(2)
    doc = fan_to_json(cell)
    assert doc["lattice"] == [[1, 0], [0, 1]]
    assert fan_from_json(doc) == cell


def test_constructor_fan_of_index_1_develops_as_the_unit_cell():
    # The standard shapes over a skewed basis of Z^2, read by the constructor,
    # develop class for class as the standard cell.
    cell = standard_triangulation(2)
    fan = PeriodicTriangulation(2, cell.simplices, IntMatrix([[1, 1], [0, 1]]))
    b = IntMatrix([[4, 2], [2, 6]])
    got, expected = fan.with_lattice(b), cell.with_lattice(b)
    assert [got.by_dim(k) for k in range(3)] == [expected.by_dim(k) for k in range(3)]
    assert got.tables == expected.tables
    assert got == expected
    assert certify(got) == certify(expected)


def test_h_freeness_does_not_depend_on_the_basis():
    # [0, 2] developed over 3Z: the class [2, 4] has −S = S − 6, and over the
    # basis (−3) its representative [−1, 1] has −S = S, which counts too.
    unit = unit_cell(1, "long")
    for rows, expected in (([[3]], [((-2,), LatticeSimplex([(2,), (4,)]))]),
                           ([[-3]], [((0,), LatticeSimplex([(-1,), (1,)]))])):
        t = unit.with_lattice(IntMatrix(rows))
        assert check_h_freeness(t) == expected
        assert not certify(t).h_free


def test_certificate_is_frozen():
    # The unit-cell flags are cached, so a certificate must not be changed.
    unit = standard_triangulation(2)
    first = certify(unit.with_lattice(IntMatrix([[2, 0], [0, 2]])))
    with pytest.raises(AttributeError):
        first.polarization = False
    assert certify(unit.with_lattice(IntMatrix([[2, 0], [0, 2]]))).polarization


def test_documents_with_the_same_shapes_share_one_unit_cell():
    # A document's unit cell comes from one cache keyed by rank and shapes,
    # and auto_scale takes the standard cell from the same cache.
    unit = standard_triangulation(2)
    first, second = (fan_from_json(fan_to_json(unit.with_lattice(IntMatrix(rows))))
                     for rows in ([[2, 0], [0, 2]], [[4, 2], [2, 4]]))
    assert first._unit is second._unit is not None
    assert first._unit is not unit and first._unit == unit
    assert auto_scale(make_data(2, [[2, 0], [0, 2]]))[1]._unit is first._unit


def test_lattice_free_flags_run_once_per_unit_cell(monkeypatch):
    # certify reads a development's four lattice-free flags off its unit
    # cell, which computes them the first time they are read.
    calls = []
    flags = fan_module._lattice_free_flags
    monkeypatch.setattr(fan_module, "_lattice_free_flags", lambda t: calls.append(t) or flags(t))
    unit = unit_cell(2, "anti")
    certs = [certify(unit.with_lattice(IntMatrix(rows)))
             for rows in ([[2, 0], [0, 2]], [[3, 1], [1, 3]], [[2, 0], [0, 5]])]
    assert len(calls) == 1 and calls[0] is unit
    assert {(c.semistable, c.unimodular, c.vertices_complete, c.polarization)
            for c in certs} == {flags(unit)}


@settings(max_examples=60, deadline=None)
@given(cell_cases)
def test_development_bounds_match_class_scans(case):
    # check_property_d reads the extents on the unit cell and lists the
    # translates within the largest of them once; the scans read every
    # developed class and every lattice point.
    rank, name, rows = case
    unit = unit_cell(rank, name)
    t = unit.with_lattice(IntMatrix(rows))

    def largest(classes):
        return tuple(max((max(c) - min(c) for s in classes for c in [[v[i] for v in s.vertices]]),
                         default=0) for i in range(rank))

    reach = largest(unit.simplices)
    assert reach == largest(t.simplices)
    expected = [lam for lam, _ in lattice_points(rows, max(reach, default=0))
                if all(abs(x) <= r for x, r in zip(lam, reach))]
    assert fan_module._lattice_translates(t, reach) == expected


# -- the dual complex on the position tables against one built from the dicts ----

def dual_from_dicts(t):
    """Boundary, involution and labels of Δ_A from the classes, the
    canonical classes of their faces and the negatives by canonical points,
    position by position."""
    classes = {k: t.by_dim(k) for k in range(t.rank + 1)}
    position = {s: i for group in classes.values() for i, s in enumerate(group)}
    boundary = {k: tuple(tuple(position[f] for f, _ in face_pairs(t, s)) for s in classes[k])
                for k in range(1, t.rank + 1)}
    negatives = negatives_by_canonical_points(t)
    perms = {k: tuple(position[negatives[s]] for s in group) for k, group in classes.items()}
    labels = ["|".join("(" + ",".join(map(str, v)) + ")" for v in s.vertices)
              for s in t.simplices]
    return boundary, perms, labels


@settings(max_examples=60, deadline=None)
@given(cell_cases)
def test_table_dual_complex_matches_dicts(case):
    rank, name, rows = case
    unit, lattice = unit_cell(rank, name), IntMatrix(rows)
    t = unit.with_lattice(lattice)
    if certify(t).complex_refusal() is not None:
        return
    expected = develop_by_canonical_points(unit, lattice)
    certify(expected)
    if None in negatives_by_canonical_points(expected).values():
        for fan in (t, expected):
            with pytest.raises(UncertifiedFan):
                complexes_module.dual_complex(fan)
        return
    oracle = dual_from_dicts(expected)
    for fan in (t, expected):
        delta, perms = complexes_module.dual_complex(fan)
        labels = complexes_module.complex_to_json(
            delta, [fan.class_labels(k) for k in range(fan.rank + 1)])["labels"]
        assert (delta.boundary, perms, list(labels.values())) == oracle


# -- the margins against the implementation that paired walls by comparing -------
# -- translated candidates ------------------------------------------------------

def former_wall_neighbors(t):
    walls = []
    incidence = {}
    for s in t.by_dim(t.rank):
        for f, (key, shift) in zip(s.faces(), face_pairs(t, s)):
            walls.append((s, f, shift, key))
            incidence.setdefault(key, []).append((s, shift))
    for s, f, shift, key in walls:
        neighbors = []
        for other, other_shift in incidence[key]:
            cand = other.translate(tuple(a - b for a, b in zip(other_shift, shift)))
            if cand != s:
                neighbors.append(cand)
        yield s, f, (neighbors[0] if len(neighbors) == 1 else None)


def former_margins(t):
    form = fan_module._form
    if t.rank == 0:
        return []
    by_shape = {}
    margins = []
    for s, f, neighbor in former_wall_neighbors(t):
        if neighbor is None:
            return None
        w = next(v for v in neighbor.vertices if v not in set(f.vertices))
        key = (fan_module._shape(s), fan_module._offset(w, s.vertices[0]))
        if key not in by_shape:
            column, det = solve([(1,) + v for v in s.vertices],
                                [(form(v),) for v in s.vertices])
            num = [x for (x,) in column]
            by_shape[key] = form(w) - Fraction(
                num[0] + sum(c * x for c, x in zip(num[1:], w)), det)
        margins.append(by_shape[key])
    return margins


def assert_former_pairing(t):
    assert fan_module._polarization_margins(t) == former_margins(t)


@pytest.mark.parametrize("path", JSON_FANS, ids=lambda p: p.stem)
def test_margins_match_former_pairing_on_golden_fans(path):
    assert_former_pairing(read_fan(path))


@settings(max_examples=60, deadline=None)
@given(fans)
def test_margins_match_former_pairing(fan):
    assert_former_pairing(developed(*fan))


# -- random valid fans: the standard fan with symmetric diagonal flips -----------

@settings(max_examples=40, deadline=None)
@given(flipped_fans())
def test_flipped_fans_are_certified_type_iii_models(tmp_path_factory, case):
    # The paper's type theorem across models: every flipped fan passes fan
    # check, and its complexes are those of the standard fan.  The fixed-form
    # polarization flag is false on these fans, so it is not asserted.
    n, doc = case
    path = tmp_path_factory.mktemp("flipped") / "fan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    reports = {}
    for command in (["fan", "check"], ["complex", "dual"], ["complex", "quotient"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_module.main([*command, str(path), "--quiet"]) == 0, command
        reports[command[-1]] = json.loads(out.getvalue())
    assert (len(reports["dual"]["vertices"]), reports["dual"]["chi"]) == (n * n, 0)
    assert (len(reports["quotient"]["vertices"]), reports["quotient"]["chi"]) == (
        n * n // 2 + 2, 2)
    assert_former_pairing(fan_from_json(doc))


# -- documents that are developments, read by fan_from_json, against the -------
# -- constructor on the same simplices ----------------------------------------

def flip_a_diagonal(t, classes, rng):
    """The given classes of t, with one unit square's two triangles replaced
    by the other cut of that square; unchanged when t cuts no square."""
    if t.rank != 2 or not t.by_dim(0):
        return classes
    corner = rng.choice(t.by_dim(0)).vertices[0]
    present = set(t.simplices)
    for old, new in (SQUARE_CUTS, SQUARE_CUTS[::-1]):
        cut = [LatticeSimplex(s).translate(corner) for s in old]
        if all(t.canonical_simplex(s) in present for s in cut):
            gone = {t.canonical_simplex(s) for s in cut}
            return ([s for s in classes if s not in gone]
                    + [LatticeSimplex(s).translate(corner) for s in new])
    return classes


def document_listing(t, rows, rng, damage):
    """Simplices listing t's classes, or its top classes only, each as a
    random translate by the lattice, with a common integer shift, some of
    them twice, shuffled; ``damage`` alters the listed classes first."""
    rank = t.rank
    classes = list(t.simplices) if rng.random() < 0.5 else list(t.by_dim(rank))
    if damage == "drop" and classes:
        classes.pop(rng.randrange(len(classes)))
    elif damage == "flip":
        classes = flip_a_diagonal(t, classes, rng)
    elif damage == "extra" and rank:
        v = tuple(rng.randint(-5, 5) for _ in range(rank))
        classes.append(LatticeSimplex([(0,) * rank, v if any(v) else (7,) * rank]))
    elif damage == "stray" and classes and t.class_index() > 1:
        # A shift outside Λ moves one listed class to another coset.
        strays = [v for v in product(range(-2, 3), repeat=rank)
                  if any(t._cosets.canonical_point(v))]
        i = rng.randrange(len(classes))
        classes[i] = classes[i].translate(rng.choice(strays))
    elif damage in ("everywhere", "partial") and rank:
        # An edge of a shape no cell has, at every coset representative or at
        # all but one.  In rank 2 it is a maximal unit class below the top
        # dimension, so the criterion must count it and not only triangles.
        edge = LatticeSimplex([(0,) * rank, (2, 1)[:rank]])
        reps = t._cosets.coset_representatives()
        classes += [edge.translate(g) for g in reps[:len(reps) - (damage == "partial")]]
    classes += rng.sample(classes, rng.randint(0, min(3, len(classes))))
    common = tuple(rng.randint(-9, 9) for _ in range(rank))
    listing = []
    for s in classes:
        y = [rng.randint(-2, 2) for _ in range(rank)]
        shift = tuple(c + sum(yi * row[j] for yi, row in zip(y, rows))
                      for j, c in enumerate(common))
        vertices = [list(v) for v in s.translate(shift).vertices]
        rng.shuffle(vertices)
        listing.append(vertices)
    rng.shuffle(listing)
    return listing


def walk_reads_a_development(rank, listing, lattice):
    """The former reading criterion, a walk: the listed classes closed under
    faces are the development of the unit cell of their shapes when the walk
    from the listed pairs (shape, residue of the lexmin vertex) over the face
    pairs, top dimension down, reaches every pair.  Residues are the tuples
    ``U·x mod D``, and the unit cell comes from the constructor."""
    if not listing:
        return False
    cosets = fan_module._CosetMap(rank, lattice)

    def pair(s):
        x = s.vertices[0]
        return s.translate(tuple(-a for a in x)), tuple(cosets.residue(x))

    reached = {}
    for u, r in map(pair, map(LatticeSimplex, listing)):
        reached.setdefault(u, set()).add(r)
    unit = PeriodicTriangulation(rank, reached, UNIT_LATTICES[rank])
    reached = {u: reached.get(u, set()) for u in unit.simplices}
    for k in range(rank, 0, -1):
        for u in unit.by_dim(k):
            for f in u.faces():
                # The face f + rep[r] of dev[u, r] has the residue r + ρ(lexmin f).
                uf, z = pair(f)
                reached[uf] |= {tuple((a + b) % d for a, b, d in zip(r, z, cosets.diag))
                                for r in reached[u]}
    return all(len(residues) == cosets.index for residues in reached.values())


document_cases = st.tuples(cell_cases,
                           st.sampled_from([None, None, "drop", "flip", "extra", "stray",
                                            "everywhere", "partial"]),
                           st.randoms(use_true_random=False))


@settings(max_examples=80, deadline=None)
@given(document_cases)
def test_document_matches_constructor(case):
    # The oracle is the constructor's fan on the listed simplices, each class
    # made canonical, and the full-window scans of that fan.
    (rank, name, rows), damage, rng = case
    lattice = IntMatrix(rows)
    listing = document_listing(unit_cell(rank, name).with_lattice(lattice), rows, rng, damage)
    got = fan_from_json({"rank": rank, "lattice": rows, "simplices": listing})
    expected = PeriodicTriangulation(rank, [LatticeSimplex(s) for s in listing], lattice)
    assert got.simplices == expected.simplices
    assert [got.by_dim(k) for k in range(rank + 1)] == [
        expected.by_dim(k) for k in range(rank + 1)]
    assert got.tables == expected.tables
    assert got.tables[0] == faces_by_canonical_points(expected)
    assert (got._unit is not None) == walk_reads_a_development(rank, listing, lattice)
    cert = certify(got)
    assert cert == certify(expected)
    wd, wh = full_windows(expected)
    assert (cert.property_d_violations, cert.h_free_violations) == (
        tuple(scan_property_d(expected, wd)), tuple(scan_h_freeness(expected, wh)))


@pytest.mark.parametrize("path", JSON_FANS, ids=lambda p: p.stem)
def test_document_route(path):
    # Every golden fan is a development of its unit cell but the two repros,
    # which the constructor reads.
    t = read_fan(path)
    repro = path.stem in ("f_one_triangle_22", "f_asym_cut_22")
    assert (t._unit is None) == repro


def test_class_count_guard_reads_a_large_lattice_by_the_constructor(monkeypatch):
    # One triangle over diag(10^6, 10^6) would develop 2·10^12 classes; the
    # guard hands it to the constructor before any residue map is built.
    def refuse(*args):
        raise AssertionError("a residue map of size |det Λ| was built")

    monkeypatch.setattr(fan_module._CosetMap, "moved", refuse)
    monkeypatch.setattr(fan_module._CosetMap, "coset_representatives", refuse)
    t = fan_from_json({"rank": 2, "lattice": [[10**6, 0], [0, 10**6]],
                       "simplices": [[[1, 1], [0, 0], [1, 0]]]})
    assert t._unit is None
    assert [len(t.by_dim(k)) for k in range(3)] == [3, 3, 1]


def test_reading_a_document_computes_no_residue_permutation(monkeypatch):
    # A document is read as a development by counting the residues of its
    # maximal unit classes; the residue permutations are first computed
    # when the tables are read, here by certify.
    calls = []
    moved = fan_module._CosetMap.moved
    monkeypatch.setattr(fan_module._CosetMap, "moved",
                        lambda self, v, sign: calls.append(v) or moved(self, v, sign))
    doc = fan_to_json(developed("standard", [[8, 0], [0, 8]]))
    t = fan_from_json(doc)
    assert t._unit is not None and calls == []
    assert certify(t).passes() and calls


@pytest.mark.parametrize("det", [1, None])
def test_reading_many_shapes_is_linear(det):
    # The rank-1 edges [0, k] for k = 1..n are n shapes.  Over Z they are a
    # development; over (n + 1)·Z the guard hands them to the constructor.
    # Either way, twice the shapes take about twice the memory to read.
    def peak(n):
        doc = {"rank": 1, "lattice": [[det or n + 1]],
               "simplices": [[[0], [k]] for k in range(1, n + 1)]}
        tracemalloc.start()
        try:
            t = fan_from_json(doc)
            return tracemalloc.get_traced_memory()[1], t
        finally:
            tracemalloc.stop()

    (small, _), (large, t) = peak(1000), peak(2000)
    assert (t._unit is None) == (det is None)
    assert len(t.by_dim(1)) == 2000
    assert large < 3 * small


def test_document_schema_error_names_the_first_bad_simplex():
    good = [[0, 0], [1, 0]]
    repeated = [[2, 3], [2, 3]]
    dependent = [[1, 1], [2, 2], [3, 3]]
    messages = {
        "repeated": "bad simplex [[2, 3], [2, 3]]: repeated vertices: ((2, 3), (2, 3))",
        "dependent": "bad simplex [[1, 1], [2, 2], [3, 3]]: vertices are affinely "
                     "dependent: ((1, 1), (2, 2), (3, 3))",
    }
    for listing, expected in (
            ([good, repeated, dependent], messages["repeated"]),
            ([good, dependent, repeated], messages["dependent"]),
            # A translate of a bad simplex after it: the first one is named.
            ([dependent, [[5, 6], [6, 7], [4, 5]]], messages["dependent"]),
            ([repeated, [[0, 1], [0, 1]]], messages["repeated"])):
        with pytest.raises(SchemaError) as info:
            fan_from_json({"rank": 2, "lattice": [[2, 0], [0, 2]], "simplices": listing})
        assert str(info.value) == expected


def test_document_schema_and_geometric_errors_in_either_order():
    # The one-pass schema check fails on these listings, and the simplex by
    # simplex check then names the first bad simplex, whichever kind it is.
    dependent = [[1, 1], [2, 2], [3, 3]]
    geometric = ("bad simplex [[1, 1], [2, 2], [3, 3]]: vertices are affinely "
                 "dependent: ((1, 1), (2, 2), (3, 3))")
    schema = "each simplex must be a nonempty list of rank-length integer vectors"
    for malformed in ([[0, 0], [1]], [[0, True], [1, 0]], [[0, 0.5], [1, 0]], [], "x",
                      [{"x": 0}, [1, 0]], 7):
        for listing, expected in (([[[0, 0], [1, 0]], dependent, malformed], geometric),
                                  ([[[0, 0], [1, 0]], malformed, dependent], schema)):
            with pytest.raises(SchemaError) as info:
                fan_from_json({"rank": 2, "lattice": [[2, 0], [0, 2]], "simplices": listing})
            assert str(info.value) == expected


def test_classify_and_fan_check_build_no_developed_simplex(monkeypatch, tmp_path, capsys):
    # Every developed class would be built through _simplex: (1000) develops
    # 2,000 classes and diag(8,8) 384.
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    datum = {n: write(f"d{n}.json", {"rank": 1, "phi": [[1]], "b": [[n]]}) for n in (4, 1000)}
    document = {n: write(f"f{n}.json", fan_to_json(standard_triangulation(2).with_lattice(
        IntMatrix([[n, 0], [0, n]])))) for n in (2, 8)}
    built = []
    simplex = fan_module._simplex
    monkeypatch.setattr(fan_module, "_simplex", lambda vertices: built.append(vertices)
                        or simplex(vertices))

    def count(*argv):
        built.clear()
        assert cli_module.main([*argv, "--quiet"]) == 0
        capsys.readouterr()
        return len(built)

    # The first call of each command builds the standard cell or the flags
    # of a document's unit cell, which the process keeps.
    count("classify", datum[4])
    assert count("classify", datum[1000]) == 0
    count("fan", "check", document[2])
    # A document's unit cell is read from its simplices, whatever |det b|.
    assert count("fan", "check", document[8]) == count("fan", "check", document[2]) < 64


def test_complex_commands_build_no_developed_simplex(monkeypatch, tmp_path, capsys):
    # Labels are formatted from the unit cell and the representatives, so a
    # document over diag(8,8) (384 classes) builds as many simplices as one
    # over diag(2,2): its shapes.
    documents = {}
    for n in (2, 8):
        documents[n] = tmp_path / f"f{n}.json"
        documents[n].write_text(json.dumps(fan_to_json(standard_triangulation(2).with_lattice(
            IntMatrix([[n, 0], [0, n]])))))
    built = []
    simplex = fan_module._simplex
    monkeypatch.setattr(fan_module, "_simplex", lambda vertices: built.append(vertices)
                        or simplex(vertices))

    def count(command, n):
        built.clear()
        assert cli_module.main(["complex", command, str(documents[n]), "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["labels"]
        return len(built)

    for command in ("dual", "quotient"):
        count(command, 2)
        assert count(command, 8) == count(command, 2) < 64


@settings(max_examples=100, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5))
def test_lattice_coefficients_divide_exactly(y0, y1):
    # det -6: the division by det must be exact for either sign.
    rows = ((2, 1), (0, -3))
    t = PeriodicTriangulation(2, [], IntMatrix(rows))
    lam = tuple(y0 * a + y1 * b for a, b in zip(*rows))
    assert fan_module._lattice_coefficients(t, lam) == (y0, y1)
    with pytest.raises(ValueError, match="not in the translation lattice"):
        fan_module._lattice_coefficients(t, (lam[0] + 1, lam[1]))


@st.composite
def bases_of_one_lattice(draw):
    """Rows of a nonsingular 2x2 basis B and of S·B, for S a unimodular
    product of row swaps, sign changes and shears by up to 40."""
    b = draw(rank2)
    s = [[1, 0], [0, 1]]
    for step, i, c in draw(st.lists(st.tuples(st.sampled_from(("swap", "negate", "shear")),
                                              st.integers(0, 1), st.integers(-40, 40)),
                                    max_size=4)):
        if step == "swap":
            s.reverse()
        elif step == "negate":
            s[i] = [-x for x in s[i]]
        else:
            s[i] = [x + c * y for x, y in zip(s[i], s[1 - i])]
    return b, [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in s]


@settings(max_examples=150, deadline=None)
@given(bases_of_one_lattice(), st.tuples(st.integers(0, 6), st.integers(0, 6)))
def test_lattice_translates_do_not_depend_on_the_basis(bases, reach):
    unit = standard_triangulation(2)
    b, sb = bases
    found = [fan_module._lattice_translates(unit.with_lattice(IntMatrix(rows)), reach)
             for rows in (b, sb)]
    # Oracle: every lattice point of the window, filtered to the reach.
    expected = [lam for lam, _ in lattice_points(b, max(reach))
                if all(abs(x) <= r for x, r in zip(lam, reach))]
    assert found[0] == found[1] == expected


def test_translate_box_does_not_grow_with_the_skew_of_the_basis(monkeypatch):
    # Over Z² listed with the rows [[1, 100000], [0, 1]], the reduced basis
    # bounds the coefficients of the λ with |λ_i| <= 1 by 1: a box of 9.
    boxes = []

    def counted(*ranges):
        boxes.append(math.prod(map(len, ranges)))
        # A larger box fails the count below without being walked.
        return product(*ranges) if boxes[-1] <= 100 else iter(())

    monkeypatch.setattr(fan_module, "product", counted)
    unit = standard_triangulation(2)
    found = [fan_module._lattice_translates(unit.with_lattice(IntMatrix(rows)), (1, 1))
             for rows in ([[1, 100000], [0, 1]], [[1, 0], [0, 1]])]
    assert boxes == [9, 9]
    assert found[0] == found[1] == [lam for lam in product((-1, 0, 1), repeat=2) if any(lam)]


def test_no_int_matrix_below_the_input_boundary(monkeypatch):
    """Past the checked matrices of a datum or a document, the package passes
    plain rows: certify (a development, a constructor fan and a fan with
    fixed classes), with_lattice, component_group, smith_normal_form and
    solve build no IntMatrix."""
    fan_module._unit_cell.cache_clear()  # so that certify computes every flag
    fans = [fan_from_json(json.loads((GOLDEN_INPUTS / f"{name}.json").read_text()))
            for name in ("f_standard_diag44", "f_asym_cut_22", "f_odd_3113")]
    assert [t._unit is not None for t in fans] == [True, False, True]
    b = IntMatrix([[4, 2], [2, 6]])
    built = []
    init = IntMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counted)
    certificates = [certify(t) for t in fans]
    standard_triangulation(2).with_lattice(b)
    component_group(b)
    assert len(built) == 0
    smith_normal_form([[4, 2], [2, 6]])
    solve([[4, 2], [2, 6]], [[1, 0], [0, 1]])
    assert len(built) == 0
    assert [c.h_free for c in certificates] == [True, True, False]
