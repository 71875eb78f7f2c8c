import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kummer_kulikov.fan as fan_module
from conftest import make_data
from kummer_kulikov.degeneration import base_change, is_even
from kummer_kulikov.errors import (
    ConsistencyError,
    SchemaError,
    UncertifiedFan,
    UnsupportedRank,
    WindowTooSmall,
)
from kummer_kulikov.fan import (
    LatticeSimplex,
    PeriodicTriangulation,
    PolarizationForm,
    auto_scale,
    certify,
    check_gamma_admissible,
    check_h_freeness,
    check_polarization,
    check_property_d,
    check_semistable,
    default_polarization_form,
    fan_from_json,
    fan_to_json,
    hulls_intersect,
    is_unimodular,
    required_window,
    safe_window,
    standard_triangulation,
    vertices_complete,
)
from kummer_kulikov.lattice import IntMatrix, smith_normal_form, unimodular_inverse


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


def test_hulls_intersect_basics():
    tri = LatticeSimplex([(0, 0), (1, 0), (1, 1)])
    assert hulls_intersect(tri, tri.translate((1, 0)))  # shares vertex (1,0)
    assert not hulls_intersect(tri, tri.translate((2, 0)))
    assert hulls_intersect(tri, tri.translate((-1, -1)))  # shares (0,0)
    edge = LatticeSimplex([(0,), (1,)])
    assert hulls_intersect(edge, edge.translate((1,)))
    assert not hulls_intersect(edge, edge.translate((2,)))


def test_property_d_certified_and_violated():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    assert check_property_d(t) == []

    d1 = make_data(2, [[1, 0], [0, 1]], a_basis=(0, 0))
    t1 = standard_triangulation(2).with_lattice(d1.b)
    violations = check_property_d(t1)
    assert (((1, 0)), LatticeSimplex([(0, 0), (1, 0), (1, 1)])) in violations

    t_zero = standard_triangulation(0).with_lattice(IntMatrix([], shape=(0, 0)))
    assert check_property_d(t_zero) == []


def test_property_d_window_too_small():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    with pytest.raises(WindowTooSmall):
        check_property_d(t, window=1)
    # The same window is accepted with the explicit override.
    assert check_property_d(t, window=1, allow_unsafe=True) == []


def test_h_freeness_even_vs_odd():
    d2 = make_data(1, [[2]])
    t2 = standard_triangulation(1).with_lattice(d2.b)
    assert check_h_freeness(t2) == []

    d3 = make_data(1, [[3]], a_basis=(2,))
    t3 = standard_triangulation(1).with_lattice(d3.b)
    violations = check_h_freeness(t3)
    assert violations == [((-1,), LatticeSimplex([(1,), (2,)]))]

    t0 = standard_triangulation(0).with_lattice(IntMatrix([], shape=(0, 0)))
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
    assert t.certificates["property_d"] and t.certificates["h_free"]

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


def test_gamma_admissibility_window():
    for b_rows, rank in [([[2, 0], [0, 2]], 2), ([[4, 2], [2, 6]], 2), ([[4]], 1)]:
        d = make_data(rank, b_rows)
        _, t = auto_scale(d)
        assert check_gamma_admissible(t, y_radius=3)


def test_polarization_examples():
    d = make_data(2, [[2, 0], [0, 2]])
    _, t = auto_scale(d)
    assert check_polarization(t, default_polarization_form(2))
    # x^2 + y^2 is flat across the diagonal walls: not strictly convex here.
    square_form = PolarizationForm(((1, 0), (0, 1)))
    assert not check_polarization(t, square_form)
    assert not check_polarization(t, PolarizationForm(((0, 0), (0, 0))))

    d1 = make_data(1, [[2]])
    _, t1 = auto_scale(d1)
    assert check_polarization(t1, PolarizationForm(((1,),)))

    t_raw = standard_triangulation(2).with_lattice(IntMatrix([[2, 0], [0, 2]]))
    with pytest.raises(UncertifiedFan):
        check_polarization(t_raw, default_polarization_form(2))


def test_polarization_margin_value():
    # Q(m,n) = m^2 + n^2 - mn across the diagonal wall has margin exactly 1:
    # Q(1,0) + Q(0,1) - Q(0,0) - Q(1,1) = 1.
    form = default_polarization_form(2)
    q = lambda m, n: form.value((m, n))
    assert q(1, 0) + q(0, 1) - q(0, 0) - q(1, 1) == 1
    form1 = default_polarization_form(1)
    assert form1.value((0,)) + form1.value((2,)) - 2 * form1.value((1,)) == 2


def test_polarization_form_validation():
    with pytest.raises(ValueError):
        PolarizationForm(((1, 1), (0, 1)))  # asymmetric
    with pytest.raises(ValueError):
        PolarizationForm((("1/3", "0"), ("0", "1")))  # not half-integral
    form = default_polarization_form(2)
    assert form.value((1, 1)) == 1
    assert form.is_positive_definite()


def test_safe_window_formula():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    # max simplex diameter 1, max lattice entry 2, plus 1.
    assert safe_window(t) == 4


def test_certify_attaches_flags():
    d = make_data(2, [[2, 0], [0, 2]])
    t = standard_triangulation(2).with_lattice(d.b)
    assert t.certificates == {}
    certs = certify(t)
    assert t.certificates == certs
    assert set(certs) == {"semistable", "unimodular", "property_d", "h_free",
                          "polarization", "vertices_complete"}
    assert all(certs.values())


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


def test_auto_scale_stops_at_nu_2(monkeypatch):
    tried = []

    def failing_certify(tri, **kwargs):
        tried.append(tri.lattice)
        return {"semistable": True, "unimodular": True, "property_d": False,
                "h_free": True}

    monkeypatch.setattr(fan_module, "certify", failing_certify)
    with pytest.raises(ConsistencyError):
        auto_scale(make_data(2, [[1, 0], [0, 1]], a_basis=(0, 0)))
    assert tried == [IntMatrix([[1, 0], [0, 1]]), IntMatrix([[2, 0], [0, 2]])]


# -- differential tests against the full-window scans ------------------------------

ANTI_CELL = [[(0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 1)], [(1, 0), (0, 1)],
             [(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]


def developed(kind, rows):
    """The standard or anti-diagonal unit cell developed over the lattice."""
    n = len(rows)
    unit = (standard_triangulation(n) if kind == "standard" else
            PeriodicTriangulation(2, [LatticeSimplex(s) for s in ANTI_CELL], None))
    return unit.with_lattice(IntMatrix(rows, shape=(n, n)))


def lattice_points(rows, window):
    """Every (λ, y) with λ = y·rows nonzero and ‖λ‖_∞ <= window, sorted by λ."""
    n = len(rows)
    adj = [[1]] if n == 1 else [[rows[1][1], -rows[0][1]], [-rows[1][0], rows[0][0]]]
    det = IntMatrix(rows, shape=(n, n)).det()
    out = []
    for lam in product(range(-window, window + 1), repeat=n):
        y = [sum(lam[i] * adj[i][j] for i in range(n)) for j in range(n)]
        if any(lam) and all(x % det == 0 for x in y):
            out.append((lam, tuple(x // det for x in y)))
    return out


def scan_property_d(t, window):
    """The full-window property-(d) scan: every translate, every class."""
    lams = [lam for lam, _ in lattice_points(t.lattice.entries, window)]
    return [(lam, s) for s in t.simplices for lam in lams
            if hulls_intersect(s, s.translate(lam))]


def scan_h_freeness(t, window):
    """The full-window H-freeness scan: every translate, every class."""
    points = lattice_points(t.lattice.entries, window)
    out = []
    for s in t.simplices:
        if s.dim < 1:
            continue
        neg = set(s.negate().vertices)
        for lam, y in points:
            if {tuple(a + b for a, b in zip(v, lam)) for v in s.vertices} == neg:
                out.append((y, s))
    return out


def direct_margins(t, form):
    """Every wall's convexity margin, solved on its own by Cramer's rule."""
    out = []
    for s, f, neighbor in fan_module._wall_neighbors(t):
        w = next(v for v in neighbor.vertices if v not in f.vertices)
        rows = [[1, *v] for v in s.vertices]
        values = [form.value(v) for v in s.vertices]
        det = IntMatrix(rows, shape=(len(rows), len(rows))).det()
        coeffs = []
        for c in range(len(rows)):
            swapped = [r[:c] + [values[i]] + r[c + 1:] for i, r in enumerate(rows)]
            coeffs.append(Fraction(IntMatrix(swapped, shape=(len(rows), len(rows))).det(),
                                   det))
        out.append(form.value(w) - coeffs[0] - sum(c * x for c, x in zip(coeffs[1:], w)))
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


@settings(max_examples=60, deadline=None)
@given(fans, st.one_of(st.none(), st.integers(0, 12)))
def test_bounded_checks_match_full_window_scans(fan, window):
    kind, rows = fan
    t = developed(kind, rows)
    wd = safe_window(t) if window is None else window
    wh = required_window(t) if window is None else window
    expected_d = scan_property_d(t, wd)
    expected_h = scan_h_freeness(t, wh)
    assert check_property_d(t, window, allow_unsafe=True) == expected_d
    assert check_h_freeness(t, window=window, allow_unsafe=True) == expected_h

    certs = certify(t, window=window, allow_unsafe=True)
    assert t.violations == {"property_d": expected_d, "h_free": expected_h}
    assert certs["property_d"] == (not expected_d)
    assert certs["h_free"] == (not expected_h)
    assert certs["unimodular"] == all(is_unimodular(s) for s in t.simplices)
    if certs["semistable"] and certs["unimodular"]:
        form = default_polarization_form(t.rank)
        margins = fan_module._polarization_margins(t, form)
        assert margins == direct_margins(t, form)
        assert certs["polarization"] == all(m > 0 for m in margins)


@settings(max_examples=40, deadline=None)
@given(st.one_of(rank1, rank2))
def test_standard_fan_certified_at_nu_2(rows):
    # The bound of auto_scale: the standard fan over Λ_(2b) passes every core check.
    doubled = [[2 * x for x in r] for r in rows]
    certs = certify(developed("standard", doubled))
    assert all(certs[k] for k in ("semistable", "unimodular", "property_d", "h_free"))


# -- oracles for the sort-free simplices and the carried face map -----------------

JSON_FANS = sorted((Path(__file__).parent / "data" / "golden" / "inputs").glob("f_*.json"))


def read_fan(path):
    return fan_from_json(json.loads(path.read_text()))


oracle_fans = st.one_of(fans.map(lambda fan: developed(*fan)),
                        st.sampled_from(JSON_FANS).map(read_fan))


def matrix_canonical_point(lattice, x):
    """The coset representative by the matrix route: U^{-1}·(U·x mod D)."""
    d, u, _ = smith_normal_form(lattice.transpose())
    z = u.matvec(x)
    return unimodular_inverse(u).matvec(
        tuple(zi % di for zi, di in zip(z, d.diagonal_entries())))


def pairwise_diameter(s):
    vs = s.vertices
    return max((abs(a - b) for v in vs for w in vs for a, b in zip(v, w)), default=0)


@settings(max_examples=60, deadline=None)
@given(oracle_fans)
def test_carried_face_classes_match_recomputation(t):
    assert set(t.face_classes) == set(t.simplices)
    for s in t.simplices:
        pairs = t.face_classes[s]
        assert pairs == tuple((t.canonical_simplex(f), t.canonical_shift(f))
                              for f in s.faces())
        for f, (cf, shift) in zip(s.faces(), pairs):
            assert f.translate(shift) == cf and cf in t.face_classes


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
        assert s.diameter_inf() == pairwise_diameter(s)
        assert moved.negate().diameter_inf() == pairwise_diameter(moved)


@settings(max_examples=60, deadline=None)
@given(oracle_fans, st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                             min_size=1, max_size=8))
def test_canonical_point_matches_matrix_route(t, points):
    for p in points:
        x = p[:t.rank]
        assert t.canonical_point(x) == matrix_canonical_point(t.lattice, x)
    for x in {s.vertices[0] for s in t.simplices}:
        assert t.canonical_point(x) == matrix_canonical_point(t.lattice, x)
