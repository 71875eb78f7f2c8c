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
    certify_unit_cell,
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
from kummer_kulikov.lattice import IntMatrix, smith_normal_form, solve, unimodular_inverse

GOLDEN_INPUTS = Path(__file__).parent / "data" / "golden" / "inputs"


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
        assert check_gamma_admissible(t)
    # The asymmetric cut: −S is not a class for the square cut differently at (0, 0).
    assert not check_gamma_admissible(read_fan(GOLDEN_INPUTS / "f_asym_cut_22.json"))


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

    def failing_certify(unit, lattice):
        tried.append(lattice)
        return {"semistable": True, "unimodular": True, "property_d": False,
                "h_free": True}

    monkeypatch.setattr(fan_module, "certify_unit_cell", failing_certify)
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
    """The full-window H-freeness scan: every translate, λ = 0 included, every class."""
    zero = (0,) * t.rank
    points = [(zero, zero)] + lattice_points(t.lattice.entries, window)
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

JSON_FANS = sorted(GOLDEN_INPUTS.glob("f_*.json"))


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


# -- the unit-cell route of auto_scale against certify on the developed fan -------

# Unit cells beyond the standard one make every flag fail somewhere: the
# anti-diagonal cut is not convex for the default form, WIDE is not
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
    return PeriodicTriangulation(rank, [LatticeSimplex(s) for s in cell], None)


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


def assert_unit_route_matches(rank, name, rows):
    unit = unit_cell(rank, name)
    lattice = IntMatrix(rows, shape=(rank, rank))
    certs = certify_unit_cell(unit, lattice)
    t = unit.with_lattice(lattice)
    assert certs == certify(t)
    # certify reads a development's lattice-free flags off its unit cell;
    # the developed classes give the same.
    assert fan_module._lattice_free_flags(t) == tuple(
        certs[k] for k in ("semistable", "unimodular", "vertices_complete", "polarization"))
    return certs


@settings(max_examples=80, deadline=None)
@given(unit_cases)
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
        certs = assert_unit_route_matches(rank, name, rows)
        for flag, value in certs.items():
            seen.setdefault(flag, set()).add(value)
    assert seen == {flag: {True, False} for flag in seen}
    assert len(seen) == 6


def test_unit_cell_route_needs_a_unit_cell():
    t = standard_triangulation(1).with_lattice(IntMatrix([[2]]))
    with pytest.raises(ValueError):
        certify_unit_cell(t, IntMatrix([[2]]))


def test_h_freeness_does_not_depend_on_the_basis():
    # [0, 2] developed over 3Z: the class [2, 4] has −S = S − 6, and over the
    # basis (−3) its representative [−1, 1] has −S = S, which counts too.
    unit = unit_cell(1, "long")
    for rows, expected in (([[3]], [((-2,), LatticeSimplex([(2,), (4,)]))]),
                           ([[-3]], [((0,), LatticeSimplex([(-1,), (1,)]))])):
        t = unit.with_lattice(IntMatrix(rows))
        assert check_h_freeness(t) == expected
        assert not certify(t)["h_free"]
        assert not certify_unit_cell(unit, IntMatrix(rows))["h_free"]


def test_unit_cell_flags_are_fresh_dicts():
    unit = standard_triangulation(2)
    first = certify_unit_cell(unit, IntMatrix([[2, 0], [0, 2]]))
    first["polarization"] = False
    assert certify_unit_cell(unit, IntMatrix([[2, 0], [0, 2]]))["polarization"]


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
    negated = {s: t.canonical_simplex(s.negate()) for s in t.simplices}
    return {s: (n if n in t.face_classes else None) for s, n in negated.items()}


def assert_residue_route_matches(unit, lattice):
    t = unit.with_lattice(lattice)
    expected = develop_by_canonical_points(unit, lattice)
    assert t.simplices == expected.simplices
    assert [t.by_dim(k) for k in range(t.rank + 1)] == [
        expected.by_dim(k) for k in range(t.rank + 1)]
    assert t.face_classes == expected.face_classes
    assert t.negatives == expected.negatives == negatives_by_canonical_points(expected)
    assert t == expected


# (rank, unit cell name, lattice rows) for the fans above and the unit cases.
cell_cases = st.one_of(
    fans.map(lambda fan: (len(fan[1]), fan[0] if fan[0] == "anti" else "standard", fan[1])),
    unit_cases)


@settings(max_examples=60, deadline=None)
@given(cell_cases)
def test_residue_development_matches_canonical_points(case):
    rank, name, rows = case
    assert_residue_route_matches(unit_cell(rank, name), IntMatrix(rows, shape=(rank, rank)))


@pytest.mark.parametrize("path", JSON_FANS, ids=lambda p: p.stem)
def test_residue_development_on_golden_fans(path):
    # Each golden fan's classes taken modulo Z^t, developed over its lattice.
    doc = read_fan(path)
    unit = PeriodicTriangulation(doc.rank, doc.simplices, None)
    assert_residue_route_matches(unit, doc.lattice)
    # A document the constructor reads computes its negatives on first use.
    assert doc.negatives == negatives_by_canonical_points(doc)


def test_residue_development_edge_cases():
    assert_residue_route_matches(standard_triangulation(0), IntMatrix([], shape=(0, 0)))
    assert_residue_route_matches(unit_cell(2, "empty"), IntMatrix([[2, 1], [0, 3]]))
    # −WIDE is no unit class, so no developed class has a negative.
    wide = unit_cell(2, "wide")
    assert_residue_route_matches(wide, IntMatrix([[3, 1], [1, 3]]))
    t = wide.with_lattice(IntMatrix([[3, 1], [1, 3]]))
    assert [t.negatives[s] for s in t.by_dim(2)] == [None] * 8
    assert not check_gamma_admissible(t)


# -- the margins against the implementation that paired walls by comparing -------
# -- translated candidates ------------------------------------------------------

def former_wall_neighbors(t):
    walls = []
    incidence = {}
    for s in t.by_dim(t.rank):
        for f, (key, shift) in zip(s.faces(), t.face_classes[s]):
            walls.append((s, f, shift, key))
            incidence.setdefault(key, []).append((s, shift))
    for s, f, shift, key in walls:
        neighbors = []
        for other, other_shift in incidence[key]:
            cand = other.translate(tuple(a - b for a, b in zip(other_shift, shift)))
            if cand != s:
                neighbors.append(cand)
        yield s, f, (neighbors[0] if len(neighbors) == 1 else None)


def former_margins(t, form):
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
            coeffs = solve(IntMatrix([(1,) + v for v in s.vertices]),
                           [form.value(v) for v in s.vertices])
            by_shape[key] = form.value(w) - coeffs[0] - sum(
                c * x for c, x in zip(coeffs[1:], w))
        margins.append(by_shape[key])
    return margins


def assert_former_pairing(t):
    form = default_polarization_form(t.rank)
    assert fan_module._polarization_margins(t, form) == former_margins(t, form)
    assert list(fan_module._wall_neighbors(t)) == list(former_wall_neighbors(t))


@pytest.mark.parametrize("path", JSON_FANS, ids=lambda p: p.stem)
def test_margins_match_former_pairing_on_golden_fans(path):
    assert_former_pairing(read_fan(path))


@settings(max_examples=60, deadline=None)
@given(fans)
def test_margins_match_former_pairing(fan):
    assert_former_pairing(developed(*fan))


# -- documents that are developments, read by fan_from_json, against the -------
# -- constructor on the same simplices ----------------------------------------

SQUARE_CUTS = ([[(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)]],
               [[(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]])


def flip_a_diagonal(t, classes, rng):
    """The given classes of t, with one unit square's two triangles replaced
    by the other cut of that square; unchanged when t cuts no square."""
    if t.rank != 2 or not t.by_dim(0):
        return classes
    corner = rng.choice(t.by_dim(0)).vertices[0]
    for old, new in (SQUARE_CUTS, SQUARE_CUTS[::-1]):
        cut = [LatticeSimplex(s).translate(corner) for s in old]
        if all(t.contains_class(s) for s in cut):
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


document_cases = st.tuples(cell_cases, st.sampled_from([None, None, "drop", "flip", "extra"]),
                           st.randoms(use_true_random=False))


@settings(max_examples=80, deadline=None)
@given(document_cases)
def test_document_matches_constructor(case):
    (rank, name, rows), damage, rng = case
    lattice = IntMatrix(rows, shape=(rank, rank))
    listing = document_listing(unit_cell(rank, name).with_lattice(lattice), rows, rng, damage)
    got = fan_from_json({"rank": rank, "lattice": rows, "simplices": listing})
    expected = PeriodicTriangulation(rank, [LatticeSimplex(s) for s in listing], lattice)
    assert got.simplices == expected.simplices
    assert [got.by_dim(k) for k in range(rank + 1)] == [
        expected.by_dim(k) for k in range(rank + 1)]
    assert got.face_classes == expected.face_classes
    assert got.negatives == expected.negatives
    assert certify(got) == certify(expected)
    assert got.violations == expected.violations


@pytest.mark.parametrize("path", JSON_FANS, ids=lambda p: p.stem)
def test_document_route(path):
    # Every golden fan is a development of its unit cell but the two repros,
    # which the constructor reads.
    t = read_fan(path)
    repro = path.stem in ("f_one_triangle_22", "f_asym_cut_22")
    assert (t._unit_blocks is None) == repro


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
