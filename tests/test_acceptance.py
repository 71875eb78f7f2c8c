"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is exact; the runtime bounds are asserted as stated.
Run with `pytest tests/test_acceptance.py -v` for the per-criterion report.
"""

import random
import time
from itertools import product

from conftest import I4, elem, make_data, random_square_zero, random_unimodular, \
    random_unipotent
from kummer_kulikov.complexes import (
    base_change_counts,
    classify_kummer_type,
    component_counts,
    dual_complex,
    euler_characteristic,
    h_quotient,
    is_chain,
    is_closed_surface,
)
from kummer_kulikov.degeneration import base_change, is_even, validate
from kummer_kulikov.fan import (
    LatticeSimplex,
    auto_scale,
    check_h_freeness,
    check_property_d,
    is_unimodular,
    standard_triangulation,
)
from kummer_kulikov.lattice import IntMatrix, component_group
from kummer_kulikov.monodromy import (
    RationalOperator,
    exp_nilpotent,
    kummer_monodromy,
    log_unipotent,
    nilpotency_index,
    standard_N,
    type_from_index,
    unipotent_or_negative,
    wedge_derivation,
    wedge_square,
)

FAMILY_T2 = [[[2, 0], [0, 2]], [[4, 0], [0, 4]], [[2, 0], [0, 4]], [[6, 0], [0, 6]]]
FAMILY_T1 = [[[2]], [[4]], [[6]], [[8]]]


def family():
    return [make_data(2, b) for b in FAMILY_T2] + [make_data(1, b) for b in FAMILY_T1]


def quotient_complex(d):
    _, tri = auto_scale(d)
    delta_a, act = dual_complex(tri)
    return delta_a, h_quotient(delta_a, act)


def report(n, label, elapsed, limit):
    assert elapsed < limit, f"ACCEPTANCE {n}: {label} took {elapsed:.2f}s, bound {limit}s"
    print(f"ACCEPTANCE {n}: PASS - {label} ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_component_count_formula():
    start = time.monotonic()
    for d in family():
        t = d.rank
        _, delta_x = quotient_complex(d)
        order = component_group(d.b).order
        assert delta_x.num(0) == order // 2 + 2 ** (t - 1)
    # Concrete anchors.
    assert quotient_complex(make_data(2, [[2, 0], [0, 2]]))[1].num(0) == 4
    assert quotient_complex(make_data(1, [[4]]))[1].num(0) == 3
    report(1, "quotient vertex count equals #Phi/2 + 2^(t-1) on the family",
           time.monotonic() - start, 1.0)


def test_criterion_2_quotient_topology():
    start = time.monotonic()
    for b in FAMILY_T2:
        d = make_data(2, b)
        delta_a, delta_x = quotient_complex(d)
        assert euler_characteristic(delta_a) == 0
        assert euler_characteristic(delta_x) == 2
        assert is_closed_surface(delta_x)
    for b in FAMILY_T1:
        d = make_data(1, b)
        delta_a, delta_x = quotient_complex(d)
        order = component_group(d.b).order
        # Cycle of length #Phi: as many edges as vertices, all degrees 2.
        assert delta_a.num(0) == delta_a.num(1) == order
        degrees = [0] * delta_a.num(0)
        for e in delta_a.boundary[1]:
            for v in e:
                degrees[v] += 1
        assert all(deg == 2 for deg in degrees)
        assert is_chain(delta_x)
        assert delta_x.num(0) == order // 2 + 1
    report(2, "chain/sphere shapes and Euler characteristics on the family",
           time.monotonic() - start, 1.0)


def test_criterion_3_base_change_counts():
    start = time.monotonic()
    for d in family():
        t = d.rank
        order = component_group(d.b).order
        for e in range(1, 7):
            counts = base_change_counts(d, e)
            assert counts.N_L == counts.formula_N_L
            assert component_group(base_change(d, e).b).order == e**t * order
    anchor = base_change_counts(make_data(1, [[4]]), 3)
    assert anchor.N == 3 and anchor.N_L == 7
    report(3, "N_L = e^t N - 2^(t-1)(e^t - 1) by both routes, e = 1..6",
           time.monotonic() - start, 5.0)


def test_criterion_4_monodromy_type_correspondence():
    start = time.monotonic()
    rng = random.Random(41)
    certified = {0: make_data(0, []), 1: make_data(1, [[2]]),
                 2: make_data(2, [[2, 0], [0, 2]])}
    for t in (0, 1, 2):
        n = standard_N(t)
        idx = nilpotency_index(kummer_monodromy(n))
        assert idx == t + 1
        d = certified[t]
        _, delta_x = quotient_complex(d)
        assert type_from_index(idx) is classify_kummer_type(d, delta_x)
        for _ in range(20):
            g, ginv = random_unimodular(rng)
            assert nilpotency_index(kummer_monodromy(g * n * ginv)) == idx
    report(4, "nilpotency index t+1 and type match, conjugation-stable",
           time.monotonic() - start, 1.0)


def test_criterion_5_even_pairing_even_divisors():
    start = time.monotonic()
    rng = random.Random(1009)
    produced = 0
    while produced < 50:
        r = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det_r = r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if det_r == 0 or 4 * det_r * det_r > 400:
            continue
        b = [[2 * sum(r[k][i] * r[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
        d = make_data(2, b)
        assert is_even(d) and validate(d).ok
        assert abs(d.b.det()) <= 400
        assert all(x % 2 == 0 for x in component_group(d.b).divisors)
        produced += 1
    report(5, "50 random even SPD pairings all have even elementary divisors",
           time.monotonic() - start, 1.0)


def test_criterion_6_h_freeness():
    start = time.monotonic()
    for d in family():
        _, tri = auto_scale(d)
        assert check_h_freeness(tri) == []
    # Odd control: the documented violation -[1,2] = [1,2] - 3.
    d3 = make_data(1, [[3]], a_basis=(2,))
    tri3 = standard_triangulation(1).with_lattice(d3.b)
    violations = check_h_freeness(tri3)
    assert ((-1,), LatticeSimplex([(1,), (2,)])) in violations
    report(6, "inversion acts freely on even instances; odd control caught",
           time.monotonic() - start, 2.0)


def test_criterion_7_property_d_and_scaling():
    start = time.monotonic()
    nu, tri = auto_scale(make_data(2, [[2, 0], [0, 2]]))
    assert nu == 1
    assert all(tri.certificate.flags().values())
    assert all(is_unimodular(s) for s in tri.simplices)

    nu2, tri2 = auto_scale(make_data(2, [[1, 0], [0, 1]], a_basis=(0, 0)))
    assert nu2 == 2
    assert all(tri2.certificate.flags().values())
    assert all(is_unimodular(s) for s in tri2.simplices)
    assert check_property_d(tri2) == []
    report(7, "auto-scale: nu = 1 for 2I2, nu = 2 for I2, all certified",
           time.monotonic() - start, 2.0)


def _search_wedge_identity():
    """All integer 4x4 f with entries in {-2..2} and wedge-square == Id_6,
    by exhaustive enumeration with row-by-row pruning on the minor equations
    (every pruned branch violates one of the 36 required minors)."""
    rng5 = range(-2, 3)
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def rows_ok(ra, rb, k, l):
        for (i, j) in pairs:
            want = 1 if (k, l) == (i, j) else 0
            if ra[i] * rb[j] - ra[j] * rb[i] != want:
                return False
        return True

    vecs = list(product(rng5, repeat=4))
    stage1 = [(r0, r1) for r0 in vecs for r1 in vecs if rows_ok(r0, r1, 0, 1)]
    found = []
    for r0, r1 in stage1:
        for r2 in vecs:
            if not (rows_ok(r0, r2, 0, 2) and rows_ok(r1, r2, 1, 2)):
                continue
            for r3 in vecs:
                if rows_ok(r0, r3, 0, 3) and rows_ok(r1, r3, 1, 3) \
                        and rows_ok(r2, r3, 2, 3):
                    found.append((r0, r1, r2, r3))
    return found


def test_criterion_8_wedge_square_dichotomy():
    start = time.monotonic()
    rng = random.Random(77)
    for _ in range(100):
        u = random_unipotent(rng)
        s = rng.choice((1, -1))
        assert unipotent_or_negative(u if s == 1 else -u) == s

    found = _search_wedge_identity()
    operators = [RationalOperator(rows) for rows in found]
    assert all(wedge_square(f) == RationalOperator.identity(6) for f in operators)
    assert sorted(found) == sorted([
        tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)),
        tuple(tuple(-1 if i == j else 0 for j in range(4)) for i in range(4)),
    ])
    report(8, "sign recovery on 100 samples; wedge-identity search finds only ±Id",
           time.monotonic() - start, 30.0)


def test_criterion_9_exact_arithmetic_identities():
    start = time.monotonic()
    rng = random.Random(23)
    for _ in range(100):
        sigma = random_unipotent(rng)
        assert exp_nilpotent(log_unipotent(sigma)) == sigma
    for _ in range(50):
        n = random_square_zero(rng)
        derived = log_unipotent(wedge_square(exp_nilpotent(n)))
        assert derived == wedge_derivation(n) == kummer_monodromy(n).wedge
    report(9, "exp∘log round-trip and derivation rule hold exactly",
           time.monotonic() - start, 5.0)
