import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_data
from kummer_kulikov.complexes import dual_complex
from kummer_kulikov.degeneration import (
    DegenerationData,
    a_value,
    base_change,
    from_json_dict,
    h_invariance_check,
    is_even,
    to_json_dict,
    validate,
)
from kummer_kulikov.errors import InvalidScale, SchemaError, UnsupportedRank
from kummer_kulikov.fan import LatticeSimplex, auto_scale
from kummer_kulikov.lattice import ComponentGroup, IntMatrix, component_group
from kummer_kulikov.monodromy import (
    RationalOperator,
    TwoTorsionPermutation,
    kummer_monodromy,
    standard_N,
)


def test_validate_good_data():
    d = make_data(2, [[2, 0], [0, 2]], a_basis=(1, 1))
    report = validate(d)
    assert report.ok
    assert report.h_invariant
    names = [c.name for c in report.checks]
    assert names == ["phi_injective", "pairing_symmetric",
                     "pairing_positive_definite", "a_integral"]


def test_validate_not_positive_definite():
    d = make_data(2, [[1, 0], [0, -1]], a_basis=(0, 0))
    report = validate(d)
    assert not report.ok
    assert "pairing_positive_definite" in report.failed_names()


def test_validate_non_injective_phi():
    d = make_data(1, [[2]], phi_rows=[[0]], a_basis=(0,))
    report = validate(d)
    assert "phi_injective" in report.failed_names()


def test_validate_asymmetric_pairing():
    d = make_data(2, [[2, 1], [0, 2]], a_basis=(1, 1))
    report = validate(d)
    assert "pairing_symmetric" in report.failed_names()


def _a_oracle(d, y):
    """Extend a from basis values using only the defining identity
    a(u + v) = a(u) + a(v) + u^T M v, by recursion on the 1-norm."""
    m = d.pairing_matrix().entries
    t = d.rank

    def pair(u, v):
        return sum(u[i] * m[i][j] * v[j] for i in range(t) for j in range(t))

    basis = {}
    for i in range(t):
        e = tuple(1 if k == i else 0 for k in range(t))
        basis[e] = d.a_basis[i]
        # a(0) = a(e) + a(-e) + e^T M (-e)
        basis[tuple(-x for x in e)] = m[i][i] - d.a_basis[i]

    def rec(v):
        if all(x == 0 for x in v):
            return 0
        if v in basis:
            return basis[v]
        i = next(k for k in range(t) if v[k] != 0)
        step = tuple((1 if v[i] > 0 else -1) if k == i else 0 for k in range(t))
        rest = tuple(a - b for a, b in zip(v, step))
        return rec(rest) + basis[step] + pair(rest, step)

    return rec(tuple(y))


def test_a_value_examples():
    d = make_data(1, [[2]], a_basis=(1,))
    assert a_value(d, (3,)) == 9
    assert a_value(d, (3,)) == _a_oracle(d, (3,))
    assert a_value(d, (0,)) == 0
    assert a_value(d, (-1,)) == 1  # M_11 - a(1)


def test_a_value_matches_recursive_oracle():
    rng = random.Random(11)
    for b_rows in ([[2, 0], [0, 2]], [[4, 2], [2, 6]], [[2, 1], [1, 2]]):
        d = make_data(2, b_rows, a_basis=(rng.randint(-3, 3), rng.randint(-3, 3)))
        for _ in range(20):
            y = (rng.randint(-4, 4), rng.randint(-4, 4))
            assert a_value(d, y) == _a_oracle(d, y)


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_quadratic_identity(y0, y1, z0, z1):
    d = make_data(2, [[4, 2], [2, 6]])
    m = d.pairing_matrix().entries
    y, z = (y0, y1), (z0, z1)
    s = tuple(a + b for a, b in zip(y, z))
    rhs = sum(y[i] * m[i][j] * z[j] for i in range(2) for j in range(2))
    assert a_value(d, s) - a_value(d, y) - a_value(d, z) == rhs


entries = st.integers(-6, 6)


@settings(max_examples=80, deadline=None)
@given(entries, entries, entries, st.integers(-3, 3), st.tuples(entries, entries))
def test_a_integral_iff_pairing_symmetric(b00, b01, b11, skew, a_basis):
    # validate decides a_integral from the symmetry of M; check that decision
    # against the quadratic identity itself.  skew = b10 - b01 is drawn on its
    # own so that symmetric and asymmetric b both come up often.
    d = make_data(2, [[b00, b01], [b01 + skew, b11]], a_basis=a_basis)
    m = d.pairing_matrix()
    sym = m.entries == tuple(zip(*m.entries))
    report = validate(d)
    integral = next(c.passed for c in report.checks if c.name == "a_integral")
    assert integral == (d.rank == 0 or sym)
    if sym:
        window = list(product(range(-2, 3), repeat=2))
        for y in window:
            for z in window:
                s = tuple(a + b for a, b in zip(y, z))
                rhs = sum(y[i] * m.entries[i][j] * z[j] for i in range(2) for j in range(2))
                assert a_value(d, s) - a_value(d, y) - a_value(d, z) == rhs
    else:
        assert "a_integral" in report.failed_names()


def test_is_even():
    assert is_even(make_data(2, [[2, 0], [0, 2]]))
    assert not is_even(make_data(2, [[2, 1], [1, 2]], a_basis=(1, 1)))
    assert is_even(make_data(1, [[4]]))
    assert is_even(make_data(0, []))


def test_base_change():
    d = make_data(1, [[2]], a_basis=(1,))
    assert base_change(d, 1) == d
    d3 = base_change(d, 3)
    assert d3.b.entries == ((6,),)
    assert d3.a_basis == (3,)
    d22 = make_data(2, [[2, 0], [0, 2]])
    assert base_change(d22, 2).b.entries == ((4, 0), (0, 4))
    with pytest.raises(InvalidScale):
        base_change(d, 0)


def test_base_change_composes():
    d = make_data(2, [[2, 0], [0, 4]])
    assert base_change(base_change(d, 2), 3) == base_change(d, 6)


def test_h_invariance():
    assert h_invariance_check(make_data(1, [[2]], a_basis=(1,)))
    assert not h_invariance_check(make_data(1, [[2]], a_basis=(2,)))
    assert h_invariance_check(make_data(0, []))
    # a(-y) = a(y) concretely
    d = make_data(1, [[2]], a_basis=(2,))
    assert a_value(d, (-1,)) == 0 != a_value(d, (1,))


def test_even_implies_even_divisors():
    rng = random.Random(99)
    produced = 0
    while produced < 50:
        r = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        rm = [[r[0][0], r[0][1]], [r[1][0], r[1][1]]]
        det_r = rm[0][0] * rm[1][1] - rm[0][1] * rm[1][0]
        if det_r == 0:
            continue
        # b = 2 R^T R is symmetric positive definite with even entries.
        b = [[2 * sum(rm[k][i] * rm[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
        d = make_data(2, b)
        assert is_even(d)
        assert validate(d).ok
        assert all(x % 2 == 0 for x in component_group(d.b).divisors)
        produced += 1


def test_json_round_trip():
    d = make_data(2, [[4, 2], [2, 6]], a_basis=(2, 3))
    assert from_json_dict(to_json_dict(d)) == d


def test_json_default_a_basis():
    d = from_json_dict({"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[2, 0], [0, 2]]})
    assert d.a_basis == (1, 1)
    assert h_invariance_check(d)


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        from_json_dict({"rank": 2, "phi": [[1, 0], [0, 1]]})  # missing b
    with pytest.raises(SchemaError):
        from_json_dict({"rank": 1, "phi": [[1]], "b": [[2, 0]]})  # ragged
    with pytest.raises(SchemaError):
        from_json_dict({"rank": "2", "phi": [], "b": []})
    with pytest.raises(SchemaError):
        # odd diagonal: no H-invariant default exists
        from_json_dict({"rank": 1, "phi": [[1]], "b": [[3]]})
    with pytest.raises(SchemaError):
        from_json_dict({"rank": 1, "phi": [[1]], "b": [[2]], "a_basis": [1, 2]})


def test_rank_above_2_is_refused_for_every_caller():
    # Built in Python, not read from a document: base_change_counts would
    # otherwise answer N = 8, N_L = 36 for diag(2, 2, 2).
    with pytest.raises(UnsupportedRank, match="toric rank 3"):
        make_data(3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])


I1, I2 = IntMatrix([[1]]), IntMatrix([[1, 0], [0, 1]])


@pytest.mark.parametrize("build, error, message", [
    (lambda: DegenerationData(-1, I1, I1, ()), SchemaError, "rank must be nonnegative"),
    (lambda: DegenerationData(1, I2, I1, (0,)), SchemaError, "phi must be 1x1, got 2x2"),
    (lambda: DegenerationData(2, I2, I1, (0, 0)), SchemaError, "b must be 2x2, got 1x1"),
    (lambda: DegenerationData(1, I1, I1, (0, 0)), SchemaError, "a_basis must have length 1"),
    (lambda: DegenerationData(3, I1, I1, ()), UnsupportedRank,
     "toric rank 3 does not occur for abelian surfaces"),
    (lambda: LatticeSimplex([]), ValueError, "a simplex needs at least one vertex"),
    (lambda: LatticeSimplex([(0,), (0, 1)]), ValueError, "vertices of mixed dimension"),
    (lambda: ComponentGroup((1, 2)), ValueError,
     "divisors must be > 1 (trivial factors are dropped)"),
    (lambda: ComponentGroup((2, 3)), ValueError, "divisibility chain violated: 2 does not divide 3"),
    (lambda: TwoTorsionPermutation([0] * 16), ValueError,
     "mapping must be a bijection of 16 labels"),
], ids=["negative_rank", "phi_shape", "b_shape", "a_basis_length", "rank_3", "empty_simplex",
        "mixed_dimension", "trivial_divisor", "divisor_chain", "not_a_permutation"])
def test_constructors_refuse_malformed_values(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def _records():
    d = make_data(2, [[2, 0], [0, 2]])
    fan = auto_scale(d)[1]
    report = validate(d)
    return {"DegenerationData": (d, "b"), "AxiomCheck": (report.checks[0], "passed"),
            "ValidationReport": (report, "h_invariant"),
            "ComponentGroup": (component_group(d.b), "divisors"),
            "Certificate": (fan.certificate, "polarization"),
            "DeltaComplex": (dual_complex(fan)[0], "counts"),
            "KummerOperator": (kummer_monodromy(standard_N(2)), "torsion_dim"),
            "IntMatrix": (d.b, "entries"),
            "RationalOperator": (RationalOperator([[1, 2], ["1/2", 0]]), "num"),
            "TwoTorsionPermutation": (TwoTorsionPermutation(range(16)), "mapping")}


RECORDS = _records()


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_immutable(name):
    # Neither a field nor a new attribute can be set on a record.
    record, field = RECORDS[name]
    assert type(record).__name__ == name
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    assert getattr(record, field) is not None
