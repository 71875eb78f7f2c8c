import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kummer_kulikov
from kummer_kulikov import cli, complexes
from kummer_kulikov.cli import main


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main([*argv, "--quiet"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def d22_path(tmp_path):
    return write(tmp_path, "d22.json",
                 {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[2, 0], [0, 2]]})


@pytest.fixture
def d4_path(tmp_path):
    return write(tmp_path, "d4.json", {"rank": 1, "phi": [[1]], "b": [[4]]})


def test_validate_exit_codes(tmp_path, capsys, d22_path):
    code, report = run(capsys, "validate", d22_path)
    assert code == 0
    assert report["ok"] and report["h_invariant"]

    bad = write(tmp_path, "npd.json",
                {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[1, 0], [0, -1]],
                 "a_basis": [0, 0]})
    code, report = run(capsys, "validate", bad)
    assert code == 1
    failed = [a["name"] for a in report["axioms"] if not a["passed"]]
    assert "pairing_positive_definite" in failed

    missing = write(tmp_path, "missing.json", {"rank": 2, "phi": [[1, 0], [0, 1]]})
    code, _ = run(capsys, "validate", missing)
    assert code == 2

    notjson = tmp_path / "bad.json"
    notjson.write_text("not json at all")
    code, _ = run(capsys, "validate", str(notjson))
    assert code == 2

    code, _ = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2


def test_classify_b2I2(capsys, d22_path):
    code, report = run(capsys, "classify", d22_path)
    assert code == 0
    assert report["kulikov_type"] == "III"
    assert report["N_X"] == 4
    assert report["delta_X"]["chi"] == 2
    assert report["component_group"]["divisors"] == [2, 2]
    assert all(report["consistency"].values())
    assert all(report["certificates"][k] for k in
               ("semistable", "unimodular", "property_d", "h_free", "polarization"))


def test_classify_b4(capsys, d4_path):
    code, report = run(capsys, "classify", d4_path)
    assert code == 0
    assert report["kulikov_type"] == "II"
    assert report["N_X"] == 3
    assert report["delta_X"]["cells"] == [3, 2, 0]


def test_classify_rank0(tmp_path, capsys):
    p = write(tmp_path, "d0.json", {"rank": 0, "phi": [], "b": []})
    code, report = run(capsys, "classify", p)
    assert code == 0
    assert report["kulikov_type"] == "I"
    assert report["N_X"] == 1


def test_classify_refuses_odd(tmp_path, capsys):
    p = write(tmp_path, "odd.json",
              {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[2, 1], [1, 2]],
               "a_basis": [1, 1]})
    code, report = run(capsys, "classify", p)
    assert code == 1
    assert report["failed_check"] == "even_pairing"


def test_classify_refuses_non_h_invariant(tmp_path, capsys):
    p = write(tmp_path, "nh.json",
              {"rank": 1, "phi": [[1]], "b": [[2]], "a_basis": [2]})
    code, report = run(capsys, "classify", p)
    assert code == 1
    assert report["failed_check"] == "h_invariant"


def test_base_change_command(capsys, d4_path):
    code, report = run(capsys, "base-change", d4_path, "--e", "3")
    assert code == 0
    assert report == {"e": 3, "N": 3, "N_L": 7, "formula_N_L": 7, "consistent": True}
    code, report = run(capsys, "base-change", d4_path, "--e", "1")
    assert report["N_L"] == report["N"]


def test_classify_and_base_change_repeat_no_derived_work(capsys, monkeypatch, d22_path):
    """The component group comes from the determinantal divisors, so classify
    runs one Smith form (the coset map's) and base-change none, and validate
    forms the pairing b·φ once: a datum without a_basis takes its default from
    the pairing's diagonal, so each command multiplies one IntMatrix."""
    from collections import Counter

    from kummer_kulikov import degeneration, fan, lattice
    assert main(["classify", d22_path, "--quiet"]) == 0  # fills the unit-cell cache
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (fan, lattice):
        monkeypatch.setattr(module, "smith_normal_form",
                            counted("smith", module.smith_normal_form))
    monkeypatch.setattr(degeneration.DegenerationData, "pairing_matrix",
                        counted("pairing", degeneration.DegenerationData.pairing_matrix))
    monkeypatch.setattr(lattice.IntMatrix, "mul", counted("mul", lattice.IntMatrix.mul))
    for argv, smith in ((["classify", d22_path], 1), (["base-change", d22_path, "--e", "2"], 0)):
        calls.clear()
        assert main([*argv, "--quiet"]) == 0
        assert (calls["smith"], calls["pairing"], calls["mul"]) == (smith, 1, 1), argv
    capsys.readouterr()
    for b in ([[2, 0], [0, 2]], [[2, 1], [0, 2]], [[2, 1], [1, 2]]):
        d = degeneration.DegenerationData(2, lattice.IntMatrix([[1, 0], [0, 1]]),
                                          lattice.IntMatrix(b), (1, 1))
        calls.clear()
        degeneration.validate(d)
        assert calls["pairing"] == 1, b


def test_fan_build_and_check(tmp_path, capsys, d22_path):
    code, built = run(capsys, "fan", "build", d22_path)
    assert code == 0
    assert set(built) == {"nu", "fan", "certificates"}
    assert built["nu"] == 1
    assert set(built["fan"]) == {"rank", "lattice", "simplices"}

    fan_path = write(tmp_path, "fan.json", built["fan"])
    code, checked = run(capsys, "fan", "check", fan_path)
    assert code == 0
    assert checked["violations"]["property_d"] == []
    assert checked["violations"]["h_free"] == []

    # An unscaled lattice fails certification.
    bad_fan = dict(built["fan"])
    bad_fan["lattice"] = [[1, 0], [0, 1]]
    bad_path = write(tmp_path, "badfan.json", bad_fan)
    code, checked = run(capsys, "fan", "check", bad_path)
    assert code == 1
    assert not checked["certificates"]["property_d"]
    assert checked["violations"]["property_d"]


def test_fan_build_autoscales(tmp_path, capsys):
    p = write(tmp_path, "dI.json",
              {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]],
               "a_basis": [0, 0]})
    code, built = run(capsys, "fan", "build", p)
    assert code == 0
    assert built["nu"] == 2
    assert built["fan"]["lattice"] == [[2, 0], [0, 2]]


def test_fan_build_refuses_invalid_data(tmp_path, capsys):
    cases = [
        ("neg.json", {"rank": 1, "phi": [[1]], "b": [[-2]], "a_basis": [-1]},
         "pairing_positive_definite"),
        ("indef.json", {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[2, 0], [0, -2]],
                        "a_basis": [1, -1]}, "pairing_positive_definite"),
        ("asym.json", {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[2, 4], [0, 2]],
                       "a_basis": [1, 1]}, "pairing_symmetric"),
    ]
    for name, doc, failed in cases:
        p = write(tmp_path, name, doc)
        code, built = run(capsys, "fan", "build", p)
        assert code == 1
        assert set(built) == {"failed_check", "axioms"}
        assert built["failed_check"] == failed
        assert run(capsys, "classify", p) == (1, built)


def test_complex_commands(tmp_path, capsys, d22_path):
    _, built = run(capsys, "fan", "build", d22_path)
    fan_path = write(tmp_path, "fan.json", built["fan"])

    code, dual = run(capsys, "complex", "dual", fan_path)
    assert code == 0
    assert len(dual["vertices"]) == 4
    assert len(dual["edges"]) == 12
    assert len(dual["triangles"]) == 8
    assert dual["chi"] == 0

    code, quot = run(capsys, "complex", "quotient", fan_path)
    assert code == 0
    assert [len(quot["vertices"]), len(quot["edges"]), len(quot["triangles"])] == [4, 6, 4]
    assert quot["chi"] == 2
    assert set(quot) == {"vertices", "edges", "triangles", "labels", "chi"}


DIAG = {n: [[n if i == j else 0 for j in range(3)] for i in range(3)] for n in (2, 4)}
RANK_3_FANS = {
    # Certified at rank 3 by the planar hull tests, these failed only a flag.
    "vertex": {"rank": 3, "lattice": DIAG[2], "simplices": [[[1, 0, 0]]]},
    "edges": {"rank": 3, "lattice": DIAG[4],
              "simplices": [[[0, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 0, 1]]]},
    # Semistable and unimodular.
    "tetrahedron": {"rank": 3, "lattice": DIAG[2],
                    "simplices": [[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
}


@pytest.mark.parametrize("name", sorted(RANK_3_FANS))
@pytest.mark.parametrize("command", [["fan", "check"], ["complex", "dual"],
                                     ["complex", "quotient"]], ids=" ".join)
def test_rank_3_fan_documents_are_refused_when_read(tmp_path, capsys, monkeypatch,
                                                    name, command):
    monkeypatch.setattr(kummer_kulikov.fan, "certify",
                        lambda t: pytest.fail("a rank-3 fan was certified"))
    path = write(tmp_path, f"{name}.json", RANK_3_FANS[name])
    code, report = run(capsys, *command, path)
    assert (code, report["kind"]) == (1, "UnsupportedRank")


@pytest.mark.parametrize("command", [["validate"], ["base-change", "--e", "2"]], ids=" ".join)
def test_rank_3_data_are_refused_when_read(tmp_path, capsys, command):
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    path = write(tmp_path, "d_rank3.json", {"rank": 3, "phi": identity, "b": DIAG[2]})
    code, report = run(capsys, *command, path)
    assert (code, report["kind"]) == (1, "UnsupportedRank")


def test_monodromy_command(tmp_path, capsys):
    code, report = run(capsys, "monodromy", "--toric-rank", "2")
    assert code == 0
    assert report == {"toric_rank": 2, "nilpotency_index": 3, "kulikov_type": "III"}

    code, report = run(capsys, "monodromy", "--toric-rank", "0")
    assert report == {"toric_rank": 0, "nilpotency_index": 1, "kulikov_type": "I"}

    # A conjugated rank-1 operator via --matrix: g N g^{-1} with a shear g.
    mat = {"dim": 4, "entries": [["0", "1", "0", "1"], ["0", "0", "0", "0"],
                                 ["0", "0", "0", "0"], ["0", "0", "0", "0"]]}
    p = write(tmp_path, "n.json", mat)
    code, report = run(capsys, "monodromy", "--matrix", str(p))
    assert code == 0
    assert report == {"toric_rank": 1, "nilpotency_index": 2, "kulikov_type": "II"}

    bad = {"dim": 4, "entries": [["1"] * 4] * 4}  # not nilpotent
    p2 = write(tmp_path, "badmat.json", bad)
    code, _ = run(capsys, "monodromy", "--matrix", str(p2))
    assert code == 1


@pytest.mark.parametrize("dim", [0, 2, 5])
def test_monodromy_matrix_must_be_4x4(tmp_path, capsys, dim):
    # A nilpotent shift of another size is well-formed JSON but not an N on H^1.
    shift = [[int(j == i + 1) for j in range(dim)] for i in range(dim)]
    p = write(tmp_path, "n.json", {"dim": dim, "entries": shift})
    code, report = run(capsys, "monodromy", "--matrix", p)
    assert code == 2
    assert report["kind"] == "SchemaError"
    assert "4x4" in report["error"]


# Files that the JSON reader cannot turn into a document: (bytes, the kind
# reported, a piece of the error).  Each is bad input, with exit 2.
UNREADABLE = {
    "malformed": (b'{"rank": 1,', "JSONDecodeError", "Expecting property name"),
    "not_utf8": (b'{"rank": 1, "phi": [[\xff]]}', "SchemaError", "can't decode byte 0xff"),
    "too_deep": (b"[" * 100_000 + b"]" * 100_000, "SchemaError", "maximum recursion depth"),
    "long_int": (b'{"rank": ' + b"1" * 4401 + b"}", "SchemaError", "4401 digits"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize("command", [["validate"], ["fan", "check"], ["monodromy", "--matrix"]],
                         ids=" ".join)
def test_unreadable_files_are_bad_input(tmp_path, capsys, command, name):
    if name == "long_int" and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integer literals of any length")
    raw, kind, message = UNREADABLE[name]
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    code, report = run(capsys, *command, str(path))
    assert (code, report["kind"]) == (2, kind)
    assert message in report["error"]


def square_zero_matrix(entry):
    """The 4x4 matrix document with entry at (0, 1) and zeros elsewhere: N² = 0."""
    return {"dim": 4, "entries": [["0", entry, "0", "0"]] + [["0"] * 4 for _ in range(3)]}


# Documents that the readers refuse, each with its own message:
# (command, document, error).
REFUSED_DOCUMENTS = {
    "data_not_an_object": (["validate"], [], "degeneration document must be a JSON object"),
    "phi_not_rows": (["validate"], {"rank": 1, "phi": [1], "b": [[2]]},
                     "field 'phi' must be a list of rows"),
    "b_not_integers": (["validate"], {"rank": 1, "phi": [[1]], "b": [[2.0]]},
                       "field 'b' must contain integers"),
    "fan_not_an_object": (["fan", "check"], [], "fan document must be a JSON object"),
    "fan_rank_not_an_integer": (["fan", "check"],
                                {"rank": "1", "lattice": [[2]], "simplices": [[[0]]]},
                                "field 'rank' must be a nonnegative integer"),
    "fan_lattice_singular": (["fan", "check"],
                             {"rank": 1, "lattice": [[0]], "simplices": [[[0]], [[0], [1]]]},
                             "translation lattice is degenerate (det = 0)"),
    "matrix_not_an_object": (["monodromy", "--matrix"], [],
                             "matrix document must be a JSON object"),
    "matrix_float_entry": (["monodromy", "--matrix"], {"dim": 1, "entries": [[0.5]]},
                           "matrix entries must be integers or 'p/q' strings, got 0.5"),
    "matrix_decimal_string": (["monodromy", "--matrix"], square_zero_matrix("2.5"),
                              "matrix entries must be integers or 'p/q' strings, got '2.5'"),
    "matrix_exponent_string": (["monodromy", "--matrix"], square_zero_matrix("1e3"),
                               "matrix entries must be integers or 'p/q' strings, got '1e3'"),
    "matrix_underscore_string": (["monodromy", "--matrix"], square_zero_matrix("1_000"),
                                 "matrix entries must be integers or 'p/q' strings, got '1_000'"),
    "matrix_space_string": (["monodromy", "--matrix"], square_zero_matrix(" 1/2"),
                            "matrix entries must be integers or 'p/q' strings, got ' 1/2'"),
    "matrix_bool_entry": (["monodromy", "--matrix"], square_zero_matrix(True),
                          "matrix entries must be integers or 'p/q' strings, got True"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_DOCUMENTS))
def test_malformed_documents_are_refused_by_name(tmp_path, capsys, name):
    command, doc, message = REFUSED_DOCUMENTS[name]
    code, report = run(capsys, *command, write(tmp_path, "doc.json", doc))
    assert (code, report) == (2, {"error": message, "kind": "SchemaError"})


def test_an_exponent_string_is_refused_at_once(tmp_path):
    # Fraction("1e100000000") would build a 10^8-digit integer first.
    path = write(tmp_path, "m.json", square_zero_matrix("1e100000000"))
    src = str(Path(kummer_kulikov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "kummer_kulikov.cli", "monodromy",
                           "--matrix", path, "--quiet"], capture_output=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["kind"] == "SchemaError"


def _limit_address_space():
    # Runs in the child only: a run that tries to hold the work fails fast.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


LONG_EDGE = {"rank": 2, "lattice": [[2, 0], [0, 2]],
             "simplices": [[[0, 0]], [[0, 0], [10**11, 0]]]}
HUGE_INDEX = {"rank": 1, "phi": [[1]], "b": [[10**20]]}


@pytest.mark.parametrize("command, doc, message", [
    (["fan", "check"], LONG_EDGE, "property (d) would scan more than 100000 lattice translates"),
    (["classify"], HUGE_INDEX, "the development would pass the limit of 3000000 classes"),
    (["report"], HUGE_INDEX, "the development would pass the limit of 3000000 classes"),
    (["fan", "build"], HUGE_INDEX, "the development would pass the limit of 3000000 classes"),
], ids=["fan-check-long-edge", "classify-huge-index", "report-huge-index",
        "fan-build-huge-index"])
def test_oversized_work_is_refused_before_it_starts(tmp_path, command, doc, message):
    # The edge puts 10^11 points in property (d)'s translate box, and b = (10^20)
    # develops 2·10^20 classes: each is refused by name, under 1 GiB of address space.
    src = str(Path(kummer_kulikov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "kummer_kulikov.cli", *command,
                           write(tmp_path, "doc.json", doc), "--quiet"],
                          capture_output=True, timeout=60, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"error": message, "kind": "ResourceLimit"}


# No simplex over a lattice of index 10^19: a development would list every coset.
EMPTY_OVER_HUGE_INDEX = {"rank": 1, "lattice": [[10**19]], "simplices": []}


@pytest.mark.parametrize("command", [["fan", "check"], ["complex", "dual"],
                                     ["complex", "quotient"]],
                         ids=["fan-check", "complex-dual", "complex-quotient"])
def test_an_empty_fan_document_lists_no_coset(tmp_path, command):
    src = str(Path(kummer_kulikov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "kummer_kulikov.cli", *command,
                           write(tmp_path, "doc.json", EMPTY_OVER_HUGE_INDEX), "--quiet"],
                          capture_output=True, timeout=60, preexec_fn=_limit_address_space,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    if command[0] == "fan":
        assert report["certificates"]["semistable"] is False
    else:
        assert report == {"failed_check": "semistable"}


def test_developing_an_empty_cell_counts_its_cosets():
    # The representatives are listed even for a cell with no class.
    script = ("from kummer_kulikov.errors import ResourceLimit\n"
              "from kummer_kulikov.fan import PeriodicTriangulation\n"
              "from kummer_kulikov.lattice import IntMatrix\n"
              "try:\n"
              "    cell = PeriodicTriangulation(1, [], IntMatrix([[1]]))\n"
              "    cell.with_lattice(IntMatrix([[10**19]]))\n"
              "except ResourceLimit as exc:\n"
              "    print(exc)\n")
    src = str(Path(kummer_kulikov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60,
                          preexec_fn=_limit_address_space, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"the development would pass the limit of 3000000 classes\n"


def test_report_with_base_change_table(capsys, d4_path):
    code, report = run(capsys, "report", d4_path, "--base-change-max", "4")
    assert code == 0
    assert [row["N_L"] for row in report["base_change"]] == [3, 5, 7, 9]
    assert all(row["consistent"] for row in report["base_change"])
    code, report = run(capsys, "report", d4_path)
    assert "base_change" not in report


@pytest.mark.parametrize("value", ["-1", "0"])
def test_report_refuses_a_base_change_max_below_1(capsys, d4_path, value):
    with pytest.raises(SystemExit) as exc:
        main(["report", d4_path, "--base-change-max", value, "--quiet"])
    assert exc.value.code == 2
    assert f"--base-change-max: must be at least 1, got {value}" in capsys.readouterr().err


def test_report_refuses_a_base_change_table_past_the_row_limit(capsys, d4_path, monkeypatch):
    monkeypatch.setattr(cli, "BASE_CHANGE_MAX_ROWS", 3)
    code, report = run(capsys, "report", d4_path, "--base-change-max", "3")
    assert code == 0 and len(report["base_change"]) == 3

    def refuse(d, e):
        raise AssertionError("a base-change row was built")

    monkeypatch.setattr(cli, "_base_change_row", refuse)
    code, report = run(capsys, "report", d4_path, "--base-change-max", "4")
    assert (code, report["kind"]) == (1, "ResourceLimit")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_base_change_refuses_an_e_below_1(capsys, d4_path, value):
    with pytest.raises(SystemExit) as exc:
        main(["base-change", d4_path, "--e", value, "--quiet"])
    assert exc.value.code == 2
    assert f"--e: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.fixture
def default_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_base_change_past_the_digit_limit_is_refused_by_name(capsys, d22_path,
                                                             default_digit_limit):
    # t = 2: e^t·N has about 5,000 digits for e of 2,501 digits, and about
    # 4,000 for e of 2,000, on either side of the 4,300-digit limit.
    code, report = run(capsys, "base-change", d22_path, "--e", "1" * 2501)
    assert (code, report["kind"]) == (1, "ResourceLimit")
    code, report = run(capsys, "base-change", d22_path, "--e", "1" * 2000)
    assert code == 0 and report["e"] == int("1" * 2000)


def test_reports_are_deterministic(capsys, d22_path):
    _, first = run(capsys, "classify", d22_path)
    out1 = json.dumps(first, sort_keys=True)
    _, second = run(capsys, "classify", d22_path)
    assert json.dumps(second, sort_keys=True) == out1


# Strings with the characters json escapes (quote, backslash, controls), with
# non-ASCII ones and with lone surrogates, which it writes as \udxxx escapes.
TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u20ac\U0001f600')
               | st.characters(categories=["Cs"]) | st.characters(), max_size=6)
BIG_INTS = (st.integers() | st.integers(10**100, 10**120)
            | st.integers(-10**120, -10**100))
LEAVES = st.none() | st.booleans() | BIG_INTS | TEXT


def json_values(depth):
    """Values up to depth containers deep, with empty containers at every
    depth, lists of strings, and the shapes the writer joins at once: lists
    of ints (with a bool among them, which must not join as an int) and rows
    of ints, as in every list of edges and triangles."""
    if depth == 0:
        return LEAVES
    inner = json_values(depth - 1)
    lists = st.lists(inner, max_size=4)
    values = (inner | lists | lists.map(tuple) | st.dictionaries(TEXT, inner, max_size=4)
              | st.lists(BIG_INTS | st.booleans(), max_size=5) | st.lists(TEXT, max_size=4)
              | st.dictionaries(TEXT, TEXT, max_size=4))
    if depth >= 2:
        values |= st.lists(st.lists(BIG_INTS, max_size=3) | st.tuples(BIG_INTS, BIG_INTS),
                           max_size=4)
    return values


@settings(max_examples=300)
@given(json_values(4))
def test_report_writer_matches_json(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_report_writer_refuses_what_json_refuses():
    doc = {"a": [1, {2}]}
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as raised:
        cli._dumps(doc)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("argv, golden", [
    (["classify"], "classify__d_diag22"),
    (["report", "--base-change-max", "3"], "report__d_diag22__bc3"),
])
def test_a_false_consistency_entry_exits_1_with_the_full_report(capsys, monkeypatch,
                                                                argv, golden):
    # N_X counted one too many disagrees with the vertices of delta_X.  No
    # draw of the exit-contract property reaches this shape.
    counts = complexes.component_counts
    monkeypatch.setattr(complexes, "component_counts",
                        lambda d: counts(d)._replace(N_X=counts(d).N_X + 1))
    data = Path(__file__).parent / "data" / "golden"
    expected = json.loads((data / "out" / f"{golden}.txt").read_text().split("\n", 1)[1])
    code, report = run(capsys, argv[0], str(data / "inputs" / "d_diag22.json"), *argv[1:])
    assert code == 1
    assert report == {**expected, "N_X": expected["N_X"] + 1,
                      "consistency": {**expected["consistency"],
                                      "n_x_matches_enumeration": False}}


def test_summary_goes_to_stderr(capsys, d22_path):
    code = main(["classify", d22_path])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)  # stdout is pure JSON
    assert "type III" in captured.err


@pytest.mark.parametrize("command", [["classify"], ["validate"], ["fan", "build"]])
def test_closed_stdout_exits_2_without_traceback(d22_path, command):
    # No process holds the read end, so the report's first write fails (EPIPE).
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(kummer_kulikov.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kummer_kulikov.cli", *command, d22_path],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


# -- the command line -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command table replaced: the reference its
    grammar is checked against."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true")
    p = argparse.ArgumentParser(prog="kummer-kulikov")
    sub = p.add_subparsers(dest="command", required=True)

    def add(group, name, handler, path=True):
        sp = group.add_parser(name, parents=[common])
        if path:
            sp.add_argument("path")
        sp.set_defaults(func=handler)
        return sp

    add(sub, "validate", cli.cmd_validate)
    add(sub, "classify", cli.cmd_report)
    add(sub, "base-change", cli.cmd_base_change).add_argument(
        "--e", type=cli._positive_int, required=True)
    fsub = sub.add_parser("fan").add_subparsers(dest="fan_command", required=True)
    add(fsub, "build", cli.cmd_fan_build)
    add(fsub, "check", cli.cmd_fan_check)
    csub = sub.add_parser("complex").add_subparsers(dest="complex_command", required=True)
    add(csub, "dual", cli.cmd_complex)
    add(csub, "quotient", cli.cmd_complex)
    group = add(sub, "monodromy", cli.cmd_monodromy, path=False).add_mutually_exclusive_group(
        required=True)
    group.add_argument("--toric-rank", type=int, default=None)
    group.add_argument("--matrix", default=None)
    add(sub, "report", cli.cmd_report).add_argument(
        "--base-change-max", type=cli._positive_int, default=None)
    return p


FIELDS = ["path", "quiet", "e", "toric_rank", "matrix", "base_change_max",
          "complex_command", "func"]
COMMANDS = [["validate"], ["classify"], ["base-change"], ["fan", "build"], ["fan", "check"],
            ["complex", "dual"], ["complex", "quotient"], ["monodromy"], ["report"]]
WORDS = sorted({w for words in COMMANDS for w in words})
OPTIONS = {"base-change": ["--e"], "monodromy": ["--toric-rank", "--matrix"],
           "report": ["--base-change-max"], "": ["--quiet"]}
VALUES = st.sampled_from(["3", "-1", "0", "", "x", "0x10", "1_0"])
ANY_OPTION = st.sampled_from([o for names in OPTIONS.values() for o in names])


def spellings(option):
    """option and its prefixes: no two options share a first letter, so each
    prefix is unique among any command's options."""
    return st.sampled_from([option[:n] for n in range(3, len(option) + 1)])


def with_value(option):
    """option, or a prefix of it, and a value, as two tokens or joined by "="."""
    return st.tuples(spellings(option), VALUES, st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])


HELP = ["-h", "--help", "--he"]
STRAYS = st.one_of(
    st.sampled_from([["data.json"], ["-"]]),
    ANY_OPTION.flatmap(with_value),
    ANY_OPTION.flatmap(spellings).map(lambda spelling: [spelling]),
    st.sampled_from([*WORDS, "--bogus", "--bogus=3", "-x", *HELP]).map(lambda t: [t]))


@st.composite
def command_lines(draw):
    """Command words (or a wrong or partial few), then, in any order, mostly a
    well-formed rest: paths, the command's options with values and --quiet
    or a prefix of it.  One time in two, one or two stray chunks join them:
    a path, a lone "-", a command word, any option with or without a value,
    an unknown or a help flag."""
    words = draw(st.sampled_from([*COMMANDS, [], ["fan"], ["complex"], ["x"]]))
    options = OPTIONS.get(" ".join(words), [])
    paths = draw(st.sampled_from([0, 0, 0, 1] if words == ["monodromy"] else [1, 1, 1, 0, 2]))
    chunks = [[draw(st.sampled_from(["data.json", "-"]))] for _ in range(paths)]
    if options:
        chunks += map(draw, map(with_value, draw(
            st.lists(st.sampled_from(options), min_size=1, max_size=2))))
    if draw(st.booleans()):
        chunks.append([draw(spellings("--quiet"))])
    if draw(st.booleans()):
        chunks += draw(st.lists(STRAYS, min_size=1, max_size=2))
    return words + [t for c in draw(st.permutations(chunks)) for t in c]


def outcome(parse, argv):
    """The fields parse reads from argv, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return exc.code
    return {field: getattr(args, field, None) for field in FIELDS}


@example(["base-change", "data.json", "--e", "-1"])
@example(["base-change", "--quiet", "data.json", "--e=3", "--e", "1_0"])
@example(["monodromy", "--t", "2", "--matrix", "-"])
@example(["monodromy", "--m=", "--q"])
@example(["monodromy", "--toric-rank", "-1"])
@example(["monodromy", "--matrix", "--quiet"])
@example(["monodromy", "--toric-rank=1", "--matrix"])
@example(["report", "-", "--base=3"])
@example(["complex", "quotient", "--quiet=", "data.json"])
@settings(max_examples=500)
@given(command_lines())
def test_the_command_table_reads_what_argparse_reads(argv):
    ours = outcome(cli.parse_args, argv)
    if set(argv) & set(HELP):
        assert ours == 0
    else:
        assert ours == outcome(build_parser().parse_args, argv)
        assert isinstance(ours, dict) or ours == 2


@pytest.mark.parametrize("argv", [["--help"], ["base-change", "--help"]], ids=" ".join)
def test_help_writes_every_command_line_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert len(lines.splitlines()) == 9
    assert all(line in out for line in lines.splitlines())


@pytest.mark.parametrize("argv", [[], ["fan"], ["monodromy"]], ids=["none", "fan", "monodromy"])
def test_a_bad_command_line_writes_usage_to_stderr_and_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and "kummer-kulikov: error: " in captured.err
