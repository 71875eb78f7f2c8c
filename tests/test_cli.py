import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kummer_kulikov
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


def test_report_with_base_change_table(capsys, d4_path):
    code, report = run(capsys, "report", d4_path, "--base-change-max", "4")
    assert code == 0
    assert [row["N_L"] for row in report["base_change"]] == [3, 5, 7, 9]
    assert all(row["consistent"] for row in report["base_change"])
    code, report = run(capsys, "report", d4_path)
    assert "base_change" not in report


def test_reports_are_deterministic(capsys, d22_path):
    _, first = run(capsys, "classify", d22_path)
    out1 = json.dumps(first, sort_keys=True)
    _, second = run(capsys, "classify", d22_path)
    assert json.dumps(second, sort_keys=True) == out1


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
