"""Golden CLI corpus: stdout and exit code of fixed commands, byte for byte.

The expected files under ``tests/data/golden/out`` pin the reports of
``classify``, ``report``, ``fan build``, ``fan check``, ``complex`` and
``monodromy`` on a fixed set of data, fan and matrix documents, so that code can be removed or made
faster while the output stays the same.  Each file holds ``exit N`` on its
first line, followed by the command's stdout.

To rewrite the expected files after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from conftest import certify_loop, scan_h_freeness, scan_property_d
from kummer_kulikov import fan
from kummer_kulikov.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = GOLDEN / "inputs"
OUT = GOLDEN / "out"

DATA = sorted(p.stem for p in INPUTS.glob("d_*.json"))
FANS = sorted(p.stem for p in INPUTS.glob("f_*.json"))
MATRICES = sorted(p.stem for p in INPUTS.glob("m_*.json"))


def _cases() -> dict[str, list[str]]:
    cases = {}
    for d in DATA:
        cases[f"classify__{d}"] = ["classify", d]
        cases[f"report__{d}__bc3"] = ["report", d, "--base-change-max", "3"]
    for d in ("d_rank0", "d_4", "d_diag22", "d_I_odd", "d_4224_sheared"):
        cases[f"fan_build__{d}"] = ["fan", "build", d]
    for f in FANS:
        cases[f"fan_check__{f}"] = ["fan", "check", f]
        cases[f"complex_dual__{f}"] = ["complex", "dual", f]
        cases[f"complex_quotient__{f}"] = ["complex", "quotient", f]
    for t in ("0", "1", "2"):
        cases[f"monodromy__toric_rank_{t}"] = ["monodromy", "--toric-rank", t]
    for m in MATRICES:
        cases[f"monodromy__{m}"] = ["monodromy", "--matrix", m]
    return cases


CASES = _cases()

# Base cases rerun with property (d) and H-freeness checked by the full-window
# scans up to a fixed reach, and classify's ν found by the certify loop that
# ``auto_scale`` replaced: each must print its base case's expected file.
FULL_WINDOW = {f"fan_check__{f}__window_30": (f"fan_check__{f}", 30) for f in FANS}
FULL_WINDOW["classify__d_diag22__window_10"] = ("classify__d_diag22", 10)


def run_case(argv: list[str]) -> str:
    """Run one command in-process; return ``exit N`` and its stdout."""
    argv = [str(INPUTS / f"{a}.json") if a in (*DATA, *FANS, *MATRICES) else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--quiet"])
    return f"exit {code}\n" + buf.getvalue()


@pytest.mark.parametrize("name", sorted([*CASES, *FULL_WINDOW]))
def test_golden_output(name, monkeypatch):
    base, window = FULL_WINDOW.get(name, (name, None))
    if window is not None:
        monkeypatch.setattr(fan, "check_property_d", lambda t: scan_property_d(t, window))
        monkeypatch.setattr(fan, "check_h_freeness", lambda t: scan_h_freeness(t, window))
        monkeypatch.setattr(fan, "auto_scale", certify_loop)
    expected = (OUT / f"{base}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[base]) == expected


def test_golden_corpus_complete():
    assert sorted(p.stem for p in OUT.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    OUT.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        (OUT / f"{name}.txt").write_text(run_case(argv), encoding="utf-8")
