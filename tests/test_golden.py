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
    for d, flags in [("d_diag22", ["--window", "1"]),
                     ("d_diag22", ["--window", "1", "--unsafe"]),
                     ("d_diag22", ["--window", "10"]),
                     ("d_4", ["--window", "1", "--unsafe"])]:
        cases[f"classify__{d}__" + "_".join(f.lstrip("-") for f in flags)] = \
            ["classify", d, *flags]
    for d in ("d_rank0", "d_4", "d_diag22", "d_I_odd", "d_4224_sheared"):
        cases[f"fan_build__{d}"] = ["fan", "build", d]
    for f in FANS:
        cases[f"fan_check__{f}"] = ["fan", "check", f]
        cases[f"fan_check__{f}__window_1"] = ["fan", "check", f, "--window", "1"]
        cases[f"fan_check__{f}__window_1_unsafe"] = \
            ["fan", "check", f, "--window", "1", "--unsafe"]
        cases[f"fan_check__{f}__window_30"] = ["fan", "check", f, "--window", "30"]
        cases[f"complex_dual__{f}"] = ["complex", "dual", f]
        cases[f"complex_quotient__{f}"] = ["complex", "quotient", f]
    for t in ("0", "1", "2"):
        cases[f"monodromy__toric_rank_{t}"] = ["monodromy", "--toric-rank", t]
    for m in MATRICES:
        cases[f"monodromy__{m}"] = ["monodromy", "--matrix", m]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> str:
    """Run one command in-process; return ``exit N`` and its stdout."""
    argv = [str(INPUTS / f"{a}.json") if a in (*DATA, *FANS, *MATRICES) else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--quiet"])
    return f"exit {code}\n" + buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (OUT / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[name]) == expected


def test_golden_corpus_complete():
    assert sorted(p.stem for p in OUT.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    OUT.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        (OUT / f"{name}.txt").write_text(run_case(argv), encoding="utf-8")
