"""The demos' stdout, byte for byte.

Each script under ``demos/`` runs in a fresh interpreter under
``python -W error`` with ``PYTHONPATH=src``, as a user runs it, and its
stdout must equal ``tests/data/demos/<stem>.txt``.

To rewrite the expected files after an intended change of output:

    PYTHONPATH=src python tests/test_demos.py --write
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUT = Path(__file__).parent / "data" / "demos"


def run_demo(path: Path) -> str:
    """The demo's stdout; fails on a nonzero exit, a warning included."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-W", "error", str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    expected = (OUT / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert run_demo(demo) == expected


def test_demo_pins_complete():
    assert sorted(p.stem for p in OUT.glob("*.txt")) == [p.stem for p in DEMOS]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_demos.py --write")
    OUT.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (OUT / f"{demo.stem}.txt").write_text(run_demo(demo), encoding="utf-8")
