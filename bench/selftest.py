"""Self-test of the benchmark, run from the repository root:

    python3 bench/selftest.py

Checks that one seed generates byte-identical inputs twice, that a wrong
expected value or an escaping exception counts as a failure (not a crash
and not a pass), that a known-defect item's mismatch is recorded apart
from the failures, and that ``BENCHMARK.json`` names exactly the metrics
``run.py`` reports.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import run
import workloads


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def same_seed_same_inputs() -> None:
    for w in workloads.WORKLOADS:
        first = workloads.generate(w, 7).canonical_bytes()
        check(first == workloads.generate(w, 7).canonical_bytes(),
              f"{w}: seed 7 generated different inputs twice")
        check(first != workloads.generate(w, 8).canonical_bytes(),
              f"{w}: seeds 7 and 8 generated the same inputs")


def wrong_expectation_is_a_failure() -> None:
    sys.path.insert(0, str(run.SRC))
    workdir = run.OUT / "selftest"
    try:
        plan, runners = run.set_up("counts", 1, workdir)
        index = next(i for i, it in enumerate(plan.items)
                     if it.label.startswith("base-change") and it.expect_code == 0)
        item, runner = plan.items[index], runners[index]
        code, output = run.call(runner)

        tally = run.Tally()
        tally.record(item, code, output, 0.0)
        check(not tally.failures, f"{item.label}: the correct expectation failed")

        wrong = copy.deepcopy(item)
        wrong.expect["N_L"] += 1
        tally.record(wrong, code, output, 0.0)
        check(len(tally.failures) == 1, "a wrong expected value was not counted")

        def broken():
            raise RuntimeError("deliberate")
        tally.record(item, *run.call(broken), 0.0)
        check(len(tally.failures) == 2, "an escaping exception was not counted")

        defect = next(i for i, it in enumerate(plan.items) if it.known_defect)
        tally.record(plan.items[defect], *run.call(runners[defect]), 0.0)
        check(len(tally.failures) == 2, "a known-defect mismatch counted as a failure")
        check(len(tally.known_defects) == 1, "a known-defect mismatch was not recorded")
        check(tally.attempted == 4, "attempted items miscounted")
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)


def config_matches_report() -> None:
    cfg = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in cfg["end_to_end"]}
    check(e2e == run.END_TO_END, "end_to_end metrics differ from run.END_TO_END")
    layer = [m["name"] for m in cfg["per_layer"]]
    check(layer == run.PER_LAYER, "per_layer metrics differ from run.PER_LAYER")
    check(all(m["unit"] == run.unit_of(m["name"]) for m in cfg["per_layer"]),
          "per_layer units differ")
    check([w["name"] for w in cfg["workloads"]] == list(workloads.WORKLOADS),
          "workloads differ")


if __name__ == "__main__":
    same_seed_same_inputs()
    wrong_expectation_is_a_failure()
    config_matches_report()
    print("selftest: ok")
