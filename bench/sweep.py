"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--workloads classify,counts] [--trace 0]
                           [--out summary.json]
    python3 bench/sweep.py --compare before.json after.json

Each run is ``bench/run.py`` in its own process with the ``run_seconds`` of
``BENCHMARK.json``.  The summary gives, per workload and metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and marks spreads at or above a third of the metric's
bound.  ``--compare`` reports, per workload and metric, the change of the
median between two summaries and whether it is worse than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    known = re.search(r"known_defect_mismatches=(\d+)", proc.stdout)
    result["known_defect_mismatches"] = int(known.group(1)) if known else 0
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def sweep(workloads: list[str], seeds: list[int], trace: int) -> dict:
    cfg = config()
    out: dict = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, cfg["run_seconds"], trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']} "
                  f"known_defect_mismatches={runs[-1]['known_defect_mismatches']}",
                  file=sys.stderr)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        out[workload] = {"seeds": seeds, "trace": trace,
                         "correct": all(r["correct"] for r in runs),
                         "failed": [r["failed"] for r in runs],
                         "attempted": [r["attempted"] for r in runs],
                         "known_defect_mismatches": [r["known_defect_mismatches"]
                                                     for r in runs],
                         "metrics": metrics}
    return {"machine": machine(), "run_seconds": cfg["run_seconds"],
            "src_lines": run.source_lines(), "workloads": out}


def dump(summary: dict) -> str:
    """Indented JSON with each list of numbers on one line."""
    text = json.dumps(summary, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def report(summary: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in config()["end_to_end"]}
    for workload, row in summary["workloads"].items():
        print(f"{workload}: correct={row['correct']} failed={row['failed']}")
        for name, s in row["metrics"].items():
            bound = bounds.get(name)
            flag = ("  <-- spread >= bound/3" if bound and name != "setup_s"
                    and s["spread"] >= bound / 3 else "")
            print(f"  {name:45s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.3f}{flag}")


def compare(before: dict, after: dict) -> int:
    cfg = config()
    better = {m["name"]: m["better"] for m in cfg["end_to_end"] + cfg["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    worse_than_bound = 0
    before, after = before["workloads"], after["workloads"]
    for workload in before:
        print(workload)
        for name, s in before[workload]["metrics"].items():
            if workload not in after or name not in after[workload]["metrics"]:
                continue
            a, b = s["median"], after[workload]["metrics"][name]["median"]
            change = (b - a) / a if a else 0.0
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounds and worse > bounds[name]:
                verdict = "  WORSE THAN BOUND"
                worse_than_bound += 1
            print(f"  {name:45s} {a:12.6g} -> {b:12.6g}  ({change:+.1%}){verdict}")
    return 1 if worse_than_bound else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(Path(p).read_text(encoding="utf-8"))
                         for p in args.compare)
        return compare(before, after)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config()["workloads"]])
    summary = sweep(workloads, seeds_from(args.seeds), args.trace)
    report(summary)
    if args.out:
        Path(args.out).write_text(dump(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
