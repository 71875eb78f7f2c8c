"""Benchmark of the certified-invariant pipeline (standard library only).

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process and one thread drive the
package in a closed loop with one client: each item is an in-process
``cli.main([...])`` call or a public library call, started when the
previous one has returned.  A run sets up several times (package import,
input generation from the seed, writing the JSON documents, a warm-up),
then repeats whole passes over the workload's fixed input set for
``--seconds`` seconds and at least the workload's minimum number of
passes, and checks every output against the closed forms in ``oracle``.

Every timed call (item, set-up, cold start) is bracketed by a fixed
pure-Python kernel, and the reported times are scaled to a fixed machine
speed (see ``reference``); the raw wall times are printed as a comment
line before the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer calls, inclusive and self
seconds per pass, and the tracing overhead; the spans of the last traced
pass are written to ``.bench_out/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Items marked as known defects (``fan build`` on three invalid data, which
the package certifies instead of refusing) are run and checked like every
other item, but their mismatches are reported on a comment line and as
``cli.known_defect_mismatches``, not in ``failed``: ``failed`` counts only
unexpected mismatches and exceptions, and any of those makes ``correct``
false.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import workloads
from tracing import LAYERS, PACKAGE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 11
STARTUP_PROBES = 25
STARTUP_DATUM = {"rank": 2, "phi": [[1, 0], [0, 1]], "b": [[2, 0], [0, 2]]}
STARTUP_ITEM = workloads.Item("cold validate", 0, {"ok": True})

END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB", "cli_startup_ms": "ms"}
PER_LAYER = [
    "degeneration.validate.self_s",
    "degeneration.DegenerationData.pairing_matrix.calls",
    "degeneration.a_value.calls",
    "lattice.smith_normal_form.calls",
    "lattice.smith_normal_form.self_s",
    "lattice.IntMatrix.mul.calls",
    "lattice.IntMatrix.det.calls",
    "fan.auto_scale.s",
    "fan.auto_scale.nu_tried",
    "fan.PeriodicTriangulation.with_lattice.s",
    "fan.classes_developed",
    "fan.certify.calls",
    "fan.certify.s",
    "fan.certify.self_s",
    "fan.check_property_d.s",
    "fan.check_h_freeness.s",
    "fan.hulls_intersect.calls",
    "fan.is_unimodular.calls",
    "fan.is_unimodular.s",
    "fan.fan_from_json.s",
    "complexes.dual_complex.s",
    "complexes.h_quotient.s",
    "complexes.classify_kummer_type.s",
    "complexes.component_counts.s",
    "complexes.base_change_counts.s",
    "monodromy.RationalOperator.__mul__.calls",
    "monodromy.RationalOperator.is_unipotent.s",
    "monodromy.log_unipotent.s",
    "monodromy.exp_nilpotent.s",
    "monodromy.nilpotency_index.s",
    "monodromy.unipotent_or_negative.s",
    "monodromy.two_torsion_trivial.s",
    "cli.main.self_s",
    *[f"{layer}.{m}" for layer in LAYERS for m in ("self_s", "errors")],
    "cli.refusals",
    "cli.known_defect_mismatches",
    "trace.overhead_s",
    "trace.overhead_pct",
]


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_pct"):
        return "%"
    return "s" if metric.endswith(("_s", ".s")) else "count"


# -- set-up --------------------------------------------------------------------------

def import_package():
    """Import the package afresh, so every set-up pays for the import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return (importlib.import_module(f"{PACKAGE}.cli"),
            importlib.import_module(f"{PACKAGE}.monodromy"))


def cli_runner(cli, argv: list[str]):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue()
    return run


def library_runner(monodromy, item: workloads.Item):
    op, inputs = item.op, item.inputs
    if op == "roundtrip":
        sigma = monodromy.RationalOperator(inputs["sigma"])
        n_op = inputs["N"] and monodromy.RationalOperator(inputs["N"])

        def run():
            log = monodromy.log_unipotent(sigma)
            back = monodromy.exp_nilpotent(log)
            payload = {"exp_log_is_sigma": back.entries == sigma.entries}
            if n_op:
                payload["log_is_N"] = log.entries == n_op.entries
            return 0, payload
    elif op == "sign":
        f = monodromy.RationalOperator(inputs["f"])

        def run():
            return 0, {"sign": monodromy.unipotent_or_negative(f)}
    elif op == "perm":
        perm = monodromy.TwoTorsionPermutation(tuple(inputs["perm"]))

        def run():
            return 0, {"trivial": monodromy.two_torsion_trivial(perm)}
    else:
        raise ValueError(f"unknown library operation {op!r}")
    return run


def set_up(workload: str, seed: int, workdir: Path):
    cli, monodromy = import_package()
    plan = workloads.generate(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = {}
    for name, doc in plan.docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    runners = []
    for item in plan.items:
        if item.op is None:
            argv = [*item.command, paths[item.doc], *item.extra, "--quiet"]
            runners.append(cli_runner(cli, argv))
        else:
            runners.append(library_runner(monodromy, item))
    for i in plan.warmup:
        call(runners[i])
    return plan, runners


# -- running and checking -------------------------------------------------------------

def call(runner):
    """Run one item; an exception escaping it is a result, not a crash."""
    try:
        return runner()
    except Exception as exc:  # noqa: BLE001 - recorded and counted as a failure
        return None, f"{type(exc).__name__}: {exc}"


_MISSING = object()


def lookup(payload, path: str):
    """Follow a dotted path; in a list of named records, a key picks the
    record with that name."""
    node = payload
    for key in path.rstrip("#").split("."):
        if isinstance(node, list):
            node = {r.get("name"): r for r in node if isinstance(r, dict)}
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return len(node) if path.endswith("#") else node


def problems(item: workloads.Item, code, output) -> list[str]:
    """Differences between an item's result and its expected values."""
    if code is None:
        return [f"unexpected exception {output}"]
    found = []
    if code != item.expect_code:
        found.append(f"exit code {code}, expected {item.expect_code}")
    payload = output
    if isinstance(output, str):
        try:
            payload = json.loads(output) if output.strip() else None
        except json.JSONDecodeError:
            return found + ["output is not JSON"]
    for path, want in item.expect.items():
        got = lookup(payload, path)
        if isinstance(want, bool) and isinstance(got, list):
            got = bool(got)
        if got is _MISSING or got != want:
            found.append(f"{path} = {'missing' if got is _MISSING else repr(got)}, "
                         f"expected {want!r}")
    return found


class Tally:
    """Attempted items, failures, known-defect mismatches, refusals, and per
    timed item its wall seconds and the reference kernel's seconds around it.

    A mismatch on an item marked ``known_defect`` is kept apart from the
    failures: it is reported on its own line and as the per-layer metric
    ``cli.known_defect_mismatches``, and it does not count in ``failed``.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[workloads.Item, list[str]]] = []
        self.known_defects: list[tuple[workloads.Item, list[str]]] = []
        self.refusals = 0
        self.samples: list[float] = []
        self.kernels: list[float] = []

    def record(self, item: workloads.Item, code, output,
               seconds: float | None = None, kernel_s: float | None = None) -> None:
        self.attempted += 1
        found = problems(item, code, output)
        if found:
            (self.known_defects if item.known_defect else self.failures).append((item, found))
        elif item.expect_code != 0:
            self.refusals += 1
        if seconds is not None:
            self.samples.append(seconds)
            self.kernels.append(kernel_s)


def run_pass(plan, runners, tally: Tally, tracer=None, between=None) -> tuple[float, float]:
    """One pass over the input set; returns the summed item seconds, raw
    and at the reference speed.  ``between`` runs after each item, outside
    its timing."""
    raw = scaled = 0.0
    for index, (item, runner) in enumerate(zip(plan.items, runners)):
        if tracer is not None:
            tracer.item = index
        (code, output), seconds, kernel_s = reference.bracketed(lambda: call(runner))
        raw += seconds
        scaled += reference.scale(seconds, kernel_s)
        tally.record(item, code, output, seconds, kernel_s)
        if between is not None:
            between()
    return raw, scaled


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def cold_start(path: Path, tally: Tally) -> tuple[float, float]:
    """One cold `python -m kummer_kulikov.cli validate`: wall seconds and
    kernel seconds around it."""
    proc, seconds, kernel_s = reference.bracketed(lambda: subprocess.run(
        [sys.executable, "-m", f"{PACKAGE}.cli", "validate", str(path), "--quiet"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60))
    tally.record(STARTUP_ITEM, proc.returncode, proc.stdout)
    return seconds, kernel_s


def source_lines() -> dict[str, int]:
    """Line count of each module under src/ (informational, not gated)."""
    return {p.name: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / PACKAGE).glob("*.py"))}


# -- the two kinds of run ----------------------------------------------------------------

def summary(samples: list[float], startup: list[float], p: int) -> dict:
    return {
        "items_per_s": len(samples) / sum(samples),
        "item_p50_ms": statistics.median(samples) * 1000,
        "item_tail_ms": percentile(samples, p) * 1000,
        "cli_startup_ms": statistics.median(startup) * 1000,
    }


def measure(plan, runners, seconds: float, tally: Tally, workdir: Path):
    """Timed passes, with the cold-start probes spread evenly over the
    window.  Returns the metrics at reference speed, the raw ones and a note."""
    datum = workdir / "startup.json"
    datum.write_text(json.dumps(STARTUP_DATUM))
    startup: list[tuple[float, float]] = []   # (wall seconds, kernel seconds)
    start = perf_counter()

    def probe_when_due():
        due = start + (len(startup) + 0.5) * seconds / STARTUP_PROBES
        if len(startup) < STARTUP_PROBES and perf_counter() >= due:
            startup.append(cold_start(datum, tally))

    passes = 0
    while passes < plan.min_passes or perf_counter() - start < seconds:
        run_pass(plan, runners, tally, between=probe_when_due)
        passes += 1
    while len(startup) < STARTUP_PROBES:
        startup.append(cold_start(datum, tally))
    p = plan.tail_percentile()
    metrics = summary([reference.scale(s, k) for s, k in zip(tally.samples, tally.kernels)],
                      [reference.scale(s, k) for s, k in startup], p)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = summary(tally.samples, [s for s, _ in startup], p)
    raw["kernel_ms"] = statistics.median(tally.kernels) * 1000
    note = (f"passes={passes} items={len(tally.samples)} "
            f"item_tail_ms is p{p} of {len(tally.samples)} samples")
    return metrics, raw, note


def measure_traced(plan, runners, seconds: float, tally: Tally) -> tuple[dict, str]:
    """Alternating untraced and traced passes.  Span seconds of a traced
    pass are scaled by that pass's ratio of reference-speed to raw time."""
    tracer = Tracer()
    plain, traced = [], []
    per_name: dict[str, dict[str, float]] = {}
    counts, errors = Counter(), Counter()
    spans: list = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(run_pass(plan, runners, tally)[1])
        tracer.install()
        try:
            raw, scaled = run_pass(plan, runners, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(scaled)
        spans, pass_counts, pass_errors = tracer.take_pass()
        counts.update(pass_counts)
        errors.update(pass_errors)
        for name, row in Tracer.aggregate(spans).items():
            acc = per_name.setdefault(name, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v if k == "calls" else v * scaled / raw
    n = len(traced)
    values = {f"{name}.{k}": v / n for name, row in per_name.items() for k, v in row.items()}
    values.update({name: v / n for name, v in counts.items()})
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(row["self_s"] for name, row in per_name.items()
                                        if name.startswith(layer + ".")) / n
        values[f"{layer}.errors"] = sum(v for name, v in errors.items()
                                        if name.startswith(layer + ".")) / n
    values["cli.refusals"] = tally.refusals / (len(plain) + n)
    values["cli.known_defect_mismatches"] = len(tally.known_defects) / (len(plain) + n)
    overhead = statistics.median(traced) - statistics.median(plain)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100 * overhead / statistics.median(plain)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{plan.workload}-seed{plan.seed}.tsv", "w", encoding="utf-8") as fh:
        fh.write("name\titem\tstart_s\tend_s\tparent\n")
        for name, item, s, e, parent in spans:
            fh.write(f"{name}\t{item}\t{s:.9f}\t{e:.9f}\t{parent}\n")
    metrics = {m: values.get(m, 0) for m in PER_LAYER}
    note = (f"untraced passes={len(plain)} traced passes={n} "
            f"overhead={values['trace.overhead_pct']:.1f}% per pass")
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: no package sources at {SRC / PACKAGE}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"docs-{os.getpid()}"
    raw: dict[str, float] = {}
    try:
        setups = []   # (wall seconds, kernel seconds)
        for _ in range(SETUPS):
            (plan, runners), *timing = reference.bracketed(
                lambda: set_up(args.workload, args.seed, workdir))
            setups.append(timing)
        tally = Tally()
        if args.trace:
            metrics, note = measure_traced(plan, runners, args.seconds, tally)
        else:
            metrics, raw, note = measure(plan, runners, args.seconds, tally, workdir)
            metrics["setup_s"] = statistics.median(reference.scale(s, k) for s, k in setups)
            raw["setup_s"] = statistics.median(s for s, _ in setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, known = len(tally.failures), len(tally.known_defects)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {note}")
    print(f"# attempted={tally.attempted} failed={failed} "
          f"failed_ratio={failed / tally.attempted:.6f} "
          f"known_defect_mismatches={known} "
          f"known_defect_ratio={known / tally.attempted:.6f} "
          f"expected_refusals={tally.refusals}")
    by_label: dict[str, list] = {}
    for item, found in tally.failures + tally.known_defects:
        by_label.setdefault(item.label, [item, found, 0])[2] += 1
    for item, found, times in by_label.values():
        tag = "known defect" if item.known_defect else "FAILED"
        print(f"# {tag} ({times}x): {item.label}: {'; '.join(found)}")
    lines = source_lines()
    print("# src lines: " + " ".join(f"{k}={v}" for k, v in lines.items())
          + f" total={sum(lines.values())}")
    ordered = {m: metrics[m] for m in (END_TO_END if not args.trace else PER_LAYER)}
    for name, value in ordered.items():
        print(f"# {name} = {value:.6g} {unit_of(name)}")
    if raw:
        print("# raw wall times, before scaling to the reference speed: "
              + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in ordered.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
