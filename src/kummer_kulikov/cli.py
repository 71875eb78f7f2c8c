"""Batch front end: JSON in, machine-readable reports out.

Exit codes: 0 success, 1 semantic failure (a named check fails), 2 I/O or
schema failure.  Reports go to stdout as deterministic JSON; a short
human-readable summary goes to stderr unless --quiet is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import complexes, degeneration, fan, lattice, monodromy
from .errors import KummerDegenerationError, SchemaError


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(report: dict, summary: list[str], quiet: bool) -> None:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not quiet:
        for line in summary:
            sys.stderr.write(line + "\n")


def _load_data(path: str) -> degeneration.DegenerationData:
    return degeneration.from_json_dict(_load_json(path))


def _certificates_payload(certs: dict) -> dict:
    keys = ("semistable", "unimodular", "property_d", "h_free", "polarization",
            "vertices_complete")
    return {k: bool(certs.get(k, False)) for k in keys}


def _axiom_refusal(report: degeneration.ValidationReport) -> dict | None:
    """Refusal payload for data that fail an axiom of degeneration data."""
    if report.ok:
        return None
    return {"failed_check": report.failed_names()[0], "axioms": _axioms_payload(report)}


def _refuse_unless_kummer_ready(d) -> dict | None:
    """Named-check gate shared by the Kummer-side commands."""
    report = degeneration.validate(d)
    refusal = _axiom_refusal(report)
    if refusal is not None:
        return refusal
    if not degeneration.is_even(d):
        return {"failed_check": "even_pairing",
                "detail": "b has an odd entry; Kummer-side invariants need an even pairing"}
    if not report.h_invariant:
        return {"failed_check": "h_invariant",
                "detail": "a is not inversion-invariant (2 a(e_i) != M_ii)"}
    return None


def _axioms_payload(report: degeneration.ValidationReport) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks]


def _classify_payload(d) -> tuple[dict, list[str]]:
    nu, tri = fan.auto_scale(d)
    certs = tri.certificates
    delta_a, act = complexes.dual_complex(tri)
    delta_x = complexes.h_quotient(delta_a, act)
    counts = complexes.component_counts(d)
    ktype = complexes.classify_kummer_type(d, delta_x)

    n_std = monodromy.standard_N(d.rank)
    n_x = monodromy.kummer_monodromy(n_std)
    idx_n = monodromy.nilpotency_index(n_std)
    idx_nx = monodromy.nilpotency_index(n_x)
    type_via_monodromy = monodromy.type_from_index(idx_nx)

    chi_a = complexes.euler_characteristic(delta_a)
    chi_x = complexes.euler_characteristic(delta_x)
    expected_chi_a = 1 if d.rank == 0 else 0
    expected_chi_x = {0: 1, 1: 1, 2: 2}[d.rank]

    divisors = [] if d.rank == 0 else list(lattice.component_group(d.b).divisors)

    report = {
        "input": degeneration.to_json_dict(d),
        "toric_rank": d.rank,
        "component_group": {"divisors": divisors, "order": counts.N_A},
        "N_A": counts.N_A,
        "N_X": counts.N_X,
        "kulikov_type": ktype.value,
        "nu": nu,
        "certificates": _certificates_payload(certs),
        "delta_A": {"cells": [delta_a.num(k) for k in range(3)], "chi": chi_a},
        "delta_X": {"cells": [delta_x.num(k) for k in range(3)], "chi": chi_x},
        "monodromy": {
            "nilpotency_index_N": idx_n,
            "nilpotency_index_N_X": idx_nx,
            "type": type_via_monodromy.value,
        },
        "consistency": {
            "n_a_matches_enumeration": counts.N_A == delta_a.num(0),
            "n_x_matches_enumeration": counts.N_X == delta_x.num(0),
            "type_matches_monodromy": ktype == type_via_monodromy,
            "chi_delta_A": chi_a == expected_chi_a,
            "chi_delta_X": chi_x == expected_chi_x,
        },
    }
    summary = [
        f"toric rank {d.rank}: type {ktype.value}, N_A = {counts.N_A}, N_X = {counts.N_X}",
        f"nu = {nu}; certificates: " + ", ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in report["certificates"].items()),
        f"delta_A cells {report['delta_A']['cells']} (chi {chi_a}); "
        f"delta_X cells {report['delta_X']['cells']} (chi {chi_x})",
    ]
    return report, summary


# -- command handlers -----------------------------------------------------------

def cmd_validate(args) -> int:
    d = _load_data(args.path)
    report = degeneration.validate(d)
    payload = {
        "axioms": _axioms_payload(report),
        "h_invariant": report.h_invariant,
        "even_pairing": degeneration.is_even(d),
        "ok": report.ok,
    }
    summary = [("all axioms pass" if report.ok else
                "failed: " + ", ".join(report.failed_names()))]
    _emit(payload, summary, args.quiet)
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    d = _load_data(args.path)
    refusal = _refuse_unless_kummer_ready(d)
    if refusal is not None:
        _emit(refusal, [f"refused: {refusal['failed_check']}"], args.quiet)
        return 1
    report, summary = _classify_payload(d)
    _emit(report, summary, args.quiet)
    return 0 if all(report["consistency"].values()) else 1


def cmd_base_change(args) -> int:
    d = _load_data(args.path)
    refusal = _refuse_unless_kummer_ready(d)
    if refusal is not None:
        _emit(refusal, [f"refused: {refusal['failed_check']}"], args.quiet)
        return 1
    counts = complexes.base_change_counts(d, args.e)
    report = {
        "e": args.e,
        "N": counts.N,
        "N_L": counts.N_L,
        "formula_N_L": counts.formula_N_L,
        "consistent": counts.N_L == counts.formula_N_L,
    }
    _emit(report, [f"e = {args.e}: N = {counts.N}, N_L = {counts.N_L} (both routes agree)"],
          args.quiet)
    return 0


def cmd_fan_build(args) -> int:
    d = _load_data(args.path)
    refusal = _axiom_refusal(degeneration.validate(d))
    if refusal is not None:
        _emit(refusal, [f"refused: {refusal['failed_check']}"], args.quiet)
        return 1
    nu, tri = fan.auto_scale(d)
    report = {"nu": nu, "fan": fan.fan_to_json(tri),
              "certificates": _certificates_payload(tri.certificates)}
    _emit(report, [f"nu = {nu}; {len(tri.simplices)} simplex classes"], args.quiet)
    return 0


def cmd_fan_check(args) -> int:
    tri = fan.fan_from_json(_load_json(args.path))
    certs = fan.certify(tri)
    report = {
        "certificates": _certificates_payload(certs),
        "violations": {
            "property_d": [{"translate": list(lam), "simplex": [list(v) for v in s.vertices]}
                           for lam, s in tri.violations["property_d"]],
            "h_free": [{"y": list(y), "simplex": [list(v) for v in s.vertices]}
                       for y, s in tri.violations["h_free"]],
        },
    }
    core_ok = all(certs[k] for k in ("semistable", "unimodular", "property_d", "h_free"))
    _emit(report, ["all checks pass" if core_ok else "certification failed"], args.quiet)
    return 0 if core_ok else 1


def _certified_complexes(path: str):
    tri = fan.fan_from_json(_load_json(path))
    certs = fan.certify(tri)
    needed = ("semistable", "unimodular", "property_d")
    failing = [k for k in needed if not certs[k]]
    if failing:
        return None, failing
    delta_a, act = complexes.dual_complex(tri)
    return (delta_a, act), None


def cmd_complex_dual(args) -> int:
    built, failing = _certified_complexes(args.path)
    if built is None:
        _emit({"failed_check": failing[0]}, [f"refused: {failing[0]}"], args.quiet)
        return 1
    delta_a, _ = built
    payload = complexes.complex_to_json(delta_a)
    payload["chi"] = complexes.euler_characteristic(delta_a)
    _emit(payload, [f"dual complex: {[delta_a.num(k) for k in range(3)]} cells"], args.quiet)
    return 0


def cmd_complex_quotient(args) -> int:
    built, failing = _certified_complexes(args.path)
    if built is None:
        _emit({"failed_check": failing[0]}, [f"refused: {failing[0]}"], args.quiet)
        return 1
    delta_a, act = built
    delta_x = complexes.h_quotient(delta_a, act)
    payload = complexes.complex_to_json(delta_x)
    payload["chi"] = complexes.euler_characteristic(delta_x)
    _emit(payload, [f"quotient complex: {[delta_x.num(k) for k in range(3)]} cells"],
          args.quiet)
    return 0


def cmd_monodromy(args) -> int:
    if args.toric_rank is not None:
        n_op = monodromy.standard_N(args.toric_rank)
    else:
        n_op = monodromy.operator_from_json(_load_json(args.matrix))
        if n_op.dim != 4:
            raise SchemaError(f"monodromy operator must be 4x4, got dim {n_op.dim}")
    rank = monodromy.toric_rank_from_N(n_op)
    idx = monodromy.nilpotency_index(monodromy.kummer_monodromy(n_op))
    ktype = monodromy.type_from_index(idx)
    report = {"toric_rank": rank, "nilpotency_index": idx, "kulikov_type": ktype.value}
    _emit(report, [f"rank {rank}: index {idx}, type {ktype.value}"], args.quiet)
    return 0


def cmd_report(args) -> int:
    d = _load_data(args.path)
    refusal = _refuse_unless_kummer_ready(d)
    if refusal is not None:
        _emit(refusal, [f"refused: {refusal['failed_check']}"], args.quiet)
        return 1
    report, summary = _classify_payload(d)
    if args.base_change_max is not None:
        table = []
        for e in range(1, args.base_change_max + 1):
            counts = complexes.base_change_counts(d, e)
            table.append({"e": e, "N": counts.N, "N_L": counts.N_L,
                          "formula_N_L": counts.formula_N_L,
                          "consistent": counts.N_L == counts.formula_N_L})
        report["base_change"] = table
        summary.append(f"base-change table for e = 1..{args.base_change_max}")
    _emit(report, summary, args.quiet)
    return 0 if all(report["consistency"].values()) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress the stderr summary")

    p = argparse.ArgumentParser(
        prog="kummer-kulikov",
        description="Invariants of Kulikov models of degenerating Kummer surfaces")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[common],
                        help="check the degeneration-data axioms")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("classify", parents=[common],
                        help="full pipeline: fan, complexes, counts, type")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("base-change", parents=[common],
                        help="component counts after base extension, both routes")
    sp.add_argument("path")
    sp.add_argument("--e", type=int, required=True, help="ramification index")
    sp.set_defaults(func=cmd_base_change)

    fp = sub.add_parser("fan", help="fan construction and certification")
    fsub = fp.add_subparsers(dest="fan_command", required=True)
    sp = fsub.add_parser("build", parents=[common],
                         help="auto-scale and certify the standard fan")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_fan_build)
    sp = fsub.add_parser("check", parents=[common],
                         help="certify a fan document")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_fan_check)

    cp = sub.add_parser("complex", help="dual complexes")
    csub = cp.add_subparsers(dest="complex_command", required=True)
    sp = csub.add_parser("dual", parents=[common], help="dual complex of a fan")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_complex_dual)
    sp = csub.add_parser("quotient", parents=[common],
                         help="inversion quotient of the dual complex")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_complex_quotient)

    sp = sub.add_parser("monodromy", parents=[common],
                        help="nilpotency index and type from a monodromy operator")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--toric-rank", type=int, default=None)
    group.add_argument("--matrix", default=None, help="path to a matrix document")
    sp.set_defaults(func=cmd_monodromy)

    sp = sub.add_parser("report", parents=[common],
                        help="classification report, optionally with base-change table")
    sp.add_argument("path")
    sp.add_argument("--base-change-max", type=int, default=None)
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone.  Write nothing more there, and point
        # the descriptor at devnull so the flush at interpreter exit succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def _run(args) -> int:
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, [f"input error: {exc}"],
              getattr(args, "quiet", False))
        return 2
    except KummerDegenerationError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__}, [f"failed: {exc}"],
              getattr(args, "quiet", False))
        return 1


if __name__ == "__main__":
    sys.exit(main())
