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
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii as _encode_str

# Each handler imports the layers it runs, so a cold start pays for those only.
from . import degeneration
from .errors import KummerDegenerationError, ResourceLimit, SchemaError

# The most rows ``report --base-change-max`` builds: each takes under 1 ms.
BASE_CHANGE_MAX_ROWS = 10_000


def _load_json(path: str):
    """The JSON document at path.  Bytes that are not UTF-8, nesting too deep
    for the parser and integer literals past the interpreter's digit limit
    are bad input, as malformed JSON is."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise SchemaError(f"unreadable JSON document: {exc}") from exc


def _dumps(obj, indent: str = "\n") -> str:
    """obj as ``json.dumps`` writes it with ``indent=2, sort_keys=True``, byte
    for byte, for the values reports hold: dicts with str keys, lists,
    tuples, str, int, bool and None.  indent is the newline and the
    indentation of obj's own line.

    With an indent, json runs its pure-Python encoder, token by token; here
    each container is one join, a list of exact ints one join over a map,
    a list of rows of exact ints one template per row, and leaves go
    through the functions json itself uses.  The checks run in json's
    order, so a bool is never written as an int, and str and int subclasses
    are written as json writes them.  Any other leaf goes to ``json.dumps``,
    which formats a float or raises the TypeError json raises."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif (kinds <= {list, tuple} and len(set(map(len, obj))) == 1
              and set(map(type, chain.from_iterable(obj))) == {int}):
            # Rows of ints of one length, as in every list of edges and
            # triangles, fill one template; format writes an int as repr does.
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["{}"] * len(obj[0])) + inner + "]"
            items = starmap(row.format, obj)
        else:
            items = [_dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        keys = sorted(obj)
        values = [_dumps(obj[k], inner) for k in keys]
        pairs = map(": ".join, zip(map(_encode_str, keys), values))
        return "{" + inner + ("," + inner).join(pairs) + indent + "}"
    return json.dumps(obj)


class _Refusal(Exception):
    """A named check refuses the input; the payload, naming it as
    ``failed_check``, is the report, and the exit code is 1."""


def _load_data(path: str, kummer: bool) -> degeneration.DegenerationData:
    """The datum at path, refused unless it satisfies the axioms and, for the
    Kummer-side commands, has an even, inversion-invariant pairing."""
    d = degeneration.from_json_dict(_load_json(path))
    report = degeneration.validate(d)
    if not report.ok:
        raise _Refusal({"failed_check": report.failed_names()[0],
                        "axioms": _axioms_payload(report)})
    if kummer and not degeneration.is_even(d):
        raise _Refusal({"failed_check": "even_pairing", "detail":
                        "b has an odd entry; Kummer-side invariants need an even pairing"})
    if kummer and not report.h_invariant:
        raise _Refusal({"failed_check": "h_invariant",
                        "detail": "a is not inversion-invariant (2 a(e_i) != M_ii)"})
    return d


def _axioms_payload(report: degeneration.ValidationReport) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks]


def _classify_payload(d) -> tuple[dict, list[str]]:
    from . import complexes, fan, lattice, monodromy
    nu, tri = fan.auto_scale(d)
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

    divisors = list(lattice.component_group(d.b).divisors)

    report = {
        "input": degeneration.to_json_dict(d),
        "toric_rank": d.rank,
        "component_group": {"divisors": divisors, "order": counts.N_A},
        "N_A": counts.N_A,
        "N_X": counts.N_X,
        "kulikov_type": ktype.value,
        "nu": nu,
        "certificates": tri.certificate.flags(),
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


def _base_change_row(d, e: int) -> dict:
    from . import complexes
    counts = complexes.base_change_counts(d, e)
    return {"e": e, "N": counts.N, "N_L": counts.N_L, "formula_N_L": counts.formula_N_L,
            "consistent": counts.N_L == counts.formula_N_L}


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# -- command handlers: each returns (report, stderr summary lines, exit code) ---

def cmd_validate(args) -> tuple[dict, list[str], int]:
    d = degeneration.from_json_dict(_load_json(args.path))
    report = degeneration.validate(d)
    payload = {
        "axioms": _axioms_payload(report),
        "h_invariant": report.h_invariant,
        "even_pairing": degeneration.is_even(d),
        "ok": report.ok,
    }
    summary = [("all axioms pass" if report.ok else
                "failed: " + ", ".join(report.failed_names()))]
    return payload, summary, 0 if report.ok else 1


def cmd_classify(args) -> tuple[dict, list[str], int]:
    report, summary = _classify_payload(_load_data(args.path, kummer=True))
    return report, summary, 0 if all(report["consistency"].values()) else 1


def cmd_base_change(args) -> tuple[dict, list[str], int]:
    row = _base_change_row(_load_data(args.path, kummer=True), args.e)
    return row, [f"e = {args.e}: N = {row['N']}, N_L = {row['N_L']} (both routes agree)"], 0


def cmd_fan_build(args) -> tuple[dict, list[str], int]:
    from . import fan
    nu, tri = fan.auto_scale(_load_data(args.path, kummer=False))
    report = {"nu": nu, "fan": fan.fan_to_json(tri), "certificates": tri.certificate.flags()}
    return report, [f"nu = {nu}; {len(tri.simplices)} simplex classes"], 0


def cmd_fan_check(args) -> tuple[dict, list[str], int]:
    from . import fan
    cert = fan.certify(fan.fan_from_json(_load_json(args.path)))
    report = {
        "certificates": cert.flags(),
        "violations": {
            "property_d": [{"translate": list(lam), "simplex": [list(v) for v in s.vertices]}
                           for lam, s in cert.property_d_violations],
            "h_free": [{"y": list(y), "simplex": [list(v) for v in s.vertices]}
                       for y, s in cert.h_free_violations],
        },
    }
    ok = cert.passes()
    return report, ["all checks pass" if ok else "certification failed"], 0 if ok else 1


def cmd_complex(args) -> tuple[dict, list[str], int]:
    """``complex dual`` and ``complex quotient``: Δ_A, or its inversion quotient."""
    from . import complexes, fan
    tri = fan.fan_from_json(_load_json(args.path))
    failing = fan.certify(tri).complex_refusal()
    if failing is not None:
        raise _Refusal({"failed_check": failing})
    delta, act = complexes.dual_complex(tri)
    labels = [tri.class_labels(k) for k in range(tri.rank + 1)]
    if args.complex_command == "quotient":
        delta = complexes.h_quotient(delta, act)
        labels = complexes.quotient_labels(labels, act)
    payload = complexes.complex_to_json(delta, labels)
    payload["chi"] = complexes.euler_characteristic(delta)
    return payload, [f"{args.complex_command} complex: {[delta.num(k) for k in range(3)]} cells"], 0


def cmd_monodromy(args) -> tuple[dict, list[str], int]:
    from . import monodromy
    if args.toric_rank is not None:
        n_op = monodromy.standard_N(args.toric_rank)
    else:
        n_op = monodromy.operator_from_json(_load_json(args.matrix))
        if n_op.dim != 4:
            raise SchemaError(f"monodromy operator must be 4x4, got dim {n_op.dim}")
    n_x = monodromy.kummer_monodromy(n_op)  # refuses N unless N² = 0
    rank = n_op.rank()  # the toric rank, as N² = 0
    idx = monodromy.nilpotency_index(n_x)
    ktype = monodromy.type_from_index(idx)
    report = {"toric_rank": rank, "nilpotency_index": idx, "kulikov_type": ktype.value}
    return report, [f"rank {rank}: index {idx}, type {ktype.value}"], 0


def cmd_report(args) -> tuple[dict, list[str], int]:
    d = _load_data(args.path, kummer=True)
    if args.base_change_max is not None and args.base_change_max > BASE_CHANGE_MAX_ROWS:
        raise ResourceLimit(f"a base-change table of {args.base_change_max} rows passes "
                            f"the limit of {BASE_CHANGE_MAX_ROWS}")
    report, summary = _classify_payload(d)
    if args.base_change_max is not None:
        report["base_change"] = [_base_change_row(d, e)
                                 for e in range(1, args.base_change_max + 1)]
        summary.append(f"base-change table for e = 1..{args.base_change_max}")
    return report, summary, 0 if all(report["consistency"].values()) else 1


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

    def add(group, name: str, handler, help: str, path: bool = True):
        """Register a subcommand of group: its parser, its path and its handler."""
        sp = group.add_parser(name, parents=[common], help=help)
        if path:
            sp.add_argument("path")
        sp.set_defaults(func=handler)
        return sp

    add(sub, "validate", cmd_validate, "check the degeneration-data axioms")
    add(sub, "classify", cmd_classify, "full pipeline: fan, complexes, counts, type")
    sp = add(sub, "base-change", cmd_base_change,
             "component counts after base extension, both routes")
    sp.add_argument("--e", type=_positive_int, required=True, help="ramification index")

    fp = sub.add_parser("fan", help="fan construction and certification")
    fsub = fp.add_subparsers(dest="fan_command", required=True)
    add(fsub, "build", cmd_fan_build, "auto-scale and certify the standard fan")
    add(fsub, "check", cmd_fan_check, "certify a fan document")

    cp = sub.add_parser("complex", help="dual complexes")
    csub = cp.add_subparsers(dest="complex_command", required=True)
    add(csub, "dual", cmd_complex, "dual complex of a fan")
    add(csub, "quotient", cmd_complex, "inversion quotient of the dual complex")

    sp = add(sub, "monodromy", cmd_monodromy,
             "nilpotency index and type from a monodromy operator", path=False)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--toric-rank", type=int, default=None)
    group.add_argument("--matrix", default=None, help="path to a matrix document")

    sp = add(sub, "report", cmd_report,
             "classification report, optionally with base-change table")
    sp.add_argument("--base-change-max", type=_positive_int, default=None)

    return p


def main(argv=None) -> int:
    """Run one command and write its report, a refusal or an error: the
    JSON to stdout, the summary to stderr unless --quiet.  Returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        report, summary, code = args.func(args)
    except _Refusal as exc:
        report, code = exc.args[0], 1
        summary = [f"refused: {report['failed_check']}"]
    except (SchemaError, json.JSONDecodeError, OSError) as exc:
        report, summary, code = ({"error": str(exc), "kind": type(exc).__name__},
                                 [f"input error: {exc}"], 2)
    except KummerDegenerationError as exc:
        report, summary, code = ({"error": str(exc), "kind": type(exc).__name__},
                                 [f"failed: {exc}"], 1)
    try:
        sys.stdout.write(_dumps(report) + "\n")
        if not args.quiet:
            sys.stderr.write("".join(line + "\n" for line in summary))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone.  Write nothing more there, and point
        # the descriptor at devnull so the flush at interpreter exit succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
