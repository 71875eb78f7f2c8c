"""Batch front end: JSON in, machine-readable reports out.

Exit codes: 0 success, 1 semantic failure (a named check fails), 2 I/O or
schema failure.  Reports go to stdout as deterministic JSON; a short
human-readable summary goes to stderr unless --quiet is given.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types
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
    """A converter of the command table: an integer of at least 1.  Its
    ValueError gives the reason the command line is refused."""
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
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


_USAGE = """\
usage: kummer-kulikov validate data.json
       kummer-kulikov classify data.json
       kummer-kulikov base-change data.json --e E
       kummer-kulikov fan build data.json
       kummer-kulikov fan check fan.json
       kummer-kulikov complex dual fan.json
       kummer-kulikov complex quotient fan.json
       kummer-kulikov monodromy (--toric-rank T | --matrix N.json)
       kummer-kulikov report data.json [--base-change-max M]
Every command also takes --quiet, which drops the stderr summary, and -h or --help.
"""

# command: (handler, whether a path follows, options and converters, one option due)
_COMMANDS = {
    "validate": (cmd_validate, True, {}, False),
    "classify": (cmd_classify, True, {}, False),
    "base-change": (cmd_base_change, True, {"--e": _positive_int}, True),
    "fan build": (cmd_fan_build, True, {}, False),
    "fan check": (cmd_fan_check, True, {}, False),
    "complex dual": (cmd_complex, True, {}, False),
    "complex quotient": (cmd_complex, True, {}, False),
    "monodromy": (cmd_monodromy, False, {"--toric-rank": int, "--matrix": str}, True),
    "report": (cmd_report, True, {"--base-change-max": _positive_int}, False),
}
# A path or an option's value: a token not led by "-", a lone "-" or a negative number.
_is_value = re.compile(r"(?!-)|-\Z|-\d+$|-\d*\.\d+$").match


def _fail(reason: str):
    sys.stderr.write(f"{_USAGE}kummer-kulikov: error: {reason}\n")
    raise SystemExit(2)


def parse_args(argv: list[str]) -> types.SimpleNamespace:
    """argv read by the table into ``func``, ``path``, ``quiet``, ``complex_command``
    and a field per option (None if not given), by README's "Command line" rules:
    -h or --help writes the usage to stdout and exits 0, a fault exits 2 by ``_fail``."""
    if any(t == "-h" or len(t) > 2 and "--help".startswith(t) for t in argv):
        sys.stdout.write(_USAGE)
        raise SystemExit(0)
    words = argv[:2] if argv[:1] in (["fan"], ["complex"]) else argv[:1]
    command = " ".join(words)
    if command not in _COMMANDS:
        _fail(f"expected a command, got {command!r}")
    handler, takes_path, converters, one_due = _COMMANDS[command]
    paths, given, tokens = [], {}, iter(argv[len(words):])
    for token in tokens:
        name, eq, value = token.partition("=")
        names = [o for o in ("--quiet", *converters) if len(name) > 2 and o.startswith(name)]
        if _is_value(token):
            paths.append(token)
        elif len(names) != 1 or names[0] == "--quiet" and eq:
            _fail(f"unrecognized argument {token!r}")
        elif names[0] == "--quiet":
            given["--quiet"] = True
        else:
            if not (eq or _is_value(value := next(tokens, "--"))):  # "--": argv ran out
                _fail(f"argument {names[0]}: expected one value")
            try:
                given[names[0]] = converters[names[0]](value)
            except ValueError as exc:
                _fail(f"argument {names[0]}: {exc}")
    if len(paths) != takes_path or one_due and len(given.keys() - {"--quiet"}) != 1:
        _fail(f"{command}: a path or an option is missing or extra")
    return types.SimpleNamespace(
        func=handler, path=paths[0] if takes_path else None, quiet="--quiet" in given,
        complex_command=words[1] if words[0] == "complex" else None,
        **{o[2:].replace("-", "_"): given.get(o)
           for o in ("--e", "--toric-rank", "--matrix", "--base-change-max")})


def main(argv=None) -> int:
    """Run one command and write its report, a refusal or an error: the
    JSON to stdout, the summary to stderr unless --quiet.  Returns the exit code."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
