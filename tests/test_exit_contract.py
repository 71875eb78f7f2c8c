"""The exit contract over every command: whatever the documents and flags,
``cli.main`` returns 0, 1 or 2 (the SystemExit(2) of a refused command
line counts as 2), no exception escapes, and stdout holds one JSON object
or nothing.  A report
with exit 1 names its failure: a refusal or a named error by
``failed_check`` or ``kind``, and a command's full report by the entry that
decides its exit code.

Integers are drawn small (|x| <= 8) or huge (|x| >= 10^12): a small draw
develops a small fan, and a huge one is refused before its work by a size
limit, so no draw develops a legal but slow fan."""

import contextlib
import io
import json
from itertools import product

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kummer_kulikov.cli import main

SMALL = st.integers(-8, 8)
HUGE = st.integers(10**12, 10**30) | st.integers(-10**30, -10**12)
INTS = SMALL | HUGE
# JSON values of the wrong type for any field.
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(-2, 2),
                  st.just([]), st.just({}), st.just([[]]))
RANKS = st.sampled_from([0, 1, 2, 1, 2, -1, 3])


def matrices(n, entries=INTS):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def spoiled(draw, doc):
    """doc, or (one time in three) doc with one field or nested entry
    dropped, doubled (a shape off by one, or a repeated vertex) or given a
    value of the wrong type."""
    if draw(st.integers(0, 2)):
        return doc
    node, key = doc, draw(st.sampled_from(sorted(doc)))
    while isinstance(node[key], list) and node[key] and draw(st.booleans()):
        node, key = node[key], draw(st.integers(0, len(node[key]) - 1))
    how = draw(st.sampled_from(["drop", "double", "wrong type"]))
    if how == "drop":
        del node[key]
    elif how == "double" and isinstance(node, list):
        node.insert(key, node[key])
    else:
        node[key] = draw(WRONG)
    return doc


@st.composite
def pairings(draw, t):
    """b = [[2p, q], [q, 2r]] (or its leading block) with p, r > 0: mostly
    the pairings that pass, positive definite or not."""
    m = [[draw(st.integers(-2, 2)) for _ in range(t)] for _ in range(t)]
    for i in range(t):
        m[i][i] = 2 * draw(st.integers(1, 4) | st.integers(10**12, 10**30))
        for j in range(i):
            m[i][j] = m[j][i]
    return m


@st.composite
def data_documents(draw):
    t = draw(RANKS)
    n = max(t, 0)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    doc = {"rank": t, "phi": draw(st.just(identity) | matrices(n)),
           "b": draw(pairings(n) | matrices(n))}
    if draw(st.booleans()):
        doc["a_basis"] = draw(st.lists(INTS, min_size=n, max_size=n))
    return draw(spoiled(doc))


# The top cells of the standard fan: unit intervals, and unit squares cut along (1, 1).
TOP_CELLS = {0: [[()]], 1: [[(0,), (1,)]], 2: [[(0, 0), (1, 0), (1, 1)],
                                               [(0, 0), (0, 1), (1, 1)]]}


@st.composite
def fan_documents(draw):
    t = draw(RANKS)
    n = max(t, 0)
    if t in TOP_CELLS and draw(st.booleans()):
        # The standard fan over diag(k, ..., k), listed by its top cells.
        k = draw(st.integers(1, 3))
        lattice = [[k * (i == j) for j in range(t)] for i in range(t)]
        simplices = [[[x + c for x, c in zip(v, p)] for v in cell]
                     for p in product(range(k), repeat=t) for cell in TOP_CELLS[t]]
    else:
        # Unit-sized simplices, which can be unimodular, long ones, empty ones
        # and degenerate ones, in listings of 0 to 6.
        vertex = st.lists(st.integers(-2, 2) | INTS, min_size=n, max_size=n)
        lattice = draw(matrices(n))
        simplices = draw(st.lists(st.lists(vertex, max_size=n + 2), max_size=6))
    return draw(spoiled({"rank": t, "lattice": lattice, "simplices": simplices}))


@st.composite
def matrix_documents(draw):
    n = draw(st.sampled_from([4, 4, 0, 1, 5]))
    entries = INTS | st.sampled_from(["1/2", "-3", "0/5", "1/0", "2x"])
    square_zero = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    doc = {"dim": n, "entries": draw(st.just(square_zero) | matrices(n, entries))}
    return draw(spoiled(doc))


FLAG_VALUES = INTS.map(str) | st.sampled_from(["", "x", "1.5", "0x10"])


def names_its_failure(command, report):
    """A refusal (failed_check), a named error (kind), or the full report of
    command with the entry that decides its exit code false: ``ok`` of
    validate, a certificate flag of ``fan check``, a consistency entry of
    classify and report."""
    if "failed_check" in report or "kind" in report:
        return True
    key = {"validate": "ok", "fan check": "certificates",
           "classify": "consistency", "report": "consistency"}.get(command)
    entry = report.get(key)
    return entry is False or isinstance(entry, dict) and False in entry.values()


@st.composite
def invocations(draw):
    """(argv, files): a command line whose paths are names in files, and
    the document each name holds."""
    command = draw(st.sampled_from(["validate", "classify", "report", "base-change",
                                    "fan build", "fan check", "complex dual",
                                    "complex quotient", "monodromy"]))
    if command in ("fan check", "complex dual", "complex quotient"):
        return [*command.split(), "fan.json"], {"fan.json": draw(fan_documents())}
    if command == "monodromy":
        if draw(st.booleans()):
            return ["monodromy", "--toric-rank", draw(FLAG_VALUES)], {}
        return ["monodromy", "--matrix", "matrix.json"], {"matrix.json": draw(matrix_documents())}
    argv = [*command.split(), "data.json"]
    if command == "base-change":
        argv += ["--e", draw(FLAG_VALUES)]
    elif command == "report" and draw(st.booleans()):
        argv += ["--base-change-max", draw(FLAG_VALUES)]
    return argv, {"data.json": draw(data_documents())}


# No simplex over a lattice of index 10^19: a development would list its 10^19
# coset representatives, so the document must be read without one.
@example((["fan", "check", "fan.json"],
          {"fan.json": {"rank": 1, "lattice": [[10**19]], "simplices": []}}))
@settings(max_examples=300, deadline=10_000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_every_command_keeps_the_exit_contract(tmp_path, invocation):
    argv, files = invocation
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([*argv, "--quiet"])
        except SystemExit as exc:  # the command table refuses the command line
            code = exc.code
    assert code in (0, 1, 2)
    if out.getvalue():
        report = json.loads(out.getvalue())
        assert isinstance(report, dict)
        assert out.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"
        command = " ".join(argv[:2]) if argv[0] == "fan" else argv[0]
        assert code != 1 or names_its_failure(command, report)
