"""Seeded inputs for the four benchmark workloads, with expected outputs.

``generate(workload, seed)`` returns a :class:`Plan`: the JSON documents to
write, and the items of one pass over the workload's fixed input set.  It
imports nothing from the package under test; every expected value comes
from the closed forms in ``oracle``.  The seed varies what leaves the cost
of a pass unchanged: the maps φ and signs of the cheap data, signed-
permutation relabellings of the operators, and the order of the items.
The costly rungs are the same on every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("classify", "fan-check", "counts", "monodromy")

# Unimodular maps φ that only permute and negate coordinates: b = M·φ⁻¹
# then has the entries of M, so the verification windows keep their size.
SIGNED_PERMS = [[[s1, 0], [0, s2]] for s1 in (1, -1) for s2 in (1, -1)] + \
               [[[0, s1], [s2, 0]] for s1 in (1, -1) for s2 in (1, -1)]
SHEARS = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, -1], [0, 1]], [[1, 0], [-1, 1]]]

PERCENTILES = (50, 75, 90, 95, 99)


@dataclass
class Item:
    """One timed call: a CLI command on a document, or a library operation.

    ``expect`` maps a dotted path in the result payload to its expected
    value.  A path ending in ``#`` stands for the length of the list it
    names, and a boolean expected for a list means "non-empty".
    """

    label: str
    expect_code: int
    expect: dict
    command: list[str] = field(default_factory=list)
    doc: str | None = None
    extra: list[str] = field(default_factory=list)
    op: str | None = None
    inputs: dict = field(default_factory=dict)
    known_defect: bool = False


@dataclass
class Plan:
    """One pass's inputs; ``warmup`` indexes the items run during set-up."""

    workload: str
    seed: int
    docs: dict[str, object]
    items: list[Item]
    min_passes: int
    warmup: list[int]

    def canonical_bytes(self) -> bytes:
        """Every generated input and expectation, serialised deterministically."""
        return json.dumps({
            "docs": self.docs,
            "items": [vars(i) for i in self.items],
            "min_passes": self.min_passes,
            "warmup": self.warmup,
        }, sort_keys=True).encode()

    def tail_percentile(self) -> int:
        """Highest percentile with at least ten samples beyond it in the
        guaranteed minimum of ``min_passes`` passes; fixed per workload, so
        it does not move when the program gets faster."""
        n = len(self.items) * self.min_passes
        return max(p for p in PERCENTILES if n * (100 - p) >= 1000)


# -- data documents ----------------------------------------------------------------

def _datum(m: list[list[int]], phi: list[list[int]]) -> dict:
    """A valid datum with pairing matrix M: b = M·φ⁻¹, a_basis left to the
    H-invariant default M_ii / 2."""
    t = len(m)
    b = oracle.matmul(m, oracle.unimodular_inverse(phi)) if t else []
    return {"rank": t, "phi": phi, "b": b}


def _diag(*ds: int) -> list[list[int]]:
    return [[d if i == j else 0 for j, _ in enumerate(ds)] for i, d in enumerate(ds)]


def _expect_classify(doc: dict) -> dict:
    t, b = doc["rank"], doc["b"]
    n_a, n_x = oracle.component_counts(b)
    d = n_a if t else 1
    cells_a, cells_x = oracle.dual_cells(t, d), oracle.quotient_cells(t, d)
    certs = {f"certificates.{k}": True for k in
             ("semistable", "unimodular", "property_d", "h_free", "polarization",
              "vertices_complete")}
    return {
        "toric_rank": t, "N_A": n_a, "N_X": n_x, "nu": 1,
        "kulikov_type": oracle.KULIKOV_TYPE[t],
        "component_group.divisors": oracle.divisors(b),
        "component_group.order": n_a,
        "delta_A.cells": cells_a, "delta_A.chi": oracle.euler(cells_a),
        "delta_X.cells": cells_x, "delta_X.chi": oracle.euler(cells_x),
        "monodromy.nilpotency_index_N": 1 if t == 0 else 2,  # N² = 0
        "monodromy.nilpotency_index_N_X": t + 1,
        "monodromy.type": oracle.KULIKOV_TYPE[t],
        **certs,
    }


def _classify(rng: random.Random) -> tuple:
    # The seed varies only the cheap items; the costly rungs keep a fixed φ
    # so that the work of a pass is the same on every seed.
    perms = rng.sample(SIGNED_PERMS, len(SIGNED_PERMS))
    sign = lambda: [[rng.choice((1, -1))]]  # noqa: E731
    shear, eye = SHEARS[0], _diag(1, 1)
    data = [
        ("rank0 a", _datum([], [])),
        ("rank0 b", _datum([], [])),
        *[(f"({n})", _datum([[n]], sign())) for n in (4, 6, 8, 10, 12, 16, 20, 30, 40)],
        # All eight signed-permutation maps φ: the median lands in this group.
        *[(f"diag(2,2) phi={p}", _datum(_diag(2, 2), p)) for p in perms],
        ("(100)", _datum([[100]], sign())),
        ("diag(4,4)", _datum(_diag(4, 4), eye)),
        ("[[4,2],[2,4]] shear", _datum([[4, 2], [2, 4]], shear)),
        # Four rungs of similar cost: the 75th percentile lands among them.
        ("(400) phi=1", _datum([[400]], [[1]])),
        ("(400) phi=-1", _datum([[400]], [[-1]])),
        ("[[6,2],[2,6]] shear", _datum([[6, 2], [2, 6]], shear)),
        ("diag(2,10)", _datum(_diag(2, 10), eye)),
        ("diag(8,8)", _datum(_diag(8, 8), eye)),
        ("(1000)", _datum([[1000]], [[1]])),
        ("diag(2,14)", _datum(_diag(2, 14), eye)),
        ("diag(2,20)", _datum(_diag(2, 20), eye)),
        ("diag(16,16)", _datum(_diag(16, 16), eye)),
    ]
    docs, items = {}, []
    for i, (label, doc) in enumerate(data):
        name = f"datum{i:02d}"
        docs[name] = doc
        items.append(Item(f"classify {label}", 0, _expect_classify(doc),
                          command=["classify"], doc=name))
    rng.shuffle(items)
    return docs, items, 2, ("classify rank0", "classify diag(2,2) phi=[[1, 0], [0, 1]]")


# -- fan documents -----------------------------------------------------------------

UNIT_CELLS = {
    ("standard", 1): [[(0,)], [(0,), (1,)]],
    ("standard", 2): [[(0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 1)], [(0, 0), (1, 1)],
                      [(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)]],
    ("anti", 2): [[(0, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 1)], [(1, 0), (0, 1)],
                  [(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]],
}


def coset_representatives(basis: list[list[int]]) -> list[tuple[int, ...]]:
    """One point per coset of Z^t modulo the row lattice of ``basis``.

    Row operations bring the basis to [[p, 0], [q, g]], whose cosets are
    represented by the box 0 <= x < |p|, 0 <= y < |g|.
    """
    if len(basis) == 1:
        return [(x,) for x in range(abs(basis[0][0]))]
    (a1, b1), (a2, b2) = basis
    while b2 != 0:
        k = b1 // b2
        a1, b1, a2, b2 = a2, b2, a1 - k * a2, b1 - k * b2
    p, g = a2, b1
    return [(x, y) for x in range(abs(p)) for y in range(abs(g))]


def fan_document(basis: list[list[int]], kind: str) -> dict:
    """The unit-cell triangulation of ``kind`` developed over the cosets of
    the lattice, in the CLI's fan document format."""
    t = len(basis)
    simplices = []
    for g in coset_representatives(basis):
        for s in UNIT_CELLS[(kind, t)]:
            simplices.append([[v[i] + g[i] for i in range(t)] for v in s])
    return {"rank": t, "lattice": basis, "simplices": simplices}


def _expect_cells(cells: list[int]) -> dict:
    """A complex document's cell lists, checked by length, and its χ."""
    return {"vertices#": cells[0], "edges#": cells[1], "triangles#": cells[2],
            "chi": oracle.euler(cells)}


def _fan_check(rng: random.Random) -> tuple:
    # As in classify, the costly lattices are the same on every seed.
    sp = lambda: rng.choice(SIGNED_PERMS)  # noqa: E731
    sheared = oracle.matmul([[4, 2], [2, 4]], SHEARS[0])
    lattices = [
        ("standard", "2·Z^2", oracle.matmul(_diag(2, 2), sp())),
        ("standard", "[[4,2],[2,4]] shear", sheared),
        ("standard", "diag(4,4)", _diag(4, 4)),
        ("standard", "diag(2,10)", _diag(2, 10)),
        ("standard", "diag(8,8)", _diag(8, 8)),
        ("anti", "diag(8,8)", _diag(8, 8)),
        ("standard", "(40)", [[40 * rng.choice((1, -1))]]),
        ("standard", "(200)", [[200]]),
        ("anti", "diag(4,4)", _diag(4, 4)),
        ("anti", "[[4,2],[2,4]] shear", sheared),
        # Failing fans: an odd lattice (fixed edges of the inversion) and the
        # unit lattice (every edge meets its translate).
        ("standard", "odd diag(3,4)", _diag(3, 4)),
        ("standard", "odd [[3,1],[1,3]]", oracle.matmul([[3, 1], [1, 3]], sp())),
        ("standard", "odd (5)", [[5 * rng.choice((1, -1))]]),
        ("standard", "Z^2", sp()),
        ("standard", "Z", [[rng.choice((1, -1))]]),
    ]
    docs, items = {}, []
    for i, (kind, label, basis) in enumerate(lattices):
        name = f"fan{i:02d}"
        docs[name] = fan_document(basis, kind)
        t = len(basis)
        d = abs(oracle.det(basis))
        bad_d = oracle.property_d_violated(basis, kind)
        bad_h = oracle.h_violated(basis)
        ok = not (bad_d or bad_h)
        label = f"{kind} {label}"
        check = {"certificates.semistable": True, "certificates.unimodular": True,
                 "certificates.property_d": not bad_d, "certificates.h_free": not bad_h,
                 "violations.property_d": bad_d, "violations.h_free": bad_h}
        if ok:
            check["certificates.polarization"] = oracle.polarization_holds(kind)
            check["certificates.vertices_complete"] = True
        items.append(Item(f"fan check {label}", 0 if ok else 1, check,
                          command=["fan", "check"], doc=name))
        if bad_d:
            for sub in ("dual", "quotient"):
                items.append(Item(f"complex {sub} {label}", 1,
                                  {"failed_check": "property_d"},
                                  command=["complex", sub], doc=name))
            continue
        items.append(Item(f"complex dual {label}", 0, _expect_cells(oracle.dual_cells(t, d)),
                          command=["complex", "dual"], doc=name))
        if ok:
            items.append(Item(f"complex quotient {label}", 0,
                              _expect_cells(oracle.quotient_cells(t, d)),
                              command=["complex", "quotient"], doc=name))
    rng.shuffle(items)
    return docs, items, 3, ("fan check standard 2·Z^2", "complex dual standard 2·Z^2",
                            "complex quotient standard 2·Z^2")


# -- counts -------------------------------------------------------------------------

def _refusal(axioms: dict[str, bool], even: bool, h_invariant: bool) -> str | None:
    """The check the CLI names when refusing a Kummer-side command."""
    failed = [k for k, ok in axioms.items() if not ok]
    if failed:
        return failed[0]
    if not even:
        return "even_pairing"
    return None if h_invariant else "h_invariant"


def _counts(rng: random.Random) -> tuple:
    sp = lambda: rng.choice(SIGNED_PERMS)  # noqa: E731
    sh = lambda: rng.choice(SHEARS)  # noqa: E731

    def valid(m, phi):
        return {**_datum(m, phi), "a_basis": [m[i][i] // 2 for i in range(len(m))]}

    even = [
        ("diag(2,2)", valid(_diag(2, 2), sp())),
        ("diag(2,4)", valid(_diag(2, 4), sp())),
        ("diag(4,4)", valid(_diag(4, 4), sh())),
        ("[[4,2],[2,4]]", valid([[4, 2], [2, 4]], sh())),
        ("[[6,2],[2,6]]", valid([[6, 2], [2, 6]], sp())),
        ("[[4,-2],[-2,8]]", valid([[4, -2], [-2, 8]], sh())),
        ("diag(2,20)", valid(_diag(2, 20), sp())),
        ("diag(16,16)", valid(_diag(16, 16), sh())),
        ("(6)", valid([[6]], [[rng.choice((1, -1))]])),
        ("(1000)", valid([[1000]], [[rng.choice((1, -1))]])),
    ]
    odd_phi = sp()
    invalid = [
        ("odd [[3,1],[1,3]]", {"rank": 2, "phi": odd_phi,
                               "b": oracle.matmul([[3, 1], [1, 3]],
                                                  oracle.unimodular_inverse(odd_phi)),
                               "a_basis": [rng.choice((0, 1)), 1]}),
        ("odd (5)", {"rank": 1, "phi": [[1]], "b": [[5]], "a_basis": [2]}),
        ("asymmetric", {"rank": 2, "phi": [[1, 0], [0, 1]],
                        "b": [[2, 2 * rng.randint(1, 3)], [0, 2]], "a_basis": [1, 1]}),
        ("not positive definite", {"rank": 2, "phi": [[1, 0], [0, 1]],
                                   "b": [[2, 4], [4, 2 * rng.randint(1, 3)]],
                                   "a_basis": [1, 1]}),
        ("singular phi", {"rank": 2, "phi": [[1, 1], [1, 1]], "b": [[2, 0], [0, 2]],
                          "a_basis": [1, 1]}),
    ]
    docs, items = {}, []

    def add(label, doc):
        name = f"datum{len(docs):02d}"
        docs[name] = doc
        ax = oracle.axioms(doc["phi"], doc["b"])
        even = oracle.is_even(doc["b"])
        m = oracle.matmul(doc["b"], doc["phi"]) if doc["rank"] else []
        h_inv = all(2 * a == m[i][i] for i, a in enumerate(doc["a_basis"]))
        ok = all(ax.values())
        items.append(Item(f"validate {label}", 0 if ok else 1,
                          {"ok": ok, "even_pairing": even, "h_invariant": h_inv,
                           **{f"axioms.{k}.passed": v for k, v in ax.items()}},
                          command=["validate"], doc=name))
        e = rng.randint(2, 5)
        refusal = _refusal(ax, even, h_inv)
        n_l = refusal is None and oracle.base_change_n_l(doc["b"], e)
        expect = ({"failed_check": refusal} if refusal else
                  {"e": e, "N": oracle.component_counts(doc["b"])[1], "N_L": n_l,
                   "formula_N_L": n_l, "consistent": True})
        items.append(Item(f"base-change {label} --e {e}", 1 if refusal else 0, expect,
                          command=["base-change"], doc=name, extra=["--e", str(e)]))

    for label, doc in even + invalid:
        add(label, doc)
    # ROADMAP item 4: `fan build` skips validation and certifies these three
    # invalid data; the expected exit code is 1.
    for label, doc in (("b=(-2)", {"rank": 1, "phi": [[1]], "b": [[-2]], "a_basis": [-1]}),
                       ("diag(2,-2)", {"rank": 2, "phi": [[1, 0], [0, 1]],
                                       "b": [[2, 0], [0, -2]], "a_basis": [1, -1]}),
                       ("[[2,4],[0,2]]", {"rank": 2, "phi": [[1, 0], [0, 1]],
                                          "b": [[2, 4], [0, 2]], "a_basis": [1, 1]})):
        name = f"datum{len(docs):02d}"
        docs[name] = doc
        items.append(Item(f"fan build {label}", 1, {}, command=["fan", "build"], doc=name,
                          known_defect=True))
    rng.shuffle(items)
    return docs, items, 8, ("validate diag(2,2)", "base-change diag(2,2)", "fan build b=(-2)")


# -- monodromy -----------------------------------------------------------------------

def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _unimodular(rng: random.Random, n: int, steps: int) -> tuple[list, list]:
    """A product of elementary shears and its inverse."""
    g, ginv = _identity(n), _identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        e = _identity(n)
        e[i][j] = c
        einv = _identity(n)
        einv[i][j] = -c
        g, ginv = oracle.matmul(g, e), oracle.matmul(einv, ginv)
    return g, ginv


def _conjugate(g_pair: tuple[list, list], m: list[list[int]]) -> list[list[int]]:
    g, ginv = g_pair
    return oracle.matmul(oracle.matmul(g, m), ginv)


def _jordan_square_zero(n: int, blocks: int) -> list[list[int]]:
    """``blocks`` Jordan blocks of size 2 (so J² = 0 and rank J = blocks)."""
    j = [[0] * n for _ in range(n)]
    for k in range(blocks):
        j[2 * k][2 * k + 1] = 1
    return j


def _relabel(rng: random.Random, m: list[list[int]]) -> list[list[int]]:
    """Conjugate by a seeded signed permutation matrix: a change of basis
    that keeps every entry's size, so the exact arithmetic costs the same."""
    n = len(m)
    order, signs = rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * signs[j] * m[order[i]][order[j]] for j in range(n)] for i in range(n)]


def _monodromy(rng: random.Random) -> tuple:
    # Operators come from a fixed stream and are relabelled by the seed, so
    # every seed does the same arithmetic on different inputs.
    fixed = random.Random("monodromy")
    docs, items = {}, []
    for t in (0, 1, 1, 2, 2, 2):
        n_op = _relabel(rng, _conjugate(_unimodular(fixed, 4, 6), _jordan_square_zero(4, t)))
        name = f"matrix{len(docs):02d}"
        docs[name] = {"dim": 4, "entries": n_op}
        items.append(Item(f"monodromy --matrix rank {t}", 0,
                          {"toric_rank": t, "nilpotency_index": t + 1,
                           "kulikov_type": oracle.KULIKOV_TYPE[t]},
                          command=["monodromy", "--matrix"], doc=name))
    # σ = 1 + N with N² = 0, so log σ = N; dimensions 4 and 6.
    for n, blocks in ((4, 2), (4, 1), (4, 2), (6, 3), (6, 2), (6, 3)):
        n_op = _relabel(rng, _conjugate(_unimodular(fixed, n, 8), _jordan_square_zero(n, blocks)))
        sigma = [[int(i == j) + n_op[i][j] for j in range(n)] for i in range(n)]
        items.append(Item(f"log/exp round trip dim {n}", 0,
                          {"exp_log_is_sigma": True, "log_is_N": True},
                          op="roundtrip", inputs={"sigma": sigma, "N": n_op}))
    # σ of dimension 16 with a single Jordan block: the log series runs to
    # its full length.
    u = [[int(i == j) + (fixed.choice((1, -1)) if j == i + 1 else 0)
          + (fixed.choice((-1, 0, 1)) if j > i + 1 else 0) for j in range(16)]
         for i in range(16)]
    items.append(Item("log/exp round trip dim 16", 0, {"exp_log_is_sigma": True},
                      op="roundtrip", inputs={"sigma": _relabel(rng, u), "N": None}))
    for k in range(6):
        u = [[int(i == j) + (fixed.choice((-1, 1)) if j > i else 0) for j in range(4)]
             for i in range(4)]
        s = 1 if k % 2 == 0 else -1
        f = _relabel(rng, _conjugate(_unimodular(fixed, 4, 6), u))
        items.append(Item(f"unipotent_or_negative sign {s:+d}", 0, {"sign": s},
                          op="sign", inputs={"f": [[s * x for x in row] for row in f]}))
    # The identity and two fixed cycle types, relabelled by the seed.
    for k in range(3):
        base = list(range(16))
        if k:
            fixed.shuffle(base)
        label = rng.sample(range(16), 16)
        perm = [0] * 16
        for i, j in enumerate(base):
            perm[label[i]] = label[j]
        items.append(Item(f"two_torsion_trivial {'identity' if not k else 'shuffled'}", 0,
                          {"trivial": perm == list(range(16))},
                          op="perm", inputs={"perm": perm}))
    rng.shuffle(items)
    return docs, items, 5, ("monodromy --matrix rank 2", "log/exp round trip dim 4",
                            "unipotent_or_negative sign +1")


GENERATORS = {"classify": _classify, "fan-check": _fan_check, "counts": _counts,
              "monodromy": _monodromy}


def generate(workload: str, seed: int) -> Plan:
    """Deterministic in (workload, seed).  Each generator returns the
    documents, the shuffled items, the minimum number of passes and the
    label prefixes of the items to warm up with; every item matching a
    prefix is warmed up, so the warm-up does the same work on every seed."""
    docs, items, min_passes, warm = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    warmup = [i for i, it in enumerate(items) if it.label.startswith(warm)]
    return Plan(workload, seed, docs, items, min_passes, warmup)
