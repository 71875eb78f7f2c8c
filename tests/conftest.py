from itertools import product

import pytest

from kummer_kulikov import fan
from kummer_kulikov.degeneration import DegenerationData, base_change
from kummer_kulikov.lattice import IntMatrix
from kummer_kulikov.monodromy import RationalOperator

I4 = RationalOperator.identity(4)


def elem(i, j, c=1):
    """4x4 elementary matrix c·E_ij."""
    return RationalOperator([[c if (r, s) == (i, j) else 0 for s in range(4)]
                             for r in range(4)])


def random_unimodular(rng, steps=6):
    """Product of integer shears; returns (g, g^{-1}) exactly."""
    g = I4
    ginv = I4
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        c = rng.randint(-2, 2)
        g = g * (I4 + elem(i, j, c))
        ginv = (I4 + elem(i, j, -c)) * ginv
    return g, ginv


def random_unipotent(rng):
    n = RationalOperator([[rng.randint(-3, 3) if r < s else 0 for s in range(4)]
                          for r in range(4)])
    g, ginv = random_unimodular(rng)
    return g * (I4 + n) * ginv


def random_square_zero(rng):
    # Support on (0,1), (0,3), (2,3) maps im into ker, so the square is 0.
    m = elem(0, 1, rng.randint(-3, 3)) + elem(0, 3, rng.randint(-3, 3)) \
        + elem(2, 3, rng.randint(-3, 3))
    g, ginv = random_unimodular(rng)
    return g * m * ginv


def make_data(rank, b_rows, phi_rows=None, a_basis=None):
    """Degeneration datum with phi defaulting to the identity and a_basis to
    the H-invariant choice M_ii/2."""
    if phi_rows is None:
        phi_rows = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    phi = IntMatrix(phi_rows, shape=(rank, rank))
    b = IntMatrix(b_rows, shape=(rank, rank))
    if a_basis is None:
        m = b.mul(phi).entries
        assert all(m[i][i] % 2 == 0 for i in range(rank))
        a_basis = tuple(m[i][i] // 2 for i in range(rank))
    return DegenerationData(rank=rank, phi=phi, b=b, a_basis=tuple(a_basis))


@pytest.fixture
def data_2I2():
    return make_data(2, [[2, 0], [0, 2]])


@pytest.fixture
def data_b4():
    return make_data(1, [[4]])


@pytest.fixture
def data_rank0():
    return make_data(0, [])


# -- oracles shared by the fan tests and the golden corpus --------------------------

CORE = ("semistable", "unimodular", "property_d", "h_free")


def certify_loop(d):
    """The former ``auto_scale``: the first ν in (1, 2) whose development of
    the standard cell over Λ_(ν·b) passes the four core checks, with that
    development certified."""
    for nu in (1, 2):
        t = fan.standard_triangulation(d.rank).with_lattice(base_change(d, nu).b)
        certificate = fan.certify(t)
        if all(getattr(certificate, k) for k in CORE):
            return nu, t
    raise AssertionError("the standard fan fails certification at ν = 2")


def lattice_points(rows, window):
    """Every (λ, y) with λ = y·rows nonzero and ‖λ‖_∞ <= window, sorted by λ."""
    n = len(rows)
    if n == 0:
        return []
    adj = [[1]] if n == 1 else [[rows[1][1], -rows[0][1]], [-rows[1][0], rows[0][0]]]
    det = IntMatrix(rows, shape=(n, n)).det()
    out = []
    for lam in product(range(-window, window + 1), repeat=n):
        y = [sum(lam[i] * adj[i][j] for i in range(n)) for j in range(n)]
        if any(lam) and all(x % det == 0 for x in y):
            out.append((lam, tuple(x // det for x in y)))
    return out


def scan_property_d(t, window):
    """The full-window property-(d) scan: every translate, every class."""
    lams = [lam for lam, _ in lattice_points(t.lattice.entries, window)]
    return [(lam, s) for s in t.simplices for lam in lams
            if fan.hulls_intersect(s, s.translate(lam))]


def scan_h_freeness(t, window):
    """The full-window H-freeness scan: every translate, λ = 0 included, every class."""
    zero = (0,) * t.rank
    points = [(zero, zero)] + lattice_points(t.lattice.entries, window)
    out = []
    for s in t.simplices:
        if s.dim < 1:
            continue
        neg = set(s.negate().vertices)
        for lam, y in points:
            if {tuple(a + b for a, b in zip(v, lam)) for v in s.vertices} == neg:
                out.append((y, s))
    return out
