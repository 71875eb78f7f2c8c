from itertools import product

import pytest
from hypothesis import strategies as st

from kummer_kulikov import fan
from kummer_kulikov.degeneration import DegenerationData, base_change
from kummer_kulikov.fan import LatticeSimplex, Vector
from kummer_kulikov.lattice import IntMatrix
from kummer_kulikov.monodromy import RationalOperator

I4 = RationalOperator.identity(4)


def elem(i, j, c=1):
    """4x4 elementary matrix c·E_ij."""
    return RationalOperator([[c if (r, s) == (i, j) else 0 for s in range(4)]
                             for r in range(4)])


def shear(i, j, c):
    """The 4x4 shear Id + c·E_ij."""
    return RationalOperator([[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(4)]
                             for r in range(4)])


def random_unimodular(rng, steps=6):
    """Product of integer shears; returns (g, g^{-1}) exactly."""
    g = I4
    ginv = I4
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        c = rng.randint(-2, 2)
        g = g * shear(i, j, c)
        ginv = shear(i, j, -c) * ginv
    return g, ginv


def random_unipotent(rng):
    """Id plus a random strictly upper triangular N, conjugated."""
    u = RationalOperator([[rng.randint(-3, 3) if r < s else int(r == s) for s in range(4)]
                          for r in range(4)])
    g, ginv = random_unimodular(rng)
    return g * u * ginv


def random_square_zero(rng):
    # Support on (0,1), (0,3), (2,3) maps im into ker, so the square is 0.
    support = {(0, 1): rng.randint(-3, 3), (0, 3): rng.randint(-3, 3),
               (2, 3): rng.randint(-3, 3)}
    m = RationalOperator([[support.get((r, s), 0) for s in range(4)] for r in range(4)])
    g, ginv = random_unimodular(rng)
    return g * m * ginv


def make_data(rank, b_rows, phi_rows=None, a_basis=None):
    """Degeneration datum with phi defaulting to the identity and a_basis to
    the H-invariant choice M_ii/2."""
    if phi_rows is None:
        phi_rows = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    phi = IntMatrix(phi_rows)
    b = IntMatrix(b_rows)
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
    det = IntMatrix(rows).det()
    out = []
    for lam in product(range(-window, window + 1), repeat=n):
        y = [sum(lam[i] * adj[i][j] for i in range(n)) for j in range(n)]
        if any(lam) and all(x % det == 0 for x in y):
            out.append((lam, tuple(x // det for x in y)))
    return out


# The planar orientation tests, independent of the affine coordinates that
# fan.check_property_d uses: exact in rank <= 2 only, where _orient reads
# coordinates 0 and 1.

def _orient(a: Vector, b: Vector, c: Vector) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _point_in_hull(p: Vector, s: LatticeSimplex) -> bool:
    vs = s.vertices
    if len(vs) == 1:
        return p == vs[0]
    if len(p) == 1:
        lo, hi = vs[0][0], vs[-1][0]
        return lo <= p[0] <= hi
    if len(vs) == 2:
        a, b = vs
        if _orient(a, b, p) != 0:
            return False
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
    a, b, c = vs
    d1, d2, d3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)


def _on_segment(a: Vector, b: Vector, p: Vector) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_intersect(p1: Vector, p2: Vector, q1: Vector, q2: Vector) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _edges(s: LatticeSimplex) -> list[tuple[Vector, Vector]]:
    vs = s.vertices
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def hulls_intersect(s1: LatticeSimplex, s2: LatticeSimplex) -> bool:
    """Exact test for whether the convex hulls share a point (rank <= 2)."""
    t = len(s1.vertices[0])
    if t == 0:
        return True
    if t == 1:
        lo1, hi1 = s1.vertices[0][0], s1.vertices[-1][0]
        lo2, hi2 = s2.vertices[0][0], s2.vertices[-1][0]
        return max(lo1, lo2) <= min(hi1, hi2)
    if any(_point_in_hull(v, s2) for v in s1.vertices):
        return True
    if any(_point_in_hull(v, s1) for v in s2.vertices):
        return True
    return any(_segments_intersect(a, b, c, d)
               for a, b in _edges(s1) for c, d in _edges(s2))


def scan_property_d(t, window):
    """The full-window property-(d) scan: every translate, every class."""
    lams = [lam for lam, _ in lattice_points(t.lattice.entries, window)]
    return [(lam, s) for s in t.simplices for lam in lams
            if hulls_intersect(s, s.translate(lam))]


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


# -- random valid fans by symmetric diagonal flips -------------------------------

# The two cuts of the unit square: the standard fan's, along (1, 1), and the other.
SQUARE_CUTS = ([[(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)]],
               [[(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]])


@st.composite
def flipped_fans(draw):
    """(n, document): the triangles of the standard fan over diag(n, n),
    n ∈ {4, 6}, one unit square at each p ∈ [0, n)², with 1 to 3 random
    squares cut along the other diagonal, each together with its negative
    square at −p − (1, 1), so the fan stays stable under inversion.  Both
    cuts of a unit square are unimodular."""
    n = draw(st.sampled_from([4, 6]))
    corners = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    flipped = set()
    for a, b in draw(st.lists(corners, min_size=1, max_size=3, unique=True)):
        flipped |= {(a, b), ((-a - 1) % n, (-b - 1) % n)}
    simplices = [[[a + x, b + y] for x, y in triangle]
                 for a, b in product(range(n), repeat=2)
                 for triangle in SQUARE_CUTS[(a, b) in flipped]]
    return n, {"rank": 2, "lattice": [[n, 0], [0, n]], "simplices": simplices}
