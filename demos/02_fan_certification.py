"""Certified semistable fans in slice form.

The fan of the degenerate model lives in the cone over X^v_R.  Because all
rays sit at lattice height 1, the whole fan is encoded by a Y-periodic
unimodular triangulation of R^t.  This script certifies the standard
triangulation for several pairings and shows the two failure modes: the
disjointness condition (d) and freeness of the inversion action.
"""

from kummer_kulikov import (
    DegenerationData,
    IntMatrix,
    auto_scale,
    check_h_freeness,
    check_property_d,
    standard_triangulation,
)


def data(rank, b_rows, a_basis=None):
    phi = IntMatrix([[1 if i == j else 0 for j in range(rank)] for i in range(rank)],
                    shape=(rank, rank))
    b = IntMatrix(b_rows, shape=(rank, rank))
    if a_basis is None:
        m = b.mul(phi).entries
        a_basis = tuple(m[i][i] // 2 for i in range(rank))
    return DegenerationData(rank, phi, b, tuple(a_basis))


# For an even pairing the standard triangulation works as-is (nu = 1).
d = data(2, [[2, 0], [0, 2]])
nu, tri = auto_scale(d)
print(f"b = 2I: nu = {nu}, classes per dimension = "
      f"{[len(tri.by_dim(k)) for k in range(3)]}")
print("certificates:", tri.certificate.flags())

# With b = I the lattice is too dense: the unit translate (1,0) hits the
# triangle {(0,0),(1,0),(1,1)} in its own vertex.  Scaling by nu = 2 fixes it.
d_odd = data(2, [[1, 0], [0, 1]], a_basis=(0, 0))
bad = standard_triangulation(2).with_lattice(d_odd.b)
violations = check_property_d(bad)
lam, simplex = violations[0]
print(f"\nb = I violates condition (d): translate {lam} meets {simplex.vertices}")
nu2, _ = auto_scale(d_odd)
print(f"auto-scale resolves it with nu = {nu2}")

# The inversion l -> -l acts freely on positive-dimensional classes exactly
# when the pairing is even; b = (3) is the classical counterexample:
# -[1,2] = [1,2] - 3.
d3 = data(1, [[3]], a_basis=(2,))
t3 = standard_triangulation(1).with_lattice(d3.b)
for y, s in check_h_freeness(t3):
    print(f"\nb = (3): the class of {s.vertices} is flipped onto itself by y = {y}")
nu3, _ = auto_scale(d3)
print(f"auto-scale resolves it with nu = {nu3} (the scaled pairing is even)")
