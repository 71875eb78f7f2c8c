"""Dual complexes of the degenerate fibres and their inversion quotients.

The special fibre of the abelian-side model is stratified by the simplex
classes of the certified triangulation: the dual complex Delta_A has one
k-cell per class of k-simplices.  For toric rank 2 it is a torus; for rank
1 a cycle.  The inversion quotient Delta_X is the dual complex of the
Kummer-side model: a sphere triangulation, respectively a chain.
"""

from kummer_kulikov import (
    DegenerationData,
    IntMatrix,
    auto_scale,
    complex_to_json,
    dual_complex,
    euler_characteristic,
    h_quotient,
    quotient_labels,
)


def data(rank, b_rows):
    phi = IntMatrix([[1 if i == j else 0 for j in range(rank)] for i in range(rank)])
    b = IntMatrix(b_rows)
    m = b.mul(phi).entries
    return DegenerationData(rank, phi, b, tuple(m[i][i] // 2 for i in range(rank)))


for rank, b_rows in [(2, [[2, 0], [0, 2]]), (2, [[4, 0], [0, 4]]),
                     (1, [[4]]), (0, [])]:
    d = data(rank, b_rows)
    _, tri = auto_scale(d)
    delta_a, act = dual_complex(tri)
    delta_x = h_quotient(delta_a, act)
    cells_a = [delta_a.num(k) for k in range(3)]
    cells_x = [delta_x.num(k) for k in range(3)]
    print(f"rank {rank}, b = {b_rows}:")
    print(f"  Delta_A cells {cells_a}, chi = {euler_characteristic(delta_a)}")
    print(f"  Delta_X cells {cells_x}, chi = {euler_characteristic(delta_x)}")

# The smallest rank-2 quotient is a familiar shape: 4 vertices, 6 edges,
# 4 triangles, every pair of vertices joined -- the boundary of a
# tetrahedron.
d = data(2, [[2, 0], [0, 2]])
_, tri = auto_scale(d)
delta_a, act = dual_complex(tri)
labels = quotient_labels([tri.class_labels(k) for k in range(3)], act)
doc = complex_to_json(h_quotient(delta_a, act), labels)
print("\ntetrahedron check for b = 2I:")
print("  vertex orbits:", doc["vertices"])
print("  edges (vertex pairs):", doc["edges"])
