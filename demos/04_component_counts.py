"""Component groups and the count of irreducible components.

The component group Phi of the Neron model is the cokernel of Y -> X^v,
computed from the determinantal divisors of the pairing.  The Kummer-side model
has N_X = #Phi[2] + (#Phi - #Phi[2])/2 components; for even pairings this
is #Phi/2 + 2^(t-1).  Base change by a degree-e extension multiplies #Phi
by e^t, giving N_L = e^t N - 2^(t-1) (e^t - 1).
"""

from kummer_kulikov import (
    DegenerationData,
    IntMatrix,
    base_change_counts,
    component_counts,
    component_group,
    two_torsion_order,
)


def data(rank, b_rows):
    phi = IntMatrix([[1 if i == j else 0 for j in range(rank)] for i in range(rank)])
    b = IntMatrix(b_rows)
    m = b.mul(phi).entries
    return DegenerationData(rank, phi, b, tuple(m[i][i] // 2 for i in range(rank)))


print(f"{'b':>16s} {'Phi':>12s} {'#Phi[2]':>8s} {'N_A':>4s} {'N_X':>4s}")
for rank, b_rows in [(2, [[2, 0], [0, 2]]), (2, [[2, 0], [0, 4]]),
                     (2, [[4, 2], [2, 6]]), (1, [[4]]), (1, [[8]])]:
    d = data(rank, b_rows)
    phi = component_group(d.b)
    counts = component_counts(d)
    print(f"{str(b_rows):>16s} {str(phi.divisors):>12s} "
          f"{two_torsion_order(phi):>8d} {counts.N_A:>4d} {counts.N_X:>4d}")

# Base change: the closed formula against the rebuild-and-recount route.
d = data(1, [[4]])
print("\nbase change of b = (4):")
print(f"{'e':>3s} {'N':>3s} {'N_L (rebuild)':>14s} {'N_L (formula)':>14s}")
for e in range(1, 7):
    row = base_change_counts(d, e)
    print(f"{e:>3d} {row.N:>3d} {row.N_L:>14d} {row.formula_N_L:>14d}")
