"""Monodromy operators and the type I / II / III classification.

The monodromy on the degree-2 cohomology of the Kummer surface decomposes
as the wedge-square derivation of the abelian-surface monodromy N plus a
zero block on the sixteen 2-torsion classes.  Its nilpotency index is
t(A) + 1, which is exactly the degeneration type.
"""

from kummer_kulikov import (
    RationalOperator,
    kummer_monodromy,
    log_unipotent,
    nilpotency_index,
    standard_N,
    type_from_index,
    unipotent_or_negative,
)

for t in (0, 1, 2):
    n = standard_N(t)
    n_x = kummer_monodromy(n)
    idx = nilpotency_index(n_x)
    print(f"toric rank {t}: N_X has nilpotency index {idx} "
          f"-> type {type_from_index(idx).value}")

# The 22-dimensional operator is block structured: a 6x6 derivation block
# and an identically zero 16x16 block.
n_x = kummer_monodromy(standard_N(2))
print("\ndimension:", n_x.dim, "= 6 +", n_x.torsion_dim)
print("derivation block of standard N (t = 2):")
for row in n_x.wedge.entries:
    print("  ", [int(x) for x in row])

# Sign recovery: exactly one of f, -f is unipotent once the wedge square is.
I4 = RationalOperator.identity(4)
shear = RationalOperator([[1 if i == j else (1 if (i, j) == (0, 1) else 0)
                           for j in range(4)] for i in range(4)])
samples = [I4, -I4, shear, -shear, -(shear * shear)]
signs = tuple(unipotent_or_negative(s) for s in samples)
print("\nsigns s with s·f unipotent:", signs)

# log of a unipotent operator is computed by the terminating series.
sigma = shear * shear
print("log(shear^2) first row:", [str(x) for x in log_unipotent(sigma).entries[0]])
