"""Degeneration data of an abelian surface: the tuple (X, Y, phi, a, b).

A split degeneration of an abelian surface is described by two rank-t
lattices (t = toric rank), an injective map phi, a bilinear pairing b whose
composite with phi is symmetric positive definite, and a quadratic function
a pinned down by finitely many integers.  This script builds a few data,
checks the axioms, extends a from its basis values and changes the base.
"""

from kummer_kulikov import (
    DegenerationData,
    IntMatrix,
    a_value,
    base_change,
    h_invariance_check,
    is_even,
    validate,
)

# The basic rank-2 example: b = 2*I, phi = identity, a the symmetric choice.
d = DegenerationData(
    rank=2,
    phi=IntMatrix([[1, 0], [0, 1]]),
    b=IntMatrix([[2, 0], [0, 2]]),
    a_basis=(1, 1),
)

report = validate(d)
print("axioms for b = 2I:")
for check in report.checks:
    print(f"  {check.name:28s} {'pass' if check.passed else 'FAIL'}  ({check.detail})")
print("a is inversion-invariant:", h_invariance_check(d))
print("pairing is even:", is_even(d))

# The quadratic function a is determined by its basis values: in rank 1 with
# b = (2) and a(1) = 1 one gets a(n) = n^2.
d1 = DegenerationData(1, IntMatrix([[1]]), IntMatrix([[2]]), (1,))
print("\nrank 1, b = (2):", [a_value(d1, (n,)) for n in range(-3, 4)])

# Base change by a degree-nu extension scales a and b by nu.
print("\nafter base change by nu = 3: b =", base_change(d, 3).b.entries)
