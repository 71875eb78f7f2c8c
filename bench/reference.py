"""Machine speed, measured around every timed call.

On a shared virtual machine the speed of pure-Python work changes with the
load of other tenants: on the 2-vCPU Xeon VM the baseline was taken on, a
fixed kernel took 0.35 ms or 0.65 ms depending on the second, and the same
item's median time moved by up to 1.7x within half an hour.  The kernel
below, timed right before and right after each timed call, slows down with
it.  Each reported time is the call's wall time scaled by
``NOMINAL_S / mean of the two kernel times``: its wall time on a machine
where the kernel takes exactly ``NOMINAL_S``.  Two runs taken at different
times then compare the program, not the machine.  ``run.py`` prints the
raw wall times beside the scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0005


def kernel():
    """The kind of work the package does: small tuples, integer products,
    dict lookups and Fraction arithmetic."""
    seen: dict[tuple, int] = {}
    total = Fraction(0)
    for i in range(150):
        key = tuple((i * j) % 7 for j in range(8))
        seen[key] = seen.get(key, 0) + sum(a * b for a, b in zip(key, key[1:]))
        if i % 10 == 0:
            total += Fraction(i + 1, i + 2)
    return len(seen), total


def time_kernel() -> float:
    """The faster of two kernel runs: a garbage collection that lands in
    one of them says nothing about the machine."""
    times = []
    for _ in range(2):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return min(times)


def bracketed(fn):
    """Call ``fn`` between two kernel timings.

    Returns (result, wall seconds of the call, mean kernel seconds)."""
    before = time_kernel()
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    return result, seconds, (before + time_kernel()) / 2


def scale(seconds: float, kernel_s: float) -> float:
    """Wall seconds at the nominal machine speed."""
    return seconds * NOMINAL_S / kernel_s
