"""The reference kernel that corrects every benchmark time for machine speed.

On a shared machine the same pure-Python loop runs up to a third slower from
one minute to the next, with CPU time equal to wall time: the processor
itself is slower, not the process descheduled.  So each timed item is paired
with one run of this fixed kernel right beside it, and the item's time is
scaled by ``R0_S / r`` where ``r`` is the kernel's duration next to the item
and ``R0_S`` its duration on an idle machine.

The kernel does the kind of work the program does -- ``Fraction``
arithmetic with growing heights, tuple keys and dict updates -- and imports
nothing from the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Kernel duration on an idle machine, in seconds: the lowest batch median
#: that ``python3 bench/kernel.py`` printed over ten invocations on the
#: 2-core machine the benchmark was built on (Python 3.11.7); see README.md.
R0_S = 0.00109


def reference_kernel() -> Fraction:
    terms: dict = {}
    for k in range(1, 61):
        for j in range(1, 5):
            key = (k % 7, j)
            c = Fraction(k * j + 1, k + 2 * j)
            prev = terms.get(key)
            terms[key] = c if prev is None else prev * c + Fraction(j, k)
    return sum(terms.values(), Fraction(0))


EXPECTED = reference_kernel()


def time_kernel() -> float:
    """One timed run of the kernel, in seconds; its result is checked."""
    t0 = time.perf_counter()
    value = reference_kernel()
    dt = time.perf_counter() - t0
    if value != EXPECTED:
        raise RuntimeError("reference kernel returned a different value")
    return dt


def kernel_median(runs: int = 5) -> float:
    times = sorted(time_kernel() for _ in range(runs))
    return times[len(times) // 2]


if __name__ == "__main__":
    import statistics

    medians = [statistics.median(time_kernel() for _ in range(50)) for _ in range(20)]
    print(f"batch medians (ms): {[round(m * 1e3, 4) for m in medians]}")
    print(f"R0_S = {min(medians):.6f}")
