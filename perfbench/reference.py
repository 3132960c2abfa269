"""Host-speed reference for the timing metrics.

On a shared VM the CPU speed can drift by up to 2x over tens of seconds
(CPU time equals wall time, so it is the host's speed, not scheduling). To
keep runs comparable, the benchmark times this fixed kernel right before
and right after every timed request and scales the request's wall time by
REFERENCE_S / (mean of the two kernel times): a request's time is reported
in *reference seconds*, the time it would take when the kernel takes
REFERENCE_S. The kernel mixes the kinds of work the program does: Python
integer loops, Fraction sums, a numpy complex exponential and float
formatting. It allocates no large array, which would add to the client
process's peak RSS. Raw wall times are kept in each run's record.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# Time of kernel() on the reference machine (2-core Xeon, Python 3.11,
# numpy 2.4) in a fast period; fixed, so values compare across runs.
REFERENCE_S = 0.008

_PHASES = np.arange(20000) % 997


def kernel() -> None:
    total = 0
    for i in range(30000):
        total += i * i % 7
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(1, k)
    for _ in range(5):
        np.exp((-2j * np.pi / 997) * _PHASES)
    ",".join(format(v * 1.1, ".17g") for v in range(3000))


# Wall time of a fresh interpreter running `import numpy` on the reference
# machine; the reference for set-up times, which the kernel above does not
# track (process start-up is mostly loading and unmarshalling code).
REFERENCE_START_S = 0.15
REFERENCE_START_CODE = "import numpy"


def timed() -> float:
    """Wall time of kernel(), with the garbage collector off so that a
    collection set off by the program's heap is not charged to the host."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work done between
    two kernel timings."""
    return REFERENCE_S / ((before + after) / 2.0)
