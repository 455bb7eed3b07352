"""Machine-speed calibration for timings taken on a shared machine.

On a shared host the same pass can run up to twice as slow for seconds to
minutes when neighbours are busy, with no steal time to show for it.  A fixed reference
kernel, frozen here and independent of the program under test, is timed
between measured passes; a pass time is reported in reference seconds::

    reference_s = wall_s * REFERENCE_KERNEL_S / kernel_s

where `kernel_s` is the mean of the kernel times taken just before and just
after the pass.  A change to the program moves wall_s and leaves kernel_s
alone, so it shows in full; a slower phase of the machine moves both and
cancels.  The kernel mixes the two kinds of work the program does:
interpreted per-row float formatting and small-matrix numpy calls.  In sets
of ten seeded runs per workload on a shared 2-core VM it cut the quartile
spread of the pass time from 18-68% to 4-19% of its median; the memory-heavy
sweep-200k slows less than the kernel in slow phases and keeps the widest.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# kernel time on the reference machine (2-core x86-64 VM, Python 3.11.7,
# numpy 2.4.6, OpenBLAS with one thread), so reference seconds read close
# to wall seconds there
REFERENCE_KERNEL_S = 0.03

# setup_s is import work (file reads, unmarshalling, loading shared
# libraries), which this kernel does not track; it is scaled instead by the
# import time of numpy alone, a dependency outside the program, timed in the
# same fresh interpreter.  Its time on the reference machine:
REFERENCE_NUMPY_IMPORT_S = 0.12

_eigvalsh = np.linalg.eigvalsh  # bound now, so tracing never wraps the kernel's calls


def _kernel() -> float:
    t0 = time.perf_counter()
    ",".join([repr(math.cos(i * 1e-3) * math.sin(i * 2e-3)) for i in range(20_000)])
    m = np.eye(4)
    for i in range(1_500):
        m[0, 1] = m[1, 0] = i * 1e-4
        _eigvalsh(m)
    return time.perf_counter() - t0


def kernel_seconds(budget_s: float) -> float:
    """Median wall time of the reference kernel, run back to back for about
    `budget_s` (at least three runs); one run alone varies by about a tenth."""
    times = [_kernel() for _ in range(3)]
    while sum(times) < budget_s:
        times.append(_kernel())
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Multiplier taking wall seconds to reference seconds."""
    return REFERENCE_KERNEL_S / ((before + after) / 2)
