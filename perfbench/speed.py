"""Host-speed calibration: every time the benchmark reports is in reference seconds.

The benchmark runs on a shared host whose vCPUs change speed by up to
about 30 % over seconds to minutes, as other tenants' load comes and
goes.  Averaging inside one run does not remove a change that lasts
longer than the run.  So a fixed calibration kernel is timed in the
same process as the measured work, right before and right after it, and
a measured time t is reported as t * REFERENCE_S / k, where k is the mean
of those kernel times.  The kernel is this file's own code (interpreter
work and page faults on fresh anonymous mappings, no numpy and no
hdspec).  Its memory comes from mmap, not from the process heap, so the
program's allocations do not change its time either: a change to the
program moves t and leaves k alone.  On the reference machine k is about
REFERENCE_S, so the figures read as wall-clock seconds there.

Only the standard library is imported here: CLI children import this
module before hdspec, and it must not shift the program's import cost.
"""

from __future__ import annotations

import mmap
import time

# the kernel's time on the reference machine (see README)
REFERENCE_S = 0.010


def kernel() -> float:
    """Run the calibration kernel once; returns its wall-clock in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i % 7
    table = {f"k{i}": i for i in range(5_000)}
    sorted(table, reverse=True)
    for _ in range(4):
        with mmap.mmap(-1, 1 << 20) as block:
            for offset in range(0, 1 << 20, mmap.PAGESIZE):
                block[offset] = 1
    return time.perf_counter() - t0


def normalize(seconds: float, kernels: list[float]) -> float:
    """`seconds` measured between the `kernels`, in reference seconds."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)
