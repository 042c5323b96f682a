"""Within-run summary statistics shared by the workloads."""

from __future__ import annotations

import statistics


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    Robust to a stray slow sample, and unlike the median of calls of
    several kinds it does not jump from one kind to the next (see README).
    """
    values = sorted(values)
    k = len(values) // 4
    return statistics.mean(values[k:len(values) - k])
