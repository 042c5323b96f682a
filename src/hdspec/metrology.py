"""Frequency-chain arithmetic and stability analysis.

The mid-infrared spectroscopy wave is generated by difference-frequency
mixing of two near-infrared lasers locked to one frequency comb, so its
absolute frequency follows from comb arithmetic in which the carrier
envelope offset cancels exactly.  Counter time series are characterized
with the overlapping Allan deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .quantity import FINITE, read_table


@dataclass(frozen=True)
class LaserLock:
    """One laser's lock point on the comb."""

    n: int
    f_beat: float
    beat_sign: int
    ceo_sign: int

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n != int(self.n):
            raise ValueError(f"mode number must be a positive integer, got {self.n}")
        if self.beat_sign not in (-1, 1) or self.ceo_sign not in (-1, 1):
            raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class CombParams:
    f_rep: float
    f_ceo: float
    lasers: tuple[LaserLock, ...]

    def __post_init__(self) -> None:
        if self.f_rep <= 0:
            raise ValueError("repetition rate must be positive")


def laser_frequency(comb: CombParams, index: int) -> float:
    """f_i = n_i f_rep + s_ceo f_ceo + s_beat f_beat,i in Hz."""
    lock = comb.lasers[index]
    return lock.n * comb.f_rep + lock.ceo_sign * comb.f_ceo + lock.beat_sign * lock.f_beat


def dfg_frequency(comb: CombParams) -> float:
    """Difference frequency of the first two lasers, f_ceo-free.

    f0 = (n1 - n2) f_rep + s1 f_beat,1 - s2 f_beat,2.  The offset term
    never enters the arithmetic, so the result is bit-identical for any
    f_ceo; this requires both locks to use the same ceo sign.
    """
    if len(comb.lasers) < 2:
        raise ValueError("difference frequency needs two laser locks")
    l1, l2 = comb.lasers[0], comb.lasers[1]
    if l1.ceo_sign != l2.ceo_sign:
        raise ValueError("ceo signs differ: offset cancellation is not guaranteed")
    return (l1.n - l2.n) * comb.f_rep + l1.beat_sign * l1.f_beat - l2.beat_sign * l2.f_beat


def maser_correct(f: float, fractional_offset: float) -> float:
    """Correct a counted frequency for the maser reference offset.

    A maser running fast by a fractional offset makes the counter read
    high, so the true frequency is f * (1 - fractional_offset).
    """
    if abs(fractional_offset) >= 1e-9:
        raise ValueError(f"implausible maser fractional offset {fractional_offset}")
    return f * (1.0 - fractional_offset)


@dataclass(frozen=True)
class FrequencyTimeSeries:
    """Uniformly sampled frequency data.

    Samples are dimensionless fractional frequencies, or absolute Hz
    when carrier_hz is declared, in which case they are converted before
    any deviation statistics.
    """

    tau0: float
    samples: np.ndarray
    carrier_hz: float | None = None

    def __post_init__(self) -> None:
        if self.tau0 <= 0:
            raise ValueError("sample interval must be positive")
        if len(self.samples) < 2:
            raise ValueError("need at least 2 samples")

    @property
    def fractional(self) -> np.ndarray:
        y = np.asarray(self.samples, dtype=float)
        if self.carrier_hz is not None:
            return (y - self.carrier_hz) / self.carrier_hz
        return y


def _white_fm_edf(n: int, m: int) -> float:
    # standard white-FM equivalent-degrees-of-freedom approximation for
    # the overlapping estimator; applied to all noise types here
    return (3.0 * (n - 1) / (2.0 * m) - 2.0 * (n - 2) / n) * 4.0 * m * m / (4.0 * m * m + 5.0)


def allan_deviation(
    series: FrequencyTimeSeries, taus: Sequence[float]
) -> list[tuple[float, float, float, float]]:
    """Overlapping Allan deviation with 68% confidence intervals.

    Each requested tau must be an integer multiple of the sample
    interval and no larger than half the record span (at least two
    averaging bins).  The confidence interval scales the estimate by
    chi-squared quantiles at the white-FM equivalent degrees of freedom.
    """
    # imported here, and scipy.special rather than scipy.stats, so that no
    # other command and no other function pays scipy's import time
    from scipy.special import gammaincinv

    y = series.fractional
    n = len(y)
    cum = np.concatenate([[0.0], np.cumsum(y)])
    out = []
    for tau in taus:
        m_real = tau / series.tau0
        m = int(round(m_real))
        if m < 1 or abs(m_real - m) > 1e-9:
            raise ValueError(f"tau = {tau} s is not an integer multiple of tau0 = {series.tau0} s")
        if n - 2 * m + 1 < 1:
            raise ValueError(
                f"tau = {tau} s rejected: fewer than 2 averaging bins in {n} samples"
            )
        # bin means via cumulative sums; adjacent-bin differences overlap
        means = (cum[m:] - cum[:-m]) / m
        diffs = means[m:] - means[:-m]
        avar = 0.5 * float(np.mean(diffs ** 2))
        adev = math.sqrt(avar)
        edf = max(_white_fm_edf(n, m), 1e-12)
        # chi-squared quantile with edf degrees of freedom: 2 P^-1(edf / 2, p)
        ci_low = adev * math.sqrt(edf / (2.0 * gammaincinv(edf / 2.0, 0.84)))
        ci_high = adev * math.sqrt(edf / (2.0 * gammaincinv(edf / 2.0, 0.16)))
        out.append((float(tau), adev, ci_low, ci_high))
    return out


def read_counter_csv(path: str | Path, carrier_hz: float | None = None) -> FrequencyTimeSeries:
    """Read a `t_s, f_hz` counter log into a uniform time series.

    Both columns must be finite.  `quantity.read_table` parses a large
    plain-ASCII file a whole column at a time with `np.loadtxt`; any other
    file, and any fault, it reads row by row, and that row path is the
    authority on values and on the `path:line` message.
    """
    cols = read_table(path, [(("t_s", "f_hz"), FINITE)])
    t, f = cols["t_s"], cols["f_hz"]
    if len(t) < 2:
        raise ValueError(f"{path}: need at least 2 counter samples")
    dt = np.diff(t)
    tau0 = float(np.median(dt))
    if np.any(np.abs(dt - tau0) > 1e-6 * tau0):
        raise ValueError(f"{path}: sampling is not uniform")
    return FrequencyTimeSeries(tau0, f, carrier_hz=carrier_hz)

