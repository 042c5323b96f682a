"""Frequency-chain arithmetic and stability analysis.

The mid-infrared spectroscopy wave is generated by difference-frequency
mixing of two near-infrared lasers locked to one frequency comb, so its
absolute frequency follows from comb arithmetic in which the carrier
envelope offset cancels exactly.  Counter time series are characterized
with the overlapping Allan deviation.

A counter log is read once, into the lines of `input_lines`.  One of at
least 512 KiB is parsed with one `np.loadtxt` and analysed on numpy
arrays; a smaller one, and any log that the whole-column read refuses,
by `parse_table` on Python floats.  The size of the file alone decides,
so a small log never loads numpy, and a large one keeps numpy's parser
and kernels, which a Python loop over 10^5 samples per tau would not match.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .quantity import FINITE, finite, finite_step, input_bytes, input_lines, overflow_as_value_error, parse_table


def _is_ndarray(values) -> bool:
    np = sys.modules.get("numpy")  # no numpy loaded: no numpy array
    return np is not None and isinstance(values, np.ndarray)


class LaserLock:
    """One laser's lock point on the comb."""

    __slots__ = ("n", "f_beat", "beat_sign", "ceo_sign")

    def __init__(self, n: int, f_beat: float, beat_sign: int, ceo_sign: int) -> None:
        if n <= 0 or n != int(n):
            raise ValueError(f"mode number must be a positive integer, got {n}")
        if beat_sign not in (-1, 1) or ceo_sign not in (-1, 1):
            raise ValueError("signs must be +1 or -1")
        self.n = n
        self.f_beat = f_beat
        self.beat_sign = beat_sign
        self.ceo_sign = ceo_sign


class CombParams:
    __slots__ = ("f_rep", "f_ceo", "lasers")

    def __init__(self, f_rep: float, f_ceo: float, lasers: tuple[LaserLock, ...]) -> None:
        if f_rep <= 0:
            raise ValueError("repetition rate must be positive")
        self.f_rep = f_rep
        self.f_ceo = f_ceo
        self.lasers = lasers


def laser_frequency(comb: CombParams, index: int) -> float:
    """f_i = n_i f_rep + s_ceo f_ceo + s_beat f_beat,i in Hz.

    Beyond float64 it is ValueError `laser <i + 1> frequency overflows float64 (...)`.
    """
    lock = comb.lasers[index]
    with overflow_as_value_error(f"laser {index + 1} frequency"):
        f = lock.n * comb.f_rep + lock.ceo_sign * comb.f_ceo + lock.beat_sign * lock.f_beat
        finite(f"f{index + 1}", f)
    return f


def dfg_frequency(comb: CombParams) -> float:
    """Difference frequency of the first two lasers, f_ceo-free.

    f0 = (n1 - n2) f_rep + s1 f_beat,1 - s2 f_beat,2.  The offset term
    never enters the arithmetic, so the result is bit-identical for any
    f_ceo; this requires both locks to use the same ceo sign.  Beyond
    float64 it is ValueError `difference frequency overflows float64 (...)`.
    """
    if len(comb.lasers) < 2:
        raise ValueError("difference frequency needs two laser locks")
    l1, l2 = comb.lasers[0], comb.lasers[1]
    if l1.ceo_sign != l2.ceo_sign:
        raise ValueError("ceo signs differ: offset cancellation is not guaranteed")
    with overflow_as_value_error("difference frequency"):
        f0 = (l1.n - l2.n) * comb.f_rep + l1.beat_sign * l1.f_beat - l2.beat_sign * l2.f_beat
        finite("f0", f0)
    return f0


def maser_correct(f: float, fractional_offset: float) -> float:
    """Correct a counted frequency for the maser reference offset.

    A maser running fast by a fractional offset makes the counter read
    high, so the true frequency is f * (1 - fractional_offset).  Beyond
    float64 it is ValueError `maser correction overflows float64 (...)`.
    """
    if abs(fractional_offset) >= 1e-9:
        raise ValueError(f"implausible maser fractional offset {fractional_offset}")
    with overflow_as_value_error("maser correction"):
        corrected = f * (1.0 - fractional_offset)
        finite("corrected f", corrected)
    return corrected


class FrequencyTimeSeries:
    """Uniformly sampled frequency data.

    Samples are dimensionless fractional frequencies, or absolute Hz
    when carrier_hz is declared, in which case they are converted before
    any deviation statistics.  They are a numpy array, or any other
    float sequence (`read_table`'s list of Python floats among them),
    which is analysed on Python floats.  A declared carrier must be finite
    and positive.
    """

    __slots__ = ("tau0", "samples", "carrier_hz")

    def __init__(self, tau0: float, samples: Sequence[float], carrier_hz: float | None = None) -> None:
        if tau0 <= 0:
            raise ValueError("sample interval must be positive")
        if len(samples) < 2:
            raise ValueError("need at least 2 samples")
        if carrier_hz is not None and not 0.0 < carrier_hz < math.inf:
            raise ValueError(f"carrier_hz must be finite and positive, got {carrier_hz}")
        self.tau0 = tau0
        self.samples = samples
        self.carrier_hz = carrier_hz

    @property
    def fractional(self):
        """The fractional samples: a float64 array for numpy samples, else a list of floats."""
        c = self.carrier_hz
        if _is_ndarray(self.samples):
            y = self.samples.astype(float, copy=False)
            return y if c is None else (y - c) / c
        return [float(v) for v in self.samples] if c is None else [(v - c) / c for v in self.samples]


def _white_fm_edf(n: int, m: int) -> float:
    # standard white-FM equivalent-degrees-of-freedom approximation for
    # the overlapping estimator; applied to all noise types here
    return (3.0 * (n - 1) / (2.0 * m) - 2.0 * (n - 2) / n) * 4.0 * m * m / (4.0 * m * m + 5.0)


def bin_sizes(series: FrequencyTimeSeries, taus: Sequence[float]) -> list[int]:
    """The samples per averaging bin, m = tau / tau0, of each of `taus`.

    Each tau must be an integer multiple of the sample interval and no
    larger than half the record span (at least two averaging bins), else
    ValueError.
    """
    n = len(series.samples)
    out = []
    for tau in taus:
        m_real = tau / series.tau0
        m = int(round(m_real)) if math.isfinite(m_real) else 0  # a ratio beyond float64 is no multiple
        if m < 1 or abs(m_real - m) > 1e-9:
            raise ValueError(f"tau = {tau} s is not an integer multiple of tau0 = {series.tau0} s")
        if n - 2 * m + 1 < 1:
            raise ValueError(
                f"tau = {tau} s rejected: fewer than 2 averaging bins in {n} samples"
            )
        out.append(m)
    return out


def allan_deviation(
    series: FrequencyTimeSeries, taus: Sequence[float]
) -> list[tuple[float, float, float, float]]:
    """Overlapping Allan deviation with 68% confidence intervals.

    Each requested tau must pass the check of `bin_sizes`.  The
    confidence interval scales the estimate by chi-squared quantiles at
    the white-FM equivalent degrees of freedom, which are at least 2/3
    (n = 2, m = 1).  Samples so large that the
    variance overflows float64 raise ValueError, which names the step in
    numpy's words on either kind of samples.
    """
    with overflow_as_value_error("Allan deviation"):
        ms = bin_sizes(series, taus)
        y = series.fractional
        n = len(y)
        variance = _numpy_variance(y) if _is_ndarray(y) else _python_variance(y)
        out = []
        for tau, m in zip(taus, ms):
            adev = math.sqrt(variance(m))
            edf = _white_fm_edf(n, m)
            # chi-squared quantile with edf degrees of freedom: 2 P^-1(edf / 2, p)
            ci_low = adev * math.sqrt(edf / (2.0 * _gammaincinv(edf / 2.0, 0.84)))
            ci_high = adev * math.sqrt(edf / (2.0 * _gammaincinv(edf / 2.0, 0.16)))
            out.append((float(tau), adev, ci_low, ci_high))
    return out


# the overlapping Allan variance at m samples per bin: bin means from cumulative sums, and
# the mean square of the differences of adjacent (overlapping) bins, halved


def _numpy_variance(y):
    import numpy as np

    cum = np.concatenate([[0.0], np.cumsum(y)])

    def variance(m: int) -> float:
        means = (cum[m:] - cum[:-m]) / m
        diffs = means[m:] - means[:-m]
        return 0.5 * float(np.mean(diffs ** 2))

    return variance


def _python_variance(y: list[float]):
    # the numpy kernel's steps on floats; the mean square is a correctly rounded sum
    cum = finite_step("accumulate", [0.0, *itertools.accumulate(y)])

    def variance(m: int) -> float:
        means = finite_step("subtract", [(b - a) / m for a, b in zip(cum, cum[m:])])
        diffs = finite_step("subtract", list(map(operator.sub, means[m:], means)))
        squares = finite_step("square", list(map(operator.mul, diffs, diffs)))
        return 0.5 * (math.fsum(squares) / len(squares))

    return variance


# --- the regularized incomplete gamma function --------------------------------
#
# P(a, x) = gamma(a, x) / Gamma(a) and its inverse in x, in pure Python.  The
# chi-squared quantile with nu degrees of freedom at p is 2 P^-1(nu / 2, p).
# Methods: Numerical Recipes (3rd ed.) section 6.2 for the series, the
# continued fraction and the start of the inversion.  Near the peak x ~ a
# the cost grows like sqrt(a): the series takes about 7.5 sqrt(a) terms, the
# continued fraction about 9 a^(1/3).  A 68% interval at a = 1e7 (some 3e7
# counter samples at tau0) costs about 1 ms.

_EPS = 2.220446049250313e-16
# B_2k / (2k (2k - 1)) for the Stirling series of ln Gamma*(a), Gamma*(a) the
# ratio of Gamma(a) to Stirling's formula: eight terms are exact to 1e-16 at a = 10
_LN_GAMMA_STAR = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
# enough for the series at every x up to a = 1.9e8; beyond it, P near the
# peak raises RuntimeError (a data error in `adev`)
_MAX_ITER = 100_000


def _log1pmx(s: float) -> float:
    """log(1 + s) - s, without the cancellation of the difference for small s."""
    if abs(s) > 0.5:
        return math.log1p(s) - s
    # log(1 + s) = 2 atanh(t) with t = s / (2 + s), and 2 t - s = -s^2 / (2 + s)
    t = s / (2.0 + s)
    t2 = t * t
    term, acc = t, 0.0
    for k in range(3, _MAX_ITER, 2):
        term *= t2
        acc += term / k
        if abs(term) <= _EPS * abs(acc) * k:
            break
    return 2.0 * acc - s * s / (2.0 + s)


def _log_gamma_density(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)), the prefactor of the series and the continued fraction."""
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    # a ln(x / a) - (x - a) - ln Gamma*(a) + ln sqrt(a / 2 pi): no large terms cancel
    inv2 = 1.0 / (a * a)
    ln_gamma_star = 0.0
    for c in reversed(_LN_GAMMA_STAR):
        ln_gamma_star = ln_gamma_star * inv2 + c
    return a * _log1pmx((x - a) / a) + 0.5 * math.log(a / (2.0 * math.pi)) - ln_gamma_star / a


def _gamma_p(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x) for a > 0, x > 0.

    The series below x = a + 1 and the continued fraction for Q above.
    """
    prefactor = math.exp(_log_gamma_density(a, x))
    if x < a + 1.0:
        # P = prefactor sum_n x^n / (a (a + 1) ... (a + n))
        term = total = 1.0 / a
        for n in range(1, _MAX_ITER):
            term *= x / (a + n)
            total += term
            if term < _EPS * total:
                return prefactor * total
    else:
        # Q = prefactor / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)), by the modified Lentz method
        tiny = 1e-300
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for i in range(1, _MAX_ITER):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return 1.0 - prefactor * h
    raise RuntimeError(f"incomplete gamma P({a}, {x}) did not converge")


def _normal_quantile(p: float) -> float:
    """Start value to about 1e-7: Abramowitz & Stegun 26.2.23 and one Newton step."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    if p < 0.5:
        z = -z
    return z - (0.5 * math.erfc(-z / math.sqrt(2.0)) - p) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)


def _gammaincinv(a: float, p: float) -> float:
    """x with P(a, x) = p, for a > 0 and 0 < p < 1.

    Halley steps on P from the Wilson-Hilferty start, or the Numerical
    Recipes start for a <= 1.  P, not Q, is inverted, so the relative
    accuracy falls as p approaches 1; at the 0.16 and 0.84 of a 68%
    interval it is about 1e-15 for a from 1/3 to 1e5.
    """
    if a <= 1.0:
        t = 1.0 - a * (0.253 + a * 0.12)
        x = (p / t) ** (1.0 / a) if p < t else 1.0 - math.log1p(-(p - t) / (1.0 - t))
    else:
        h = 1.0 / (9.0 * a)
        x = max(1e-3, a * (1.0 - h + _normal_quantile(p) * math.sqrt(h)) ** 3)
    for _ in range(50):
        # Newton step u = (P - p) / P'; P'' / P' = (a - 1) / x - 1
        u = (_gamma_p(a, x) - p) / math.exp(_log_gamma_density(a, x) - math.log(x))
        step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1.0) / x - 1.0)))
        x = x - step if step < x else 0.5 * x
        # Halley converges cubically: after a step of 1e-7 x, what is left is
        # far below the last bit, even at a = 1e5 where the spread is sqrt(a)
        if abs(step) <= 1e-7 * x:
            return x
    raise RuntimeError(f"chi-squared quantile at a = {a}, p = {p} did not converge")


def read_counter_csv(path: str | Path, carrier_hz: float | None = None) -> FrequencyTimeSeries:
    """Read a `t_s, f_hz` counter log into a uniform time series.

    Both columns must be finite, with at least 2 rows, and t_s must
    increase in even steps.  With a carrier (`adev --carrier-hz`), every
    f_hz must lie strictly between 0 and twice the carrier, so that each
    fractional sample has |y| < 1; a carrier that no sample is near
    would give deviations that round to 0.  Table faults are
    `read_table`'s.  The checks run on the columns as read, numpy arrays
    from `_loadtxt_columns` or `parse_table`'s Python floats alike.
    """
    data = input_bytes(path)
    cols = _loadtxt_columns(path, data) or parse_table(path, data, {"t_s": FINITE, "f_hz": FINITE})
    t, f = cols["t_s"], cols["f_hz"]
    if len(t) < 2:
        raise ValueError(f"{path}: need at least 2 counter samples")
    tau0, increasing, uniform = (_numpy_steps if _is_ndarray(t) else _python_steps)(t)
    if not increasing:
        raise ValueError(f"{path}: t_s must increase")
    if not uniform:
        raise ValueError(f"{path}: sampling is not uniform")
    series = FrequencyTimeSeries(tau0, f, carrier_hz=carrier_hz)
    if carrier_hz is not None:
        far = _first_far(series)
        if far is not None:
            raise ValueError(
                f"{path}: f_hz {float(f[far])!r} is not within a factor 2 of --carrier-hz {carrier_hz!r} "
                "(every f_hz must lie between 0 and twice the carrier)"
            )
    return series


# A log this large is read with one np.loadtxt and analysed on numpy: there the
# import of numpy pays for itself.  `adev` in a fresh interpreter on a 2-core
# x86 VM (Python 3.11, numpy 2.4) took 160-190 ms either way on a 600 kB log,
# and 240-250 ms on numpy against 1.0-1.1 s on Python floats on a 2.6 MB log
# of 10^5 samples, most of it the Allan kernel.
_NUMPY_MIN_BYTES = 512 * 1024
# Bytes on which np.loadtxt and csv + float() part ways, so a log that holds one
# goes to `parse_table`: quotes (csv unquotes), NUL (csv rejects it before Python
# 3.11), and the separators \x1c-\x1f, which loadtxt strips around a number and
# float() does not.
_REFUSED_BYTES = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_columns(path: str | Path, data: bytes):
    """`parse_table`'s t_s and f_hz columns of a log's bytes as float64 arrays by one `np.loadtxt`, or None.

    The log must hold at least `_NUMPY_MIN_BYTES`, all ASCII and none of
    `_REFUSED_BYTES`.  Its header and rows are the lines of `input_lines`,
    as for csv, and the header is split as csv splits it (the last of a
    duplicated name wins).  A row that loadtxt refuses, a cell that is
    not finite and a log without data rows give None too, so that every
    fault is `parse_table`'s.
    """
    if len(data) < _NUMPY_MIN_BYTES or not data.isascii() or any(b in data for b in _REFUSED_BYTES):
        return None
    lines = input_lines(path, data)
    index = {name: i for i, name in enumerate(lines.readline().rstrip("\r\n").split(","))}
    if "t_s" not in index or "f_hz" not in index:
        return None
    import numpy as np

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a log without data rows; `parse_table` names the fault
            cells = np.loadtxt(lines, delimiter=",", usecols=[index["t_s"], index["f_hz"]], comments=None, ndmin=2)
    except ValueError:
        return None
    if not len(cells) or not np.isfinite(cells).all():
        return None
    return dict(zip(("t_s", "f_hz"), cells.T.copy()))  # each column contiguous


def _numpy_steps(t) -> tuple[float, bool, bool]:
    """(median step, whether every step is > 0, whether every step is within 1e-6 of the median) of sample times."""
    import numpy as np

    dt = np.diff(t)
    half = len(dt) // 2
    # np.median's value, from the middle steps alone: np.median's first call imports numpy.ma
    middle = np.partition(dt, half if len(dt) % 2 else (half - 1, half))
    tau0 = float(middle[half]) if len(dt) % 2 else (float(middle[half - 1]) + float(middle[half])) / 2.0
    return tau0, bool(np.all(dt > 0)), not np.any(np.abs(dt - tau0) > 1e-6 * tau0)


def _python_steps(t) -> tuple[float, bool, bool]:
    dt = list(map(operator.sub, t[1:], t))
    ordered, half = sorted(dt), len(dt) // 2
    tau0 = ordered[half] if len(dt) % 2 else (ordered[half - 1] + ordered[half]) / 2.0  # np.median's
    return tau0, ordered[0] > 0, not any(abs(d - tau0) > 1e-6 * tau0 for d in dt)


def _first_far(series: FrequencyTimeSeries) -> int | None:
    """The index of the first fractional sample with |y| >= 1 (an overflow to inf among them), or None."""
    if not _is_ndarray(series.samples):
        return next((i for i, v in enumerate(series.fractional) if abs(v) >= 1), None)
    import numpy as np

    with np.errstate(over="ignore"):  # a sample that overflows is as far off as any
        far = np.flatnonzero(np.abs(series.fractional) >= 1)
    return int(far[0]) if far.size else None

