"""Frequency-chain arithmetic and stability analysis.

The mid-infrared spectroscopy wave is generated by difference-frequency
mixing of two near-infrared lasers locked to one frequency comb, so its
absolute frequency follows from comb arithmetic in which the carrier
envelope offset cancels exactly.  Counter time series are characterized
with the overlapping Allan deviation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .quantity import FINITE, overflow_as_value_error, read_table

# numpy is imported inside the functions that build arrays (see `quantity`)


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
        import numpy as np

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
    chi-squared quantiles at the white-FM equivalent degrees of freedom,
    which are at least 2/3 (n = 2, m = 1).  Samples so large that the
    variance overflows float64 raise ValueError.
    """
    import numpy as np

    with overflow_as_value_error("Allan deviation"):
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
            edf = _white_fm_edf(n, m)
            # chi-squared quantile with edf degrees of freedom: 2 P^-1(edf / 2, p)
            ci_low = adev * math.sqrt(edf / (2.0 * _gammaincinv(edf / 2.0, 0.84)))
            ci_high = adev * math.sqrt(edf / (2.0 * _gammaincinv(edf / 2.0, 0.16)))
            out.append((float(tau), adev, ci_low, ci_high))
    return out


# --- the regularized incomplete gamma function --------------------------------
#
# P(a, x) = gamma(a, x) / Gamma(a) and its inverse in x, in pure Python.  The
# chi-squared quantile with nu degrees of freedom at p is 2 P^-1(nu / 2, p).
# Methods: Numerical Recipes (3rd ed.) section 6.2 for the series, the
# continued fraction and the start of the inversion; Temme's uniform
# expansion (N. M. Temme, SIAM J. Math. Anal. 10, 757 (1979); A. R. DiDonato
# and A. H. Morris, ACM TOMS 12, 377 (1986)) near the peak at large a, where
# the series and the continued fraction need O(sqrt(a)) terms.

_EPS = 2.220446049250313e-16
# B_2k / (2k (2k - 1)) for the Stirling series of ln Gamma*(a), Gamma*(a) the
# ratio of Gamma(a) to Stirling's formula: eight terms are exact to 1e-16 at a = 10
_LN_GAMMA_STAR = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
# the expansion is used for a >= _TEMME_MIN_A and |x - a| <= 0.3 a,
# where |eta| < 0.34: there _TEMME_TERMS powers of eta (radius of convergence
# 2 sqrt(pi)) and _TEMME_ORDERS powers of 1/a reach the last bit
_TEMME_MIN_A = 20.0
_TEMME_ORDERS = 15
_TEMME_TERMS = 20
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


@functools.cache
def _temme_coefficients() -> tuple[tuple[float, ...], ...]:
    """d[k][n]: the coefficient of eta^n in C_k(eta) of Temme's expansion.

    With lambda = x / a and eta^2 / 2 = lambda - 1 - ln(lambda),
        Q(a, x) = erfc(eta sqrt(a / 2)) / 2 + exp(-a eta^2 / 2) / sqrt(2 pi a) sum_k C_k(eta) a^-k,
        C_0 = 1 / mu - 1 / eta,   C_k = C_k-1' / eta + (-1)^k g_k / mu,   mu = lambda - 1,
    with g_k the Stirling coefficients of Gamma*(a) (DLMF 8.12.8-8.12.9).  All of
    it follows from the series of mu in eta, fixed by mu mu' = eta (1 + mu).
    """
    size = _TEMME_TERMS + 2 * _TEMME_ORDERS + 2
    mu = [0.0, 1.0]
    for m in range(2, size + 1):
        cross = sum(j * mu[m + 1 - j] * mu[j] for j in range(2, m))
        mu.append((mu[m - 1] - cross) / (m + 1))
    # eta / mu = sum_n b[n] eta^n
    b = [1.0]
    for n in range(1, size):
        b.append(-sum(mu[i + 1] * b[n - i] for i in range(1, n + 1)))
    # Gamma(a) = a^a e^-a int exp(-a eta^2 / 2) (eta / mu) d eta gives g_k = (2k - 1)!! b[2k]
    rows = [b[1:]]
    double_factorial = 1.0
    for k in range(1, _TEMME_ORDERS):
        double_factorial *= 2 * k - 1
        g_k = (-1) ** k * double_factorial * b[2 * k]
        prev = rows[-1]
        rows.append([(n + 2) * prev[n + 2] + g_k * b[n + 1] for n in range(len(prev) - 2)])
    return tuple(tuple(row[:_TEMME_TERMS]) for row in rows)


def _temme_p(a: float, x: float) -> float:
    """P(a, x) from Temme's expansion (see `_temme_coefficients`), for x near a."""
    s = (x - a) / a
    eta = math.copysign(math.sqrt(-2.0 * _log1pmx(s)), s)
    total, afac, last = 0.0, 1.0, math.inf
    for row in _temme_coefficients():
        c_k = 0.0
        for d in reversed(row):
            c_k = c_k * eta + d
        term = c_k * afac
        total += term
        # two negligible orders in a row: one C_k can vanish near a root of its own
        if abs(term) <= _EPS * abs(total) and last <= _EPS * abs(total):
            break
        last = abs(term)
        afac /= a
    tail = math.exp(-0.5 * a * eta * eta) / math.sqrt(2.0 * math.pi * a) * total
    return 0.5 * math.erfc(-eta * math.sqrt(0.5 * a)) - tail


def _series_or_fraction_p(a: float, x: float) -> float:
    """P(a, x) from the series below x = a + 1 and from the continued fraction for Q above."""
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


def _gamma_p(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x) for a > 0, x > 0."""
    if a >= _TEMME_MIN_A and abs(x - a) <= 0.3 * a:
        return _temme_p(a, x)
    return _series_or_fraction_p(a, x)


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

    Both columns must be finite.
    """
    import numpy as np

    cols = read_table(path, [(("t_s", "f_hz"), FINITE)])
    t, f = cols["t_s"], cols["f_hz"]
    if len(t) < 2:
        raise ValueError(f"{path}: need at least 2 counter samples")
    dt = np.diff(t)
    tau0 = float(np.median(dt))
    if np.any(np.abs(dt - tau0) > 1e-6 * tau0):
        raise ValueError(f"{path}: sampling is not uniform")
    return FrequencyTimeSeries(tau0, f, carrier_hz=carrier_hz)

