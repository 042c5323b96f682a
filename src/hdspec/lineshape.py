"""Depletion spectra and Lorentzian line fits.

Raw data are per-detuning decay records taken with and without the
spectroscopy radiation, held as columns (`DecayScan`: one column each of
detuning, laser on/off and depletion, in file order).  The
background-subtracted signal is fit to

    s(delta) = offset + amplitude * (G^2/4) / ((delta - center)^2 + G^2/4)

by damped Gauss-Newton.  The statistical uncertainty assigned to a line
center is half the fitted FWHM by convention, not the covariance-based
center error.

Everything here runs on Python floats.  A spectrum has tens to a few
hundred points and the fit four parameters, so its normal equations are
4 x 4: importing numpy would cost more than the whole fit.  `read_table`
reads every decay scan row by row into lists of Python floats, so
`fit-line` starts without numpy at any input size.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import defaultdict
from pathlib import Path
from typing import Sequence

from .quantity import FINITE, FLAG, UNIT_INTERVAL, UNUSED_TEXT, Quantity, finite, overflow_as_value_error, read_table


class FitError(RuntimeError):
    """Nonlinear fit failed; carries the accepted-cost trace."""

    def __init__(self, message: str, trace: Sequence[float] = ()):
        super().__init__(message)
        self.trace = tuple(trace)


class LowSignalError(FitError):
    """Fitted amplitude is consistent with zero."""


class DecayScan:
    """Decay records as columns, one entry per record in file order.

    `detuning` (kHz, finite), `laser_on` (1.0 with the spectroscopy
    radiation, 0.0 for background) and `depletion` (in [0, 1]) are lists
    of Python floats of one length, the number of records, which `len`
    gives.  The columns are taken as given: `read_decay_csv` hands over
    the ones that `read_table` has checked.
    """

    __slots__ = ("detuning", "laser_on", "depletion")

    def __init__(self, detuning: list[float], laser_on: list[float], depletion: list[float]) -> None:
        self.detuning = detuning
        self.laser_on = laser_on
        self.depletion = depletion

    def __len__(self) -> int:
        return len(self.detuning)


class SpectrumPoint:
    """Background-subtracted signal at one detuning.

    sem is None when either record class has a single sample, in which
    case the scatter of the difference is undefined.
    """

    __slots__ = ("detuning", "signal", "sem")

    def __init__(self, detuning: float, signal: float, sem: float | None) -> None:
        if sem is not None and sem < 0:
            raise ValueError("sem must be >= 0")
        self.detuning = detuning
        self.signal = signal
        self.sem = sem


def _class_stats(values: list[float]) -> tuple[float, float | None]:
    """Mean and SEM (None for a single record) of one record class.

    Both sums are `math.fsum`, correctly rounded: the same values in any
    order give the same bits.  The SEM is the sample standard deviation
    (n - 1) over sqrt(n).
    """
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, None
    return mean, math.sqrt(math.fsum([(v - mean) * (v - mean) for v in values]) / (n - 1)) / math.sqrt(n)


def build_spectrum(scan: DecayScan) -> list[SpectrumPoint]:
    """Difference the on/off record classes per detuning, in ascending detuning.

    signal = mean(on) - mean(off), sem = sqrt(sem_on^2 + sem_off^2), each
    class summed by `_class_stats`, so the spectrum does not depend on
    the order of the records.  -0.0 and 0.0 are one detuning, reported as
    the one the file has first.  The lowest detuning that lacks a class
    raises ValueError naming it.
    """
    detuning = scan.detuning
    on, off = defaultdict(list), defaultdict(list)  # detuning -> depletions; -0.0 and 0.0 are one key
    for key, laser_on, value in zip(detuning, scan.laser_on, scan.depletion):
        (on if laser_on else off)[key].append(value)
    points = []
    for key in sorted(on.keys() | off.keys()):
        if key == 0.0:
            key = detuning[detuning.index(0.0)]  # -0.0 or 0.0, whichever the file has first
        if key not in on or key not in off:
            raise ValueError(f"detuning {key} kHz has no {'laser-on' if key not in on else 'background'} records")
        (mean_on, sem_on), (mean_off, sem_off) = _class_stats(on[key]), _class_stats(off[key])
        sem = None
        if sem_on is not None and sem_off is not None:
            sem = math.sqrt(sem_on ** 2 + sem_off ** 2)
        points.append(SpectrumPoint(key, mean_on - mean_off, sem))
    return points


class LineFit:
    """A converged Lorentzian fit: `fit_lorentzian` returns no other, and raises FitError where a fit does not converge."""

    __slots__ = ("center", "fwhm", "amplitude", "offset", "covariance", "residual_norm", "n_iter", "cost_trace")

    def __init__(
        self,
        center: float,
        fwhm: float,
        amplitude: float,
        offset: float,
        covariance: tuple[tuple[float, ...], ...],  # 4 x 4, in PARAM_NAMES order
        residual_norm: float,
        n_iter: int = 0,
        cost_trace: tuple[float, ...] = (),
    ) -> None:
        self.center = center
        self.fwhm = fwhm
        self.amplitude = amplitude
        self.offset = offset
        self.covariance = covariance
        self.residual_norm = residual_norm
        self.n_iter = n_iter
        self.cost_trace = cost_trace

    PARAM_NAMES = ("center", "fwhm", "amplitude", "offset")


def _evaluate(p: list[float], x: list[float], y: list[float]) -> tuple[list[float], ...]:
    """(u, denom, q, residuals) at `p`: u = x - center, denom = u^2 + G^2/4, q = (G^2/4) / denom.

    Squares are `**`, which raises OverflowError where a product would
    leave float64 in silence.
    """
    center, gamma, amp, offset = p
    h = gamma ** 2 / 4.0
    u = [xi - center for xi in x]
    denom = [ui ** 2 + h for ui in u]
    q = [h / di for di in denom]
    return u, denom, q, [yi - (offset + amp * qi) for yi, qi in zip(y, q)]


def _cost(w: list[float], r: list[float]) -> float:
    cost = math.fsum(map(operator.mul, w, map(operator.mul, r, r)))
    finite("cost", cost)
    return cost


def _normal_equations(p: list[float], evaluated, w: list[float]):
    """J^T W J and J^T W r at `p`, J the model's derivatives by (center, fwhm, amplitude, offset).

    `evaluated` is what `_evaluate` gives at `p`.
    """
    u, denom, q, r = evaluated
    _, gamma, amp, _ = p
    h = gamma ** 2 / 4.0
    d2 = [di ** 2 for di in denom]
    by_center, by_fwhm = amp * h * 2.0, amp * (gamma / 2.0)
    jac = [
        [by_center * ui / di for ui, di in zip(u, d2)],
        [by_fwhm * ui ** 2 / di for ui, di in zip(u, d2)],
        q,
        [1.0] * len(q),
    ]
    wj = [list(map(operator.mul, w, col)) for col in jac]
    normal = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        for k in range(i, 4):
            normal[i][k] = normal[k][i] = math.fsum(map(operator.mul, wj[i], jac[k]))
    grad = [math.fsum(map(operator.mul, col, r)) for col in wj]
    finite("normal matrix", *normal[0], *normal[1], *normal[2], *normal[3], *grad)
    return normal, grad


def _cholesky_inverse(a: list[list[float]]) -> list[list[float]] | None:
    """The inverse of a symmetric positive semi-definite 4 x 4 matrix whose null space is spanned by unit vectors.

    A parameter whose diagonal element is 0 (its Jacobian column is 0)
    gets a zero row and column, as the pseudo-inverse gives it; the rest
    is inverted by Cholesky.  None if that rest is not positive
    definite: a singular matrix of any other kind.
    """
    free = [i for i in range(4) if a[i][i] != 0.0]
    n = len(free)
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = a[free[j]][free[j]] - math.fsum(low[j][k] ** 2 for k in range(j))
        if not pivot > 0.0:
            return None
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            low[i][j] = (a[free[i]][free[j]] - math.fsum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
    # inv(L) column by column, then inv(A) = inv(L)^T inv(L)
    inv_low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        inv_low[j][j] = 1.0 / low[j][j]
        for i in range(j + 1, n):
            inv_low[i][j] = -math.fsum(low[i][k] * inv_low[k][j] for k in range(j, i)) / low[i][i]
    out = [[0.0] * 4 for _ in range(4)]
    for a_, i in enumerate(free):
        for b_, j in enumerate(free):
            out[i][j] = math.fsum(inv_low[k][a_] * inv_low[k][b_] for k in range(max(a_, b_), n))
    return out


def _initial_guess(x: list[float], y: list[float]) -> list[float]:
    # outer-quartile points estimate the baseline; the extremal deviation
    # from it sets the center and the sign of the line
    order = sorted(range(len(x)), key=x.__getitem__)
    k = max(1, len(x) // 4)
    edges = sorted([y[i] for i in order[:k]] + [y[i] for i in order[-k:]])
    offset = (edges[k - 1] + edges[k]) / 2.0  # the median of the 2k edge points
    extremal = max(range(len(y)), key=lambda i: abs(y[i] - offset))
    sign = 1.0 if y[extremal] >= offset else -1.0
    return [x[extremal], (max(x) - min(x)) / 2.0, sign * (max(y) - min(y)), offset]


@overflow_as_value_error("Lorentzian fit")
def fit_lorentzian(points: Sequence[SpectrumPoint]) -> LineFit:
    """Damped Gauss-Newton fit of a single Lorentzian.

    The damping factor starts at 1e-3, shrinks by 10 on each accepted
    step and grows by 10 on each rejected one (Marquardt diagonal
    scaling).  Each step solves the damped 4 x 4 normal equations by
    Cholesky; a parameter whose Jacobian column is 0 stays where it is
    (the minimum-norm step), and a damped matrix that is not positive
    definite rejects the step.  Convergence requires a relative cost
    change below 1e-12 or a step norm below 1e-10 within 200 iterations;
    else FitError, with the accepted-cost trace, says that the line is
    narrower than the point spacing if |FWHM| ended below the smallest
    detuning step.  Residuals are inverse-variance weighted when every
    point carries a sem, otherwise unweighted.

    The parameter covariance is the inverse of the unscaled
    (damping-free) normal matrix times the reduced chi-square.  A
    parameter whose Jacobian column is 0 at the solution gets a zero row
    and column, the pseudo-inverse's answer, so a fit to a flat signal
    (amplitude 0, center and width undetermined) ends in LowSignalError;
    any other singular normal matrix raises FitError.  Arithmetic beyond
    float64 raises ValueError `Lorentzian fit overflows float64 (...)`.
    """
    if len(points) < 5:
        raise ValueError(f"need at least 5 spectrum points, got {len(points)}")
    x = [pt.detuning for pt in points]
    y = [pt.signal for pt in points]
    sems = [pt.sem for pt in points]
    if all(s is not None and s > 0 for s in sems):
        w = [1.0 / s ** 2 for s in sems]
    else:
        w = [1.0] * len(y)

    p = _initial_guess(x, y)
    span = max(x) - min(x)
    if span <= abs(p[1]):
        raise ValueError(f"detuning span {span} kHz does not cover one initial FWHM {p[1]} kHz")

    lam = 1e-3
    here = _evaluate(p, x, y)
    cost = _cost(w, here[3])
    trace = [cost]
    converged = False
    for n_iter in range(1, 201):
        normal, grad = _normal_equations(p, here, w)
        damped = [[v + lam * row[i] if i == k else v for k, v in enumerate(row)] for i, row in enumerate(normal)]
        inverse = _cholesky_inverse(damped)
        new_cost = math.inf
        if inverse is not None:
            step = [math.fsum(map(operator.mul, row, grad)) for row in inverse]
            trial = [pi + si for pi, si in zip(p, step)]
            there = _evaluate(trial, x, y)
            new_cost = _cost(w, there[3])
        if new_cost <= cost:
            p, here = trial, there
            lam *= 0.1
            rel = (cost - new_cost) / max(cost, sys.float_info.min)
            cost = new_cost
            trace.append(cost)
            if rel < 1e-12 or math.hypot(*step) < 1e-10:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    if not converged:
        xs = sorted(set(x))
        spacing = min(map(operator.sub, xs[1:], xs))
        if abs(p[1]) < spacing:  # the best fit is a spike through one point, with no width the points resolve
            raise FitError(f"the line is narrower than the point spacing: |FWHM| {abs(p[1]):.3g} < {spacing:.3g} kHz", trace)
        raise FitError(f"no convergence after {n_iter} iterations (cost {cost:.6g})", trace)

    p[1] = abs(p[1])
    normal, _ = _normal_equations(p, _evaluate(p, x, y), w)
    inverse = _cholesky_inverse(normal)
    if inverse is None:
        raise FitError("the normal matrix at the solution is singular: the data do not determine the parameters", trace)
    dof = len(x) - 4
    scale = cost / dof if dof > 0 else 1.0
    covariance = tuple(tuple(v * scale for v in row) for row in inverse)
    sigma_amp = math.sqrt(max(covariance[2][2], 0.0))
    if not abs(p[2]) > 2.0 * sigma_amp:
        raise LowSignalError(
            f"amplitude {p[2]:.3g} consistent with zero (2 sigma = {2 * sigma_amp:.3g})", trace
        )
    return LineFit(
        center=p[0],
        fwhm=p[1],
        amplitude=p[2],
        offset=p[3],
        covariance=covariance,
        residual_norm=math.sqrt(cost),
        n_iter=n_iter,
        cost_trace=tuple(trace),
    )


def line_frequency(fit: LineFit, absolute_offset: float) -> Quantity:
    """Absolute line-center frequency of a fit (each `LineFit` has converged), with the half-linewidth convention.

    The `exp` component is fwhm/2 regardless of the covariance-based
    center error; this deliberately conservative rule is what enters the
    systematic-shift ledgers downstream.
    """
    return Quantity(absolute_offset + fit.center, "kHz", {"exp": fit.fwhm / 2.0})


# ---------------------------------------------------------------------------
# file interfaces


def read_decay_csv(path: str | Path) -> DecayScan:
    """Read `detuning_khz, run_id, laser_on(0|1), depletion` rows as a `DecayScan`.

    detuning_khz must be finite, depletion in [0, 1] and laser_on a number
    equal to 0 or 1; run_id is any text, a required column and cell, not
    kept.  Faults are `read_table`'s.
    """
    cols = read_table(path, {"detuning_khz": FINITE, "depletion": UNIT_INTERVAL, "laser_on": FLAG, "run_id": UNUSED_TEXT})
    return DecayScan(cols["detuning_khz"], cols["laser_on"], cols["depletion"])


def fit_report(fit: LineFit) -> dict:
    """All fit fields as a JSON-ready mapping; `converged` is true, as it is for every `LineFit`."""
    return {
        "center_khz": fit.center,
        "fwhm_khz": fit.fwhm,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "residual_norm": fit.residual_norm,
        "converged": True,
        "n_iter": fit.n_iter,
    }
