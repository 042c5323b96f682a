"""Depletion spectra and Lorentzian line fits.

Raw data are per-detuning decay records taken with and without the
spectroscopy radiation, held as columns (`DecayScan`: one column each of
detuning, laser on/off and depletion, in file order).  The
background-subtracted signal is fit to

    s(delta) = offset + amplitude * (G^2/4) / ((delta - center)^2 + G^2/4)

by variable projection: amplitude and offset are linear, so they are
solved in closed form at each (center, FWHM), and damped Newton steps
on the exact Hessian of the projected cost search those two alone.
The statistical uncertainty assigned to a line center is half the
fitted FWHM by convention, not the covariance-based center error.

Everything here runs on Python floats.  A spectrum has tens to a few
hundred points; the fit's steps are 2 x 2 and its covariance 4 x 4, so
importing numpy would cost more than the whole fit.  `read_table` reads
every decay scan row by row into lists of Python floats, so `fit-line`
starts without numpy at any input size.
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


def _line_shape(center: float, gamma: float, x: list[float]) -> tuple[list[float], list[float], list[float]]:
    """(u, denom, q) at (center, FWHM): u = x - center, denom = u^2 + G^2/4, q = (G^2/4) / denom.

    Squares are `**`, which raises OverflowError where a product would
    leave float64 in silence.
    """
    h = gamma ** 2 / 4.0
    u = [xi - center for xi in x]
    denom = [ui ** 2 + h for ui in u]
    return u, denom, [h / di for di in denom]


def _shape_derivatives(gamma: float, u: list[float], denom: list[float]) -> tuple[list[float], list[float]]:
    """The derivatives of q by center and by FWHM, from what `_line_shape` gave."""
    h = gamma ** 2 / 4.0
    d2 = [di ** 2 for di in denom]
    by_center, by_fwhm = h * 2.0, gamma / 2.0
    return [by_center * ui / di for ui, di in zip(u, d2)], [by_fwhm * ui ** 2 / di for ui, di in zip(u, d2)]


def _cost(w: list[float], r: list[float]) -> float:
    cost = math.fsum(map(operator.mul, w, map(operator.mul, r, r)))
    finite("cost", cost)
    return cost


def _linear_fit(
    center: float, gamma: float, x: list[float], w: list[float], total: float, yc: list[float], mean_y: float
):
    """(parameters, state, cost) of the line at (center, FWHM) with its best amplitude and offset.

    Amplitude and offset solve the weighted 2 x 2 linear least-squares
    problem in closed form about the weighted means: with qc = q - mean(q)
    and yc = y - mean(y), amplitude = <qc, yc> / <qc, qc> and offset =
    mean(y) - amplitude mean(q), each <., .> a `math.fsum`.  A flat q
    (<qc, qc> = 0) leaves the amplitude 0.  The residuals are yc -
    amplitude qc; `state` is what `_projected_step` takes.
    """
    u, denom, q = _line_shape(center, gamma, x)
    mean_q = math.fsum(map(operator.mul, w, q)) / total
    qc = [qi - mean_q for qi in q]
    wqc = list(map(operator.mul, w, qc))
    sqq = math.fsum(map(operator.mul, wqc, qc))
    amp = math.fsum(map(operator.mul, wqc, yc)) / sqq if sqq > 0.0 else 0.0
    r = [yi - amp * qi for yi, qi in zip(yc, qc)]
    return [center, gamma, amp, mean_y - amp * mean_q], (u, denom, qc, wqc, sqq, r), _cost(w, r)


def _damped_solve(a00: float, a01: float, a11: float, g0: float, g1: float, d0: float, d1: float):
    """The solution of (A + diag(d0, d1)) step = g for a symmetric 2 x 2 A, or None where that matrix is not positive definite.

    Solved in closed form after scaling by the square roots of the
    diagonal, so no product leaves float64.
    """
    b00, b11 = a00 + d0, a11 + d1
    if not (b00 > 0.0 and b11 > 0.0):
        return None
    s0, s1 = math.sqrt(b00), math.sqrt(b11)
    rho = a01 / s0 / s1
    det = 1.0 - rho * rho
    if not det > 0.0:
        return None
    c0, c1 = g0 / s0, g1 / s1
    return (c0 - rho * c1) / det / s0, (c1 - rho * c0) / det / s1


def _projected_step(p: list[float], state, w: list[float], total: float, lam: float) -> tuple[float, float] | None:
    """The damped step in (center, FWHM) from the state that `_linear_fit` gave, or None.

    With dq the derivatives of q by center and FWHM, s = <dq, r> and
    sigma their slopes on q: Kaufman's Jacobian is amplitude times dq with
    its weighted projection on span{1, q} (the columns of amplitude and
    offset) taken off, M is its normal matrix, and g = amplitude s is
    minus half the gradient of the cost.  The exact Hessian of the
    projected cost is H = M - amplitude <r, d2q> + amplitude (s sigma^T +
    sigma s^T) - s s^T / <qc, qc>.  The step solves (H + lam diag M) step
    = g; None where that matrix is not positive definite.  A zero column
    of M keeps its parameter where it is (the minimum-norm step).
    """
    _, gamma, amp, _ = p
    u, denom, qc, wqc, sqq, r = state
    dq = _shape_derivatives(gamma, u, denom)
    projected, slopes = [], []
    for col in dq:
        mean = math.fsum(map(operator.mul, w, col)) / total
        slope = math.fsum(map(operator.mul, wqc, col)) / sqq if sqq > 0.0 else 0.0
        projected.append([c - mean - slope * qi for c, qi in zip(col, qc)])
        slopes.append(slope)
    (d0, d1), (t0, t1) = projected, slopes
    wd0, wd1 = list(map(operator.mul, w, d0)), list(map(operator.mul, w, d1))
    wr = list(map(operator.mul, w, r))
    m00, m01, m11 = (amp ** 2 * math.fsum(map(operator.mul, a, b)) for a, b in ((wd0, d0), (wd0, d1), (wd1, d1)))
    s0, s1 = (math.fsum(map(operator.mul, wr, col)) for col in dq)
    # <r, d2q>: q by center twice, by center and FWHM, by FWHM twice
    h = gamma ** 2 / 4.0
    u2 = [ui ** 2 for ui in u]
    e = [wi / di ** 3 for wi, di in zip(wr, denom)]
    c00 = 2.0 * h * math.fsum([ei * (3.0 * vi - h) for ei, vi in zip(e, u2)])
    c01 = gamma * math.fsum([ei * ui * (vi - h) for ei, ui, vi in zip(e, u, u2)])
    c11 = 0.5 * math.fsum([ei * vi * (vi - 3.0 * h) for ei, vi in zip(e, u2)])
    k = 1.0 / sqq if sqq > 0.0 else 0.0
    n00 = m00 - amp * c00 + 2.0 * amp * s0 * t0 - k * s0 * s0
    n01 = m01 - amp * c01 + amp * (s0 * t1 + t0 * s1) - k * s0 * s1
    n11 = m11 - amp * c11 + 2.0 * amp * s1 * t1 - k * s1 * s1
    g0, g1 = amp * s0, amp * s1
    finite("normal matrix", m00, m01, m11, n00, n01, n11, g0, g1)
    if not (m00 > 0.0 and m11 > 0.0):  # a zero column: its parameter stays, the other takes Marquardt's step alone
        return (g0 / m00 / (1.0 + lam) if m00 else 0.0), (g1 / m11 / (1.0 + lam) if m11 else 0.0)
    return _damped_solve(n00, n01, n11, g0, g1, lam * m00, lam * m11)


def _normal_matrix(p: list[float], x: list[float], w: list[float]) -> list[list[float]]:
    """J^T W J at `p`, J the model's derivatives by (center, fwhm, amplitude, offset)."""
    center, gamma, amp, _ = p
    u, denom, q = _line_shape(center, gamma, x)
    jac = [*([amp * v for v in col] for col in _shape_derivatives(gamma, u, denom)), q, [1.0] * len(q)]
    wj = [list(map(operator.mul, w, col)) for col in jac]
    normal = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        for k in range(i, 4):
            normal[i][k] = normal[k][i] = math.fsum(map(operator.mul, wj[i], jac[k]))
    finite("normal matrix", *normal[0], *normal[1], *normal[2], *normal[3])
    return normal


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


def _initial_guess(x: list[float], y: list[float]) -> tuple[float, float]:
    """(center, FWHM) to start from: the extremal point and the width of the line at half its height there.

    The median of the outer-quartile points estimates the baseline; the
    point that deviates most from it sets the center and the sign of the
    line.  On each side the first point below half that height gives a
    crossing, linearly interpolated from its inner neighbour.  A side
    without one takes the other side's half-width; with neither, or at
    span/2 or more, the FWHM is span/2.
    """
    order = sorted(range(len(x)), key=x.__getitem__)
    xs, ys = [x[i] for i in order], [y[i] for i in order]
    k = max(1, len(x) // 4)
    edges = sorted(ys[:k] + ys[-k:])
    offset = (edges[k - 1] + edges[k]) / 2.0  # the median of the 2k edge points
    j = max(range(len(ys)), key=lambda i: abs(ys[i] - offset))
    sign = 1.0 if ys[j] >= offset else -1.0
    height = [sign * (yi - offset) for yi in ys]
    half = height[j] / 2.0
    half_widths = []
    if half > 0.0:
        # the half-width measured from xs[j] in differences of neighbours, which a shift of every x keeps bit for bit
        for inward, side in ((1, range(j - 1, -1, -1)), (-1, range(j + 1, len(xs)))):
            for i in side:
                if height[i] <= half:
                    inner = i + inward
                    t = (height[inner] - half) / (height[inner] - height[i])
                    half_widths.append(abs(xs[j] - xs[inner]) + t * abs(xs[inner] - xs[i]))
                    break
    span = xs[-1] - xs[0]
    fwhm = 2.0 * half_widths[0] if len(half_widths) == 1 else math.fsum(half_widths)
    return xs[j], fwhm if 0.0 < fwhm < span / 2.0 else span / 2.0


@overflow_as_value_error("Lorentzian fit")
def fit_lorentzian(points: Sequence[SpectrumPoint]) -> LineFit:
    """Variable-projection fit of a single Lorentzian (Golub & Pereyra 1973; Kaufman 1975).

    Amplitude and offset enter the model linearly: at each trial center
    and FWHM they are the closed-form weighted least-squares solution
    (`_linear_fit`), so the search runs over (center, FWHM) alone.  Each
    step is Newton's on the exact Hessian of that projected cost, damped
    and solved in closed form (`_projected_step`); a step whose damped
    matrix is not positive definite is rejected, as is one that raises
    the cost.  The damping factor starts at 1e-3, shrinks by 10 on each
    accepted step and grows by 10 on each rejected one.  The search starts
    at the extremal point with the width of its half-height crossings
    (`_initial_guess`).  Convergence requires a relative cost change below
    1e-12 or a step norm (of all four parameters) below 1e-10 within 200
    iterations.  Residuals are inverse-variance weighted when every point
    carries a sem, otherwise unweighted.

    The parameter covariance is the inverse of the full four-parameter
    normal matrix at the solution times the reduced chi-square.  A
    parameter whose Jacobian column is 0 at the solution gets a zero row
    and column, the pseudo-inverse's answer, so a fit to a flat signal
    (amplitude 0, center and width undetermined) ends in LowSignalError;
    any other singular normal matrix raises FitError, as does a fit that
    does not converge.  Each such FitError carries the accepted-cost
    trace, and where the fit ended with |FWHM| below the smallest
    detuning step it says instead that the line is narrower than the
    point spacing: the best line is then a spike through one point, or a
    width that the points do not resolve.  Arithmetic beyond float64
    raises ValueError `Lorentzian fit overflows float64 (...)`.
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

    center, gamma = _initial_guess(x, y)
    span = max(x) - min(x)
    if span <= abs(gamma):
        raise ValueError(f"detuning span {span} kHz does not cover one initial FWHM {gamma} kHz")

    total = math.fsum(w)
    mean_y = math.fsum(map(operator.mul, w, y)) / total
    yc = [yi - mean_y for yi in y]
    lam = 1e-3
    p, state, cost = _linear_fit(center, gamma, x, w, total, yc, mean_y)
    trace = [cost]
    converged = False
    for n_iter in range(1, 201):
        step = _projected_step(p, state, w, total, lam)
        new_cost = math.inf
        if step is not None:
            trial, there, new_cost = _linear_fit(p[0] + step[0], p[1] + step[1], x, w, total, yc, mean_y)
        if new_cost <= cost:
            moved = math.hypot(*map(operator.sub, trial, p))
            p, state = trial, there
            lam *= 0.1
            rel = (cost - new_cost) / max(cost, sys.float_info.min)
            cost = new_cost
            trace.append(cost)
            if rel < 1e-12 or moved < 1e-10:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    p[1] = abs(p[1])
    if not converged:
        fault = FitError(f"no convergence after {n_iter} iterations (cost {cost:.6g})", trace)
    elif (inverse := _cholesky_inverse(_normal_matrix(p, x, w))) is None:
        fault = FitError("the normal matrix at the solution is singular: the data do not determine the parameters", trace)
    else:
        dof = len(x) - 4
        scale = cost / dof if dof > 0 else 1.0
        covariance = tuple(tuple(v * scale for v in row) for row in inverse)
        sigma_amp = math.sqrt(max(covariance[2][2], 0.0))
        fault = None
        if not abs(p[2]) > 2.0 * sigma_amp:
            fault = LowSignalError(f"amplitude {p[2]:.3g} consistent with zero (2 sigma = {2 * sigma_amp:.3g})", trace)
    if fault is not None:
        xs = sorted(set(x))
        spacing = min(map(operator.sub, xs[1:], xs))
        if p[1] < spacing:  # the best fit is a spike through one point, with no width the points resolve
            raise FitError(f"the line is narrower than the point spacing: |FWHM| {p[1]:.3g} < {spacing:.3g} kHz", trace)
        raise fault
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
