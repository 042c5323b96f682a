"""Depletion spectra and Lorentzian line fits.

Raw data are per-detuning decay records taken with and without the
spectroscopy radiation, held as columns (`DecayScan`: one array each of
detuning, laser on/off and depletion, in file order).  The
background-subtracted signal is fit to

    s(delta) = offset + amplitude * (G^2/4) / ((delta - center)^2 + G^2/4)

by damped Gauss-Newton.  The statistical uncertainty assigned to a line
center is half the fitted FWHM by convention, not the covariance-based
center error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .quantity import FINITE, FLAG, TEXT, UNIT_INTERVAL, Quantity, overflow_as_value_error, read_table


class FitError(RuntimeError):
    """Nonlinear fit failed; carries the accepted-cost trace."""

    def __init__(self, message: str, trace: Sequence[float] = ()):
        super().__init__(message)
        self.trace = tuple(trace)


class LowSignalError(FitError):
    """Fitted amplitude is consistent with zero."""


@dataclass(frozen=True, eq=False)
class DecayScan:
    """Decay records as columns, one entry per record in file order.

    `detuning` (kHz, finite), `laser_on` (True with the spectroscopy
    radiation, False for background) and `depletion` (in [0, 1]) are 1-d
    arrays of one length, the number of records, which `len` gives.  The
    constructor takes any sequences and converts them.
    """

    detuning: np.ndarray
    laser_on: np.ndarray
    depletion: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("detuning", float), ("laser_on", bool), ("depletion", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not (self.detuning.ndim == 1 and self.detuning.shape == self.laser_on.shape == self.depletion.shape):
            raise ValueError("decay columns must be 1-d and of one length")
        with np.errstate(invalid="ignore"):  # NaN fails a rule quietly
            for name, rule in (("detuning", FINITE), ("depletion", UNIT_INTERVAL)):
                column = getattr(self, name)
                outside = ~rule.accepts(column)
                if outside.any():
                    raise ValueError(f"{name} {rule.requirement}, got {float(column[outside][0])}")

    def __len__(self) -> int:
        return len(self.detuning)


@dataclass(frozen=True)
class SpectrumPoint:
    """Background-subtracted signal at one detuning.

    sem is None when either record class has a single sample, in which
    case the scatter of the difference is undefined.
    """

    detuning: float
    signal: float
    sem: float | None

    def __post_init__(self) -> None:
        if self.sem is not None and self.sem < 0:
            raise ValueError("sem must be >= 0")


def _class_stats(values: np.ndarray) -> tuple[np.float64, float | None]:
    """Mean and SEM of one record class, by the steps of `np.mean` and `np.std(ddof=1)`.

    The mean is `np.add.reduce` over n.  The standard deviation subtracts
    that mean, squares the deviations in place, sums them with
    `np.add.reduce`, divides by n - 1 and takes the square root; the SEM is
    it over sqrt(n), None for a single record.  The same operations in the
    same order give the same bits without numpy's wrapper stack.
    """
    n = len(values)
    mean = np.add.reduce(values) / n
    if n < 2:
        return mean, None
    dev = values - mean
    np.multiply(dev, dev, out=dev)
    return mean, math.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n)


def build_spectrum(scan: DecayScan) -> list[SpectrumPoint]:
    """Difference the on/off record classes per detuning, in ascending detuning.

    signal = mean(on) - mean(off), sem = sqrt(sem_on^2 + sem_off^2).  One
    stable sort groups the records by detuning, so each class keeps file
    order and its mean and standard deviation sum its values in that
    order.  -0.0 and 0.0 are one detuning, reported as the one the file
    has first.
    """
    if not len(scan):
        return []
    order = np.argsort(scan.detuning, kind="stable")
    detuning, laser_on, depletion = scan.detuning[order], scan.laser_on[order], scan.depletion[order]
    bounds = (np.flatnonzero(detuning[1:] != detuning[:-1]) + 1).tolist()
    points = []
    for start, end in zip([0, *bounds], [*bounds, len(order)]):
        key, values, on_mask = float(detuning[start]), depletion[start:end], laser_on[start:end]
        on, off = values[on_mask], values[~on_mask]
        if not on.size or not off.size:
            missing = "laser-on" if not on.size else "background"
            raise ValueError(f"detuning {key} kHz has no {missing} records")
        (mean_on, sem_on), (mean_off, sem_off) = _class_stats(on), _class_stats(off)
        sem = None
        if sem_on is not None and sem_off is not None:
            sem = math.sqrt(sem_on ** 2 + sem_off ** 2)
        points.append(SpectrumPoint(key, float(mean_on - mean_off), sem))
    return points


@dataclass(frozen=True)
class LineFit:
    center: float
    fwhm: float
    amplitude: float
    offset: float
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    n_iter: int = 0
    cost_trace: tuple[float, ...] = ()

    PARAM_NAMES = ("center", "fwhm", "amplitude", "offset")


def _model_and_jacobian(p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    center, gamma, amp, offset = p
    u = x - center
    h = gamma ** 2 / 4.0
    denom = u ** 2 + h
    q = h / denom
    model = offset + amp * q
    jac = np.empty((len(x), 4))
    jac[:, 0] = amp * h * 2.0 * u / denom ** 2
    jac[:, 1] = amp * (gamma / 2.0) * u ** 2 / denom ** 2
    jac[:, 2] = q
    jac[:, 3] = 1.0
    return model, jac


def _initial_guess(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # outer-quartile points estimate the baseline; the extremal deviation
    # from it sets the center and the sign of the line
    order = np.argsort(x)
    k = max(1, len(x) // 4)
    edges = np.sort(np.concatenate([y[order[:k]], y[order[-k:]]]))
    offset = float((edges[k - 1] + edges[k]) / 2.0)  # the median of the 2k edge points
    extremal = int(np.argmax(np.abs(y - offset)))
    sign = 1.0 if y[extremal] >= offset else -1.0
    amplitude = sign * float(np.max(y) - np.min(y))
    span = float(np.max(x) - np.min(x))
    return np.array([x[extremal], span / 2.0, amplitude, offset])


@overflow_as_value_error("Lorentzian fit")
def fit_lorentzian(points: Sequence[SpectrumPoint]) -> LineFit:
    """Damped Gauss-Newton fit of a single Lorentzian.

    The damping factor starts at 1e-3, shrinks by 10 on each accepted
    step and grows by 10 on each rejected one (Marquardt diagonal
    scaling).  Convergence requires a relative cost change below 1e-12
    or a step norm below 1e-10; 200 iterations without either raises
    FitError with the accepted-cost trace attached.  Residuals are
    inverse-variance weighted when every point carries a sem, otherwise
    unweighted.  The parameter covariance is the unscaled (damping-free)
    normal matrix inverse times the reduced chi-square.  Arithmetic
    beyond float64 raises ValueError `Lorentzian fit overflows float64
    (...)`.
    """
    if len(points) < 5:
        raise ValueError(f"need at least 5 spectrum points, got {len(points)}")
    x = np.array([pt.detuning for pt in points])
    y = np.array([pt.signal for pt in points])
    sems = [pt.sem for pt in points]
    if all(s is not None and s > 0 for s in sems):
        w = 1.0 / np.array(sems) ** 2
    else:
        w = np.ones_like(y)

    p = _initial_guess(x, y)
    span = float(np.max(x) - np.min(x))
    if span <= abs(p[1]):
        raise ValueError(f"detuning span {span} kHz does not cover one initial FWHM {p[1]} kHz")

    def cost_of(params: np.ndarray) -> float:
        model, _ = _model_and_jacobian(params, x)
        return float(np.sum(w * (y - model) ** 2))

    lam = 1e-3
    cost = cost_of(p)
    trace = [cost]
    converged = False
    n_iter = 0
    for n_iter in range(1, 201):
        model, jac = _model_and_jacobian(p, x)
        normal = jac.T @ (w[:, None] * jac)
        grad = jac.T @ (w * (y - model))
        damped = normal + lam * np.diag(np.diag(normal))
        step, *_ = np.linalg.lstsq(damped, grad, rcond=None)
        new_cost = cost_of(p + step)
        if new_cost <= cost:
            p = p + step
            lam *= 0.1
            rel = (cost - new_cost) / max(cost, np.finfo(float).tiny)
            cost = new_cost
            trace.append(cost)
            if rel < 1e-12 or float(np.linalg.norm(step)) < 1e-10:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    if not converged:
        raise FitError(f"no convergence after {n_iter} iterations (cost {cost:.6g})", trace)

    p[1] = abs(p[1])
    _, jac = _model_and_jacobian(p, x)
    normal = jac.T @ (w[:, None] * jac)
    dof = len(x) - 4
    covariance = np.linalg.pinv(normal) * (cost / dof if dof > 0 else 1.0)
    sigma_amp = math.sqrt(max(covariance[2, 2], 0.0))
    if not abs(p[2]) > 2.0 * sigma_amp:
        raise LowSignalError(
            f"amplitude {p[2]:.3g} consistent with zero (2 sigma = {2 * sigma_amp:.3g})", trace
        )
    return LineFit(
        center=float(p[0]),
        fwhm=float(p[1]),
        amplitude=float(p[2]),
        offset=float(p[3]),
        covariance=covariance,
        residual_norm=math.sqrt(cost),
        converged=True,
        n_iter=n_iter,
        cost_trace=tuple(trace),
    )


def line_frequency(fit: LineFit, absolute_offset: float) -> Quantity:
    """Absolute line-center frequency with the half-linewidth convention.

    The `exp` component is fwhm/2 regardless of the covariance-based
    center error; this deliberately conservative rule is what enters the
    systematic-shift ledgers downstream.
    """
    if not fit.converged:
        raise FitError("cannot assign a line frequency to an unconverged fit")
    return Quantity(absolute_offset + fit.center, "kHz", {"exp": fit.fwhm / 2.0})


# ---------------------------------------------------------------------------
# file interfaces


def read_decay_csv(path: str | Path) -> DecayScan:
    """Read `detuning_khz, run_id, laser_on(0|1), depletion` rows as a `DecayScan`.

    detuning_khz must be finite, depletion in [0, 1] and laser_on a number
    equal to 0 or 1; run_id is any text, a required column and cell, not
    kept.  Faults are `read_table`'s.
    """
    cols = read_table(path, {"detuning_khz": FINITE, "depletion": UNIT_INTERVAL, "laser_on": FLAG, "run_id": TEXT})
    return DecayScan(cols["detuning_khz"], np.asarray(cols["laser_on"]) == 1, cols["depletion"])


def fit_report(fit: LineFit) -> dict:
    """All fit fields as a JSON-ready mapping."""
    return {
        "center_khz": fit.center,
        "fwhm_khz": fit.fwhm,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
        "n_iter": fit.n_iter,
    }
