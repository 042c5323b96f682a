"""Systematic-shift budget of a measured transition frequency.

Each perturbation enters as a named ledger entry carrying a correction
(added to the raw frequency), an uncertainty, and the basis on which it
was established.  Entry uncertainties combine in quadrature into the
`exp` component; they are independent measurement determinations,
unlike the spin-theory budget which sums absolute values.  An entry's
JSON form is written by `ShiftEntry.report` alone and read back by
`read_entries` (the `ledger --entries` file).

Measured line positions are extrapolated to zero magnetic field (f0 + c
B^2) and to zero trap-RF amplitude (f0 + k A^2, or f0 + k A), each by
`line_fit`, one closed-form weighted fit of a straight line on plain
Python floats: no module here imports numpy.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path
from typing import Iterable, Sequence

from .quantity import (
    FINITE,
    OPTIONAL_FINITE,
    OPTIONAL_NON_NEGATIVE,
    OPTIONAL_TEXT,
    POSITIVE,
    TEXT,
    Quantity,
    Record,
    Rule,
    exact_sum,
    finite,
    overflow_as_value_error,
    quadrature,
    read_json,
    read_table,
)

ENTRY_BASES = ("measured-extrapolation", "theoretical-bound", "set-to-zero")

# CODATA 2018 (Tiesinga et al., Rev. Mod. Phys. 93, 025010 (2021)), pinned
# so the chain does not follow the constants release of an installed library
_AU_POLARIZABILITY = 1.64877727436e-41  # C^2 m^2 / J
_EPSILON_0 = 8.8541878128e-12  # F / m
_C = 299792458.0  # m / s, exact
_H = 6.62607015e-34  # J s, exact

# light shift per intensity per unit polarizability: alpha_au * I / (2 eps0 c h)
LIGHT_SHIFT_KHZ_PER_AU_W_M2 = _AU_POLARIZABILITY / (2 * _EPSILON_0 * _C * _H) / 1e3


class ShiftEntry(Record):
    __slots__ = ("name", "correction", "uncertainty", "basis", "note")

    def __init__(self, name: str, correction: float, uncertainty: float, basis: str, note: str = "") -> None:
        if basis not in ENTRY_BASES:
            raise ValueError(f"basis must be one of {ENTRY_BASES}, got {basis!r}")
        if uncertainty < 0:
            raise ValueError("entry uncertainty must be >= 0")
        if basis == "set-to-zero" and correction != 0.0:
            raise ValueError("set-to-zero entries carry no correction")
        self.name = name
        self.correction = correction
        self.uncertainty = uncertainty
        self.basis = basis
        self.note = note

    def report(self) -> dict:
        """The JSON form of the entry, the one `read_entries` reads."""
        return {
            "name": self.name,
            "correction_khz": float(self.correction),
            "uncertainty_khz": float(self.uncertainty),
            "basis": self.basis,
            "note": self.note,
        }


def read_entries(path: str | Path, also: Sequence[ShiftEntry] = ()) -> list[ShiftEntry]:
    """The entries of a JSON list of `ShiftEntry.report()` objects, for a ledger that also holds `also`.

    correction_khz (finite), uncertainty_khz (finite, >= 0) and note may
    be absent, and read as 0, 0 and empty; a set-to-zero entry must carry
    no correction, and no name may repeat a name of the file or of `also`.
    Faults are `read_json`'s, `path: [i].correction_khz must be 0 for a
    set-to-zero entry`, or `path: [i].name: duplicate ledger entry name 'x'`.
    """
    basis = Rule(f"must be one of {', '.join(ENTRY_BASES)}", choices=frozenset(ENTRY_BASES))
    shape = {"name": TEXT, "correction_khz": OPTIONAL_FINITE, "uncertainty_khz": OPTIONAL_NON_NEGATIVE,
             "basis": basis, "note": OPTIONAL_TEXT}
    entries = read_json(path, [shape])
    names = {e.name for e in also}
    for i, e in enumerate(entries):
        if e["basis"] == "set-to-zero" and e.get("correction_khz", 0.0) != 0.0:
            raise ValueError(f"{path}: [{i}].correction_khz must be 0 for a set-to-zero entry")
        if e["name"] in names:
            raise ValueError(f"{path}: [{i}].name: duplicate ledger entry name {e['name']!r}")
        names.add(e["name"])
    return [ShiftEntry(e["name"], e.get("correction_khz", 0.0), e.get("uncertainty_khz", 0.0), e["basis"],
                       e.get("note", "")) for e in entries]


class ShiftLedger:
    __slots__ = ("raw", "corrected", "entries")

    def __init__(self, raw: Quantity, corrected: Quantity, entries: tuple[ShiftEntry, ...]) -> None:
        self.raw = raw
        self.corrected = corrected
        self.entries = entries

    def report(self) -> dict:
        raw, corrected = ({"value_khz": q.value, "components": dict(sorted(q.components.items()))}
                          for q in (self.raw, self.corrected))
        return {"raw": raw, "corrected": corrected, "entries": [e.report() for e in self.entries]}


def apply_ledger(raw: Quantity, entries: Sequence[ShiftEntry]) -> ShiftLedger:
    """Apply all corrections; quadrature the uncertainties into `exp`.

    A corrected value or uncertainty beyond float64 raises ValueError
    `systematic-shift ledger overflows float64 (...)`.
    """
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ValueError(f"duplicate ledger entry name {dup!r}")
    with overflow_as_value_error("systematic-shift ledger"):
        value = raw.value + exact_sum(e.correction for e in entries)
        u_exp = quadrature([raw.component("exp"), *(e.uncertainty for e in entries)])
        finite("corrected value", value)
        finite("exp uncertainty", u_exp)
    return ShiftLedger(raw, Quantity(value, raw.unit, {**raw.components, "exp": u_exp}), tuple(entries))


# ---------------------------------------------------------------------------
# extrapolations


def _fsum(name: str, terms: Iterable[float]) -> float:
    """`quantity.exact_sum` of `terms`, each of which must be finite (see `quantity.finite`)."""
    terms = list(terms)
    finite(name, *terms)
    return exact_sum(terms)


def line_fit(
    x: Sequence[float], y: Sequence[float], w: Sequence[float], what: str
) -> tuple[float, float, float, float]:
    """Weighted least squares of y = a + b x: (a, b, var a, var b).

    The weights are a priori inverse variances, so the variances are the
    diagonal of (X^T W X)^-1, not rescaled by the reduced chi-square.
    The normal equations are solved about the weighted mean x_m of x
    (y_m that of y) with correctly rounded sums (`quantity.exact_sum`):
    b = sum w (x - x_m)(y - y_m) / S, a = y_m - b x_m, var b = 1 / S and
    var a = 1 / sum w + x_m^2 / S, with S = sum w (x - x_m)^2.  S = 0 is
    a singular design, ValueError `singular <what>`; a sum or a result
    beyond float64 raises OverflowError.
    """
    sw = _fsum("sum w", w)
    x_m = _fsum("sum w x", map(operator.mul, w, x)) / sw
    y_m = _fsum("sum w y", map(operator.mul, w, y)) / sw
    dx = [xi - x_m for xi in x]
    s = _fsum("sum w dx^2", [wi * d * d for wi, d in zip(w, dx)])
    if s == 0.0:
        raise ValueError(f"singular {what}")
    slope = _fsum("sum w dx dy", [wi * d * (yi - y_m) for wi, d, yi in zip(w, dx, y)]) / s
    intercept = y_m - slope * x_m
    var_intercept, var_slope = 1.0 / sw + x_m * x_m / s, 1.0 / s
    finite("fit parameter", intercept, slope, var_intercept, var_slope)
    return intercept, slope, var_intercept, var_slope


def _inverse_variances(u: Sequence[float]) -> list[float]:
    """1 / u^2 of each uncertainty; a u^2 beyond float64, or one that underflows to 0, raises as in `line_fit`."""
    squares = [ui * ui for ui in u]
    finite("u^2", *squares)
    return [1.0 / v for v in squares]  # ZeroDivisionError where u^2 underflows


class FieldExtrapolation(Record):
    """Result of the quadratic zero-field extrapolation."""

    __slots__ = ("intercept", "curvature", "residuals")

    def __init__(self, intercept: Quantity, curvature: Quantity, residuals: tuple[float, ...]) -> None:
        self.intercept = intercept
        self.curvature = curvature
        self.residuals = residuals


def extrapolate_to_zero_field(
    b_values: Sequence[float],
    frequencies: Sequence[float],
    uncertainties: Sequence[float],
) -> FieldExtrapolation:
    """Weighted least squares of f(B) = f0 + c B^2 down to B = 0: `line_fit` on B^2.

    Weights are the inverse-variance of the per-point uncertainties and
    are treated as known a priori: the parameter covariance is
    (X^T W X)^-1 without any rescaling by the reduced chi-square.  Any
    sequences of numbers will do; arithmetic beyond float64 raises
    ValueError `zero-field extrapolation fit overflows float64 (...)`.
    """
    b, f = [float(v) for v in b_values], [float(v) for v in frequencies]
    if len(b) != len(f):
        raise ValueError("b_values and frequencies must be 1-d and the same length")
    what = "zero-field extrapolation fit"
    with overflow_as_value_error(what):
        x = [v * v for v in b]
        finite("B^2", *x)
        if not x or min(x) == max(x):
            raise ValueError("need at least two distinct field magnitudes")
        u = [float(v) for v in uncertainties]
        if len(u) != len(b) or not all(v > 0 for v in u):
            raise ValueError("uncertainties must be positive and match b_values")
        f0, c, var_f0, var_c = line_fit(x, f, _inverse_variances(u), what)
        residuals = tuple(fi - (f0 + c * xi) for xi, fi in zip(x, f))
        finite("residual", *residuals)
    return FieldExtrapolation(
        Quantity(f0, "kHz", {"exp": math.sqrt(var_f0)}),
        Quantity(c, "kHz/G^2", {"exp": math.sqrt(var_c)}),
        residuals,
    )


def rf_extrapolate(
    points: Sequence[tuple[float, Quantity]],
    nominal_amplitude: float,
    linear_in_amplitude: bool = False,
) -> tuple[Quantity, ShiftEntry]:
    """Extrapolate measured frequencies to zero trap-RF amplitude.

    Default model f = f0 + k A^2 (trap-induced Stark shifts scale with
    the mean-squared field); a linear-in-A fallback is available for
    sensitivity studies.  Weights are a priori inverse variances of the
    per-point `exp` components, so the parameter covariance is not
    rescaled by the reduced chi-square; without a positive `exp` on
    every point the fit is unweighted and carries no uncertainty.  The
    ledger entry's correction moves a measurement at the nominal
    amplitude to zero amplitude.  The fit is `line_fit` on A^2 (or A);
    arithmetic beyond float64 raises ValueError `RF extrapolation fit
    overflows float64 (...)`.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 amplitude points, got {len(points)}")
    amps = [float(a) for a, _ in points]
    if min(amps) == max(amps):
        raise ValueError("singular fit: all amplitudes are identical")
    f = [q.value for _, q in points]
    u = [q.component("exp") for _, q in points]
    weighted = all(v > 0 for v in u)
    model = "A" if linear_in_amplitude else "A^2"
    what = "RF extrapolation fit"
    with overflow_as_value_error(what):
        x = amps if linear_in_amplitude else [a * a for a in amps]
        x_nom = nominal_amplitude if linear_in_amplitude else nominal_amplitude * nominal_amplitude
        finite(model, *x, x_nom)
        f0, k, var_f0, var_k = line_fit(x, f, _inverse_variances(u) if weighted else [1.0] * len(u), what)
        correction = -k * x_nom
        u_corr = math.sqrt(var_k) * x_nom if weighted else 0.0
        finite("correction", correction, u_corr)

    f_zero = Quantity(f0, points[0][1].unit, {"exp": math.sqrt(var_f0)} if weighted else {})
    entry = ShiftEntry(
        name="trap RF field (Stark)",
        correction=correction,
        uncertainty=u_corr,
        basis="measured-extrapolation",
        note=f"extrapolation f = f0 + k*{model} over {len(points)} amplitudes; "
        f"nominal amplitude {nominal_amplitude:g}",
    )
    return f_zero, entry


def light_shift_entry(
    alpha_s_upper: float,
    alpha_t_upper: float,
    alpha_lower: float,
    intensity: float,
    measured_bound: float,
) -> ShiftEntry:
    """Spectroscopy-light Stark shift, recorded as negligible.

    The computed estimate uses the scalar-polarizability difference plus
    the full tensor part as a bound, converted from atomic units.  An
    estimate below 1e-3 kHz is treated as zero; it never exceeds the
    measured null-test bound.
    """
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    delta_alpha = abs(alpha_s_upper - alpha_lower) + abs(alpha_t_upper)
    estimate = LIGHT_SHIFT_KHZ_PER_AU_W_M2 * delta_alpha * intensity
    uncertainty = 0.0 if estimate < 1e-3 else min(estimate, measured_bound)
    return ShiftEntry(
        name="spectroscopy light shift",
        correction=0.0,
        uncertainty=uncertainty,
        basis="set-to-zero",
        note=(
            f"calculated shift {estimate:.3g} kHz at {intensity:g} W/m^2 "
            f"(alpha_s' = {alpha_s_upper}, alpha_t' = {alpha_t_upper}, "
            f"alpha = {alpha_lower} a.u.); measured null at the {measured_bound:g} kHz level"
        ),
    )


def negligible_entries() -> tuple[ShiftEntry, ShiftEntry, ShiftEntry]:
    """Mandatory budget rows that carry no correction.

    Black-body radiation and electric-quadrupole shifts are negligible
    at the current accuracy; the trap-displacement test resolved no
    effect, so it is recorded note-only, without correction or
    uncertainty.
    """
    return (
        ShiftEntry("black-body radiation", 0.0, 0.0, "set-to-zero", "negligible at current accuracy"),
        ShiftEntry("electric quadrupole", 0.0, 0.0, "set-to-zero", "negligible at current accuracy"),
        ShiftEntry(
            "trap displacement",
            0.0,
            0.0,
            "set-to-zero",
            "deliberate ion-string displacement resolved no shift; "
            "no correction or uncertainty applied",
        ),
    )


def read_amplitude_csv(path: str | Path) -> list[tuple[float, Quantity]]:
    """Read `amplitude, f_khz, u_khz` extrapolation rows.

    amplitude and f_khz must be finite; u_khz, if the column and the cell
    are there, finite and >= 0 (an empty one gives no `exp` component).
    Faults are `read_table`'s.
    """
    cols = read_table(path, {"amplitude": FINITE, "f_khz": FINITE, "u_khz": OPTIONAL_NON_NEGATIVE})
    return [
        (amplitude, Quantity(f, "kHz", {} if math.isnan(u) else {"exp": u}))
        for amplitude, f, u in zip(cols["amplitude"], cols["f_khz"], cols["u_khz"])
    ]


def read_field_scan_csv(path: str | Path) -> tuple[list[float], list[float], list[float]]:
    """Read `B_gauss, f_khz, u_khz` rows of a field-extrapolation scan.

    B_gauss and f_khz must be finite and u_khz finite and positive.
    Faults are `read_table`'s.
    """
    cols = read_table(path, {"B_gauss": FINITE, "f_khz": FINITE, "u_khz": POSITIVE})
    return cols["B_gauss"], cols["f_khz"], cols["u_khz"]
