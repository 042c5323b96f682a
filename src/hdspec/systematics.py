"""Systematic-shift budget of a measured transition frequency.

Each perturbation enters as a named ledger entry carrying a correction
(added to the raw frequency), an uncertainty, and the basis on which it
was established.  Entry uncertainties combine in quadrature into the
`exp` component; they are independent measurement determinations,
unlike the spin-theory budget which sums absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .quantity import (
    FINITE,
    OPTIONAL_NON_NEGATIVE,
    Quantity,
    overflow_as_value_error,
    read_table,
    weighted_least_squares,
)

# numpy is imported inside the functions that build arrays (see `quantity`)

ENTRY_BASES = ("measured-extrapolation", "theoretical-bound", "set-to-zero")

# CODATA 2018 (Tiesinga et al., Rev. Mod. Phys. 93, 025010 (2021)), pinned
# so the chain does not follow the constants release of an installed library
_AU_POLARIZABILITY = 1.64877727436e-41  # C^2 m^2 / J
_EPSILON_0 = 8.8541878128e-12  # F / m
_C = 299792458.0  # m / s, exact
_H = 6.62607015e-34  # J s, exact

# light shift per intensity per unit polarizability: alpha_au * I / (2 eps0 c h)
LIGHT_SHIFT_KHZ_PER_AU_W_M2 = _AU_POLARIZABILITY / (2 * _EPSILON_0 * _C * _H) / 1e3


@dataclass(frozen=True)
class ShiftEntry:
    name: str
    correction: float
    uncertainty: float
    basis: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.basis not in ENTRY_BASES:
            raise ValueError(f"basis must be one of {ENTRY_BASES}, got {self.basis!r}")
        if self.uncertainty < 0:
            raise ValueError("entry uncertainty must be >= 0")
        if self.basis == "set-to-zero" and self.correction != 0.0:
            raise ValueError("set-to-zero entries carry no correction")


@dataclass(frozen=True)
class ShiftLedger:
    raw: Quantity
    corrected: Quantity
    entries: tuple[ShiftEntry, ...]

    def report(self) -> dict:
        return {
            "raw": {"value_khz": self.raw.value, "components": dict(sorted(self.raw.components.items()))},
            "corrected": {
                "value_khz": self.corrected.value,
                "components": dict(sorted(self.corrected.components.items())),
            },
            "entries": [
                {
                    "name": e.name,
                    "correction_khz": e.correction,
                    "uncertainty_khz": e.uncertainty,
                    "basis": e.basis,
                    "note": e.note,
                }
                for e in self.entries
            ],
        }


def apply_ledger(raw: Quantity, entries: Sequence[ShiftEntry]) -> ShiftLedger:
    """Apply all corrections; quadrature the uncertainties into `exp`."""
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ValueError(f"duplicate ledger entry name {dup!r}")
    value = raw.value + sum(e.correction for e in entries)
    u_exp = math.sqrt(raw.component("exp") ** 2 + sum(e.uncertainty ** 2 for e in entries))
    corrected = raw.with_component("exp", u_exp)
    corrected = Quantity(value, raw.unit, corrected.components)
    return ShiftLedger(raw, corrected, tuple(entries))


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
    rescaled by the reduced chi-square.  The ledger entry's correction
    moves a measurement at the nominal amplitude to zero amplitude.
    """
    import numpy as np

    if len(points) < 3:
        raise ValueError(f"need at least 3 amplitude points, got {len(points)}")
    amps = np.array([float(a) for a, _ in points])
    if amps.min() == amps.max():
        raise ValueError("singular fit: all amplitudes are identical")
    f = np.array([q.value for _, q in points])
    u = np.array([q.component("exp") for _, q in points])
    with overflow_as_value_error("RF extrapolation fit"):
        basis = amps if linear_in_amplitude else amps ** 2
        w = 1.0 / u ** 2 if np.all(u > 0) else np.ones_like(f)

        design = np.column_stack([np.ones_like(basis), basis])
        try:
            (f0, k), cov = weighted_least_squares(design, f, w)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular RF extrapolation fit") from exc
        x_nom = np.float64(nominal_amplitude)  # numpy arithmetic, so an overflow raises here
        if not linear_in_amplitude:
            x_nom = x_nom ** 2
        correction = float(-k * x_nom)
        u_corr = float(math.sqrt(cov[1, 1]) * x_nom) if np.all(u > 0) else 0.0

    comp = {"exp": float(math.sqrt(cov[0, 0]))} if np.all(u > 0) else {}
    f_zero = Quantity(float(f0), points[0][1].unit, comp)
    model = "A" if linear_in_amplitude else "A^2"
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
        for amplitude, f, u in zip(cols["amplitude"].tolist(), cols["f_khz"].tolist(), cols["u_khz"].tolist())
    ]
