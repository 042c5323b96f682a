"""Composite spin-averaged frequency from two hyperfine components.

Two measured lines of the same vibrational transition, minus their
theoretical spin shifts, are combined with weights (b12, 1 - b12).  The
spin-theory error model sums absolute values of correlated terms; the
experimental parts combine in quadrature.
"""

from __future__ import annotations

import math

from .coefficients import DEFAULT_PARAMS, SensitivityTable, SpinUncertaintyParams, _weighted_spin_terms
from .quantity import Quantity, finite, overflow_as_value_error

# Python floats throughout: no composite, weight profile or extraction loads numpy

TRANSITION_IDS = ("12", "16")


class CompositeInput:
    """Corrected line frequencies and spin-theory inputs for lines 12, 16.

    fspin12/fspin16 carry their uncertainty in the `theor_spin`
    component.  The sensitivity table is optional: without it the
    composite spin uncertainty falls back to the weighted absolute sum
    of the per-line uncertainties (correlations ignored conservatively).
    """

    __slots__ = ("f12", "f16", "fspin12", "fspin16", "tables")

    def __init__(
        self, f12: Quantity, f16: Quantity, fspin12: Quantity, fspin16: Quantity, tables: SensitivityTable | None = None
    ) -> None:
        if tables is not None:
            missing = [t for t in TRANSITION_IDS if t not in tables.rows]
            if missing:
                raise ValueError(f"sensitivity table lacks transition {missing[0]}")
        self.f12 = f12
        self.f16 = f16
        self.fspin12 = fspin12
        self.fspin16 = fspin16
        self.tables = tables


def composite_spin_uncertainty(tables: SensitivityTable, params: SpinUncertaintyParams, b12: float) -> float:
    """Spin-theory uncertainty of the weighted combination, in kHz.

    Coefficient errors are common to both transitions, so the weighted
    sensitivity sums sit inside each absolute value; setting b12 to 0 or
    1 reduces exactly to the single-transition estimate.
    """
    return _weighted_spin_terms(tables, params, {"12": b12, "16": 1.0 - b12})


def composite_frequency(inp: CompositeInput, b12: float) -> Quantity:
    """Weighted spin-averaged frequency with exp and theor_spin budgets."""
    if not 0.0 <= b12 <= 1.0:
        raise ValueError(f"b12 must be in [0, 1], got {b12}")
    b16 = 1.0 - b12
    value = b12 * (inp.f12.value - inp.fspin12.value) + b16 * (inp.f16.value - inp.fspin16.value)
    u_exp = math.hypot(b12 * inp.f12.component("exp"), b16 * inp.f16.component("exp"))
    if inp.tables is not None:
        u_spin = composite_spin_uncertainty(inp.tables, DEFAULT_PARAMS, b12)
    else:
        u_spin = _fallback_spin_uncertainty(inp, b12)
    return Quantity(value, "kHz", {"exp": u_exp, "theor_spin": u_spin})


def _fallback_spin_uncertainty(inp: CompositeInput, b12: float) -> float:
    """The composite spin uncertainty without a sensitivity table: b12 u12 + (1 - b12) u16."""
    return b12 * inp.fspin12.component("theor_spin") + (1.0 - b12) * inp.fspin16.component("theor_spin")


# b12 of the flatness profile of `optimize_weight`: 0, 0.01, ..., 1
_PROFILE_GRID = tuple(round(0.01 * i, 2) for i in range(101))


def fallback_profile(inp: CompositeInput) -> tuple[tuple[float, float], ...]:
    """(b12, spin uncertainty) without a sensitivity table, over the grid of the `optimize_weight` profile."""
    return tuple((b, _fallback_spin_uncertainty(inp, b)) for b in _PROFILE_GRID)


class WeightProfile:
    __slots__ = ("b_star", "u_star", "profile")

    def __init__(self, b_star: float, u_star: float, profile: tuple[tuple[float, float], ...]) -> None:
        self.b_star = b_star
        self.u_star = u_star
        self.profile = profile


def optimize_weight(tables: SensitivityTable, params: SpinUncertaintyParams) -> WeightProfile:
    """Minimize the composite spin uncertainty over b12 in [0, 1].

    The objective is a sum of absolute values of functions affine in
    b12, hence convex piecewise-linear; the exact minimum sits at a
    breakpoint (a zero crossing of one affine term) or an endpoint, and
    the first of the sorted candidates with the least uncertainty wins.
    A 0.01-spaced grid is returned as the flatness profile.  Grid and
    candidates are evaluated by `_spin_profile`, each value bit for bit
    the float call of the shared error model at that b12.
    """
    row12, row16 = tables.row("12"), tables.row("16")
    candidates = {0.0, 1.0}
    for which in ("lower", "upper"):
        g12, g16 = getattr(row12, which), getattr(row16, which)
        for k in g12:
            denom = g16[k] - g12[k]
            if denom != 0.0:
                b = g16[k] / denom
                if 0.0 < b < 1.0:
                    candidates.add(b)
    n = len(_PROFILE_GRID)
    b12 = [*_PROFILE_GRID, *sorted(candidates)]
    u = _spin_profile(tables, params, b12)
    best = min(range(n, len(b12)), key=u.__getitem__)  # the first of the least
    return WeightProfile(b12[best], u[best], tuple(zip(_PROFILE_GRID, u[:n])))


def _spin_profile(tables: SensitivityTable, params: SpinUncertaintyParams, b12: list[float]) -> list[float]:
    """`composite_spin_uncertainty` at each b12, by the operations of its float path, in one loop.

    `_weighted_spin_terms` sums the weighted sensitivities of a term
    from 0 (0 + b12 g12 + (1 - b12) g16), then adds |s p q| r term by
    term; 0 + x is x but for the sign of a zero, which the absolute
    value drops, so each value here is that call's, bit for bit.  A
    value beyond float64 raises its ValueError `spin-theory uncertainty
    overflows float64 (u_spin = ...)`.
    """
    terms = tuple(zip(tables.spin_gammas["12"], tables.spin_gammas["16"], tables.spin_scales(params)))
    out = []
    for b in b12:
        b16, u = 1.0 - b, 0.0
        for x12, x16, (p, q, r) in terms:
            u += abs((b * x12 + b16 * x16) * p * q) * r
        out.append(u)
    if not all(map(math.isfinite, out)):
        with overflow_as_value_error("spin-theory uncertainty"):
            finite("u_spin", *out)
    return out


class SplittingComparison:
    __slots__ = ("difference_exp", "difference_theory", "agreement_sigma")

    def __init__(self, difference_exp: Quantity, difference_theory: Quantity, agreement_sigma: float) -> None:
        self.difference_exp = difference_exp
        self.difference_theory = difference_theory
        self.agreement_sigma = agreement_sigma

    def report(self) -> dict:
        return {
            "difference_exp_khz": self.difference_exp.value,
            "u_exp_khz": self.difference_exp.component("exp"),
            "difference_theory_khz": self.difference_theory.value,
            "u_theory_khz": self.difference_theory.component("theor_spin"),
            "agreement_sigma": self.agreement_sigma,
        }


def splitting_comparison(
    f12: Quantity, f16: Quantity, fspin_diff_theory: tuple[float, float]
) -> SplittingComparison:
    """Compare the measured hyperfine splitting f16 - f12 with theory.

    The splitting depends only on the upper-level spin structure, which
    is what makes it a clean theory check.  The agreement metric is the
    absolute difference over the combined standard uncertainty.
    """
    diff = f16.value - f12.value
    u_exp = math.hypot(f12.component("exp"), f16.component("exp"))
    theory, u_theory = fspin_diff_theory
    metric = abs(diff - theory) / math.hypot(u_exp, u_theory)
    return SplittingComparison(
        Quantity(diff, "kHz", {"exp": u_exp}),
        Quantity(theory, "kHz", {"theor_spin": u_theory}),
        metric,
    )
