"""Composite spin-averaged frequency from two hyperfine components.

Two measured lines of the same vibrational transition, minus their
theoretical spin shifts, are combined with weights (b12, 1 - b12).  The
experimental parts combine in quadrature.  The spin-theory part is the
error model of `coefficients`: a list of affine terms (x12, x16, scale),
summed as |(b12 x12 + (1 - b12) x16) p q| r by `spin_profile`.
`CompositeInput` decides those terms once: with a sensitivity table they
are the table's at its parameters; without one there is one term, the
per-line uncertainties (u12, u16) at scale (1, 1, 1), which is
b12 u12 + (1 - b12) u16 (correlations ignored conservatively).  The
composite, the weight profile and its optimum all evaluate those terms.
"""

from __future__ import annotations

import math

from .coefficients import DEFAULT_PARAMS, SensitivityTable, SpinUncertaintyParams, spin_profile
from .quantity import Quantity

TRANSITION_IDS = ("12", "16")


class CompositeInput:
    """Corrected line frequencies and spin-theory terms for lines 12, 16.

    fspin12/fspin16 carry their uncertainty in the `theor_spin`
    component.  `terms` are the composite's spin-theory terms, decided
    here once: the sensitivity table's at `params`, or without a table
    the one term (u12, u16) at scale (1, 1, 1), the weighted absolute
    sum of the per-line uncertainties (correlations ignored
    conservatively).
    """

    __slots__ = ("f12", "f16", "fspin12", "fspin16", "terms")

    def __init__(self, f12: Quantity, f16: Quantity, fspin12: Quantity, fspin16: Quantity,
                 tables: SensitivityTable | None = None, params: SpinUncertaintyParams = DEFAULT_PARAMS) -> None:
        if tables is None:
            self.terms = ((fspin12.component("theor_spin"), fspin16.component("theor_spin"), (1.0, 1.0, 1.0)),)
        else:
            missing = [t for t in TRANSITION_IDS if t not in tables.rows]
            if missing:
                raise ValueError(f"sensitivity table lacks transition {missing[0]}")
            self.terms = tables.spin_terms(params, *TRANSITION_IDS)
        self.f12 = f12
        self.f16 = f16
        self.fspin12 = fspin12
        self.fspin16 = fspin16


def composite_spin_uncertainty(tables: SensitivityTable, params: SpinUncertaintyParams, b12: float) -> float:
    """Spin-theory uncertainty of the weighted combination, in kHz.

    Coefficient errors are common to both transitions, so the weighted
    sensitivity sums sit inside each absolute value; setting b12 to 0 or
    1 reduces exactly to the single-transition estimate.
    """
    return spin_profile(tables.spin_terms(params, *TRANSITION_IDS), (float(b12),))[0]


def composite_frequency(inp: CompositeInput, b12: float) -> Quantity:
    """Weighted spin-averaged frequency with exp and theor_spin budgets."""
    if not 0.0 <= b12 <= 1.0:
        raise ValueError(f"b12 must be in [0, 1], got {b12}")
    b16 = 1.0 - b12
    value = b12 * (inp.f12.value - inp.fspin12.value) + b16 * (inp.f16.value - inp.fspin16.value)
    u_exp = math.hypot(b12 * inp.f12.component("exp"), b16 * inp.f16.component("exp"))
    u_spin = spin_profile(inp.terms, (float(b12),))[0]
    return Quantity(value, "kHz", {"exp": u_exp, "theor_spin": u_spin})


# b12 of the flatness profile of `weight_profile`: 0, 0.01, ..., 1
_PROFILE_GRID = tuple(round(0.01 * i, 2) for i in range(101))


class WeightProfile:
    """The least spin-theory uncertainty `u_star` of `terms` over b12 in [0, 1], at `b_star`.

    `profile`, the (b12, u_spin) pairs of the 0.01 flatness grid, is
    evaluated by `spin_profile` when it is read: each read recomputes
    the grid, and a value beyond float64 raises there.
    """

    __slots__ = ("b_star", "u_star", "terms")

    def __init__(self, b_star: float, u_star: float, terms: tuple) -> None:
        self.b_star = b_star
        self.u_star = u_star
        self.terms = terms

    @property
    def profile(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(_PROFILE_GRID, spin_profile(self.terms, _PROFILE_GRID)))


def weight_profile(terms: tuple) -> WeightProfile:
    """Minimize the spin uncertainty of the affine `terms` over b12 in [0, 1].

    `terms` are those of `spin_profile`, such as a `CompositeInput`'s.
    The objective is a sum of absolute values of terms affine in b12,
    hence convex piecewise-linear; the exact minimum sits at a
    breakpoint (the zero crossing x16 / (x16 - x12) of one term) or an
    endpoint, and the first of the sorted candidates with the least
    uncertainty wins.  Only the candidates are evaluated here; the
    0.01-spaced flatness profile is evaluated when it is read
    (`WeightProfile.profile`).  Each value is the `theor_spin` of
    `composite_frequency` at that b12.
    """
    candidates = {0.0, 1.0}
    for x12, x16, _ in terms:
        denom = x16 - x12
        if denom != 0.0:
            b = x16 / denom
            if 0.0 < b < 1.0:
                candidates.add(b)
    candidates = sorted(candidates)
    u = spin_profile(terms, candidates)
    best = min(range(len(candidates)), key=u.__getitem__)  # the first of the least
    return WeightProfile(candidates[best], u[best], terms)


def optimize_weight(tables: SensitivityTable, params: SpinUncertaintyParams) -> WeightProfile:
    """`weight_profile` of the table's terms at `params`: each value that of `composite_spin_uncertainty`."""
    return weight_profile(tables.spin_terms(params, *TRANSITION_IDS))


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
