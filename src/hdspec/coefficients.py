"""Hyperfine coefficients, their file format and the spin-theory error model.

A coefficient set holds E1..E9 (kHz) of the effective spin Hamiltonian
of one level (v, N) (see `angular`), with optional per-coefficient
fractional uncertainties.  The error model is one list of affine terms:
for two transitions, `SensitivityTable.spin_terms` gives each term's
sensitivities x1, x2 (from gamma_k = dE_level/dE_k of the transitions'
levels) and its scale (p, q, r), and `spin_profile` sums
|(b x1 + (1 - b) x2) p q| r over the terms at each weight b.  A line's
uncertainty is the pair (t, t) at b = 1, the composite's the pair
(12, 16) at b12.  Nothing here builds an array.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterable

from .quantity import OPTIONAL_FINITE, OPTIONAL_POSITIVE, Record, finite, overflow_as_value_error, read_keys

COEFF_INDICES = tuple(range(1, 10))
ROTATIONAL_COEFFS = (1, 2, 3, 6, 7, 8, 9)
CONTACT_COEFFS = (4, 5)


class HyperfineCoefficients:
    """E1..E9 in kHz for one level (v, N).

    ``eps_overrides`` holds optional per-coefficient fractional
    uncertainties that replace the defaults of SpinUncertaintyParams.
    """

    __slots__ = ("v", "n_rot", "values", "eps_overrides")

    def __init__(
        self, v: int, n_rot: int, values: dict[int, float], eps_overrides: dict[int, float] | None = None
    ) -> None:
        self.v = v
        self.n_rot = n_rot
        self.values = values
        self.eps_overrides = {} if eps_overrides is None else eps_overrides
        for k, e in values.items():
            if k not in COEFF_INDICES:
                raise ValueError(f"coefficient index must be 1..9, got {k}")
            if not math.isfinite(e):
                raise ValueError(f"coefficient E{k} must be finite, got {e}")
        for k, eps in self.eps_overrides.items():
            if k not in COEFF_INDICES or not (math.isfinite(eps) and eps > 0):
                raise ValueError(f"bad fractional-uncertainty override eps_E{k} = {eps}")
        if n_rot == 0:
            bad = [k for k in ROTATIONAL_COEFFS if values.get(k, 0.0) != 0.0]
            if bad:
                raise ValueError(
                    f"N=0 level admits only E4, E5; got nonzero E{bad[0]}"
                )

    def coefficient(self, k: int) -> float:
        return self.values.get(k, 0.0)


# ---------------------------------------------------------------------------
# spin-theory uncertainty model


class SpinUncertaintyParams(Record):
    """Fractional/absolute theory uncertainties of the coefficient set.

    eps_fermi applies to the Fermi-contact coefficients E4, E5 of both
    levels; eps_bp to the remaining (Breit-Pauli order alpha^2) upper
    coefficients; u1_prime is the absolute uncertainty assigned to the
    upper spin-rotation coefficient E1'.  Equal parameters hash alike:
    a `SensitivityTable` keeps its `spin_scales` per parameter value.
    """

    __slots__ = ("eps_fermi", "eps_bp", "u1_prime")

    def __init__(self, eps_fermi: float = 1e-6, eps_bp: float = 0.0072973525693 ** 2, u1_prime: float = 0.05) -> None:
        for name, x in (("eps_fermi", eps_fermi), ("eps_bp", eps_bp), ("u1_prime", u1_prime)):
            if not (math.isfinite(x) and x > 0):
                raise ValueError(f"spin-uncertainty parameter {name} must be finite and > 0, got {x!r}")
        self.eps_fermi = eps_fermi
        self.eps_bp = eps_bp
        self.u1_prime = u1_prime

    def __hash__(self) -> int:
        return hash((self.eps_fermi, self.eps_bp, self.u1_prime))


class TransitionSensitivities:
    """Sensitivity rows gamma (lower level) and gamma' (upper level)."""

    __slots__ = ("transition", "lower", "upper")

    def __init__(self, transition: str, lower: dict[int, float], upper: dict[int, float]) -> None:
        self.transition = transition
        self.lower = lower
        self.upper = upper


DEFAULT_PARAMS = SpinUncertaintyParams()

# (level, k) of each term of the spin-theory error model, in the order the terms add
_SPIN_TERMS = (
    *(("upper", k) for k in (1, 2, 3, 6, 7, 8, 9)),
    *((level, k) for k in CONTACT_COEFFS for level in ("upper", "lower")),
)


class SensitivityTable:
    """Sensitivities for a set of transitions sharing one level pair (built by `angular.transition_table`).

    The spin-theory error model reads its per-table terms from data the
    table builds once, as Python floats: `spin_gammas`, the sensitivity
    of each term of `_SPIN_TERMS` per transition, taken from the rows
    when the table is made, and `spin_scales`, the scales of those
    terms, kept per SpinUncertaintyParams from their first use;
    `spin_terms` pairs them for two transitions.  The rows and the
    coefficient sets must not change after that.
    """

    __slots__ = ("lower_coeffs", "upper_coeffs", "rows", "spin_gammas", "_scales")

    def __init__(
        self,
        lower_coeffs: HyperfineCoefficients,
        upper_coeffs: HyperfineCoefficients,
        rows: dict[str, TransitionSensitivities],
    ) -> None:
        self.lower_coeffs = lower_coeffs
        self.upper_coeffs = upper_coeffs
        self.rows = rows
        self.spin_gammas = {
            name: tuple(float((row.upper if level == "upper" else row.lower)[k]) for level, k in _SPIN_TERMS)
            for name, row in rows.items()
        }
        self._scales = {}  # SpinUncertaintyParams -> `spin_scales`

    def row(self, transition: str) -> TransitionSensitivities:
        if transition not in self.rows:
            raise KeyError(f"no sensitivity row for transition {transition!r}")
        return self.rows[transition]

    def spin_scales(self, params: SpinUncertaintyParams) -> tuple[tuple[float, float, float], ...]:
        """(p, q, r) of each term of `_SPIN_TERMS`: the term of weighted sensitivity sum s is |(s p) q| r.

        k = 1 of the upper level is |s| u1' or, with an eps_E1 override,
        |s eps E1|; every other term is eps |s E_k|, with eps the override
        or the Breit-Pauli (rotational) or Fermi-contact default.  Kept
        per `params`.
        """
        scales = self._scales.get(params)
        if scales is None:
            levels = {"upper": self.upper_coeffs, "lower": self.lower_coeffs}
            scales = []
            for level, k in _SPIN_TERMS:
                coeffs = levels[level]
                eps = coeffs.eps_overrides.get(k)
                if k == 1:
                    p, q, r = (1.0, 1.0, params.u1_prime) if eps is None else (eps, coeffs.values.get(1, 0.0), 1.0)
                else:
                    default = params.eps_fermi if k in CONTACT_COEFFS else params.eps_bp
                    p, q, r = coeffs.values.get(k, 0.0), 1.0, default if eps is None else eps
                scales.append((float(p), float(q), float(r)))
            scales = self._scales[params] = tuple(scales)
        return scales

    def spin_terms(self, params: SpinUncertaintyParams, first: str, second: str) -> tuple:
        """(x_first, x_second, (p, q, r)) of each term: the `spin_gammas` of two transitions, and `spin_scales`.

        A transition the table lacks raises the KeyError of `row`.
        """
        gammas = self.spin_gammas
        x1 = gammas[first] if first in gammas else self.row(first)
        x2 = gammas[second] if second in gammas else self.row(second)
        return tuple(zip(x1, x2, self.spin_scales(params)))


def spin_profile(terms: tuple, weights: Iterable[float]) -> list[float]:
    """Spin-theory uncertainty (kHz) sum |(b x1 + (1 - b) x2) p q| r of `terms` at each weight b.

    Coefficient errors are common to both transitions, so the weighted
    sensitivities sit inside each absolute value, and the terms add as
    absolute values, not in quadrature: the sum is convex and piecewise
    linear in b, with a breakpoint where a term crosses zero.  Weights
    and terms are Python floats (a numpy scalar would warn where Python
    overflows silently), so the sum is checked: a value beyond float64
    raises ValueError `spin-theory uncertainty overflows float64 (u_spin = ...)`.
    """
    out = []
    for b in weights:
        b2, u = 1.0 - b, 0.0
        for x1, x2, (p, q, r) in terms:
            u += abs((b * x1 + b2 * x2) * p * q) * r
        out.append(u)
    if not all(map(math.isfinite, out)):
        with overflow_as_value_error("spin-theory uncertainty"):  # words the error as every overflow is worded
            finite("u_spin", *out)
    return out


def spin_uncertainty(transition: str, table: SensitivityTable, params: SpinUncertaintyParams = DEFAULT_PARAMS) -> float:
    """Theory uncertainty (kHz) of one transition's spin frequency: the pair (t, t) at weight 1."""
    return spin_profile(table.spin_terms(params, transition, transition), (1.0,))[0]


# ---------------------------------------------------------------------------
# coefficient file


_SECTION_RE = re.compile(r"^\[v=(\d+),\s*N=(\d+)\]$")
_COEFF_RULES = {f"{prefix}E{k}": rule for prefix, rule in (("", OPTIONAL_FINITE), ("eps_", OPTIONAL_POSITIVE))
                for k in COEFF_INDICES}


def read_coefficient_file(path: str | Path) -> dict[tuple[int, int], HyperfineCoefficients]:
    """Parse a sectioned key-value coefficient file.

    Sections are headed ``[v=0,N=0]``; keys are ``E1``..``E9`` (kHz) and
    optional ``eps_E1``..``eps_E9`` fractional-uncertainty overrides.
    Unknown keys are rejected.  Each section must define E4 and E5, and
    for N >= 1 the full E1..E9 set.
    """
    out = {}
    for header, lineno, keys in read_keys(path, _COEFF_RULES, _SECTION_RE):
        v, n_rot = int(header.group(1)), int(header.group(2))
        if (v, n_rot) in out:
            raise ValueError(f"{path}:{lineno}: duplicate section {header.string}")
        missing = [k for k in (CONTACT_COEFFS if n_rot == 0 else COEFF_INDICES) if f"E{k}" not in keys]
        if missing:
            raise ValueError(f"{path}: section [v={v},N={n_rot}] missing E{missing[0]}")
        values = {int(key[1:]): x for key, x in keys.items() if key.startswith("E")}
        eps = {int(key[5:]): x for key, x in keys.items() if key.startswith("eps_")}
        try:  # an N = 0 section with a rotational coefficient
            out[(v, n_rot)] = HyperfineCoefficients(v, n_rot, values, eps)
        except ValueError as exc:
            raise ValueError(f"{path}: section [v={v},N={n_rot}] {exc}") from None
    return out
