"""Zeeman structure of hyperfine levels in a weak magnetic field.

The interaction is linear in the field B (in gauss) and diagonal in the
magnetic projections:

    H_Z = B (c_e s_ez + c_p I_pz + c_d I_dz + c_N N_z)

with per-momentum couplings in kHz/G.  Sublevel energies are mapped over
a field grid, each m_F block solved in the field-free states that the
level solve gives (`angular.m_states`).  The linear and quadratic Zeeman
coefficients of a transition are exact at B = 0: Hellmann-Feynman gives
the linear term and second-order perturbation theory the quadratic one,
over the same states (Bakalov, Korobov & Schiller, J. Phys. B 44, 025003
(2011)); their truncation over a field grid is the largest deviation of
the solved shift from that quadratic model.  Measured line positions are
extrapolated to zero field with a pure-quadratic weighted fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .angular import (
    COINCIDENT_KHZ,
    HyperfineCoefficients,
    SpinLevel,
    _blocks,
    _level_set,
    m_states,
)
from .quantity import (
    FINITE,
    POSITIVE,
    Quantity,
    overflow_as_value_error,
    read_keys,
    read_table,
    weighted_least_squares,
)

DEFAULT_B_GRID = (0.0, 0.05, 0.10, 0.15, 0.20)

# kHz/G; signs follow the convention that a positive projection of the
# electron spin moves up in energy for B > 0.
DEFAULT_COUPLINGS = {"c_e": 2802.5, "c_p": -4.2577, "c_d": -0.6536, "c_N": -0.55}


@dataclass(frozen=True)
class ZeemanCouplings:
    """Linear couplings of the four momentum projections, in kHz/G."""

    c_e: float = DEFAULT_COUPLINGS["c_e"]
    c_p: float = DEFAULT_COUPLINGS["c_p"]
    c_d: float = DEFAULT_COUPLINGS["c_d"]
    c_n: float = DEFAULT_COUPLINGS["c_N"]


def read_couplings_file(path: str | Path) -> ZeemanCouplings:
    """Parse a `c_X = value` file; all four couplings must be present and finite."""
    c = read_keys(path, dict.fromkeys(DEFAULT_COUPLINGS, FINITE))
    return ZeemanCouplings(c["c_e"], c["c_p"], c["c_d"], c["c_N"])


@dataclass(frozen=True)
class ZeemanState:
    """One magnetic sublevel followed across the field grid."""

    g1: int
    g2: int
    f: int
    m_f: int
    energies: np.ndarray

    @property
    def label(self) -> tuple[int, int, int, int]:
        return (self.g1, self.g2, self.f, self.m_f)


@dataclass(frozen=True)
class ZeemanMap:
    b_values: np.ndarray
    states: tuple[ZeemanState, ...]

    def state(self, label: Sequence[int]) -> ZeemanState:
        label = tuple(label)
        for st in self.states:
            if st.label == label:
                return st
        raise LookupError(f"no Zeeman state with label {label}")


def _field_grid(b_values: Sequence[float]) -> np.ndarray:
    b_values = np.asarray(b_values, dtype=float)
    if b_values.ndim != 1 or len(b_values) == 0:
        raise ValueError("b_values must be a non-empty 1-d sequence")
    if np.any(np.diff(b_values) <= 0):
        raise ValueError("b_values must be strictly ascending")
    if b_values[0] < 0:
        raise ValueError("b_values must be non-negative")
    return b_values


def _mappable(levels: Sequence[SpinLevel]) -> Sequence[SpinLevel]:
    # coincident levels have no order to follow into the field (and those
    # of one F have no label)
    if any(hi.energy - lo.energy <= COINCIDENT_KHZ for lo, hi in zip(levels, levels[1:])):
        raise ValueError("Zeeman mapping needs field-free levels that do not coincide")
    return levels


def _coupling_vector(couplings: ZeemanCouplings) -> np.ndarray:
    return np.array([couplings.c_e, couplings.c_p, couplings.c_d, couplings.c_n])


def _sublevels(coeffs: HyperfineCoefficients, c: np.ndarray, m_f: int, b_values: np.ndarray) -> np.ndarray:
    """Energies (one row each, over the grid) of the sublevels with projection m_F.

    H0 + H_Z commutes with F_z, so the m_F block is solved on its own,
    over the whole grid in one stacked call, as diag(E) + B U^T V U: U =
    `m_states` are its field-free states, E their energies (the levels
    with F >= |m_F|, in level order) and V = diag(c . slot_m) the Zeeman
    operator per gauss, `c` the couplings in SLOT_NAMES order.  Levels in
    one block do not cross (von Neumann-Wigner; Bakalov, Korobov &
    Schiller, J. Phys. B 44, 025003 (2011)), so at every B the k-th
    lowest energy belongs to the k-th lowest of those levels; the rows
    come in that order.  At B = 0 a caller puts in E exactly.
    """
    energies = [lv.energy for lv in _level_set(coeffs).levels if lv.f >= abs(m_f)]
    u = m_states(coeffs, m_f)
    w = u.T @ ((c @ _blocks(coeffs.n_rot).slot_m[m_f])[:, None] * u)
    return np.linalg.eigvalsh(np.diag(energies) + b_values[:, None, None] * w).T


@overflow_as_value_error("Zeeman map")
def zeeman_map(
    coeffs: HyperfineCoefficients,
    couplings: ZeemanCouplings,
    b_values: Sequence[float] = DEFAULT_B_GRID,
) -> ZeemanMap:
    """Energies of every magnetic sublevel over an ascending field grid.

    Each m_F block is solved on its own over the whole grid (see
    `_sublevels`); the states come level by level in field-free order,
    m_F ascending within a level.  The field-free levels must not
    coincide.
    """
    b_values = _field_grid(b_values)
    levels = _mappable(_level_set(coeffs).levels)
    labels = [(lv.g1, lv.g2, lv.f, m) for lv in levels for m in range(-lv.f, lv.f + 1)]
    index = {label: i for i, label in enumerate(labels)}
    f_max = max(lv.f for lv in levels)
    c = _coupling_vector(couplings)

    energies = np.empty((len(labels), len(b_values)))
    for m in range(-f_max, f_max + 1):
        rows = [index[(lv.g1, lv.g2, lv.f, m)] for lv in levels if lv.f >= abs(m)]
        energies[rows] = _sublevels(coeffs, c, m, b_values)
    if b_values[0] == 0.0:
        energies[:, 0] = [lv.energy for lv in levels for _ in range(2 * lv.f + 1)]

    states = tuple(ZeemanState(*label, energies=energies[i]) for i, label in enumerate(labels))
    return ZeemanMap(b_values.copy(), states)


@dataclass(frozen=True)
class TransitionShiftModel:
    """Transition Zeeman shift df(B) = a B + c B^2, in kHz, B in gauss."""

    linear: float
    quadratic: float


def _member(coeffs: HyperfineCoefficients, label: Sequence[int]) -> tuple[list[SpinLevel], int]:
    """The levels whose m_F block holds `label` (F >= |m_F|, level order) and the row of `label` among them."""
    label = tuple(label)
    levels = _mappable(_level_set(coeffs).levels)
    members = [lv for lv in levels if lv.f >= abs(label[3])] if len(label) == 4 else []
    row = next((i for i, lv in enumerate(members) if lv.label == label[:3]), None)
    if row is None:
        raise LookupError(f"no Zeeman state with label {label}")
    return members, row


def _state_coeffs(coeffs: HyperfineCoefficients, label: Sequence[int], c: np.ndarray) -> tuple[float, float]:
    """Linear and quadratic Zeeman coefficients of one sublevel at B = 0.

    With V = diag(c . slot_m) on the m_F block, Hellmann-Feynman gives
    a = <i|V|i> and second-order perturbation theory gives
    c = sum_{j != i} |<j|V|i>|^2 / (E_i - E_j), over the field-free
    eigenstates `m_states` gives.  A block of one state is exactly
    linear (c = 0); under m_F -> -m_F, V changes sign, so in an m_F = 0
    block E(B) is even and a = 0.
    """
    members, row = _member(coeffs, label)
    m_f = label[3]
    v = c @ _blocks(coeffs.n_rot).slot_m[m_f]  # the diagonal of V, kHz/G
    if len(members) == 1:
        return float(v[0]), 0.0
    u = m_states(coeffs, m_f)
    w = u.T @ (v * u[:, row])  # <j|V|i>
    gaps = members[row].energy - np.array([lv.energy for lv in members])
    gaps[row] = math.inf
    return (0.0 if m_f == 0 else float(w[row])), float(w @ (w / gaps))


def transition_coeffs(
    lower: tuple[HyperfineCoefficients, Sequence[int]],
    upper: tuple[HyperfineCoefficients, Sequence[int]],
    couplings: ZeemanCouplings | None = None,
) -> TransitionShiftModel:
    """Exact linear and quadratic Zeeman coefficients of one transition at B = 0.

    Each argument pairs a coefficient set with a (G1, G2, F, m_F) state
    label.  Each side's coefficients come from the field-free
    eigenstates of its m_F block (see `_state_coeffs`), which the cached
    level solve already gives: no field grid and no further eigen-solve.
    """
    c = _coupling_vector(couplings or ZeemanCouplings())
    (a_lo, c_lo), (a_up, c_up) = (_state_coeffs(coeffs, label, c) for coeffs, label in (lower, upper))
    return TransitionShiftModel(a_up - a_lo, c_up - c_lo)


@overflow_as_value_error("Zeeman coefficient solve")
def transition_truncation(
    lower: tuple[HyperfineCoefficients, Sequence[int]],
    upper: tuple[HyperfineCoefficients, Sequence[int]],
    couplings: ZeemanCouplings | None = None,
    b_values: Sequence[float] = DEFAULT_B_GRID,
) -> tuple[TransitionShiftModel, float]:
    """`transition_coeffs` and the truncation of its quadratic model over a field grid.

    The truncation is the largest |df(B) - (a B + c B^2)| in kHz, with
    the shift df(B) relative to zero field taken from the stacked
    `eigvalsh` of `_sublevels`.  The grid is checked before any solve
    and must start at B = 0.
    """
    b = _field_grid(b_values)
    if b[0] != 0.0:
        raise ValueError("transition_truncation needs B = 0 in the grid to reference the shift")
    model = transition_coeffs(lower, upper, couplings)
    c = _coupling_vector(couplings or ZeemanCouplings())
    energies = []
    for coeffs, label in (lower, upper):
        members, row = _member(coeffs, label)
        energy = _sublevels(coeffs, c, label[3], b)[row]
        energy[0] = members[row].energy  # the grid starts at B = 0
        energies.append(energy)
    shift = (energies[1] - energies[0]) - (energies[1][0] - energies[0][0])
    return model, float(np.max(np.abs(shift - (model.linear * b + model.quadratic * b ** 2))))


@dataclass(frozen=True)
class FieldExtrapolation:
    """Result of the quadratic zero-field extrapolation."""

    intercept: Quantity
    curvature: Quantity
    residuals: np.ndarray


def extrapolate_to_zero_field(
    b_values: Sequence[float],
    frequencies: Sequence[float],
    uncertainties: Sequence[float] | None = None,
) -> FieldExtrapolation:
    """Weighted least squares of f(B) = f0 + c B^2 down to B = 0.

    Weights are the inverse-variance of the supplied per-point
    uncertainties and are treated as known a priori: the parameter
    covariance is (X^T W X)^-1 without any rescaling by the reduced
    chi-square.  With no uncertainties the fit is unweighted and the
    intercept carries no uncertainty component.
    """
    b = np.asarray(b_values, dtype=float)
    f = np.asarray(frequencies, dtype=float)
    if b.shape != f.shape or b.ndim != 1:
        raise ValueError("b_values and frequencies must be 1-d and the same length")
    with overflow_as_value_error("zero-field extrapolation fit"):
        if b.size == 0 or np.min(b ** 2) == np.max(b ** 2):
            raise ValueError("need at least two distinct field magnitudes")
        design = np.column_stack([np.ones_like(b), b ** 2])

        if uncertainties is not None:
            u = np.asarray(uncertainties, dtype=float)
            if u.shape != b.shape or np.any(u <= 0):
                raise ValueError("uncertainties must be positive and match b_values")
            w = 1.0 / u ** 2
        else:
            w = np.ones_like(b)

        params, cov = weighted_least_squares(design, f, w)
        resid = f - design @ params

    if uncertainties is not None:
        comp0 = {"exp": float(np.sqrt(cov[0, 0]))}
        comp1 = {"exp": float(np.sqrt(cov[1, 1]))}
    else:
        comp0 = comp1 = {}
    return FieldExtrapolation(
        Quantity(float(params[0]), "kHz", comp0),
        Quantity(float(params[1]), "kHz/G^2", comp1),
        resid,
    )


def read_field_scan_csv(path: str | Path) -> tuple[list[float], list[float], list[float]]:
    """Read `B_gauss, f_khz, u_khz` rows of a field-extrapolation scan.

    B_gauss and f_khz must be finite and u_khz finite and positive.
    """
    cols = read_table(path, [(("B_gauss", "f_khz"), FINITE), ("u_khz", POSITIVE)])
    if not len(cols["B_gauss"]):
        raise ValueError(f"{path}: no field-scan rows")
    return cols["B_gauss"].tolist(), cols["f_khz"].tolist(), cols["u_khz"].tolist()
