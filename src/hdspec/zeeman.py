"""Zeeman structure of hyperfine levels in a weak magnetic field.

The interaction is linear in the field B (in gauss) and diagonal in the
magnetic projections:

    H_Z = B (c_e s_ez + c_p I_pz + c_d I_dz + c_N N_z)

with per-momentum couplings in kHz/G.  Transition shifts over a field
grid are reduced to a linear + quadratic coefficient pair, and measured
line positions are extrapolated to zero field with a pure-quadratic
weighted fit.
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
    ProductBasis,
    SpinLevel,
    _level_set,
    level_structure,
    m_block,
)
from .quantity import FINITE, POSITIVE, Quantity, overflow_as_value_error, parse_field, read_table

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
    found: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, text = (t.strip() for t in line.partition("="))
        if not sep or key not in DEFAULT_COUPLINGS:
            raise ValueError(f"{path}:{lineno}: expected one of {sorted(DEFAULT_COUPLINGS)} = value")
        if key in found:
            raise ValueError(f"{path}:{lineno}: duplicate key {key}")
        found[key] = parse_field(text, path, lineno, key)
        if not math.isfinite(found[key]):
            raise ValueError(f"{path}:{lineno}: {key} must be finite")
    missing = sorted(set(DEFAULT_COUPLINGS) - set(found))
    if missing:
        raise ValueError(f"{path}: missing coupling {missing[0]}")
    return ZeemanCouplings(found["c_e"], found["c_p"], found["c_d"], found["c_N"])


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


def _sublevels(
    coeffs: HyperfineCoefficients,
    couplings: ZeemanCouplings,
    levels: Sequence[SpinLevel],
    m_f: int,
    b_values: np.ndarray,
) -> tuple[list[tuple[int, int, int, int]], np.ndarray]:
    """Labels and energies (one row each, over the grid) of the sublevels with projection m_F.

    H0 + H_Z commutes with F_z, which is diagonal in the product basis,
    so the m_F block is solved on its own, for the whole grid in one
    stacked call.  Levels inside one block do not cross (von
    Neumann-Wigner), so at every B the k-th lowest energy of the block
    belongs to the k-th lowest field-free level with F >= |m_F|
    (Bakalov, Korobov & Schiller, J. Phys. B 44, 025003 (2011)).  At
    B = 0 the energies are the field-free ones exactly.
    """
    h0, slot_m = m_block(coeffs, m_f)
    c = np.array([couplings.c_e, couplings.c_p, couplings.c_d, couplings.c_n])
    energies = np.linalg.eigvalsh(h0 + b_values[:, None, None] * np.diag(c @ slot_m)).T
    members = [lv for lv in levels if lv.f >= abs(m_f)]
    if b_values[0] == 0.0:
        energies[:, 0] = [lv.energy for lv in members]
    return [(lv.g1, lv.g2, lv.f, m_f) for lv in members], energies


def zeeman_map(
    coeffs: HyperfineCoefficients,
    couplings: ZeemanCouplings,
    basis: ProductBasis,
    b_values: Sequence[float] = DEFAULT_B_GRID,
) -> ZeemanMap:
    """Energies of every magnetic sublevel over an ascending field grid.

    Each m_F block is solved on its own over the whole grid (see
    `_sublevels`); the states come level by level in field-free order,
    m_F ascending within a level.  The field-free levels must not
    coincide.
    """
    b_values = _field_grid(b_values)
    levels = _mappable(level_structure(coeffs, basis))
    labels = [(lv.g1, lv.g2, lv.f, m) for lv in levels for m in range(-lv.f, lv.f + 1)]
    index = {label: i for i, label in enumerate(labels)}
    f_max = max(lv.f for lv in levels)

    energies = np.empty((len(labels), len(b_values)))
    for m in range(-f_max, f_max + 1):
        block_labels, block = _sublevels(coeffs, couplings, levels, m, b_values)
        energies[[index[label] for label in block_labels]] = block

    states = tuple(ZeemanState(*label, energies=energies[i]) for i, label in enumerate(labels))
    return ZeemanMap(b_values.copy(), states)


@dataclass(frozen=True)
class TransitionShiftModel:
    """Transition Zeeman shift df(B) = a B + c B^2, in kHz, B in gauss."""

    linear: float
    quadratic: float
    rms_residual: float

    def shift(self, b_field: float) -> float:
        return self.linear * b_field + self.quadratic * b_field ** 2


def transition_coeffs(
    lower: tuple[HyperfineCoefficients, Sequence[int]],
    upper: tuple[HyperfineCoefficients, Sequence[int]],
    couplings: ZeemanCouplings | None = None,
    b_values: Sequence[float] = DEFAULT_B_GRID,
) -> TransitionShiftModel:
    """Linear and quadratic Zeeman coefficients of one transition.

    Each argument pairs a coefficient set with a (G1, G2, F, m_F) state
    label.  Only the m_F block of each label is solved, with the same
    energies `zeeman_map` gives that state.  The shift relative to zero
    field is fit by least squares to a B + c B^2 over the grid, which
    must start at B = 0.
    """
    couplings = couplings or ZeemanCouplings()
    b = _field_grid(b_values)
    if b[0] != 0.0:
        raise ValueError("transition_coeffs needs B = 0 in the grid to reference the shift")
    energies = []
    for coeffs, label in (lower, upper):
        label = tuple(label)
        levels = _mappable(_level_set(coeffs).levels)
        if len(label) != 4 or not any(lv.label == label[:3] and lv.f >= abs(label[3]) for lv in levels):
            raise LookupError(f"no Zeeman state with label {label}")
        labels, block = _sublevels(coeffs, couplings, levels, label[3], b)
        energies.append(block[labels.index(label)])
    shift = (energies[1] - energies[0]) - (energies[1][0] - energies[0][0])
    design = np.column_stack([b, b ** 2])
    params, *_ = np.linalg.lstsq(design, shift, rcond=None)
    resid = shift - design @ params
    return TransitionShiftModel(float(params[0]), float(params[1]), float(np.sqrt(np.mean(resid ** 2))))


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

        xtw = design.T * w
        cov = np.linalg.inv(xtw @ design)
        params = cov @ (xtw @ f)
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
    `quantity.read_table` parses a large plain-ASCII file a whole column
    at a time with `np.loadtxt`; any other file, and any fault, it reads
    row by row, and that row path is the authority on values and on the
    `path:line` message.
    """
    cols = read_table(path, [(("B_gauss", "f_khz"), FINITE), ("u_khz", POSITIVE)])
    if not len(cols["B_gauss"]):
        raise ValueError(f"{path}: no field-scan rows")
    return cols["B_gauss"].tolist(), cols["f_khz"].tolist(), cols["u_khz"].tolist()
