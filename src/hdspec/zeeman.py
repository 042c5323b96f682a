"""Zeeman structure of hyperfine levels in a weak magnetic field.

The interaction is linear in the field B (in gauss) and diagonal in the
magnetic projections:

    H_Z = B (c_e s_ez + c_p I_pz + c_d I_dz + c_N N_z)

with per-momentum couplings in kHz/G.  H_Z commutes with F_z, and each
m_F block is taken in its field-free states, the F-block eigenvectors X
that the levels with F >= |m_F| carry: W = sum_s c_s X^T Z_s X per
gauss, Z_s the J_z of slot s between the coupled states of that m_F
(`angular._Blocks.jz`), one row per level (`angular._zeeman_row`), in
Python floats.  The linear and quadratic Zeeman coefficients of a
transition are exact at B = 0: Hellmann-Feynman gives the linear term,
sum_s c_s (<J_z^s>_upper - <J_z^s>_lower), each slot subtracted before
it is weighted, and second-order perturbation theory the quadratic
one, over the same states (Bakalov, Korobov & Schiller, J. Phys. B 44,
025003 (2011)).  Over a field grid the sublevels of one m_F block are
the eigenvalues of diag(E) + B W (`_sublevels`, which also writes the
field-free energies into a B = 0 column), for `zeeman_map` and for the
truncation of the quadratic model (`transition_truncation`).  A block
of one state (the stretched sublevels among them) is E + B w on any
grid, with no solve.  A level set decides its path once per grid, for
every larger block of its map: if the map's work (`_PYTHON_WORK`)
costs less than the numpy import, each field is one eigenvalues-only
F-block Jacobi in Python floats (`angular._eigen`), else numpy is
imported for one stacked `eigvalsh` per block.  Each side of a
truncation takes the path of its set's map, so the two give the same
floats on any grid, and word an overflow alike.  Grids, energies and
the truncation come back as Python floats either way.  The zero-field
extrapolation of measured line positions is
`systematics.extrapolate_to_zero_field`.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from pathlib import Path
from typing import Sequence

from . import angular
from .angular import HyperfineCoefficients, SpinLevel, _blocks, _level_set, _LevelSet, _zeeman_row
from .quantity import FINITE, Record, finite, finite_step, overflow_as_value_error, read_keys

DEFAULT_B_GRID = (0.0, 0.05, 0.10, 0.15, 0.20)

# A level set whose map work, field points times the sum of n^3 over its m_F blocks of n > 1 states, is at most this
# is solved field by field in Python floats, a costlier one by numpy's stacked eigvalsh, whose import costs a fresh
# process 60 to 75 ms; a block of one state is E + B w, in one pass, on either path and counts nothing.  In Python
# floats a unit costs `zeeman_map` about 0.45 us at N = 0 and 0.33 us at N = 1 and 5 (blocks of up to 12 states).
# Fresh processes (bytecode cached, medians of 9, a line fitted to each path) break even at 1.5e5 units at N = 0
# (1290 points), 1.8e5 at N = 2 (33), 2.0e5 at N = 1 (91) and at N = 5 (13); the smallest is the bound.  It keeps
# the default 5-point grid on Python floats at every N up to 5 (8e4 units at N = 5), and an N = 1 map up to 69 points.
_PYTHON_WORK = 1.5e5

# Jacobi's rotations keep the Frobenius norm, so no entry of an n x n block leaves n max |h|, and no sum of a sweep
# 101 times that: a block beyond this bound on n max |h| is solved at a power of two below its scale (`_eigenvalues`)
_JACOBI_LIMIT = sys.float_info.max / 128.0

# kHz/G; signs follow the convention that a positive projection of the
# electron spin moves up in energy for B > 0.
DEFAULT_COUPLINGS = {"c_e": 2802.5, "c_p": -4.2577, "c_d": -0.6536, "c_N": -0.55}

_fsum, _mul = math.fsum, operator.mul


class ZeemanCouplings:
    """Linear couplings of the four momentum projections, in kHz/G."""

    __slots__ = ("c_e", "c_p", "c_d", "c_n")

    def __init__(
        self,
        c_e: float = DEFAULT_COUPLINGS["c_e"],
        c_p: float = DEFAULT_COUPLINGS["c_p"],
        c_d: float = DEFAULT_COUPLINGS["c_d"],
        c_n: float = DEFAULT_COUPLINGS["c_N"],
    ) -> None:
        self.c_e = c_e
        self.c_p = c_p
        self.c_d = c_d
        self.c_n = c_n

    @property
    def per_slot(self) -> tuple[float, float, float, float]:
        """The couplings in the slot order of `angular.SLOT_NAMES`: s_e, I_p, I_d, N."""
        return (self.c_e, self.c_p, self.c_d, self.c_n)


def read_couplings_file(path: str | Path) -> ZeemanCouplings:
    """Parse a `c_X = value` file; all four couplings must be present and finite."""
    c = read_keys(path, dict.fromkeys(DEFAULT_COUPLINGS, FINITE))
    return ZeemanCouplings(c["c_e"], c["c_p"], c["c_d"], c["c_N"])


class ZeemanState:
    """One magnetic sublevel followed across the field grid."""

    __slots__ = ("g1", "g2", "f", "m_f", "energies")

    def __init__(self, g1: int, g2: int, f: int, m_f: int, energies: tuple[float, ...]) -> None:
        self.g1 = g1
        self.g2 = g2
        self.f = f
        self.m_f = m_f
        self.energies = energies

    @property
    def label(self) -> tuple[int, int, int, int]:
        return (self.g1, self.g2, self.f, self.m_f)


class ZeemanMap:
    __slots__ = ("b_values", "states")

    def __init__(self, b_values: tuple[float, ...], states: tuple[ZeemanState, ...]) -> None:
        self.b_values = b_values
        self.states = states


def field_grid(b_values: Sequence[float]) -> tuple[float, ...]:
    """`b_values` as a tuple of floats; ValueError unless it is a non-empty, finite, strictly ascending, non-negative grid."""
    try:
        b_values = tuple(map(float, b_values))
    except TypeError:  # not a sequence, or one of sequences
        b_values = ()
    if not b_values:
        raise ValueError("b_values must be a non-empty 1-d sequence")
    if not all(map(math.isfinite, b_values)):
        raise ValueError("b_values must be finite")
    if any(hi <= lo for lo, hi in zip(b_values, b_values[1:])):
        raise ValueError("b_values must be strictly ascending")
    if b_values[0] < 0:
        raise ValueError("b_values must be non-negative")
    return b_values


def truncation_grid(b_values: Sequence[float]) -> tuple[float, ...]:
    """`field_grid` of a grid that must also start at B = 0, where `transition_truncation` references the shift."""
    b = field_grid(b_values)
    if b[0] != 0.0:
        raise ValueError("transition_truncation needs B = 0 in the grid to reference the shift")
    return b


def state_label(label: Sequence[int]) -> tuple[int, int, int, int]:
    """`label` as a (G1, G2, F, m_F) tuple; LookupError `no Zeeman state with label ...` unless |m_F| <= F."""
    label = tuple(label)
    if len(label) != 4 or abs(label[3]) > label[2]:
        raise LookupError(f"no Zeeman state with label {label}")
    return label


def _mappable(level_set: _LevelSet) -> Sequence[SpinLevel]:
    # coincident levels (see `_LevelSet.distinct`) have no order to follow into the field, and those of one F no label
    if not level_set.distinct:
        raise ValueError("Zeeman mapping needs field-free levels that do not coincide")
    return level_set.levels


def _field_block(energies: Sequence[float], w: Sequence[Sequence[float]], b: float) -> list[list[float]]:
    """diag(E) + B W at the field `b` in Python floats: B W, then its diagonal plus E, each checked (`finite_step`)."""
    h = [finite_step("multiply", [b * x for x in row]) for row in w]
    for i, diagonal in enumerate(finite_step("add", [e + row[i] for i, (e, row) in enumerate(zip(energies, h))])):
        h[i][i] = diagonal
    return h


def _eigenvalues(h: list[list[float]]) -> list[float]:
    """Ascending eigenvalues of a block by `angular._eigen`, solved at a power of two below its scale beyond `_JACOBI_LIMIT`.

    Jacobi takes a matrix times a power of two to its eigenvalues times
    that power, so the scaled solve loses nothing; an eigenvalue that
    leaves float64 on the way back raises `sublevel energy = ...`.
    """
    scale = max(abs(x) for row in h for x in row)
    if len(h) * scale <= _JACOBI_LIMIT:
        return angular._eigen(h, vectors=False)[0]
    k = math.frexp(scale)[1]
    evals, _ = angular._eigen([[math.ldexp(x, -k) for x in row] for row in h], vectors=False)
    evals = [e * 2.0 ** (k - 1) * 2.0 for e in evals]  # 2^k in two exact factors: 2^1024 is no float
    finite("sublevel energy", *evals)
    return evals


def _on_python_floats(points: int, levels: Sequence[SpinLevel]) -> bool:
    """Whether the map of `levels` over `points` fields, every m_F block of it, stays within `_PYTHON_WORK`."""
    f_max = max(lv.f for lv in levels)
    sizes = [sum(lv.f >= abs(m) for lv in levels) for m in range(-f_max, f_max + 1)]
    return points * sum(n ** 3 for n in sizes if n > 1) <= _PYTHON_WORK


def _sublevels(
    coeffs: HyperfineCoefficients, couplings: ZeemanCouplings, m_f: int, b_values: tuple[float, ...]
) -> list[tuple[float, ...]]:
    """Energies (one tuple each, over the grid) of the sublevels with projection m_F.

    H0 + H_Z commutes with F_z, so the m_F block is solved on its own,
    as diag(E) + B W: E are the energies of the levels with F >= |m_F|,
    in level order, and W the Zeeman operator per gauss in the
    field-free states that they carry (`angular._zeeman_row`).  A block
    of one state is E + B w, in one pass over the grid with no solve.  A
    larger one is solved field by field in Python floats (`_eigenvalues`)
    if the map of its level set takes Python floats over the grid
    (`_on_python_floats`), else in one stacked `eigvalsh`.
    Levels in one block do not cross (von Neumann-Wigner; Bakalov,
    Korobov & Schiller, J. Phys. B 44, 025003 (2011)), so at every B the
    k-th lowest energy belongs to the k-th lowest of those levels; the
    rows come in that order.  A B = 0 column is E exactly.  W, summed on
    Python floats (OverflowError `W = ...`), diag(E) + B W before any
    solve (`_field_block`, at the first field that leaves float64) and
    the energies of either solve are checked finite.
    """
    levels = _level_set(coeffs).levels
    members = [lv for lv in levels if lv.f >= abs(m_f)]
    w = [_zeeman_row(lv, members, m_f, couplings.per_slot)[1] for lv in members]
    finite("W", *itertools.chain.from_iterable(w))
    energies = [lv.energy for lv in members]
    try:
        _field_block(energies, w, b_values[-1])
    except OverflowError:  # B W and E + B W are monotone in B: past the first field that leaves float64, all do
        for b in b_values:
            _field_block(energies, w, b)
        raise
    if len(members) == 1:
        (e,), ((x,),) = energies, w
        row = [e + b * x for b in b_values]
        if b_values[0] == 0.0:
            row[0] = e
        return [tuple(row)]
    if _on_python_floats(len(b_values), levels):
        columns = [energies if b == 0.0 else _eigenvalues(_field_block(energies, w, b)) for b in b_values]
        return list(zip(*columns))
    import numpy as np

    out = np.linalg.eigvalsh(np.diag(energies) + np.array(b_values)[:, None, None] * np.array(w)).T
    finite("sublevel energy", float(out.min()), float(out.max()))  # eigvalsh ignores overflow; a NaN is the min
    if b_values[0] == 0.0:
        out[:, 0] = energies
    return list(map(tuple, out.tolist()))


def zeeman_map(
    coeffs: HyperfineCoefficients,
    couplings: ZeemanCouplings,
    b_values: Sequence[float] = DEFAULT_B_GRID,
) -> ZeemanMap:
    """Energies of every magnetic sublevel over an ascending field grid.

    Each m_F block is solved on its own over the whole grid (see
    `_sublevels`), all in Python floats or all of more than one state
    on the stacked path (`_on_python_floats`); the states come level by
    level in field-free order, m_F ascending within a level.  The
    field-free levels must not coincide.
    """
    with overflow_as_value_error("Zeeman map"):
        b_values = field_grid(b_values)
        levels = _mappable(_level_set(coeffs))
        labels = [(lv.g1, lv.g2, lv.f, m) for lv in levels for m in range(-lv.f, lv.f + 1)]
        index = {label: i for i, label in enumerate(labels)}
        f_max = max(lv.f for lv in levels)

        energies = [None] * len(labels)
        for m in range(-f_max, f_max + 1):
            rows = [index[(lv.g1, lv.g2, lv.f, m)] for lv in levels if lv.f >= abs(m)]
            for i, row in zip(rows, _sublevels(coeffs, couplings, m, b_values)):
                energies[i] = row

    return ZeemanMap(b_values, tuple(ZeemanState(*label, energies=e) for label, e in zip(labels, energies)))


class TransitionShiftModel(Record):
    """Transition Zeeman shift df(B) = a B + c B^2, in kHz, B in gauss."""

    __slots__ = ("linear", "quadratic")

    def __init__(self, linear: float, quadratic: float) -> None:
        self.linear = linear
        self.quadratic = quadratic


def _member(coeffs: HyperfineCoefficients, label: Sequence[int]) -> tuple[list[SpinLevel], int]:
    """The levels whose m_F block holds `label` (F >= |m_F|, level order) and the row of `label` among them."""
    label = state_label(label)
    level_set = _level_set(coeffs)
    levels = _mappable(level_set)
    level = level_set.labelled.get(label[:3])
    if level is None:
        raise LookupError(f"no Zeeman state with label {label}")
    members = [lv for lv in levels if lv.f >= abs(label[3])]
    return members, members.index(level)


def _state_coeffs(coeffs: HyperfineCoefficients, label: Sequence[int], couplings: ZeemanCouplings) -> tuple[Sequence[float], float]:
    """<J_z> of each slot, and the quadratic Zeeman coefficient, of one sublevel at B = 0.

    Hellmann-Feynman gives the linear coefficient sum_s c_s <i|J_z^s|i>,
    which `transition_coeffs` forms, and second-order perturbation theory
    c = sum_{j != i} W_ji^2 / (E_i - E_j), over the field-free states of
    the m_F block (`angular._zeeman_row`).  A block of one state is
    exactly linear (c = 0), its <J_z^s> the entries of J_z between its one
    coupled state; under m_F -> -m_F every <J_z^s> changes sign, so in an
    m_F = 0 block they are 0 and E(B) is even.  Each second-order term is checked
    finite (OverflowError `second-order term = ...`).
    """
    members, row = _member(coeffs, label)
    m_f = label[3]
    if len(members) == 1:
        return [zs[0][0] for zs in _blocks(coeffs.n_rot).jz(m_f)], 0.0
    level = members[row]
    jz, w = _zeeman_row(level, members, m_f, couplings.per_slot)
    terms = [w_j * (w_j / (level.energy - lv.energy)) for j, (w_j, lv) in enumerate(zip(w, members)) if j != row]
    finite("second-order term", *terms)
    return ((0.0,) * 4 if m_f == 0 else jz), _fsum(terms)


def transition_coeffs(
    lower: tuple[HyperfineCoefficients, Sequence[int]],
    upper: tuple[HyperfineCoefficients, Sequence[int]],
    couplings: ZeemanCouplings | None = None,
) -> TransitionShiftModel:
    """Exact linear and quadratic Zeeman coefficients of one transition at B = 0.

    Each argument pairs a coefficient set with a (G1, G2, F, m_F) state
    label.  Each side comes from the field-free states of its m_F block
    (see `_state_coeffs`) that the cached level solve gives: no field
    grid and no further eigen-solve.  The linear coefficient subtracts
    the sides slot by slot before it weights them, so a slot both sides
    project alike drops out exactly, whatever its coupling.  A value that
    leaves float64 raises ValueError `Zeeman coefficient solve overflows
    float64 (...)`.
    """
    couplings = couplings or ZeemanCouplings()
    try:
        (jz_lo, c_lo), (jz_up, c_up) = (_state_coeffs(coeffs, label, couplings) for coeffs, label in (lower, upper))
        model = TransitionShiftModel(_fsum(map(_mul, couplings.per_slot, map(operator.sub, jz_up, jz_lo))), c_up - c_lo)
        finite("linear", model.linear)
        finite("quadratic", model.quadratic)
    except ArithmeticError:  # only Python floats here: the guard words the error, it need not watch numpy
        with overflow_as_value_error("Zeeman coefficient solve"):
            raise
    return model


def transition_truncation(
    lower: tuple[HyperfineCoefficients, Sequence[int]],
    upper: tuple[HyperfineCoefficients, Sequence[int]],
    couplings: ZeemanCouplings | None = None,
    b_values: Sequence[float] = DEFAULT_B_GRID,
) -> tuple[TransitionShiftModel, float]:
    """`transition_coeffs` and the truncation of its quadratic model over a field grid.

    The truncation is the largest |df(B) - (a B + c B^2)| in kHz, with
    the shift df(B) relative to zero field taken from the sublevels of
    `_sublevels`, the same floats that `zeeman_map` gives; a step that
    leaves float64 leaves a residual that is not finite, which is
    checked.  Each side takes the path of its set's map
    (`_on_python_floats`), so sides of two sets may take different
    paths.  The grid is checked before any solve and must start at B = 0.
    """
    with overflow_as_value_error("Zeeman coefficient solve"):
        b = truncation_grid(b_values)
        couplings = couplings or ZeemanCouplings()
        model = transition_coeffs(lower, upper, couplings)
        lo, up = (_sublevels(coeffs, couplings, label[3], b)[_member(coeffs, label)[1]] for coeffs, label in (lower, upper))
        a, c, d0 = model.linear, model.quadratic, up[0] - lo[0]
        residuals = [((u - l) - d0) - (a * x + c * (x * x)) for l, u, x in zip(lo, up, b)]
        finite("truncation residual", *residuals)
        return model, max(map(abs, residuals))
