"""Reference F-block level solve: one `np.linalg.eigh` on every F block.

This is the level solve of `hdspec.angular._LevelSet` written the plain
way on numpy and LAPACK, where the program solves each block in Python
floats: every F block, a one-level block included, is diagonalized by eigh,
gamma_k and <G1^2>, <G2^2> are evaluated on their own, and levels are
ranked, clustered and labelled with no shortcut: G1 by rank over the
whole block, then G2 by rank inside each G1 group, each with its own
tie check (`_by_rank`).  Levels coincide within the tolerance of the
program's level set, restated here from its rule (`tolerance`) so that
a set the program refuses still has one.  It reads the per-N block
data of the program (`angular._blocks`), so it checks the solve path,
not the block construction, which `dense_oracle.py` checks from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from hdspec import angular


@dataclass(frozen=True)
class ReferenceLevel:
    energy: float
    degeneracy: int
    g1: int | None
    g2: int | None
    f: int
    gammas: tuple[float, ...]

    @property
    def label(self) -> tuple[int, int, int] | None:
        return None if self.g1 is None else (self.g1, self.g2, self.f)


def _by_rank(
    name: str, values: Sequence[float], members: Sequence[int], js: Sequence[int], alone: Sequence[bool], f: int
) -> dict[int, int]:
    """Give the ascending quantum numbers `js` to `members` in ascending order of <name^2> = values.

    Two members on either side of a step in j tie when their values lie
    less than half the step of j(j+1) apart; a tie that touches a level
    of its own (not a coincident one) raises ClassificationError.
    """
    order = sorted(members, key=values.__getitem__)
    for lo, hi, j_lo, j_hi in zip(order, order[1:], js, js[1:]):
        step = j_hi * (j_hi + 1) - j_lo * (j_lo + 1)
        if step and (alone[lo] or alone[hi]) and values[hi] - values[lo] < 0.5 * step:
            raise angular.ClassificationError(
                f"ambiguous {name} label for a level with F={f} "
                f"(<{name}^2> = {values[lo]:.6f} and {values[hi]:.6f} for {name} = {j_lo} and {j_hi})"
            )
    return dict(zip(order, js))


def _labels(block, x: np.ndarray, alone: list[bool]) -> list[tuple[int, int]]:
    g1_sq, g2_sq = ((x * (np.diag(op) @ x)).sum(axis=0).tolist() for op in (block.g1_sq, block.g2_sq))
    n = x.shape[1]
    g1 = _by_rank("G1", g1_sq, range(n), [g1 for g1, _ in block.pairs], alone, block.f)
    g2: dict[int, int] = {}
    for group in (0, 1):
        members = [a for a in range(n) if g1[a] == group]
        g2.update(_by_rank("G2", g2_sq, members, [g2 for g1, g2 in block.pairs if g1 == group], alone, block.f))
    return [(g1[a], g2[a]) for a in range(n)]


def tolerance(coeffs: angular.HyperfineCoefficients) -> float:
    """The level set's coincidence tolerance: `angular._ULPS` ulps of max |E_k|, times the per-N bound on H."""
    e_max = max(abs(coeffs.coefficient(k)) for k in angular.COEFF_INDICES)
    return angular._ULPS * math.ulp(e_max) * angular._blocks(coeffs.n_rot).h_bound


def reference_levels(coeffs: angular.HyperfineCoefficients) -> list[ReferenceLevel]:
    """The levels of `coeffs` in ascending energy, ties by F, each with its gamma_1..gamma_9."""
    e = np.array([coeffs.coefficient(k) for k in angular.COEFF_INDICES], dtype=float)
    tol = tolerance(coeffs)
    found = []
    for block in angular._blocks(coeffs.n_rot).f_blocks:
        terms = np.array(block.terms)
        evals, x = np.linalg.eigh(np.tensordot(e, terms, 1))
        gammas = np.sum(x * (terms @ x), axis=1).T
        n = len(evals)
        alone = [
            (a == 0 or evals[a] - evals[a - 1] > tol)
            and (a == n - 1 or evals[a + 1] - evals[a] > tol)
            for a in range(n)
        ]
        labels = _labels(block, x, alone)
        for a in range(n):
            g1, g2 = labels[a] if alone[a] else (None, None)
            found.append(ReferenceLevel(float(evals[a]), 2 * block.f + 1, g1, g2, block.f, tuple(gammas[a].tolist())))
    found.sort(key=lambda level: level.energy)
    cluster, keys = 0, []
    for i, level in enumerate(found):
        if i and level.energy - found[i - 1].energy > tol:
            cluster += 1
        keys.append((cluster, level.f))
    return [level for _, level in sorted(zip(keys, found), key=lambda pair: pair[0])]
