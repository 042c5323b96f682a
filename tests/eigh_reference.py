"""Reference F-block level solve: one `np.linalg.eigh` on every F block.

This is the level solve of `hdspec.angular._LevelSet` written the plain
way: every F block, a one-level block included, is diagonalized by eigh,
gamma_k and <G1^2>, <G2^2> are evaluated on their own, and levels are
ranked, clustered and labelled with no shortcut.  It reads the per-N
block data of the program (`angular._blocks`) and its tie rule
(`angular._by_rank`), so it checks the solve path, not the block
construction, which `dense_oracle.py` checks from outside.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _labels(block, x: np.ndarray, alone: list[bool]) -> list[tuple[int, int]]:
    g1_sq, g2_sq = ((x * (op @ x)).sum(axis=0).tolist() for op in (block.g1_sq, block.g2_sq))
    n = x.shape[1]
    g1 = angular._by_rank("G1", g1_sq, range(n), [g1 for g1, _ in block.pairs], alone, block.f)
    g2: dict[int, int] = {}
    for group in (0, 1):
        members = [a for a in range(n) if g1[a] == group]
        g2.update(angular._by_rank("G2", g2_sq, members, [g2 for g1, g2 in block.pairs if g1 == group], alone, block.f))
    return [(g1[a], g2[a]) for a in range(n)]


def reference_levels(coeffs: angular.HyperfineCoefficients) -> list[ReferenceLevel]:
    """The levels of `coeffs` in ascending energy, ties by F, each with its gamma_1..gamma_9."""
    e = np.array([coeffs.coefficient(k) for k in angular.COEFF_INDICES], dtype=float)
    found = []
    for block in angular._blocks(coeffs.n_rot).f_blocks:
        evals, x = np.linalg.eigh(np.tensordot(e, block.terms, 1))
        gammas = np.sum(x * (block.terms @ x), axis=1).T
        n = len(evals)
        alone = [
            (a == 0 or evals[a] - evals[a - 1] > angular.COINCIDENT_KHZ)
            and (a == n - 1 or evals[a + 1] - evals[a] > angular.COINCIDENT_KHZ)
            for a in range(n)
        ]
        labels = _labels(block, x, alone)
        for a in range(n):
            g1, g2 = labels[a] if alone[a] else (None, None)
            found.append(ReferenceLevel(float(evals[a]), 2 * block.f + 1, g1, g2, block.f, tuple(gammas[a].tolist())))
    found.sort(key=lambda level: level.energy)
    cluster, keys = 0, []
    for i, level in enumerate(found):
        if i and level.energy - found[i - 1].energy > angular.COINCIDENT_KHZ:
            cluster += 1
        keys.append((cluster, level.f))
    return [level for _, level in sorted(zip(keys, found), key=lambda pair: pair[0])]
