"""Dense reference solver for the F-block level solve in `hdspec.angular`.

It diagonalizes the full 12(2N+1)-dimensional Hamiltonian, groups
eigenvalues within `GROUP_REL` times max |H| into levels and labels each
level by rounding the <G1^2>, <G2^2>, <F^2> expectation values of its
eigenvectors, so it checks a set at any scale alike.  It embeds its own
slot operators (`triple`, `combined_triple`: Kronecker products with
identities) and shares only `jmatrices`, `casimir` and the basis
dimensions with the program, so it checks the program's symmetry
reduction, labelling and sensitivities from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hdspec.angular import SLOT_NAMES, ClassificationError, ProductBasis, casimir, jmatrices
from hdspec.zeeman import ZeemanCouplings

# eigenvalues this close, relative to max |H|, form one level: about 1e-6 kHz for the demo sets (max |H| near 4.6e5 kHz)
GROUP_REL = 2e-12


@dataclass(frozen=True)
class DenseLevel:
    energy: float
    degeneracy: int
    g1: int | None
    g2: int | None
    f: int | None
    vectors: np.ndarray

    @property
    def label(self) -> tuple[int, int, int] | None:
        if self.f is None:
            return None
        return (self.g1, self.g2, self.f)


def triple(basis: ProductBasis, slot: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J_z, J_+, J_-) of one slot on the product basis, the identity on the other slots."""
    pos = SLOT_NAMES.index(slot)
    pre, dim, post = math.prod(basis.dims[:pos]), basis.dims[pos], math.prod(basis.dims[pos + 1:])
    single = jmatrices((dim - 1) / 2)
    return tuple(np.kron(np.kron(np.eye(pre), op), np.eye(post)) for op in (single.jz, single.jplus, single.jminus))


def combined_triple(basis: ProductBasis, slots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Componentwise sum of slot momenta, e.g. G1 = s_e + I_p."""
    zs, ps, ms = zip(*(triple(basis, s) for s in slots))
    return sum(zs), sum(ps), sum(ms)


def product_index(basis: ProductBasis, m_se: float, m_sp: float, m_sd: float, m_n: float) -> int:
    """The basis index of the product state with these magnetic quantum numbers (a bijection)."""
    idx = 0
    for name, dim, m in zip(SLOT_NAMES, basis.dims, (m_se, m_sp, m_sd, m_n)):
        j = basis.js[name]
        i = round(j - m)
        if not (0 <= i < dim) or abs((j - m) - i) > 1e-9:
            raise ValueError(f"invalid m={m} for slot {name} (j={j})")
        idx = idx * dim + i
    return idx


def round_to_j(x: float, window: float = 0.05) -> float | None:
    """Nearest half-integer j with j(j+1) within `window` of x, else None."""
    if x < -window:
        return None
    j = 0.5 * (-1.0 + math.sqrt(max(0.0, 1.0 + 4.0 * x)))
    jr = round(2.0 * j) / 2.0
    if abs(x - jr * (jr + 1.0)) > window:
        return None
    return jr


def _as_int(j: float) -> int:
    if abs(j - round(j)) > 1e-9:
        raise ClassificationError(f"expected integer quantum number, got {j}")
    return int(round(j))


def eigenlevels(h: np.ndarray, basis: ProductBasis) -> list[DenseLevel]:
    """Diagonalize, group degenerate eigenvalues, label by (G1, G2, F).

    H must be symmetric and commute with F_z and F^2.  A group too large
    to be a single F multiplet (possible only for degenerate corner cases
    such as H = 0) is returned unlabeled; a group whose eigenvectors carry
    mixed or non-integer labels raises ClassificationError.
    """
    if not np.array_equal(h, h.T):
        raise ValueError("Hamiltonian must be symmetric")
    f = combined_triple(basis, SLOT_NAMES)
    fz, f2 = f[0], casimir(f)
    h_scale = np.max(np.abs(h))
    for name, op in (("F_z", fz), ("F^2", f2)):
        comm = np.max(np.abs(h @ op - op @ h))
        # roundoff in the products grows with the entries of H and of op
        limit = 1e-12 * h_scale * np.max(np.abs(op))
        if comm > limit:
            raise ValueError(f"Hamiltonian does not commute with {name}: |[H, {name}]| = {comm:.3e} kHz")

    evals, evecs = np.linalg.eigh(h)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][0]] <= GROUP_REL * h_scale:
            groups[-1].append(i)
        else:
            groups.append([i])

    casimirs = {
        "g1": casimir(combined_triple(basis, ("s_e", "I_p"))),
        "g2": casimir(combined_triple(basis, ("s_e", "I_p", "I_d"))),
        "f": f2,
    }
    max_multiplet = 2 * (2 + basis.n_rot) + 1

    levels = []
    for idx in groups:
        vecs = evecs[:, idx]
        if len(idx) > max_multiplet:
            levels.append(DenseLevel(float(np.mean(evals[idx])), len(idx), None, None, None, vecs))
            continue
        labels = []
        for col in range(vecs.shape[1]):
            vec = vecs[:, col]
            one = {}
            for name, op in casimirs.items():
                j = round_to_j(float(vec @ op @ vec))
                if j is None:
                    raise ClassificationError(f"ambiguous {name} label for eigenvector {idx[col]}")
                one[name] = j
            labels.append((one["g1"], one["g2"], one["f"]))
        if len(set(labels)) != 1:
            raise ClassificationError(f"eigenvectors {idx} are degenerate but carry mixed labels {sorted(set(labels))}")
        g1, g2, f = labels[0]
        levels.append(DenseLevel(float(np.mean(evals[idx])), len(idx), _as_int(g1), _as_int(g2), _as_int(f), vecs))
    return levels


def build_zeeman(couplings: ZeemanCouplings, basis: ProductBasis, b_field: float) -> np.ndarray:
    """Zeeman Hamiltonian (kHz) at field b_field in gauss: diagonal in the product basis."""
    c = {"s_e": couplings.c_e, "I_p": couplings.c_p, "I_d": couplings.c_d, "N": couplings.c_n}
    return b_field * sum(c[slot] * triple(basis, slot)[0] for slot in c)
