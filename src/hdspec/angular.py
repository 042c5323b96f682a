"""Hyperfine level structure of a four-momentum diatomic level.

The level (v, N) of HD+ carries four angular momenta: electron spin
s_e = 1/2, proton spin I_p = 1/2, deuteron spin I_d = 1 and the
rotation N.  An effective spin Hamiltonian

    H = E1 (N.s_e) + E2 (N.I_p) + E3 (N.I_d) + E4 (I_p.s_e) + E5 (I_d.s_e)
        + E6 T(N, I_p, s_e) + E7 T(N, I_d, s_e) + E8 T(N, I_p, I_d)
        + E9 Q(N, I_d)

with scalar coefficients E_k in kHz describes the hyperfine structure.
Everything here is built from real ladder-operator matrices; no complex
arithmetic is used anywhere in this module.

Coupled quantum numbers: G1 = s_e + I_p, G2 = G1 + I_d, F = G2 + N.

Levels are solved one F at a time (Bakalov, Korobov & Schiller, PRL 97,
243001 (2006); J. Phys. B 44, 025003 (2011)).  Every term operator T_k
commutes with F_z and F_+, so once per N the T_k are projected onto the
highest-weight states of each F (the kernel of F_+ on the m_F = F block,
at most 4 of them).  A coefficient set then costs one eigh of at most
4 x 4 per F that holds two or more levels, and none for an F that holds
one: F is exact, each level is a (2F + 1)-fold multiplet, G1 and G2 go
by rank of <G1^2> and <G2^2> inside the F block, and gamma_k =
x^T T_k x.  No full-basis Hamiltonian is built to solve or to map a
level.  The field-free eigenstates of one m_F block (`m_states`) are
the highest-weight eigenvectors lowered by F_- to m_F, built once per
level set and m_F on first use; a level's product-basis `vectors` are
its columns of them, and `zeeman` solves each m_F block in them.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .quantity import OPTIONAL_FINITE, OPTIONAL_POSITIVE, overflow_as_value_error, read_keys

COEFF_INDICES = tuple(range(1, 10))
ROTATIONAL_COEFFS = (1, 2, 3, 6, 7, 8, 9)
CONTACT_COEFFS = (4, 5)

SLOT_NAMES = ("s_e", "I_p", "I_d", "N")


class ClassificationError(ValueError):
    """A level's expectation values do not round to valid quantum numbers."""


class TrackingError(RuntimeError):
    """A perturbed spectrum could not be matched level-by-level."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# single-momentum matrices


@dataclass(frozen=True)
class AngularMomentumSet:
    """Real (J_z, J_+, J_-) matrices for one angular momentum j."""

    j: float
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray

    @property
    def dim(self) -> int:
        return self.jz.shape[0]


def jmatrices(j: float) -> AngularMomentumSet:
    """Ladder-operator matrices in the |j, m> basis, m = j, j-1, ..., -j (shared, read-only)."""
    twoj = round(2 * j)
    if twoj < 0 or abs(2 * j - twoj) > 1e-12:
        raise ValueError(f"j must be a non-negative half-integer, got {j}")
    return _jmatrices(twoj)


@functools.lru_cache(maxsize=16)
def _jmatrices(twoj: int) -> AngularMomentumSet:
    """The matrices of j = twoj / 2, kept for the 16 most recent j."""
    j = twoj / 2.0
    dim = twoj + 1
    m = j - np.arange(dim)
    jz = np.diag(m)
    jplus = np.zeros((dim, dim))
    for i in range(1, dim):
        # raises |j, m[i]> to |j, m[i] + 1> = row i-1
        jplus[i - 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    return AngularMomentumSet(j, _read_only(jz), _read_only(jplus), _read_only(jplus.T.copy()))


# ---------------------------------------------------------------------------
# product space


Triple = tuple[np.ndarray, np.ndarray, np.ndarray]


class ProductBasis:
    """Product basis s_e (1/2) x I_p (1/2) x I_d (1) x N.

    Basis states are ordered by per-slot index i = j - m (m descending),
    with s_e slowest and N fastest.
    """

    def __init__(self, n_rot: int):
        if n_rot < 0 or n_rot != int(n_rot):
            raise ValueError(f"rotational quantum number must be a non-negative integer, got {n_rot}")
        self.n_rot = int(n_rot)
        self.js = {"s_e": 0.5, "I_p": 0.5, "I_d": 1.0, "N": float(n_rot)}
        self._single = {name: jmatrices(j) for name, j in self.js.items()}
        self.dims = tuple(self._single[name].dim for name in SLOT_NAMES)
        self.dim = math.prod(self.dims)
        self._triples: dict[str, Triple] = {}

    def index(self, m_se: float, m_sp: float, m_sd: float, m_n: float) -> int:
        """Bijective map from magnetic quantum numbers to a basis index."""
        idx = 0
        for name, m in zip(SLOT_NAMES, (m_se, m_sp, m_sd, m_n)):
            j = self.js[name]
            i = round(j - m)
            if not (0 <= i < self._single[name].dim) or abs((j - m) - i) > 1e-9:
                raise ValueError(f"invalid m={m} for slot {name} (j={j})")
            idx = idx * self._single[name].dim + i
        return idx

    def _outer_dims(self, slot: str) -> tuple[int, int]:
        """Dimensions of the slots before and after `slot`."""
        pos = SLOT_NAMES.index(slot)
        return math.prod(self.dims[:pos]), math.prod(self.dims[pos + 1:])

    def embed(self, op: np.ndarray, slot: str) -> np.ndarray:
        """Tensor-embed a single-slot operator, identity elsewhere."""
        pos = SLOT_NAMES.index(slot)
        if op.shape != (self.dims[pos], self.dims[pos]):
            raise ValueError(
                f"operator shape {op.shape} does not match slot {slot} dimension {self.dims[pos]}"
            )
        pre, post = self._outer_dims(slot)
        return np.kron(np.kron(np.eye(pre), op), np.eye(post))

    def triple(self, slot: str) -> Triple:
        """Embedded (J_z, J_+, J_-) for one slot, cached."""
        if slot not in self._triples:
            single = self._single[slot]
            self._triples[slot] = (
                self.embed(single.jz, slot),
                self.embed(single.jplus, slot),
                self.embed(single.jminus, slot),
            )
        return self._triples[slot]

    def combined_triple(self, slots: Sequence[str]) -> Triple:
        """Componentwise sum of slot momenta, e.g. G1 = s_e + I_p."""
        zs, ps, ms = zip(*(self.triple(s) for s in slots))
        return sum(zs), sum(ps), sum(ms)

    def m_values(self, slot: str) -> np.ndarray:
        """Diagonal of the embedded J_z of one slot, as a vector."""
        pre, post = self._outer_dims(slot)
        return np.kron(np.kron(np.ones(pre), np.diag(self._single[slot].jz)), np.ones(post))

    def f_z(self) -> np.ndarray:
        return self.combined_triple(SLOT_NAMES)[0]

    def f_squared(self) -> np.ndarray:
        return casimir(self.combined_triple(SLOT_NAMES))


def dot(a: Triple, b: Triple) -> np.ndarray:
    """Scalar product A.B = A_z B_z + (A_+ B_- + A_- B_+)/2."""
    return a[0] @ b[0] + 0.5 * (a[1] @ b[2] + a[2] @ b[1])


def casimir(a: Triple) -> np.ndarray:
    return dot(a, a)


# ---------------------------------------------------------------------------
# Hamiltonian terms


def _rank2_norm(n_rot: int) -> float:
    return 1.0 / ((2 * n_rot - 1) * (2 * n_rot + 3))


def tensor_coupling(basis: ProductBasis, slot_a: str, slot_b: str) -> np.ndarray:
    """T(N, A, B) = [2 N^2 (A.B) - 3((N.A)(N.B) + (N.B)(N.A))] * norm."""
    norm = _rank2_norm(basis.n_rot)
    n, a, b = basis.triple("N"), basis.triple(slot_a), basis.triple(slot_b)
    na, nb = dot(n, a), dot(n, b)
    return norm * (2.0 * casimir(n) @ dot(a, b) - 3.0 * (na @ nb + nb @ na))


def quadrupole_coupling(basis: ProductBasis) -> np.ndarray:
    """Q(N, I_d) = [N^2 I_d^2 - 3/2 (N.I_d) - 3 (N.I_d)^2] * norm.

    Deuteron electric-quadrupole scalar; this form is traceless over the
    product space, so it does not move the spin-averaged origin.
    """
    norm = _rank2_norm(basis.n_rot)
    n, d = basis.triple("N"), basis.triple("I_d")
    nd = dot(n, d)
    return norm * (casimir(n) @ casimir(d) - 1.5 * nd - 3.0 * (nd @ nd))


def term_operator(k: int, basis: ProductBasis) -> np.ndarray:
    """The dimensionless operator multiplying coefficient E_k."""
    if k == 1:
        return dot(basis.triple("N"), basis.triple("s_e"))
    if k == 2:
        return dot(basis.triple("N"), basis.triple("I_p"))
    if k == 3:
        return dot(basis.triple("N"), basis.triple("I_d"))
    if k == 4:
        return dot(basis.triple("I_p"), basis.triple("s_e"))
    if k == 5:
        return dot(basis.triple("I_d"), basis.triple("s_e"))
    if k == 6:
        return tensor_coupling(basis, "I_p", "s_e")
    if k == 7:
        return tensor_coupling(basis, "I_d", "s_e")
    if k == 8:
        return tensor_coupling(basis, "I_p", "I_d")
    if k == 9:
        return quadrupole_coupling(basis)
    raise ValueError(f"coefficient index must be 1..9, got {k}")


# ---------------------------------------------------------------------------
# coefficients


@dataclass(frozen=True)
class HyperfineCoefficients:
    """E1..E9 in kHz for one level (v, N).

    ``eps_overrides`` holds optional per-coefficient fractional
    uncertainties that replace the defaults of SpinUncertaintyParams.
    """

    v: int
    n_rot: int
    values: dict[int, float]
    eps_overrides: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for k, e in self.values.items():
            if k not in COEFF_INDICES:
                raise ValueError(f"coefficient index must be 1..9, got {k}")
            if not math.isfinite(e):
                raise ValueError(f"coefficient E{k} must be finite, got {e}")
        for k, eps in self.eps_overrides.items():
            if k not in COEFF_INDICES or not (math.isfinite(eps) and eps > 0):
                raise ValueError(f"bad fractional-uncertainty override eps_E{k} = {eps}")
        if self.n_rot == 0:
            bad = [k for k in ROTATIONAL_COEFFS if self.values.get(k, 0.0) != 0.0]
            if bad:
                raise ValueError(
                    f"N=0 level admits only E4, E5; got nonzero E{bad[0]}"
                )

    def coefficient(self, k: int) -> float:
        return self.values.get(k, 0.0)


def _check_basis(coeffs: HyperfineCoefficients, basis: ProductBasis | None) -> None:
    if basis is not None and coeffs.n_rot != basis.n_rot:
        raise ValueError(
            f"coefficient set is for N={coeffs.n_rot}, basis has N={basis.n_rot}"
        )


def build_hfs(coeffs: HyperfineCoefficients, basis: ProductBasis) -> np.ndarray:
    """Assemble the effective spin Hamiltonian (kHz) on the product basis."""
    _check_basis(coeffs, basis)
    h = np.zeros((basis.dim, basis.dim))
    for k in COEFF_INDICES:
        e = coeffs.coefficient(k)
        if e != 0.0:
            h += e * term_operator(k, basis)
    return h


# ---------------------------------------------------------------------------
# per-N block data


# the eigenvector LAPACK's eigh returns for a 1 x 1 matrix, exactly
_UNIT = _read_only(np.ones((1, 1)))


def _expectations(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_a^T O x_a of every operator O of the stack `ops` and every column x_a of x, shape (len(ops), n)."""
    return (x * (ops @ x)).sum(axis=1)


class _FBlock:
    """The highest-weight states of one F: the kernel of F_+ on the m_F = F block.

    Every level of total angular momentum F has exactly one state in
    this kernel, so H restricted to it (at most 4 x 4) gives the levels
    of that F, each a (2F + 1)-fold multiplet.  Every array is read-only.
    """

    def __init__(self, f: int, kernel: np.ndarray, terms: np.ndarray, g1_sq: np.ndarray, g2_sq: np.ndarray,
                 pairs: tuple[tuple[int, int], ...]):
        self.f = f
        self.kernel = kernel  # (d, n): orthonormal columns over the m_F = F block
        self.terms = terms  # (9, n, n): the term operators T_k projected onto the kernel
        self.flat_terms = terms.reshape(len(terms), -1)  # (9, n * n): a view, so one matmul contracts it with E
        self.g1_sq, self.g2_sq = g1_sq, g2_sq  # (n, n): G1^2 and G2^2 projected onto the kernel
        self.pairs = pairs  # (G1, G2) of the n levels, ascending
        self.g1s = tuple(g1 for g1, _ in pairs)  # the G1 of the n levels, ascending
        self.g2s = tuple(tuple(g2 for g1, g2 in pairs if g1 == group) for group in (0, 1))  # the G2 with G1 = 0, 1
        # T_1..T_9, G1^2, G2^2: one matmul gives every gamma_k and <G^2> of an eigenvector
        self.ops = _read_only(np.concatenate([terms, g1_sq[None], g2_sq[None]]))
        # one level: its eigenvector is 1.0 whatever H is, so its expectation values are fixed
        self.unit = _read_only(_expectations(self.ops, _UNIT)) if len(pairs) == 1 else None


class _Blocks:
    """The term operators of one rotational level N, cut by symmetry.

    Each T_k commutes with F_z and F_+, so it is kept only as its
    projection onto the highest-weight states of each F (for the level
    solve).  F_- is kept as maps between neighbouring m_F blocks, to
    lower those states to any m_F on request, and the slot projections
    as one array per m_F block (for the Zeeman interaction).  Built once
    per N; every array is read-only.
    """

    def __init__(self, n_rot: int):
        basis = ProductBasis(n_rot)
        self.dim = basis.dim
        f_max = n_rot + 2
        slot_m = np.stack([basis.m_values(slot) for slot in SLOT_NAMES])
        m_f = np.rint(slot_m.sum(axis=0)).astype(int)
        self.index = {m: _read_only(np.flatnonzero(m_f == m)) for m in range(-f_max, f_max + 1)}
        ops = np.stack([term_operator(k, basis) for k in COEFF_INDICES])
        _, f_plus, f_minus = basis.combined_triple(SLOT_NAMES)
        g1_sq = casimir(basis.combined_triple(("s_e", "I_p")))
        g2_sq = casimir(basis.combined_triple(("s_e", "I_p", "I_d")))

        self.slot_m = {m: _read_only(slot_m[:, i]) for m, i in self.index.items()}
        self.lowering = {
            m: _read_only(f_minus[self.index[m - 1][:, None], self.index[m]]) for m in range(-f_max + 1, f_max + 1)
        }

        def project(op, block, kernel):
            return _read_only(kernel.T @ op[..., block[:, None], block] @ kernel)

        self.f_blocks: list[_FBlock] = []
        for f in range(f_max + 1):
            top, above = self.index[f], self.index.get(f + 1, np.empty(0, dtype=int))
            if len(top) == len(above):
                continue  # F_+ is one-to-one here: no level has this F
            if len(above):
                # F_+ maps the m_F = F block onto the m_F = F + 1 block, so the
                # right-singular vectors past its rank len(above) span its kernel
                kernel = np.linalg.svd(f_plus[above[:, None], top])[2][len(above):].T
            else:
                kernel = np.eye(len(top))
            # G1 = s_e + I_p, G2 = G1 + I_d, F = G2 + N
            pairs = tuple(
                (g1, g2) for g1 in (0, 1) for g2 in range(abs(g1 - 1), g1 + 2) if abs(g2 - n_rot) <= f <= g2 + n_rot
            )
            self.f_blocks.append(
                _FBlock(f, _read_only(kernel), project(ops, top, kernel), project(g1_sq, top, kernel),
                        project(g2_sq, top, kernel), pairs)
            )
        self._lowered: dict[int, np.ndarray] = {}  # m_F -> `lowered(m_F)`

    def lowered(self, m_f: int) -> np.ndarray:
        """The kernels of the F blocks with F >= |m_F| (the last ones), lowered by F_- to the m_F block.

        Columns come block by block as in `f_blocks`, each reached
        from the kernel by F_- |F, m> = sqrt(F(F+1) - m(m-1)) |F, m-1>;
        the matrix is square, since every state of the m_F block belongs
        to one multiplet with F >= |m_F|.  Built on first use, read-only.
        """
        if m_f not in self._lowered:
            cols = []
            for block in self.f_blocks:
                col, f = block.kernel, block.f
                if f < abs(m_f):
                    continue
                for m in range(f, m_f, -1):
                    col = self.lowering[m] @ col / math.sqrt(f * (f + 1) - m * (m - 1))
                cols.append(col)
            self._lowered[m_f] = _read_only(np.hstack(cols))
        return self._lowered[m_f]


@functools.lru_cache(maxsize=8)
def _blocks(n_rot: int) -> _Blocks:
    """The block data of N, kept for the 8 most recent N (about 0.4 MB for N = 0..5)."""
    return _Blocks(n_rot)


def _coefficient_vector(coeffs: HyperfineCoefficients) -> np.ndarray:
    values = coeffs.values
    return np.array([values.get(k, 0.0) for k in COEFF_INDICES], dtype=float)


# ---------------------------------------------------------------------------
# levels

# Levels closer than this (kHz) coincide: their order goes by F, and
# those of one F cannot be told apart by their vectors, so they come back
# unlabelled.
COINCIDENT_KHZ = 1e-6


@dataclass(frozen=True)
class SpinLevel:
    """One hyperfine level: energy in kHz relative to the level set's origin.

    F is exact and the degeneracy is 2F + 1.  G1 and G2 are None for a
    level that coincides with another level of the same F.
    """

    energy: float
    degeneracy: int
    g1: int | None
    g2: int | None
    f: int
    build_vectors: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def label(self) -> tuple[int, int, int] | None:
        if self.g1 is None:
            return None
        return (self.g1, self.g2, self.f)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The 2F + 1 product-basis states (m_F = F .. -F) as read-only columns, built on first use."""
        return self.build_vectors()


def _by_rank(
    name: str, values: Sequence[float], members: Sequence[int], js: Sequence[int], alone: Sequence[bool], f: int
) -> dict[int, int]:
    """Give the ascending quantum numbers `js` to `members` in ascending order of <name^2> = values.

    Two members on either side of a step in j tie when their values lie
    less than half the step of j(j+1) apart (two states that mixed by
    more than a quarter); a tie that touches a level of its own (not a
    coincident one) raises ClassificationError.
    """
    order = sorted(members, key=values.__getitem__)
    for lo, hi, j_lo, j_hi in zip(order, order[1:], js, js[1:]):
        step = j_hi * (j_hi + 1) - j_lo * (j_lo + 1)
        if step and (alone[lo] or alone[hi]) and values[hi] - values[lo] < 0.5 * step:
            raise ClassificationError(
                f"ambiguous {name} label for a level with F={f} "
                f"(<{name}^2> = {values[lo]:.6f} and {values[hi]:.6f} for {name} = {j_lo} and {j_hi})"
            )
    return dict(zip(order, js))


def _labels(
    block: _FBlock, evals: Sequence[float], g1_sq: Sequence[float], g2_sq: Sequence[float]
) -> list[tuple[int | None, int | None]]:
    """(G1, G2) of each eigenvector of an F block, by rank; (None, None) for a level that coincides.

    `evals` ascend, and g1_sq, g2_sq hold <G1^2>, <G2^2> of each
    eigenvector.  The lowest <G1^2> take G1 = 0, as many as the coupling
    scheme puts in this F block, and the rest G1 = 1; inside each G1
    group the G2 go by rank of <G2^2> the same way.  The traces of G1^2
    and G2^2 over the block fix these counts, so labels hold however far
    mixing moves each expectation value from j(j+1), short of a tie (see
    `_by_rank`).
    """
    n = len(evals)
    alone = [
        (a == 0 or evals[a] - evals[a - 1] > COINCIDENT_KHZ)
        and (a == n - 1 or evals[a + 1] - evals[a] > COINCIDENT_KHZ)
        for a in range(n)
    ]
    g1 = _by_rank("G1", g1_sq, range(n), block.g1s, alone, block.f)
    labels: list[tuple[int | None, int | None]] = [(None, None)] * n
    for group, js in enumerate(block.g2s):
        members = [a for a in range(n) if g1[a] == group]
        for a, g2 in _by_rank("G2", g2_sq, members, js, alone, block.f).items():
            if alone[a]:
                labels[a] = (group, g2)
    return labels


def find_level(levels: Iterable[SpinLevel], label: tuple[int, int, int]) -> SpinLevel:
    label = tuple(label)
    matches = [lv for lv in levels if lv.label == label]
    if len(matches) != 1:
        raise LookupError(f"label {label} resolves to {len(matches)} levels")
    return matches[0]


# ---------------------------------------------------------------------------
# level sets, solved once per coefficient content


class _States:
    """The field-free states of one level set, lowered from its F-block eigenvectors on first use (read-only).

    Apart from `_LevelSet`, so that the level set and its levels form no reference cycle.
    """

    def __init__(self, blocks: _Blocks, eigenvectors: list[np.ndarray], order: list[int], fs: list[int]):
        self._blocks = blocks
        self._eigenvectors = eigenvectors  # x of each F block, as in `blocks.f_blocks`
        self._order = order  # the index into the F-block levels of each level
        self._fs = fs  # F of each level, in level order
        self._m_states: dict[int, np.ndarray] = {}  # m_F -> `m_states(m_F)`

    @functools.cached_property
    def _block_vectors(self) -> np.ndarray:
        """The eigenvectors of every F block on the diagonal of one matrix, one column per level in F-block order."""
        n = len(self._order)
        out, i = np.zeros((n, n)), 0
        for x in self._eigenvectors:
            out[i:i + len(x), i:i + len(x)] = x
            i += len(x)
        return _read_only(out)

    def m_states(self, m_f: int) -> np.ndarray:
        """The state with projection m_F of each level with F >= |m_F|, as columns in level order (see `m_states`)."""
        if m_f not in self._m_states:
            lowered = self._blocks.lowered(m_f)
            skip = len(self._order) - lowered.shape[1]  # the levels of the F blocks with F < |m_F| come first
            states = lowered @ self._block_vectors[skip:, skip:]
            self._m_states[m_f] = _read_only(states[:, [i - skip for i in self._order if i >= skip]])
        return self._m_states[m_f]

    def vectors(self, position: int) -> np.ndarray:
        """The 2F + 1 product-basis states (m_F = F .. -F) of the level at `position`: its columns of `m_states`."""
        f = self._fs[position]
        out = np.zeros((self._blocks.dim, 2 * f + 1))
        for i, m in enumerate(range(f, -f - 1, -1)):
            column = sum(g >= abs(m) for g in self._fs[:position])
            out[self._blocks.index[m], i] = self.m_states(m)[:, column]
        return _read_only(out)


class _LevelSet:
    """The labelled levels of one coefficient set and their gamma_k.

    One eigh of at most 4 x 4 per F that holds two or more levels, on H
    projected onto the highest-weight states of that F, and none for an
    F that holds one; gamma_k = x^T T_k x for each eigenvector x.  The
    levels are shared by every caller that asks for the same
    coefficients, so their vectors and `m_states` are read-only.
    """

    @overflow_as_value_error("level solve")
    def __init__(self, coeffs: HyperfineCoefficients):
        blocks, e = _blocks(coeffs.n_rot), _coefficient_vector(coeffs)
        # per level: energy, F, (G1, G2), and the eigenvector column a of its F block with its expectation values y
        found, eigenvectors = [], []
        for block in blocks.f_blocks:
            h = e @ block.flat_terms  # H on the kernel, flattened
            if block.unit is not None:
                # LAPACK's eigh returns the entry of a 1 x 1 matrix and the eigenvector 1.0
                evals, x, y, labels = h.tolist(), _UNIT, block.unit, block.pairs
            else:
                evals, x = np.linalg.eigh(h.reshape(block.terms.shape[1:]))
                evals, y = evals.tolist(), _expectations(block.ops, x)
                labels = _labels(block, evals, *y[9:].tolist())
            found += [(energy, block.f, labels[a], y, a) for a, energy in enumerate(evals)]
            eigenvectors.append(x)
        # ascending energy; levels that coincide go by F
        order = sorted(range(len(found)), key=lambda i: found[i][0])
        cluster, keys = 0, [None] * len(found)
        for rank, i in enumerate(order):
            if rank and found[i][0] - found[order[rank - 1]][0] > COINCIDENT_KHZ:
                cluster += 1
            keys[i] = (cluster, found[i][1])
        order.sort(key=keys.__getitem__)
        states = _States(blocks, eigenvectors, order, [found[i][1] for i in order])
        self.m_states = states.m_states  # the field-free states of one m_F block, as `m_states` gives them
        self.levels = tuple(
            SpinLevel(energy, 2 * f + 1, g1, g2, f, functools.partial(states.vectors, position))
            for position, (energy, f, (g1, g2), _, _) in enumerate(map(found.__getitem__, order))
        )
        self._gammas = {(g1, g2, f): (y, a) for _, f, (g1, g2), y, a in found if g1 is not None}

    @functools.cached_property
    def origin(self) -> float:
        """The spin-averaged origin: the degeneracy-weighted mean level energy."""
        levels = self.levels
        return sum(lv.energy * lv.degeneracy for lv in levels) / sum(lv.degeneracy for lv in levels)

    def sensitivities(self, label: tuple[int, int, int]) -> dict[int, float]:
        level = find_level(self.levels, label)
        y, a = self._gammas[level.label]
        return dict(zip(COEFF_INDICES, y[:9, a].tolist()))


def _level_set(coeffs: HyperfineCoefficients) -> _LevelSet:
    """The cached level set of `coeffs`, keyed by (v, N, E1..E9).

    ``eps_overrides`` do not move the levels and are not part of the key.
    """
    values = coeffs.values
    return _solve(coeffs.v, coeffs.n_rot, *[float(values.get(k, 0.0)) for k in COEFF_INDICES])


@functools.lru_cache(maxsize=16)
def _solve(v: int, n_rot: int, *values: float) -> _LevelSet:
    return _LevelSet(HyperfineCoefficients(v, n_rot, dict(zip(COEFF_INDICES, values))))


def level_structure(coeffs: HyperfineCoefficients, basis: ProductBasis | None = None) -> list[SpinLevel]:
    """Labelled levels of `coeffs` in ascending energy, ties by F.

    Solved once per coefficient content and shared (read-only vectors);
    a `basis`, if given, is only checked against N.
    """
    _check_basis(coeffs, basis)
    return list(_level_set(coeffs).levels)


def spin_frequency(
    upper: tuple[HyperfineCoefficients, tuple[int, int, int]],
    lower: tuple[HyperfineCoefficients, tuple[int, int, int]],
) -> float:
    """Hyperfine contribution to a transition frequency, in kHz.

    Each level energy is taken relative to its spin-averaged origin (the
    degeneracy-weighted mean, which vanishes for the traceless default
    constructors but is subtracted anyway so swapped-in tensor forms
    stay consistent).
    """
    energies = []
    for coeffs, label in (upper, lower):
        level_set = _level_set(coeffs)
        energies.append(find_level(level_set.levels, label).energy - level_set.origin)
    return energies[0] - energies[1]


def m_states(coeffs: HyperfineCoefficients, m_f: int) -> np.ndarray:
    """The field-free eigenstates of the m_F block (rows: its product states), one column per level with F >= |m_F|.

    Columns come in level order (ascending energy, as `level_structure`
    gives the levels).  Each is the highest-weight eigenvector of its F
    block lowered by F_- to m_F, so the cached level set gives them, once
    per m_F and read-only, without another eigen-solve.
    """
    return _level_set(coeffs).m_states(m_f)


# ---------------------------------------------------------------------------
# sensitivities


def sensitivities(
    coeffs: HyperfineCoefficients, basis: ProductBasis | None = None, label: tuple[int, int, int] | None = None
) -> dict[int, float]:
    """gamma_k = dE_level/dE_k by the Hellmann-Feynman identity.

    Every state of a multiplet gives the same expectation value, so the
    highest-weight eigenvector of the F block gives it.  Call it as
    `sensitivities(coeffs, label=...)`; a `basis`, if given, is only
    checked against N.  The values come from the cached level set of
    `coeffs`.
    """
    if label is None:
        raise TypeError("sensitivities() needs the level label")
    _check_basis(coeffs, basis)
    return _level_set(coeffs).sensitivities(label)


def sensitivities_fd(
    coeffs: HyperfineCoefficients,
    basis: ProductBasis,
    label: tuple[int, int, int],
    ks: Sequence[int] | None = None,
    step: float = 1e-5,
) -> dict[int, float]:
    """Central-finite-difference cross-check of :func:`sensitivities`.

    The step is `step` times the largest coefficient magnitude, so the
    eigensolver's backward error (eps times the matrix norm) stays well
    below the difference quotient. Levels are re-identified by label
    after each perturbation; a label that fails to resolve (level
    crossing at the perturbed point) raises TrackingError.  The
    perturbed sets are solved directly, past the level-set cache, so
    they do not push useful entries out of it.
    """
    _check_basis(coeffs, basis)
    if ks is None:
        ks = CONTACT_COEFFS if basis.n_rot == 0 else COEFF_INDICES
    h = step * max(1.0, max((abs(v) for v in coeffs.values.values()), default=1.0))
    out = {}
    for k in ks:
        energies = []
        for sign in (+1.0, -1.0):
            values = dict(coeffs.values)
            values[k] = values.get(k, 0.0) + sign * h
            perturbed = HyperfineCoefficients(coeffs.v, coeffs.n_rot, values, coeffs.eps_overrides)
            try:
                level = find_level(_LevelSet(perturbed).levels, label)
            except LookupError as exc:
                raise TrackingError(f"level {label} lost while perturbing E{k}") from exc
            energies.append(level.energy)
        out[k] = (energies[0] - energies[1]) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# spin-theory uncertainty model


@dataclass(frozen=True)
class SpinUncertaintyParams:
    """Fractional/absolute theory uncertainties of the coefficient set.

    eps_fermi applies to the Fermi-contact coefficients E4, E5 of both
    levels; eps_bp to the remaining (Breit-Pauli order alpha^2) upper
    coefficients; u1_prime is the absolute uncertainty assigned to the
    upper spin-rotation coefficient E1'.
    """

    eps_fermi: float = 1e-6
    eps_bp: float = 0.0072973525693 ** 2
    u1_prime: float = 0.05

    def __post_init__(self) -> None:
        if min(self.eps_fermi, self.eps_bp, self.u1_prime) <= 0:
            raise ValueError("spin-uncertainty parameters must be strictly positive")


@dataclass(frozen=True)
class TransitionSensitivities:
    """Sensitivity rows gamma (lower level) and gamma' (upper level)."""

    transition: str
    lower: dict[int, float]
    upper: dict[int, float]


@dataclass(frozen=True)
class SensitivityTable:
    """Sensitivities for a set of transitions sharing one level pair."""

    lower_coeffs: HyperfineCoefficients
    upper_coeffs: HyperfineCoefficients
    rows: dict[str, TransitionSensitivities]

    def row(self, transition: str) -> TransitionSensitivities:
        if transition not in self.rows:
            raise KeyError(f"no sensitivity row for transition {transition!r}")
        return self.rows[transition]


def transition_table(
    lower_coeffs: HyperfineCoefficients,
    upper_coeffs: HyperfineCoefficients,
    transitions: Mapping[str, tuple[tuple[int, int, int], tuple[int, int, int]]],
) -> SensitivityTable:
    """Build sensitivity rows for (lower_label, upper_label) pairs."""
    lower, upper = _level_set(lower_coeffs), _level_set(upper_coeffs)
    rows = {}
    for name, (lo_label, up_label) in transitions.items():
        rows[name] = TransitionSensitivities(name, lower.sensitivities(lo_label), upper.sensitivities(up_label))
    return SensitivityTable(lower_coeffs, upper_coeffs, rows)


# (level, k) of each term of the spin-theory error model, in the order the terms add
_SPIN_TERMS = (
    *(("upper", k) for k in (1, 2, 3, 6, 7, 8, 9)),
    *((level, k) for k in CONTACT_COEFFS for level in ("upper", "lower")),
)


def _spin_term_scales(table: SensitivityTable, params: SpinUncertaintyParams) -> list[tuple[float, float, float]]:
    """(p, q, r) of each term of `_SPIN_TERMS`: the term of weighted sensitivity sum s is |(s p) q| r.

    k = 1 of the upper level is |s| u1' or, with an eps_E1 override,
    |s eps E1|; every other term is eps |s E_k|, with eps the override
    or the Breit-Pauli (rotational) or Fermi-contact default.
    """
    levels = {"upper": table.upper_coeffs, "lower": table.lower_coeffs}
    scales = []
    for level, k in _SPIN_TERMS:
        coeffs = levels[level]
        eps = coeffs.eps_overrides.get(k)
        if k == 1:
            scales.append((1.0, 1.0, params.u1_prime) if eps is None else (eps, coeffs.values.get(1, 0.0), 1.0))
        else:
            default = params.eps_fermi if k in CONTACT_COEFFS else params.eps_bp
            scales.append((coeffs.values.get(k, 0.0), 1.0, default if eps is None else eps))
    return scales


def _weighted_spin_terms(
    table: SensitivityTable,
    params: SpinUncertaintyParams,
    weights: Mapping[str, float | np.ndarray],
) -> float | np.ndarray:
    """Shared absolute-sum error model over weighted transitions.

    With a single transition at weight 1 this is the per-line estimate;
    with weights (b, 1-b) it is the composite one.  Sums over transitions
    happen inside each absolute value (coefficient errors are common to
    all transitions), and the k-terms add as absolute values, not in
    quadrature.  The weights may be 1-d float arrays of one length: the
    result is then the array of estimates, from one (11, n) pass over
    every term, each element reached by the same operations in the same
    order as with float weights, so bit for bit equal to the float call.
    """
    rows = []
    for name, w in weights.items():
        row = table.row(name)
        levels = {"upper": row.upper, "lower": row.lower}
        rows.append(([levels[level][k] for level, k in _SPIN_TERMS], w))
    scales = _spin_term_scales(table, params)
    if any(isinstance(w, np.ndarray) for _, w in rows):
        # sum() starts from 0 as the float path does; the products commute exactly
        s = sum(np.array(gammas)[:, None] * w for gammas, w in rows)
        p, q, r = (np.array(col)[:, None] for col in zip(*scales))
        # a running sum over the terms adds them one by one, in order
        return np.cumsum(np.abs(s * p * q) * r, axis=0)[-1]
    s = [0] * len(_SPIN_TERMS)
    for gammas, w in rows:
        s = [acc + w * g for acc, g in zip(s, gammas)]
    u = 0.0
    for x, (p, q, r) in zip(s, scales):
        u += abs(x * p * q) * r
    return u


def spin_uncertainty(
    transition: str, table: SensitivityTable, params: SpinUncertaintyParams | None = None
) -> float:
    """Theory uncertainty (kHz) of one transition's spin frequency."""
    params = params or SpinUncertaintyParams()
    return _weighted_spin_terms(table, params, {transition: 1.0})


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
        out[(v, n_rot)] = HyperfineCoefficients(v, n_rot, values, eps)
    return out
