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
243001 (2006); J. Phys. B 44, 025003 (2011)).  Once per N, the T_k are
taken between the coupled states |((s_e I_p)G1, I_d)G2, N; F m_F = F>
of each F, at most 4, built from Clebsch-Gordan coefficients.  A
coefficient set then costs one eigh of at most 4 x 4 per F that holds
two or more levels, and none for an F that holds one: F is exact, each
level is a (2F + 1)-fold multiplet, one ordering of the F block's
eigenvectors by <G1^2> and <G2^2> gives G1 and G2
(`_labels`), and gamma_k = x^T T_k x.  Around that, a solve does little
else: one comparison of max |E_k| with a bound per N decides whether H
can leave float64 at all (only then is the solve guarded), and the
level set keeps a map from label to level for every lookup.  Energies
need no origin (every T_k is traceless), and one tolerance per level
set, in ulps of that bound, decides which levels coincide: scaling every
E_k scales every energy and keeps the order and the labels.  No
full-basis Hamiltonian is built to solve or to map a level.  The
field-free eigenstates of one m_F block (`m_states`) are the F-block
eigenvectors taken in the coupled states of that m_F, built once per
level set and m_F on first use; a level's product-basis `vectors` are
its columns of them, and `zeeman` solves each m_F block in them.

The coefficient sets, their file format and the spin-theory error model
live in `coefficients`, which builds no arrays; their names are
importable from here too.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import Mapping, Sequence

import numpy as np

from .coefficients import (  # noqa: F401 (imported back: see the module docstring)
    COEFF_INDICES,
    CONTACT_COEFFS,
    HyperfineCoefficients,
    SensitivityTable,
    SpinUncertaintyParams,
    TransitionSensitivities,
    read_coefficient_file,
    spin_uncertainty,
)
from .quantity import finite, overflow_as_value_error

SLOT_NAMES = ("s_e", "I_p", "I_d", "N")


class ClassificationError(ValueError):
    """A level's expectation values do not round to valid quantum numbers."""


class TrackingError(RuntimeError):
    """A perturbed spectrum could not be matched level-by-level."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _refuse_write(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of an object that a cache hands to every caller."""
    raise AttributeError(f"{type(self).__name__} is shared and read-only: cannot set or delete {name!r}")


# ---------------------------------------------------------------------------
# single-momentum matrices


class AngularMomentumSet:
    """Real (J_z, J_+, J_-) matrices for one angular momentum j (read-only, as `jmatrices` shares them)."""

    __slots__ = ("j", "jz", "jplus", "jminus")
    __setattr__ = __delattr__ = _refuse_write

    def __init__(self, j: float, jz: np.ndarray, jplus: np.ndarray, jminus: np.ndarray) -> None:
        for name, value in zip(self.__slots__, (j, jz, jplus, jminus)):
            object.__setattr__(self, name, value)

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

    def embed(self, op: np.ndarray, slot: str) -> np.ndarray:
        """Tensor-embed a single-slot operator, identity elsewhere."""
        pos = SLOT_NAMES.index(slot)
        if op.shape != (self.dims[pos], self.dims[pos]):
            raise ValueError(
                f"operator shape {op.shape} does not match slot {slot} dimension {self.dims[pos]}"
            )
        pre, post = math.prod(self.dims[:pos]), math.prod(self.dims[pos + 1:])
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

    Deuteron electric-quadrupole scalar; like every other term operator
    it is traceless over the product space.
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


def _cg(j1: int, m1: int, j2: int, m2: int, j: int) -> float:
    """<j1 m1, j2 m2 | j, m1 + m2> by Racah's formula (Condon-Shortley phase) in Python ints, every argument doubled.

    For |m1| <= j1, |m2| <= j2, |m1 + m2| <= j and |j1 - j2| <= j <= j1 + j2, as `_coupling` calls it.
    """
    m = m1 + m2
    f = math.factorial
    a, b, c, d, e = (j1 + j2 - j) // 2, (j1 - m1) // 2, (j2 + m2) // 2, (j - j2 + m1) // 2, (j - j1 - m2) // 2
    ks = range(max(0, -d, -e), min(a, b, c) + 1)  # where every factorial's argument is non-negative
    terms = [f(k) * f(a - k) * f(b - k) * f(c - k) * f(d + k) * f(e + k) for k in ks]
    common = math.lcm(*terms)
    s = sum((-1) ** k * (common // t) for k, t in zip(ks, terms))  # the sum over k, times `common`
    # (2j + 1) (j + j1 - j2)! (j - j1 + j2)! (j1 + j2 - j)! (j + m)! (j - m)! (j1 - m1)! (j1 + m1)! (j2 - m2)! (j2 + m2)!
    num = (j + 1) * f(b + d) * f(c + e) * f(a) * f((j + m) // 2) * f((j - m) // 2) * f(b) * f((j1 + m1) // 2) * f((j2 - m2) // 2) * f(c)
    # the square of the coefficient is one ratio of ints: one rounding for the ratio, one for its root
    return math.copysign(math.sqrt(num * s * s / (f((j1 + j2 + j) // 2 + 1) * common * common)), s)


@functools.lru_cache(maxsize=16)
def _coupling(j1s: tuple[int, ...], j2: int, js: tuple[int, ...]) -> np.ndarray:
    """[a, b, i, k] = <j1 m1, j2 m2 | J, m1 + m2> of j1 = j1s[a], J = js[b], m1 = max(j1s) - i, m2 = j2 - k, doubled.

    The index of M = m1 + m2 down from max(j1s) + j2 is i + k, so the indices of successive couplings add up.
    Kept for the 16 most recent couplings, read-only.
    """
    top = max(j1s)
    out = np.zeros((len(j1s), len(js), top + 1, j2 + 1))
    for (a, j1), (b, j) in itertools.product(enumerate(j1s), enumerate(js)):
        if abs(j1 - j2) <= j <= j1 + j2:
            for m1, m in itertools.product(range(-j1, j1 + 1, 2), range(-j, j + 1, 2)):
                if abs(m - m1) <= j2:
                    out[a, b, (top - m1) // 2, (j2 - m + m1) // 2] = _cg(j1, m1, j2, m - m1, j)
    return _read_only(out)


# the eigenvector LAPACK's eigh returns for a 1 x 1 matrix, exactly
_UNIT = _read_only(np.ones((1, 1)))


def _expectations(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_a^T O x_a of every operator O of the stack `ops` and every column x_a of x, shape (len(ops), n)."""
    return (x * (ops @ x)).sum(axis=1)


class _FBlock:
    """The levels of one F, in the coupled states (G1, G2, F, m_F = F) of its (G1, G2) pairs.

    Every level of total angular momentum F is one multiplet of these
    states, so H on them (at most 4 x 4) gives the levels of that F,
    each a (2F + 1)-fold multiplet.  Every array is read-only.
    """

    def __init__(self, f: int, terms: np.ndarray, pairs: tuple[tuple[int, int], ...]):
        self.f = f
        self.terms = terms  # (9, n, n): the term operators T_k between the coupled states
        self.flat_terms = terms.reshape(len(terms), -1)  # (9, n * n): a view, so one matmul contracts it with E
        self.shape = terms.shape[1:]  # (n, n)
        self.g1_sq, self.g2_sq = (_read_only(np.diag([j * (j + 1.0) for j in js])) for js in zip(*pairs))  # (n, n), exact
        self.pairs = pairs  # (G1, G2) of the n levels, ascending
        # G1 = 0 couples with I_d to G2 = 1 only, so at most the first pair has G1 = 0
        self.g1_zero = int(pairs[0][0] == 0)  # how many levels take G1 = 0
        g2s = [g2 for _, g2 in pairs[self.g1_zero:]]  # the G2 of the G1 = 1 levels, ascending
        # (G2 below, G2 above, half the step of G2(G2 + 1)) of each neighbouring pair of them: see `_labels`
        self.g2_ties = tuple((lo, hi, 0.5 * (hi * (hi + 1) - lo * (lo + 1))) for lo, hi in zip(g2s, g2s[1:]))
        # T_1..T_9, G1^2, G2^2: one matmul gives every gamma_k and <G^2> of an eigenvector
        self.ops = _read_only(np.concatenate([terms, self.g1_sq[None], self.g2_sq[None]]))
        # one level: its eigenvector is 1.0 whatever H is, so its expectation values are fixed
        self.unit = _read_only(_expectations(self.ops, _UNIT)) if len(pairs) == 1 else None


class _Blocks:
    """The term operators of one rotational level N in the coupled basis.

    The coupled states |((s_e I_p)G1, I_d)G2, N; F m_F> come from
    Clebsch-Gordan coefficients, one array per m_F block (`coupled`).
    Each T_k is a scalar, so it is kept only between the states of each
    F at m_F = F (for the level solve), and the slot projections as one
    array per m_F block (for the Zeeman interaction).  Built once per
    N; every array is read-only.
    """

    def __init__(self, n_rot: int):
        basis = ProductBasis(n_rot)
        self.dim = basis.dim
        f_max = n_rot + 2
        # per slot, the index i = j - m of every product state; M_F goes down by one per step of any of them
        slot_i = np.array(np.unravel_index(np.arange(basis.dim), basis.dims))
        m_f = f_max - slot_i.sum(axis=0)
        self.index = {m: _read_only(np.flatnonzero(m_f == m)) for m in range(-f_max, f_max + 1)}
        self.slot_m = {m: _read_only(np.array([[0.5], [0.5], [1.0], [n_rot]]) - slot_i[:, i]) for m, i in self.index.items()}
        # G1 = s_e + I_p, G2 = G1 + I_d, F = G2 + N: the (G1, G2) of the levels of each F that has levels, ascending
        pairs = {f: f_pairs for f in range(f_max + 1) if (f_pairs := tuple(
            (g1, g2) for g1 in (0, 1) for g2 in range(abs(g1 - 1), g1 + 2) if abs(g2 - n_rot) <= f <= g2 + n_rot))}
        # the three coupling stages s_e + I_p = G1, G1 + I_d = G2 and G2 + N = F (`_coupling` takes doubled j), indexed
        # [G1, e, p], [G1, G2, e + p, d] and [G2, F, e + p + d, n] by the slot indices e, p, d, n of a product state
        s1 = _coupling((1,), 1, (0, 2))[0]
        s2 = _coupling((0, 2), 2, (0, 2, 4))
        s3 = _coupling((0, 2, 4), 2 * n_rot, tuple(range(0, 2 * f_max + 1, 2)))
        levels = np.array([(*pair, f) for f, f_pairs in pairs.items() for pair in f_pairs]).T  # (G1, G2, F), F ascending
        self.coupled = {}  # m_F -> the coupled states of the F >= |m_F|, F by F and (G1, G2) ascending, as columns
        for m, rows in self.index.items():
            g1, g2, f = levels[:, np.searchsorted(levels[2], abs(m)):]  # the levels with F >= |m_F| come last
            e, p, d, n = slot_i[:, rows, None]
            self.coupled[m] = _read_only(s1[g1, e, p] * s2[g1, g2, e + p, d] * s3[g2, f, e + p + d, n])
        ops = np.stack([term_operator(k, basis) for k in COEFF_INDICES])
        self.f_blocks: list[_FBlock] = []
        for f, f_pairs in pairs.items():
            top, states = self.index[f], self.coupled[f][:, :len(f_pairs)]  # at m_F = F, the F block's columns come first
            self.f_blocks.append(_FBlock(f, _read_only(states.T @ ops[..., top[:, None], top] @ states), f_pairs))
        # |H_ij| <= max |E_k| * sum_k |T_k,ij| <= max |E_k| * h_bound on every F block, and every energy of
        # an F block (at most 4 levels) is at most 4 times that: below `e_limit` neither H, nor an energy, nor
        # the difference of two energies comes within a factor 2 of float64's largest value
        self.h_bound = max(float(np.abs(block.terms).sum(axis=0).max()) for block in self.f_blocks)
        self.e_limit = sys.float_info.max / (16.0 * self.h_bound)


@functools.lru_cache(maxsize=8)
def _blocks(n_rot: int) -> _Blocks:
    """The block data of N, kept for the 8 most recent N (about 0.08 MB of arrays for N = 0..5)."""
    return _Blocks(n_rot)


def _coefficient_vector(coeffs: HyperfineCoefficients) -> np.ndarray:
    values = coeffs.values
    return np.array([values.get(k, 0.0) for k in COEFF_INDICES], dtype=float)


# ---------------------------------------------------------------------------
# levels

# Levels of one set within _ULPS ulps of max |E_k|, times the bound `h_bound` on H per |E_k|, coincide: their order
# goes by F, and those of one F cannot be told apart by their vectors, so they come back unlabelled.  Roundoff
# moves an energy a few such ulps; 2^10 of them are 7.0e-7 kHz for the demo N = 1 set and 1.5e-7 kHz for N = 0,
# so the bundled sets keep the labels that a fixed 1e-6 kHz gave them.
_ULPS = 2.0 ** 10


class SpinLevel:
    """One hyperfine level: energy in kHz.

    F is exact and the degeneracy is 2F + 1.  G1 and G2 are None for a
    level that coincides with another level of the same F.  `states` are
    the field-free states of its level set and `position` its place in
    the levels of that set.  Level sets are cached and shared, so the
    fields are read-only.
    """

    __setattr__ = __delattr__ = _refuse_write

    def __init__(
        self,
        energy: float,
        degeneracy: int,
        g1: int | None,
        g2: int | None,
        f: int,
        states: _States | None = None,
        position: int = 0,
    ) -> None:
        fields = self.__dict__  # written directly: `__setattr__` refuses, and `vectors` is cached here too
        fields["energy"], fields["degeneracy"], fields["g1"], fields["g2"], fields["f"] = energy, degeneracy, g1, g2, f
        fields["states"], fields["position"] = states, position

    @property
    def label(self) -> tuple[int, int, int] | None:
        if self.g1 is None:
            return None
        return (self.g1, self.g2, self.f)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The 2F + 1 product-basis states (m_F = F .. -F) as read-only columns, built on first use."""
        return self.states.vectors(self.position)


def _tie(name: str, f: int, lo: float, hi: float, j_lo: int, j_hi: int) -> ClassificationError:
    return ClassificationError(
        f"ambiguous {name} label for a level with F={f} "
        f"(<{name}^2> = {lo:.6f} and {hi:.6f} for {name} = {j_lo} and {j_hi})"
    )


def _labels(
    block: _FBlock, evals: Sequence[float], g1_sq: Sequence[float], g2_sq: Sequence[float], tolerance: float
) -> list[tuple[int | None, int | None]]:
    """(G1, G2) of each eigenvector of an F block, by rank; (None, None) for a level that coincides.

    `evals` ascend, levels no more than `tolerance` apart coincide, and
    g1_sq, g2_sq hold <G1^2>, <G2^2> of each eigenvector.  One ordering
    of the eigenvectors gives every label: the lowest <G1^2> first if
    the coupling scheme puts a G1 = 0 level in this F block (it has
    G2 = 1), then the G1 = 1 levels in ascending <G2^2>; the k-th of
    them takes the k-th of the block's ascending (G1, G2) pairs.  The
    traces of G1^2 and G2^2 over the block fix these counts, so labels
    hold however far mixing moves each expectation value from j(j+1),
    short of a tie.  Two neighbours in
    that ordering on either side of a step in j tie when their values
    lie less than half the step of j(j+1) apart (two states that mixed
    by more than a quarter); a tie that touches a level of its own (not
    a coincident one) raises ClassificationError.  Equal values keep
    the eigenvectors' order.
    """
    n = len(evals)
    apart = [hi - lo > tolerance for lo, hi in zip(evals, evals[1:])]
    alone = [left and right for left, right in zip([True, *apart], [*apart, True])]
    k = block.g1_zero
    if k:
        order = sorted(range(n), key=g1_sq.__getitem__)
        lo, hi = order[0], order[1]
        if g1_sq[hi] - g1_sq[lo] < 1.0 and (alone[lo] or alone[hi]):  # half the step of G1(G1 + 1) from 0 to 1
            raise _tie("G1", block.f, g1_sq[lo], g1_sq[hi], 0, 1)
        order[1:] = sorted(sorted(order[1:]), key=g2_sq.__getitem__)  # the G1 = 1 levels, from their own order
    else:
        order = sorted(range(n), key=g2_sq.__getitem__)
    for lo, hi, (j_lo, j_hi, half_step) in zip(order[k:], order[k + 1:], block.g2_ties):
        if g2_sq[hi] - g2_sq[lo] < half_step and (alone[lo] or alone[hi]):
            raise _tie("G2", block.f, g2_sq[lo], g2_sq[hi], j_lo, j_hi)
    labels: list[tuple[int | None, int | None]] = [(None, None)] * n
    for a, pair in zip(order, block.pairs):
        if alone[a]:
            labels[a] = pair
    return labels


# ---------------------------------------------------------------------------
# level sets, solved once per coefficient content


class _States:
    """The field-free states of one level set: its F-block eigenvectors in the coupled states of each m_F (read-only).

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
            coupled = self._blocks.coupled[m_f]
            skip = len(self._order) - coupled.shape[1]  # the levels of the F blocks with F < |m_F| come first
            states = coupled @ self._block_vectors[skip:, skip:]
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


def _solve_blocks(blocks: _Blocks, e: np.ndarray, tolerance: float) -> tuple[list, list[np.ndarray]]:
    """(energy, F, (G1, G2), y, a) of every F-block level, block by block, and each block's eigenvectors x.

    y holds the expectation values of the block's `ops` in its
    eigenvectors, a the column of the level's own.
    """
    found, eigenvectors = [], []
    for block in blocks.f_blocks:
        h = e @ block.flat_terms  # H on the coupled states of the block, flattened
        if block.unit is not None:
            # LAPACK's eigh returns the entry of a 1 x 1 matrix and the eigenvector 1.0
            evals, x, y, labels = h.tolist(), _UNIT, block.unit, block.pairs
        else:
            evals, x = np.linalg.eigh(h.reshape(block.shape))
            evals, y = evals.tolist(), _expectations(block.ops, x)
            labels = _labels(block, evals, *y[9:].tolist(), tolerance)
        found += [(energy, block.f, labels[a], y, a) for a, energy in enumerate(evals)]
        eigenvectors.append(x)
    return found, eigenvectors


class _LevelSet:
    """The labelled levels of one coefficient set and their gamma_k.

    One eigh of at most 4 x 4 per F that holds two or more levels, on H
    between the coupled states (G1, G2, F, m_F = F) of that F, and none
    for an F that holds one; gamma_k = x^T T_k x for each eigenvector x.
    The levels are shared by every caller that asks for the same
    coefficients, so their vectors and `m_states` are read-only.
    `labelled` maps each label to its level.  Levels no more than
    `tolerance` apart coincide (see `_ULPS`); `distinct` says that no two
    levels of the set do.

    One check of max |E_k| against the block data's `e_limit` decides
    whether H and its energies can leave float64.  Only a set beyond it
    is solved under `overflow_as_value_error`, with its energies checked
    finite, so that it raises ValueError `level solve overflows float64
    (...)` rather than print a RuntimeWarning or give an infinite level.
    """

    def __init__(self, coeffs: HyperfineCoefficients):
        blocks, e = _blocks(coeffs.n_rot), _coefficient_vector(coeffs)
        e_max = max(map(abs, coeffs.values.values()), default=0.0)
        # ulp(0.0) is the floor of the all-zero set; ulp(e_max) * h_bound, unlike ulp(e_max * h_bound), stays finite
        self.tolerance = tolerance = _ULPS * math.ulp(e_max) * blocks.h_bound
        if e_max <= blocks.e_limit:
            found, eigenvectors = _solve_blocks(blocks, e, tolerance)
        else:
            with overflow_as_value_error("level solve"):
                found, eigenvectors = _solve_blocks(blocks, e, tolerance)
                finite("energy", *(level[0] for level in found))
        # ascending energy; levels that coincide go by F
        energies = [level[0] for level in found]
        order = sorted(range(len(found)), key=energies.__getitem__)
        apart = [energies[hi] - energies[lo] > tolerance for lo, hi in zip(order, order[1:])]
        self.distinct = all(apart)
        if not self.distinct:
            cluster = dict(zip(order, itertools.accumulate(apart, initial=0)))  # level -> its run of coincident levels
            order.sort(key=lambda i: (cluster[i], found[i][1]))
        states = _States(blocks, eigenvectors, order, [found[i][1] for i in order])
        self.m_states = states.m_states  # the field-free states of one m_F block, as `m_states` gives them
        self.levels = tuple(
            SpinLevel(energy, 2 * f + 1, g1, g2, f, states, position)
            for position, (energy, f, (g1, g2), _, _) in enumerate(map(found.__getitem__, order))
        )
        self.labelled = {lv.label: lv for lv in self.levels if lv.g1 is not None}
        self._gammas = [found[i][3:] for i in order]  # (y, a) of each level

    def level(self, label: tuple[int, int, int]) -> SpinLevel:
        """The level with `label`; LookupError `label ... resolves to 0 levels` if there is none."""
        label = tuple(label)
        if label not in self.labelled:
            raise LookupError(f"label {label} resolves to 0 levels")
        return self.labelled[label]

    def sensitivities(self, label: tuple[int, int, int]) -> dict[int, float]:
        y, a = self._gammas[self.level(label).position]
        return dict(zip(COEFF_INDICES, y[:9, a].tolist()))


_ZEROS = (0.0,) * len(COEFF_INDICES)


def _level_set(coeffs: HyperfineCoefficients) -> _LevelSet:
    """The cached level set of `coeffs`, keyed by (v, N, E1..E9).

    ``eps_overrides`` do not move the levels and are not part of the key.
    """
    return _solve(coeffs.v, coeffs.n_rot, *map(coeffs.values.get, COEFF_INDICES, _ZEROS))


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
    """Hyperfine contribution to a transition frequency, in kHz: E_upper - E_lower.

    Every term operator is traceless, so the degeneracy-weighted mean
    energy of each level set is zero and the energies need no shift.
    Two finite energies of opposite sign near the top of float64 can
    differ by more than float64 holds: that raises ValueError `spin
    frequency overflows float64 (f_spin = ...)`.
    """
    e_up, e_lo = (_level_set(coeffs).level(label).energy for coeffs, label in (upper, lower))
    f_spin = e_up - e_lo
    if not math.isfinite(f_spin):  # Python floats overflow in silence; the guard only words the error
        with overflow_as_value_error("spin frequency"):
            finite("f_spin", f_spin)
    return f_spin


def m_states(coeffs: HyperfineCoefficients, m_f: int) -> np.ndarray:
    """The field-free eigenstates of the m_F block (rows: its product states), one column per level with F >= |m_F|.

    The columns come in level order (ascending energy, as `level_structure`
    gives the levels).  Each is the eigenvector of its F block taken in
    the coupled states of m_F, so the cached level set gives them, once
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
    eigenvector of the F block (at m_F = F) gives it.  Call it as
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
                level = _LevelSet(perturbed).level(label)
            except LookupError as exc:
                raise TrackingError(f"level {label} lost while perturbing E{k}") from exc
            energies.append(level.energy)
        out[k] = (energies[0] - energies[1]) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# sensitivity tables


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
