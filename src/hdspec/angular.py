"""Hyperfine level structure of a four-momentum diatomic level.

The level (v, N) of HD+ carries four angular momenta: electron spin
s_e = 1/2, proton spin I_p = 1/2, deuteron spin I_d = 1 and the
rotation N.  An effective spin Hamiltonian

    H = E1 (N.s_e) + E2 (N.I_p) + E3 (N.I_d) + E4 (I_p.s_e) + E5 (I_d.s_e)
        + E6 T(N, I_p, s_e) + E7 T(N, I_d, s_e) + E8 T(N, I_p, I_d)
        + E9 Q(N, I_d)

with scalar coefficients E_k in kHz describes the hyperfine structure.
Each T_k is defined once, as a short table of real ladder-operator
products (`_term_table`); no complex arithmetic is used anywhere in this
module.

Coupled quantum numbers: G1 = s_e + I_p, G2 = G1 + I_d, F = G2 + N.

Levels are solved one F at a time (Bakalov, Korobov & Schiller, PRL 97,
243001 (2006); J. Phys. B 44, 025003 (2011)).  Once per N, the T_k are
taken between the coupled states |((s_e I_p)G1, I_d)G2, N; F m_F = F>
of each F, at most 4, held as sparse maps of Clebsch-Gordan amplitudes
over the product states.  A coefficient set then costs one symmetric
eigen-solve of at most 4 x 4 per F, in Python floats (`_eigen`): a
one-level F is its own entry, a 2 x 2 block one Jacobi rotation (its
closed form), and a 3 x 3 or 4 x 4 block cyclic Jacobi.  F is exact,
each level is a (2F + 1)-fold multiplet, and one ordering of the F
block's eigenvectors by <G1^2> and <G2^2> gives G1 and G2 (`_labels`).
gamma_k = x^T T_k x is computed only for the levels a caller asks about.
One comparison of max |E_k| with a bound per N decides whether H can
leave float64 at all; only then is the set solved at a power of two
below its scale and scaled back, its energies checked finite.  Energies
need no origin (every T_k is traceless), and one tolerance per level
set, in ulps of that bound, decides which levels coincide: scaling every
E_k scales every energy and keeps the order and the labels.  No
full-basis Hamiltonian is built to solve or to map a level.

The field-free states have one form: each level's F-block eigenvector
over the coupled states of its F, which the level carries with its F
block.  The Zeeman interaction is taken in it too: once per N and m_F,
J_z of each slot between the coupled states of that m_F (`_Blocks.jz`),
in Python floats, which `_zeeman_row` takes between the levels.  numpy
is imported only where an array is built: a level's product-basis
`vectors` and the dense product-basis API (`ProductBasis`, `jmatrices`,
`casimir`, `build_hfs`, `term_operator`).  One routine, `_dense`, builds
every dense product-basis operator, each T_k and the F_z and F^2 of
`ProductBasis`, as a sum of Kronecker products of slot factors.

The coefficient sets, their file format and the spin-theory error model
live in `coefficients`, which builds no arrays; their names are
importable from here too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import TYPE_CHECKING, Mapping, Sequence

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

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

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


Triple = tuple["np.ndarray", "np.ndarray", "np.ndarray"]


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

    def f_z(self) -> np.ndarray:
        """F_z, the sum of J_z over the four slots."""
        return _dense(self, _total("z"))

    def f_squared(self) -> np.ndarray:
        """F^2, the Casimir of the slot sums of J_z, J_+ and J_-."""
        return casimir(tuple(_dense(self, _total(x)) for x in "z+-"))


def dot(a: Triple, b: Triple) -> np.ndarray:
    """Scalar product A.B = A_z B_z + (A_+ B_- + A_- B_+)/2."""
    return a[0] @ b[0] + 0.5 * (a[1] @ b[2] + a[2] @ b[1])


def casimir(a: Triple) -> np.ndarray:
    return dot(a, a)


# ---------------------------------------------------------------------------
# Hamiltonian terms: one table of ladder-operator products per T_k


def _rank2_norm(n_rot: int) -> float:
    return 1.0 / ((2 * n_rot - 1) * (2 * n_rot + 3))


# A.B = A_z B_z + (A_+ B_- + A_- B_+)/2, as (weight, component of A, component of B)
_DOT = ((1.0, "z", "z"), (0.5, "+", "-"), (0.5, "-", "+"))
_SCALARS = {1: ("N", "s_e"), 2: ("N", "I_p"), 3: ("N", "I_d"), 4: ("I_p", "s_e"), 5: ("I_d", "s_e")}
_TENSORS = {6: ("I_p", "s_e"), 7: ("I_d", "s_e"), 8: ("I_p", "I_d")}

Term = tuple[float, tuple[str, str, str, str]]


@functools.lru_cache(maxsize=64)
def _term_table(k: int, n_rot: int) -> tuple[Term, ...]:
    """T_k of rotational level N as a sum of ladder-operator products: (coefficient, its factors per slot).

    The factors on each slot of SLOT_NAMES are a string of z, + and -,
    the leftmost acting last, "" the identity; factors on different slots
    commute, so a product is the tensor product of its slot strings.
    `_dense`, the one builder of dense product-basis operators, makes
    `term_operator` from this table, and the coupled-state block data
    (`_block_terms`) read it too.  N^2 = N(N + 1) and I_d^2 = 2 are
    scalars.
    """
    if k not in COEFF_INDICES:
        raise ValueError(f"coefficient index must be 1..9, got {k}")

    def product(c: float, *factors: tuple[str, str]) -> Term:  # c times the factors (slot, component), in order
        ops = dict.fromkeys(SLOT_NAMES, "")
        for slot, op in factors:
            ops[slot] += op
        return c, tuple(ops.values())

    def scalar(c: float, a: str, b: str) -> list[Term]:  # c (A.B)
        return [product(c * w, (a, x), (b, y)) for w, x, y in _DOT]

    def twice(c: float, a: str, b: str) -> list[Term]:  # c (N.A)(N.B)
        return [product(c * w * v, ("N", x), (a, y), ("N", u), (b, z))
                for (w, x, y), (v, u, z) in itertools.product(_DOT, _DOT)]

    if k in _SCALARS:
        return tuple(scalar(1.0, *_SCALARS[k]))
    norm, n_sq = _rank2_norm(n_rot), n_rot * (n_rot + 1.0)
    if k == 9:
        # Q(N, I_d) = [N^2 I_d^2 - 3/2 (N.I_d) - 3 (N.I_d)^2] * norm, the deuteron electric-quadrupole scalar
        return (product(2.0 * n_sq * norm), *scalar(-1.5 * norm, "N", "I_d"), *twice(-3.0 * norm, "I_d", "I_d"))
    # T(N, A, B) = [2 N^2 (A.B) - 3((N.A)(N.B) + (N.B)(N.A))] * norm
    a, b = _TENSORS[k]
    return (*scalar(2.0 * n_sq * norm, a, b), *twice(-3.0 * norm, a, b), *twice(-3.0 * norm, b, a))


def _total(component: str) -> tuple[Term, ...]:
    """The component z, + or - of F = s_e + I_p + I_d + N, one product per slot."""
    return tuple((1.0, tuple(component if other == slot else "" for other in SLOT_NAMES)) for slot in SLOT_NAMES)


def _dense(basis: ProductBasis, products: Sequence[Term]) -> np.ndarray:
    """The sum of c times the Kronecker product of the slot factors of each (c, slot strings) of `products`.

    The one builder of dense product-basis operators.
    """
    import numpy as np

    matrices = [{"z": s.jz, "+": s.jplus, "-": s.jminus} for s in map(basis._single.__getitem__, SLOT_NAMES)]
    op = np.zeros((basis.dim, basis.dim))
    for c, ops in products:
        factors = [functools.reduce(operator.matmul, map(m.__getitem__, s), np.eye(dim))
                   for m, s, dim in zip(matrices, ops, basis.dims)]
        op += c * functools.reduce(np.kron, factors)
    return op


def term_operator(k: int, basis: ProductBasis) -> np.ndarray:
    """The dimensionless operator multiplying coefficient E_k, on the product basis.

    It is `_dense` of the products of `_term_table`.  Every T_k is
    symmetric; the sum of the products is made exactly so by averaging it
    with its transpose.
    """
    op = _dense(basis, _term_table(k, basis.n_rot))
    return 0.5 * (op + op.T)


def _check_basis(coeffs: HyperfineCoefficients, basis: ProductBasis | None) -> None:
    if basis is not None and coeffs.n_rot != basis.n_rot:
        raise ValueError(
            f"coefficient set is for N={coeffs.n_rot}, basis has N={basis.n_rot}"
        )


def build_hfs(coeffs: HyperfineCoefficients, basis: ProductBasis) -> np.ndarray:
    """Assemble the effective spin Hamiltonian (kHz) on the product basis."""
    import numpy as np

    _check_basis(coeffs, basis)
    h = np.zeros((basis.dim, basis.dim))
    for k in COEFF_INDICES:
        e = coeffs.coefficient(k)
        if e != 0.0:
            h += e * term_operator(k, basis)
    return h


# ---------------------------------------------------------------------------
# per-N block data


@functools.cache
def _cg(j1: int, m1: int, j2: int, m2: int, j: int) -> float:
    """<j1 m1, j2 m2 | j, m1 + m2> by Racah's formula (Condon-Shortley phase) in Python ints, every argument doubled.

    For |m1| <= j1, |m2| <= j2, |m1 + m2| <= j and |j1 - j2| <= j <= j1 + j2, as `_coupled_state` calls it.
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


Key = tuple[int, int, int, int]  # a product state: the index i = j - m of each slot of SLOT_NAMES


def _coupled_state(n_rot: int, g1: int, g2: int, f: int, m: int) -> dict[Key, float]:
    """|((s_e I_p)G1, I_d)G2, N; F m_F = m> as {product state: amplitude}, one Clebsch-Gordan product per state."""
    out = {}
    for (e, m_e), (p, m_p), (d, m_d) in itertools.product(enumerate((1, -1)), enumerate((1, -1)), enumerate((2, 0, -2))):
        m1, m2 = m_e + m_p, m_e + m_p + m_d  # doubled, as every m here
        m_n = 2 * m - m2
        if abs(m1) <= 2 * g1 and abs(m2) <= 2 * g2 and abs(m_n) <= 2 * n_rot:
            out[(e, p, d, n_rot - m_n // 2)] = (
                _cg(1, m_e, 1, m_p, 2 * g1) * _cg(2 * g1, m1, 2, m_d, 2 * g2) * _cg(2 * g2, m2, 2 * n_rot, m_n, 2 * f)
            )
    return out


@functools.lru_cache(maxsize=256)
def _slot_action(ops: str, j2: int) -> tuple[tuple[int, float] | None, ...]:
    """A slot string of `_term_table` on each state |j, m> of one momentum (j = j2 / 2), by its index i = j - m.

    (index after, amplitude), or None where the product vanishes.
    """
    out = []
    for i in range(j2 + 1):
        amp = 1.0
        for op in reversed(ops):
            if op == "z":
                amp *= (j2 - 2 * i) / 2
            elif op == "+":  # J_+ |j, m> = sqrt((j - m)(j + m + 1)) |j, m + 1>
                amp *= math.sqrt(i * (j2 - i + 1))
                i -= 1
            else:  # J_- |j, m> = sqrt((j + m)(j - m + 1)) |j, m - 1>
                amp *= math.sqrt((j2 - i) * (i + 1))
                i += 1
            if not amp:
                break
        out.append((i, amp) if amp else None)
    return tuple(out)


def _apply(n_rot: int, k: int, state: Mapping[Key, float]) -> dict[Key, float]:
    """T_k on a sparse state, by the products of `_term_table`."""
    out: dict[Key, float] = {}
    for c, ops in _term_table(k, n_rot):
        act_e, act_p, act_d, act_n = (_slot_action(s, j2) for s, j2 in zip(ops, (1, 1, 2, 2 * n_rot)))
        for (e, p, d, n), x in state.items():
            if (to_n := act_n[n]) and (to_d := act_d[d]) and (to_p := act_p[p]) and (to_e := act_e[e]):
                key = (to_e[0], to_p[0], to_d[0], to_n[0])
                out[key] = out.get(key, 0.0) + c * to_e[1] * to_p[1] * to_d[1] * to_n[1] * x
    return out


def _between(states: Sequence[Mapping[Key, float]], moved: Sequence[Sequence[Mapping[Key, float]]]) -> tuple:
    """<a|op|b> for each operator, as exactly symmetric n x n tuples: moved[i][b] is the i-th operator on states[b].

    Each entry is one correctly rounded sum over the product states that
    bra and moved ket share.
    """
    n = len(states)
    out = []
    for op in moved:
        t = [[0.0] * n for _ in range(n)]
        for b, ket in enumerate(op):
            for a, bra in enumerate(states[:b + 1]):
                t[a][b] = t[b][a] = math.fsum(x * ket[key] for key, x in bra.items() if key in ket)
        out.append(tuple(map(tuple, t)))
    return tuple(out)


def _block_terms(n_rot: int, f: int, pairs: Sequence[tuple[int, int]]) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """T_1..T_9 between the coupled states (G1, G2, F, m_F = F) of `pairs`, each an exactly symmetric n x n."""
    states = [_coupled_state(n_rot, g1, g2, f, f) for g1, g2 in pairs]
    return _between(states, [[_apply(n_rot, k, ket) for ket in states] for k in COEFF_INDICES])


class _FBlock:
    """The levels of one F, in the coupled states (G1, G2, F, m_F = F) of its (G1, G2) pairs.

    Every level of total angular momentum F is one multiplet of these
    states, so H on them (at most 4 x 4) gives the levels of that F,
    each a (2F + 1)-fold multiplet.  The data are tuples of Python floats.
    """

    def __init__(self, n_rot: int, f: int, pairs: tuple[tuple[int, int], ...], terms: tuple, start: int):
        self.n_rot = n_rot
        self.f = f
        self.pairs = pairs  # (G1, G2) of the n levels, ascending
        self.start = start  # the index of its first coupled state among those of every F block, F ascending
        self.terms = terms  # T_1..T_9 between the coupled states, each n rows of n
        n = len(pairs)
        # (i, j, T_1..T_9 at (i, j)) of the upper triangle: H_ij = sum_k E_k T_k,ij
        self.entries = tuple((i, j, tuple(t[i][j] for t in terms)) for i in range(n) for j in range(i, n))
        # T_1..T_9 on the upper triangle, off-diagonal entries doubled: x^T T_k x = sum of them times x_i x_j
        self.gamma_terms = tuple(tuple(ts[k] * (1.0 if i == j else 2.0) for i, j, ts in self.entries) for k in range(9))
        self.g1_sq, self.g2_sq = (tuple(j * (j + 1.0) for j in js) for js in zip(*pairs))  # G^2 on each coupled state
        # G1 = 0 couples with I_d to G2 = 1 only, so at most the first pair has G1 = 0
        self.g1_zero = int(pairs[0][0] == 0)  # how many levels take G1 = 0
        g2s = [g2 for _, g2 in pairs[self.g1_zero:]]  # the G2 of the G1 = 1 levels, ascending
        # (G2 below, G2 above, half the step of G2(G2 + 1)) of each neighbouring pair of them: see `_labels`
        self.g2_ties = tuple((lo, hi, 0.5 * (hi * (hi + 1) - lo * (lo + 1))) for lo, hi in zip(g2s, g2s[1:]))


class _Blocks:
    """The operators of one rotational level N in the coupled basis, tuples of Python floats.

    The level solve reads `f_blocks`: T_k between the states of each F
    at m_F = F.  The Zeeman interaction reads `jz`: J_z of each slot
    between the states of one m_F, built on first use per m_F.  Built
    once per N.
    """

    def __init__(self, n_rot: int):
        self.n_rot = n_rot
        self.dim = 12 * (2 * n_rot + 1)
        f_max = n_rot + 2
        # G1 = s_e + I_p, G2 = G1 + I_d, F = G2 + N: the (G1, G2) of the levels of each F that has levels, ascending
        self.pairs = {f: f_pairs for f in range(f_max + 1) if (f_pairs := tuple(
            (g1, g2) for g1 in (0, 1) for g2 in range(abs(g1 - 1), g1 + 2) if abs(g2 - n_rot) <= f <= g2 + n_rot))}
        # the coupled states at m_F = F, one per level: their count, and where those of each F block begin
        *starts, self.n_states = itertools.accumulate(map(len, self.pairs.values()), initial=0)
        self.f_blocks = [_FBlock(n_rot, f, pairs, _block_terms(n_rot, f, pairs), start)
                         for (f, pairs), start in zip(self.pairs.items(), starts)]
        # |H_ij| <= max |E_k| * sum_k |T_k,ij| <= max |E_k| * h_bound on every F block, and every energy of
        # an F block (at most 4 levels) is at most 4 times that: below `e_limit` neither H, nor an energy, nor
        # the difference of two energies comes within a factor 2 of float64's largest value
        self.h_bound = max(math.fsum(map(abs, ts)) for block in self.f_blocks for _, _, ts in block.entries)
        self.e_limit = sys.float_info.max / (16.0 * self.h_bound)
        self._jz: dict[int, tuple] = {}  # m_F -> `jz(m_F)`

    def jz(self, m_f: int) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """J_z of each slot (SLOT_NAMES order) between the coupled states of m_F, each an exactly symmetric n x n.

        The states are those of the F blocks with F >= |m_F| (the last of
        `f_blocks`), F by F and (G1, G2) ascending.  J_z is diagonal in the
        product states: it multiplies each amplitude by m = j - i of its slot.
        """
        if m_f not in self._jz:
            states = [_coupled_state(self.n_rot, g1, g2, block.f, m_f)
                      for block in self.f_blocks if block.f >= abs(m_f) for g1, g2 in block.pairs]
            self._jz[m_f] = _between(states, [[{key: (j - key[s]) * x for key, x in state.items()} for state in states]
                                              for s, j in enumerate((0.5, 0.5, 1.0, self.n_rot))])
        return self._jz[m_f]


@functools.lru_cache(maxsize=8)
def _blocks(n_rot: int) -> _Blocks:
    """The block data of N, kept for the 8 most recent N."""
    return _Blocks(n_rot)


def _coefficient_vector(coeffs: HyperfineCoefficients) -> list[float]:
    values = coeffs.values
    return [float(values.get(k, 0.0)) for k in COEFF_INDICES]


# ---------------------------------------------------------------------------
# the F-block eigen-solve, in Python floats

# cyclic Jacobi takes 2 to 4 sweeps on the F blocks (at most 4 x 4) of the demo sets moved by up to 25 %, and at most
# 9 on the m_F blocks of `zeeman` (up to 12 x 12 at any N) of the demo values at N = 0 to 5, from 0.05 G to 10^4 G
_SWEEPS = 32
# every sum of the solve is correctly rounded (`math.fsum`), so no result depends on the Python version's sum()
_sqrt, _copysign, _fsum, _mul = math.sqrt, math.copysign, math.fsum, operator.mul


def _eigen(h: list[list[float]], vectors: bool = True) -> tuple[list[float], list[list[float]] | None]:
    """Ascending eigenvalues and their unit eigenvectors of a small real symmetric matrix.

    It solves the F blocks of the level solve (at most 4 x 4), and the
    m_F blocks of `zeeman` (up to 12 x 12) on a grid that `zeeman`
    solves in Python floats.

    A 1 x 1 matrix is its entry with eigenvector 1.0; anything larger is
    solved by cyclic Jacobi in Python floats (Golub & Van Loan, Matrix
    Computations, sec. 8.5).  Each rotation sets one off-diagonal entry
    to 0, so a diagonal matrix takes none and a 2 x 2 one rotation, its
    closed form; an entry less than an ulp of both its diagonal entries
    over 100 is set to 0 without one.  Every step is a ratio or a
    rotation, so a matrix times a power of two gives its eigenvalues
    times that power and the same eigenvectors.  Equal eigenvalues keep
    their index order.  With `vectors` false the rotations are not
    accumulated and the vectors come back None: the rotations read only
    the matrix, so the eigenvalues are the same floats, at about half
    the cost.
    """
    n = len(h)
    if n == 1:
        return [h[0][0]], [[1.0]] if vectors else None
    a = [row[:] for row in h]
    x = [[float(r == c) for r in range(n)] for c in range(n)] if vectors else None  # the eigenvectors, x[c] the c-th
    for _ in range(_SWEEPS):
        converged = True
        for p, q, others in _sweep(n):
            ap = a[p]
            apq = ap[q]
            if not apq:
                continue
            aq = a[q]
            app, aqq = ap[p], aq[q]
            g = 100.0 * abs(apq)
            if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                ap[q] = aq[p] = 0.0
                continue
            converged = False
            # tan, cos and sin of the smaller rotation that zeroes a_pq; theta^2 overflows only where a_pq is
            # negligible, which the test above has set to 0
            theta = (aqq - app) / (2.0 * apq)
            t = _copysign(1.0 / (abs(theta) + _sqrt(theta * theta + 1.0)), theta)
            c = 1.0 / _sqrt(t * t + 1.0)
            s = t * c
            ap[p], aq[q] = app - t * apq, aqq + t * apq
            ap[q] = aq[p] = 0.0
            for r in others:
                ar = a[r]
                arp, arq = ar[p], ar[q]
                ar[p] = ap[r] = c * arp - s * arq
                ar[q] = aq[r] = s * arp + c * arq
            if x is not None:
                xp, xq = x[p], x[q]
                x[p] = [c * u - s * w for u, w in zip(xp, xq)]
                x[q] = [s * u + c * w for u, w in zip(xp, xq)]
        if converged:
            break
    else:
        raise RuntimeError(f"F-block eigen-solve did not converge in {_SWEEPS} sweeps")
    order = sorted(range(n), key=lambda i: a[i][i])
    return [a[i][i] for i in order], [x[i] for i in order] if vectors else None


@functools.lru_cache(maxsize=16)  # every size `_eigen` sees: 2, 3 and 4, and 8, 10, 11 and 12 from `zeeman`
def _sweep(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(p, q, every other index) of each off-diagonal entry p < q of an n x n matrix, in cyclic order."""
    return tuple((p, q, tuple(r for r in range(n) if r not in (p, q))) for p in range(n) for q in range(p + 1, n))


# ---------------------------------------------------------------------------
# levels

# Levels of one set within _ULPS ulps of max |E_k|, times the bound `h_bound` on H per |E_k|, coincide: their order
# goes by F, and those of one F cannot be told apart by their vectors, so they come back unlabelled.  Roundoff
# moves an energy a few such ulps; 2^10 of them are 7.0e-7 kHz for the demo N = 1 set and 1.5e-7 kHz for N = 0,
# so the bundled sets keep the labels that a fixed 1e-6 kHz gave them.
_ULPS = 2.0 ** 10


class SpinLevel:
    """One hyperfine level: energy in kHz, and its field-free state.

    F is exact and the degeneracy is 2F + 1.  G1 and G2 are None for a
    level that coincides with another level of the same F.  The level
    carries its F block (`block`) and its eigenvector over the block's
    coupled states (`eigenvector`, a tuple); its `gammas` and `vectors`
    are built from them on first use and kept.  Level sets are cached
    and shared, so the fields are read-only.
    """

    __setattr__ = __delattr__ = _refuse_write

    def __init__(
        self,
        energy: float,
        degeneracy: int,
        g1: int | None,
        g2: int | None,
        f: int,
        block: _FBlock,
        eigenvector: tuple[float, ...],
    ) -> None:
        fields = self.__dict__  # written directly: `__setattr__` refuses, and `gammas` and `vectors` are cached here too
        fields["energy"], fields["degeneracy"], fields["g1"], fields["g2"], fields["f"] = energy, degeneracy, g1, g2, f
        fields["block"], fields["eigenvector"] = block, eigenvector

    @property
    def label(self) -> tuple[int, int, int] | None:
        if self.g1 is None:
            return None
        return (self.g1, self.g2, self.f)

    @functools.cached_property
    def gammas(self) -> tuple[float, ...]:
        """gamma_1..gamma_9, x^T T_k x of the eigenvector x, computed on first use."""
        x = self.eigenvector
        xx = [x[i] * x[j] for i, j, _ in self.block.entries]
        return tuple(_fsum(map(_mul, t, xx)) for t in self.block.gamma_terms)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """The 2F + 1 product-basis states (m_F = F .. -F) as read-only columns, built on first use.

        The column of m_F is sum_a x_a |G1_a G2_a F m_F>, x the
        eigenvector; a product state's row is its slot indices in the
        order of `ProductBasis`.
        """
        import numpy as np

        block, f, n_rot = self.block, self.f, self.block.n_rot
        out = np.zeros((_blocks(n_rot).dim, 2 * f + 1))
        for column, m in enumerate(range(f, -f - 1, -1)):
            for (g1, g2), amp in zip(block.pairs, self.eigenvector):
                for (e, p, d, i), c in _coupled_state(n_rot, g1, g2, f, m).items():
                    out[((2 * e + p) * 3 + d) * (2 * n_rot + 1) + i, column] += amp * c
        return _read_only(out)


def _zeeman_row(
    level: SpinLevel, members: Sequence[SpinLevel], m_f: int, weights: Sequence[float]
) -> tuple[list[float], list[float]]:
    """<i|J_z|i> of each slot, and <j|sum_s weights_s J_z^s|i> for each j, in the field-free states of m_F.

    i is `level` and j each of `members`, the levels of its set with
    F >= |m_F| in level order.  The states are the F-block eigenvectors x
    over the coupled states of m_F, between which `_Blocks.jz` holds J_z:
    the second list is X^T (sum_s weights_s Z_s) x_i.
    """
    block, x = level.block, level.eigenvector
    blocks = _blocks(block.n_rot)
    z = blocks.jz(m_f)
    skip = blocks.n_states - len(z[0])  # the coupled states of the F blocks with F < |m_F|
    rows = slice(block.start - skip, block.start - skip + len(x))
    xx = [u * v for u in x for v in x]
    diagonal = [_fsum(map(_mul, xx, [t for row in zs[rows] for t in row[rows]])) for zs in z]
    wx = [w * u for w in weights for u in x]
    zx = [_fsum(map(_mul, wx, column)) for column in zip(*(row for zs in z for row in zs[rows]))]  # Z is symmetric
    return diagonal, [_fsum(map(_mul, lv.eigenvector, zx[lv.block.start - skip:])) for lv in members]


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


def _solve_blocks(blocks: _Blocks, e: Sequence[float], tolerance: float, scale: float = 1.0) -> list:
    """(energy, F, (G1, G2), F block, eigenvector) of every F-block level, block by block.

    `e` holds the coefficients over `scale`, a power of two: each block's
    energies come back times it, checked finite (OverflowError `energy =
    ...`) before its levels are labelled.
    """
    found = []
    for block in blocks.f_blocks:
        n = len(block.pairs)
        h = [[0.0] * n for _ in range(n)]
        for i, j, ts in block.entries:
            h[i][j] = h[j][i] = _fsum(map(_mul, e, ts))
        evals, x = _eigen(h)
        if scale != 1.0:
            evals = [energy * scale for energy in evals]
            finite("energy", *evals)
        labels = block.pairs
        if n > 1:
            g1_sq, g2_sq = ([_fsum(map(_mul, map(_mul, v, v), sq)) for v in x] for sq in (block.g1_sq, block.g2_sq))
            labels = _labels(block, evals, g1_sq, g2_sq, tolerance)
        found += [(energy, block.f, labels[a], block, tuple(x[a])) for a, energy in enumerate(evals)]
    return found


class _LevelSet:
    """The labelled levels of one coefficient set.

    One eigen-solve of at most 4 x 4 per F (`_eigen`), on H between the
    coupled states (G1, G2, F, m_F = F) of that F, in Python floats;
    each level keeps its eigenvector x, and gamma_k = x^T T_k x when a
    caller asks for it (`SpinLevel.gammas`).  The levels are shared by every
    caller that asks for the same coefficients, so they and their
    vectors are read-only.  `labelled` maps each label to its level.
    Levels no more than `tolerance` apart coincide (see `_ULPS`);
    `distinct` says that no two levels of the set do.

    One check of max |E_k| against the block data's `e_limit` decides
    whether H and its energies can leave float64.  A set beyond it is
    solved at 2^-s times its coefficients, which keeps the eigenvectors
    and scales every energy by 2^-s exactly, and its energies are scaled
    back and checked finite, so that it raises ValueError `level solve
    overflows float64 (energy = ...)` rather than give an infinite level.
    """

    def __init__(self, coeffs: HyperfineCoefficients):
        blocks, e = _blocks(coeffs.n_rot), _coefficient_vector(coeffs)
        e_max = max(map(abs, e))
        # ulp(0.0) is the floor of the all-zero set; ulp(e_max) * h_bound, unlike ulp(e_max * h_bound), stays finite
        self.tolerance = tolerance = _ULPS * math.ulp(e_max) * blocks.h_bound
        if e_max <= blocks.e_limit:
            found = _solve_blocks(blocks, e, tolerance)
        else:
            scale = 2.0 ** math.frexp(e_max / blocks.e_limit)[1]  # at least e_max / e_limit
            with overflow_as_value_error("level solve"):
                found = _solve_blocks(blocks, [x / scale for x in e], tolerance, scale)
        # ascending energy; levels that coincide go by F
        energies = [level[0] for level in found]
        order = sorted(range(len(found)), key=energies.__getitem__)
        apart = [energies[hi] - energies[lo] > tolerance for lo, hi in zip(order, order[1:])]
        self.distinct = all(apart)
        if not self.distinct:
            cluster = dict(zip(order, itertools.accumulate(apart, initial=0)))  # level -> its run of coincident levels
            order.sort(key=lambda i: (cluster[i], found[i][1]))
        self.levels = tuple(
            SpinLevel(energy, 2 * f + 1, g1, g2, f, block, x)
            for energy, f, (g1, g2), block, x in map(found.__getitem__, order)
        )
        self.labelled = {lv.label: lv for lv in self.levels if lv.g1 is not None}

    def level(self, label: tuple[int, int, int]) -> SpinLevel:
        """The level with `label`; LookupError `label ... resolves to 0 levels` if there is none."""
        label = tuple(label)
        if label not in self.labelled:
            raise LookupError(f"label {label} resolves to 0 levels")
        return self.labelled[label]

    def sensitivities(self, label: tuple[int, int, int]) -> dict[int, float]:
        return dict(zip(COEFF_INDICES, self.level(label).gammas))


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
