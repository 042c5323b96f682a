"""Angular-momentum algebra, level classification, and sensitivities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdspec import angular, bundled
from hdspec.angular import (
    ClassificationError,
    HyperfineCoefficients,
    ProductBasis,
    SensitivityTable,
    SpinUncertaintyParams,
    TransitionSensitivities,
    build_hfs,
    casimir,
    dot,
    jmatrices,
    level_structure,
    read_coefficient_file,
    sensitivities,
    sensitivities_fd,
    spin_frequency,
    spin_uncertainty,
    term_operator,
    transition_table,
)
from hdspec.zeeman import ZeemanCouplings, transition_coeffs, zeeman_map

from dense_oracle import build_zeeman, combined_triple, eigenlevels, product_index, round_to_j, triple
from eigh_reference import reference_levels

coeff_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def random_n1_coeffs(rng) -> HyperfineCoefficients:
    values = {k: float(v) for k, v in zip(angular.COEFF_INDICES, rng.uniform(-1e5, 1e5, 9))}
    return HyperfineCoefficients(v=1, n_rot=1, values=values)


# ---------------------------------------------------------------------------
# single-momentum and product-basis algebra


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_ladder_commutators_and_casimir(j):
    jm = jmatrices(j)
    jz, jp, jmn = jm.jz, jm.jplus, jm.jminus
    assert np.allclose(jz @ jp - jp @ jz, jp, atol=1e-12)
    assert np.allclose(jz @ jmn - jmn @ jz, -jmn, atol=1e-12)
    assert np.allclose(jp @ jmn - jmn @ jp, 2.0 * jz, atol=1e-12)
    c = casimir((jz, jp, jmn))
    assert np.allclose(c, j * (j + 1.0) * np.eye(jm.dim), atol=1e-12)


def test_product_basis_dimensions(basis0, basis1):
    assert basis0.dim == 12
    assert basis1.dim == 36


def test_index_is_a_bijection(basis1):
    seen = set()
    for m_se in (0.5, -0.5):
        for m_sp in (0.5, -0.5):
            for m_sd in (1.0, 0.0, -1.0):
                for m_n in (1.0, 0.0, -1.0):
                    seen.add(product_index(basis1, m_se, m_sp, m_sd, m_n))
    assert seen == set(range(36))


def test_index_rejects_invalid_m(basis0):
    with pytest.raises(ValueError):
        product_index(basis0, 1.5, 0.5, 1.0, 0.0)


def test_embedded_slots_commute(basis1):
    se, ip = triple(basis1, "s_e"), triple(basis1, "I_p")
    for a in se:
        for b in ip:
            assert np.allclose(a @ b - b @ a, 0.0, atol=1e-12)


def test_f_squared_commutes_with_f_z(basis1):
    f2, fz = basis1.f_squared(), basis1.f_z()
    assert np.allclose(f2 @ fz - fz @ f2, 0.0, atol=1e-10)


@pytest.mark.parametrize("n_rot", range(6))
def test_f_z_and_f_squared_are_the_oracles_embedded_sums(n_rot):
    # the program builds F_z and F^2 from `_term_table`-style slot strings, the oracle by embedding each slot
    # with identities; the two agree bit for bit
    basis = ProductBasis(n_rot)
    f = combined_triple(basis, angular.SLOT_NAMES)
    assert np.array_equal(basis.f_z(), f[0])
    assert np.array_equal(basis.f_squared(), casimir(f))


def test_dot_is_symmetric_matrix(basis1):
    op = dot(triple(basis1, "I_p"), triple(basis1, "s_e"))
    assert np.array_equal(op, op.T)


@pytest.mark.parametrize("k", angular.COEFF_INDICES)
def test_term_operators_symmetric_traceless(basis1, k):
    op = term_operator(k, basis1)
    assert np.array_equal(op, op.T)
    assert abs(np.trace(op)) < 1e-9


def test_quadrupole_traceless_n0_and_n1(basis0, basis1):
    # every N operator vanishes at N = 0, so Q is identically zero there
    assert np.allclose(term_operator(9, basis0), 0.0, atol=1e-12)
    q = term_operator(9, basis1)
    assert abs(np.trace(q)) < 1e-9


# ---------------------------------------------------------------------------
# N = 0 analytic oracle

# Exact N = 0 spectrum for coefficients (E4, E5): a stretched quintet,
# an F = 0 singlet, and two F = 1 triplets from the 2x2 mixing block
# [[-3 E4/4, E5/sqrt(2)], [E5/sqrt(2), E4/4 - E5/2]].


def analytic_n0_spectrum(e4: float, e5: float) -> list[tuple[float, int]]:
    a, b, c = -0.75 * e4, 0.25 * e4 - 0.5 * e5, e5 / math.sqrt(2.0)
    mid, half = 0.5 * (a + b), math.hypot(0.5 * (a - b), c)
    levels = [
        (0.25 * e4 + 0.5 * e5, 5),
        (0.25 * e4 - e5, 1),
        (mid - half, 3),
        (mid + half, 3),
    ]
    return sorted(levels)


def complex_oracle_spectrum(e4: float, e5: float) -> np.ndarray:
    """Same physics built from complex cartesian matrices, no shared code."""

    def cart(j):
        dim = int(round(2 * j)) + 1
        m = j - np.arange(dim)
        jp = np.zeros((dim, dim), complex)
        for i in range(1, dim):
            jp[i - 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
        jm = jp.conj().T
        return (jp + jm) / 2.0, (jp - jm) / 2.0j, np.diag(m).astype(complex)

    def kron3(x, y, z):
        return np.kron(np.kron(x, y), z)

    i2, i3 = np.eye(2), np.eye(3)
    se = [kron3(o, i2, i3) for o in cart(0.5)]
    ip = [kron3(i2, o, i3) for o in cart(0.5)]
    idd = [kron3(i2, i2, o) for o in cart(1.0)]
    h = e4 * sum(a @ b for a, b in zip(ip, se)) + e5 * sum(a @ b for a, b in zip(idd, se))
    return np.linalg.eigvalsh(h)


def test_n0_single_coefficient_spectrum(basis0):
    coeffs = HyperfineCoefficients(v=0, n_rot=0, values={4: 1.0, 5: 0.0})
    levels = level_structure(coeffs, basis0)
    spectrum = sorted((lv.energy, lv.degeneracy) for lv in levels)
    # pure contact term: singlet block at -3/4, triplet block at +1/4
    assert spectrum[0][0] == pytest.approx(-0.75, abs=1e-12)
    assert spectrum[0][1] == 3
    assert sum(d for e, d in spectrum if abs(e - 0.25) < 1e-9) == 9


def test_n0_matches_analytic_oracle_100_random(basis0):
    # eigenvalue-level comparison: (G1, G2) labels are legitimately
    # ambiguous when |E5| ~ |E4|, but the spectrum is always exact
    rng = np.random.default_rng(1234)
    for _ in range(100):
        e4, e5 = rng.uniform(-1e6, 1e6, 2)
        coeffs = HyperfineCoefficients(v=0, n_rot=0, values={4: e4, 5: e5})
        got = np.sort(np.linalg.eigvalsh(build_hfs(coeffs, basis0)))
        want = np.sort(np.repeat(*zip(*analytic_n0_spectrum(e4, e5))))
        assert np.allclose(got, want, atol=1e-6 * max(1.0, abs(e4), abs(e5)))


def test_n0_demo_levels_match_analytic_oracle(basis0, demo_sets):
    coeffs = demo_sets[(0, 0)]
    levels = level_structure(coeffs, basis0)
    got = sorted((lv.energy, lv.degeneracy) for lv in levels)
    expected = analytic_n0_spectrum(coeffs.coefficient(4), coeffs.coefficient(5))
    assert len(got) == 4
    for (ge, gd), (ee, ed) in zip(got, expected):
        assert ge == pytest.approx(ee, rel=1e-9, abs=0)
        assert gd == ed


def test_n0_matches_complex_matrix_oracle(basis0):
    rng = np.random.default_rng(99)
    for _ in range(10):
        e4, e5 = rng.uniform(-1e6, 1e6, 2)
        coeffs = HyperfineCoefficients(v=0, n_rot=0, values={4: e4, 5: e5})
        h = build_hfs(coeffs, basis0)
        got = np.sort(np.linalg.eigvalsh(h))
        want = np.sort(complex_oracle_spectrum(e4, e5))
        assert np.allclose(got, want, atol=1e-7 * max(1.0, abs(e4), abs(e5)))


def test_n0_labels(basis0, demo_sets):
    levels = level_structure(demo_sets[(0, 0)], basis0)
    labels = {lv.label: lv.degeneracy for lv in levels}
    assert labels == {(1, 2, 2): 5, (1, 0, 0): 1, (1, 1, 1): 3, (0, 1, 1): 3}


def test_level_counts_and_degeneracy_sums(basis0, basis1, demo_sets):
    lv0 = level_structure(demo_sets[(0, 0)], basis0)
    lv1 = level_structure(demo_sets[(1, 1)], basis1)
    assert len(lv0) == 4 and sum(lv.degeneracy for lv in lv0) == 12
    assert len(lv1) == 10 and sum(lv.degeneracy for lv in lv1) == 36


def test_trace_invariant(basis1, demo_sets):
    # degeneracy-weighted level mean equals tr(H)/dim = 0 for traceless terms
    levels = level_structure(demo_sets[(1, 1)], basis1)
    mean = sum(lv.energy * lv.degeneracy for lv in levels) / 36.0
    assert abs(mean) < 1e-9


def test_zero_hamiltonian_single_unlabeled_group(basis0):
    levels = eigenlevels(np.zeros((12, 12)), basis0)
    assert len(levels) == 1
    assert levels[0].degeneracy == 12
    assert levels[0].label is None


def test_eigenlevels_rejects_asymmetric(basis0):
    h = np.zeros((12, 12))
    h[0, 1] = 1.0
    with pytest.raises(ValueError):
        eigenlevels(h, basis0)


def test_eigenlevels_rejects_symmetry_breaking(basis0):
    # diagonal in the product basis but not commuting with F^2
    h = np.diag(np.arange(12.0))
    h = 0.5 * (h + h.T)
    with pytest.raises(ValueError):
        eigenlevels(h, basis0)


@pytest.mark.parametrize("n_rot", [4, 5])
def test_high_n_demo_levels_pass_commutator_check(n_rot, demo_sets):
    # roundoff in [H, F^2] reaches 1.9e-9 kHz at N=4 and 3.7e-9 kHz at N=5 on
    # these sets; no level solve may reject them for it
    coeffs = HyperfineCoefficients(v=1, n_rot=n_rot, values=dict(demo_sets[(1, 1)].values))
    basis = ProductBasis(n_rot)
    levels = level_structure(coeffs, basis)
    assert len(levels) == 12
    assert all(lv.degeneracy == 2 * lv.f + 1 for lv in levels)
    assert sum(lv.degeneracy for lv in levels) == basis.dim


def test_ambiguous_labels_raise(basis1):
    # a dominant tensor term leaves G2 badly mixed
    values = {1: 0.0, 2: 0.0, 3: 0.0, 4: 1.0, 5: 1.0, 6: 1e6, 7: 0.0, 8: 0.0, 9: 0.0}
    coeffs = HyperfineCoefficients(v=1, n_rot=1, values=values)
    with pytest.raises(ClassificationError):
        level_structure(coeffs, basis1)


@pytest.mark.parametrize(
    "values, detail",
    [
        # H on an F block would leave float64: solved at a power of two below, an energy does (energy = -inf)
        ({1: 1.7e308, 2: 1.7e308}, "overflow encountered in matmul"),
        # H is finite, one of its energies is not
        ({6: -1.3016214975431893e308, 8: -1.1300064064171704e308, 9: -1.54106375571506e308}, "energy = inf"),
    ],
)
def test_level_solve_that_leaves_float64_is_one_value_error(values, detail):
    coeffs = HyperfineCoefficients(1, 1, {**dict.fromkeys(angular.COEFF_INDICES, 0.0), **values})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            level_structure(coeffs)
    assert str(exc.value).startswith("level solve overflows float64 (")
    if detail == "energy = inf":
        assert str(exc.value) == f"level solve overflows float64 ({detail})"


def test_coefficients_either_side_of_the_overflow_limit_solve_as_the_reference():
    # the largest |E_k| that skips the guarded solve, and the smallest that takes it (solved at a power of two
    # below its scale), give the levels of the reference
    limit = angular._blocks(1).e_limit
    for e in (limit, np.nextafter(limit, math.inf)):
        assert_solve_matches_reference(HyperfineCoefficients(1, 1, {k: e * k / 9 for k in angular.COEFF_INDICES}))


@pytest.mark.parametrize("n_rot", range(6))
def test_coupling_scheme_names_every_highest_weight_state(n_rot):
    # G1 = s_e + I_p, G2 = G1 + I_d, F = G2 + N: one (G1, G2) per level of each F, and the levels of F
    # are as many as the product states of the m_F = F block less those of the m_F = F + 1 block
    blocks = angular._blocks(n_rot)
    m_of_state = np.rint(np.diag(ProductBasis(n_rot).f_z())).astype(int)
    states = {m: int(np.sum(m_of_state == m)) for m in range(-(n_rot + 2), n_rot + 4)}
    highest_weight = {f: states[f] - states[f + 1] for f in range(n_rot + 3)}
    assert {block.f: len(block.pairs) for block in blocks.f_blocks} == {f: n for f, n in highest_weight.items() if n}
    for block in blocks.f_blocks:
        n = len(block.pairs)
        assert len(block.terms) == 9 and all(len(t) == n and all(len(row) == n for row in t) for t in block.terms)
        assert list(block.pairs) == sorted(set(block.pairs))
    # the coupled states of each m_F, which J_z of each slot is taken between, are as many as its product states
    for m in range(-(n_rot + 2), n_rot + 3):
        assert len(blocks.jz(m)) == 4
        assert all(len(t) == states[m] and all(len(row) == states[m] for row in t) for t in blocks.jz(m))


@pytest.mark.parametrize(
    "alone, raises",
    [
        ([True, False, False], True),  # the tie touches a level of its own
        ([False, True, False], True),
        ([False, False, True], False),  # the tie lies between two coincident levels
    ],
)
def test_a_tie_at_a_group_boundary_raises_only_for_a_level_of_its_own(alone, raises):
    # <G1^2> of 0.9 and 1.1 lie 0.2 apart across the G1 = 0 / 1 step of 2; `alone` marks which of
    # these two levels and a third (<G1^2> = 2.0) is a level of its own, the other two coinciding
    block = next(b for b in angular._blocks(1).f_blocks if b.f == 2)
    assert block.pairs == ((0, 1), (1, 1), (1, 2))
    others = iter((1, 2))
    levels = [0 if own else next(others) for own in alone]  # the eigenvector of each of the three, in ascending energy
    g1_sq, g2_sq = [0.0] * 3, [0.0] * 3
    for a, (g1, g2) in zip(levels, [(0.9, 2.0), (1.1, 2.0), (2.0, 6.0)]):
        g1_sq[a], g2_sq[a] = g1, g2
    evals, tolerance = [0.0, 5.0, 5.0], 1e-9
    if raises:
        with pytest.raises(ClassificationError, match=r"ambiguous G1 label for a level with F=2 \(<G1\^2> = 0.900000 and 1.100000"):
            angular._labels(block, evals, g1_sq, g2_sq, tolerance)
    else:
        assert angular._labels(block, evals, g1_sq, g2_sq, tolerance) == [(1, 2), (None, None), (None, None)]


def window_labels(coeffs):
    """(F, energy, label) of the levels of `coeffs` by the fixed-window rule, or None where it fails.

    Each level of its own takes the G1 and G2 whose j(j+1) lie within
    0.05 of <G1^2> and <G2^2>, each on its own.  Levels coincide within
    the tolerance of the level set of `coeffs`.
    """
    blocks, e = angular._blocks(coeffs.n_rot), angular._coefficient_vector(coeffs)
    tolerance = angular._LevelSet(coeffs).tolerance
    out = set()
    for block in blocks.f_blocks:
        evals, x = np.linalg.eigh(np.tensordot(e, block.terms, 1))
        for a in range(len(evals)):
            alone = all(abs(evals[a] - evals[b]) > tolerance for b in range(len(evals)) if b != a)
            label = None
            if alone:
                g = [round_to_j(float(x[:, a] @ np.diag(op) @ x[:, a])) for op in (block.g1_sq, block.g2_sq)]
                if None in g or any(j != round(j) for j in g):
                    return None
                label = (int(g[0]), int(g[1]), block.f)
            out.add((block.f, float(evals[a]), label))
    return out


@pytest.mark.parametrize("key", [(0, 0), (1, 1)])
def test_labels_by_rank_hold_where_a_fixed_window_fails(key, demo_sets):
    # each demo coefficient scaled by U(0.8, 1.25): mixing moves some
    # <G^2> more than 0.05 from j(j+1), and the rank inside the F block
    # still labels every level; where the window rule labels a set, the
    # labels agree
    rng = np.random.default_rng(2024 + key[1])
    base = demo_sets[key]
    window_failed = 0
    for _ in range(300):
        coeffs = HyperfineCoefficients(base.v, base.n_rot, {k: e * rng.uniform(0.8, 1.25) for k, e in base.values.items()})
        level_set = angular._LevelSet(coeffs)
        levels = level_set.levels
        assert all(lv.label is not None for lv in levels)
        assert len({lv.label for lv in levels}) == len(levels)
        reference = window_labels(coeffs)
        if reference is None:
            window_failed += 1
        else:
            # the same labels, on levels whose energies agree with eigh's within roundoff
            want = {label: energy for _, energy, label in reference}
            assert want.keys() == level_set.labelled.keys()
            assert all(abs(lv.energy - want[lv.label]) <= ENERGY_ULPS * ulps(level_set) for lv in levels)
    assert window_failed > 0


def test_find_level_unresolved(demo_sets):
    with pytest.raises(LookupError, match=r"^label \(3, 3, 3\) resolves to 0 levels$"):
        angular._level_set(demo_sets[(0, 0)]).level((3, 3, 3))


def test_n0_rejects_rotational_coefficients():
    with pytest.raises(ValueError, match="E4, E5"):
        HyperfineCoefficients(v=0, n_rot=0, values={1: 1.0, 4: 1.0, 5: 1.0})


# ---------------------------------------------------------------------------
# spin frequency and sensitivities


def test_spin_frequency_identical_levels_zero(demo_sets):
    coeffs = demo_sets[(1, 1)]
    assert spin_frequency((coeffs, (1, 2, 3)), (coeffs, (1, 2, 3))) == 0.0


def test_spin_frequency_antisymmetric(demo_sets):
    lower, upper = demo_sets[(0, 0)], demo_sets[(1, 1)]
    f = spin_frequency((upper, (1, 2, 1)), (lower, (1, 2, 2)))
    g = spin_frequency((lower, (1, 2, 2)), (upper, (1, 2, 1)))
    assert f == -g


def test_sensitivities_bounded(basis1):
    rng = np.random.default_rng(5)
    for _ in range(10):
        coeffs = random_n1_coeffs(rng)
        try:
            levels = level_structure(coeffs, basis1)
        except ClassificationError:
            continue
        for lv in levels:
            if lv.label is None:
                continue
            gam = sensitivities(coeffs, basis1, lv.label)
            for k, g in gam.items():
                assert -3.0 <= g <= 3.0


def test_sensitivities_degeneracy_weighted_sum_vanishes(basis1, demo_sets):
    # every term operator is traceless, so sum_levels deg * gamma_k = 0
    coeffs = demo_sets[(1, 1)]
    levels = level_structure(coeffs, basis1)
    for k in angular.COEFF_INDICES:
        total = sum(lv.degeneracy * sensitivities(coeffs, basis1, lv.label)[k] for lv in levels)
        assert abs(total) < 1e-8


def test_hellmann_feynman_vs_finite_differences(basis0, basis1, demo_sets):
    lower, upper = demo_sets[(0, 0)], demo_sets[(1, 1)]
    for coeffs, basis, label, ks in (
        (lower, basis0, (1, 2, 2), angular.CONTACT_COEFFS),
        (upper, basis1, (1, 2, 1), angular.COEFF_INDICES),
        (upper, basis1, (1, 2, 3), angular.COEFF_INDICES),
    ):
        hf = sensitivities(coeffs, basis, label)
        fd = sensitivities_fd(coeffs, basis, label, ks=ks)
        for k in ks:
            assert fd[k] == pytest.approx(hf[k], rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# level sets: one solve per coefficient content


def scaled(coeffs, factor, eps_overrides=None):
    values = {k: e * factor for k, e in coeffs.values.items()}
    return HyperfineCoefficients(coeffs.v, coeffs.n_rot, values, eps_overrides or {})


# one solve per F, of the number of levels with that F: N = 0 has F = 0, 1, 2
# with 1, 2, 1 levels, N = 1 has F = 0, 1, 2, 3 with 2, 4, 3, 1
F_BLOCK_SIZES = {0: [1, 2, 1], 1: [2, 4, 3, 1]}


def test_spin_mc_style_draw_solves_each_hamiltonian_once(eigen_solves, demo_sets):
    lower, upper = scaled(demo_sets[(0, 0)], 1.01), scaled(demo_sets[(1, 1)], 0.99)
    lines = bundled.TRANSITION_LEVELS
    level_structure(lower, ProductBasis(0))
    level_structure(upper, ProductBasis(1))
    transition_table(lower, upper, lines)
    for tid in ("12", "16"):
        spin_frequency((upper, lines[tid][1]), (lower, lines[tid][0]))
    for lower_mf, upper_mf in ((0, 0), (2, 3), (-2, -3)):
        transition_coeffs((lower, (1, 2, 2, lower_mf)), (upper, (1, 2, 3, upper_mf)))
    assert eigen_solves == F_BLOCK_SIZES[0] + F_BLOCK_SIZES[1]


def test_changed_coefficient_gives_fresh_solve(eigen_solves, demo_sets, basis1):
    coeffs = scaled(demo_sets[(1, 1)], 1.0)
    before = [lv.energy for lv in level_structure(coeffs, basis1)]
    # eps_overrides do not move the levels, so they share the solve
    level_structure(scaled(coeffs, 1.0, {1: 1e-3}), basis1)
    assert eigen_solves == F_BLOCK_SIZES[1]
    coeffs.values[4] *= 1.001
    after = [lv.energy for lv in level_structure(coeffs, basis1)]
    assert eigen_solves == F_BLOCK_SIZES[1] * 2
    assert after != before
    assert after == [lv.energy for lv in angular._LevelSet(coeffs).levels]
    dense = [lv.energy for lv in eigenlevels(build_hfs(coeffs, basis1), basis1)]
    assert np.allclose(after, dense, rtol=0, atol=1e-8)


def test_cached_level_set_is_read_only(demo_sets, basis1):
    coeffs = demo_sets[(1, 1)]
    levels = level_structure(coeffs, basis1)
    with pytest.raises(ValueError, match="read-only"):
        levels[0].vectors[0, 0] = 1.0
    # the levels themselves: a field, the F block and eigenvector, the cached gammas and vectors, a new attribute
    for name in ("energy", "g1", "block", "eigenvector", "gammas", "vectors", "note"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(levels[0], name, None)
    for name in ("block", "eigenvector", "gammas"):
        with pytest.raises(AttributeError, match="read-only"):
            delattr(levels[0], name)
    # each eigenvector is a tuple of floats, so no caller can change the gamma_k that a later caller reads
    assert all(type(lv.eigenvector) is tuple and all(type(x) is float for x in lv.eigenvector) for lv in levels)
    fresh = angular._LevelSet(coeffs).level((1, 0, 1))
    with pytest.raises(TypeError, match="does not support item assignment"):
        fresh.eigenvector[0] *= -2.0
    assert fresh.gammas == angular._LevelSet(coeffs).level((1, 0, 1)).gammas
    assert fresh.gammas is fresh.gammas
    levels.clear()  # the caller's list, not the shared one
    levels = level_structure(coeffs, basis1)
    assert len(levels) == 10
    assert all(not lv.vectors.flags.writeable for lv in levels)
    assert all(lv.vectors is level_structure(coeffs, basis1)[i].vectors for i, lv in enumerate(levels))
    # the per-N data every set of this N shares, tuples of floats: T_k of the F blocks, J_z of the m_F blocks
    blocks = angular._blocks(1)
    for fb in blocks.f_blocks:
        for data in (fb.terms, fb.entries, fb.gamma_terms, fb.g1_sq, fb.g2_sq):
            assert type(data) is tuple and all(type(row) is tuple or type(row) is float for row in data)
    with pytest.raises(TypeError, match="does not support item assignment"):
        blocks.f_blocks[0].terms[0][0] = (1.0,)
    for m_f in range(-3, 4):
        shared = blocks.jz(m_f)
        assert blocks.jz(m_f) is shared
        assert type(shared) is tuple and all(type(t) is tuple for t in shared)
        assert all(type(row) is tuple and all(type(v) is float for v in row) for t in shared for row in t)
        with pytest.raises(TypeError, match="does not support item assignment"):
            shared[0][0] = (1.0,)


def test_level_set_cache_is_bounded(demo_sets, basis0):
    angular._solve.cache_clear()
    for i in range(20):
        level_structure(scaled(demo_sets[(0, 0)], 1.0 + i / 100), basis0)
    assert angular._solve.cache_info().currsize == 16


def test_cached_sensitivities_equal_the_direct_trace(demo_sets):
    angular._solve.cache_clear()
    for coeffs in demo_sets.values():
        basis = ProductBasis(coeffs.n_rot)
        uncached = angular._LevelSet(coeffs)
        ops = [term_operator(k, basis) for k in angular.COEFF_INDICES]
        for lv in eigenlevels(build_hfs(coeffs, basis), basis):
            got = sensitivities(coeffs, basis, lv.label)
            assert {k: repr(g) for k, g in got.items()} == {k: repr(g) for k, g in uncached.sensitivities(lv.label).items()}
            dense = [float(np.trace(lv.vectors.T @ op @ lv.vectors)) / lv.degeneracy for op in ops]
            assert np.allclose(list(got.values()), dense, rtol=0, atol=1e-12)


def test_sensitivities_fd_bypasses_the_cache(demo_sets, basis1):
    angular._solve.cache_clear()
    coeffs = demo_sets[(1, 1)]
    sensitivities(coeffs, basis1, (1, 2, 3))
    before = angular._solve.cache_info()
    sensitivities_fd(coeffs, basis1, (1, 2, 3), ks=(1, 4))
    after = angular._solve.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses) == (1, 1)


@pytest.mark.parametrize("n_rot", range(6))
def test_m_values_are_the_embedded_jz_diagonal(n_rot):
    # J_z of each slot between the coupled states of each m_F (`_Blocks.jz`, which weights each amplitude by the
    # m of its slot) is C^T J_z C of the dense embedded J_z, whose diagonal holds those m, to a few ulps
    basis, blocks = ProductBasis(n_rot), angular._blocks(n_rot)
    u, (_, _, _, m_f) = coupled_basis(blocks)
    for m in range(-(n_rot + 2), n_rot + 3):
        c = u[:, m_f == m]
        for slot, table in zip(angular.SLOT_NAMES, blocks.jz(m), strict=True):
            t = np.array(table)
            assert np.array_equal(t, t.T)
            assert np.max(np.abs(t - c.T @ triple(basis, slot)[0] @ c)) <= 8 * math.ulp(max(1.0, n_rot))


# ---------------------------------------------------------------------------
# spin-theory uncertainty model


def synthetic_table(gamma_lower, gamma_upper, lower_values=None, upper_values=None,
                    lower_eps=None, upper_eps=None):
    lower = HyperfineCoefficients(
        v=0, n_rot=0, values=lower_values or {4: 1.0, 5: 1.0}, eps_overrides=lower_eps or {}
    )
    upper = HyperfineCoefficients(
        v=1,
        n_rot=1,
        values=upper_values or {k: 1.0 for k in angular.COEFF_INDICES},
        eps_overrides=upper_eps or {},
    )
    rows = {
        "t": TransitionSensitivities(
            "t",
            {k: gamma_lower.get(k, 0.0) for k in angular.COEFF_INDICES},
            {k: gamma_upper.get(k, 0.0) for k in angular.COEFF_INDICES},
        )
    }
    return SensitivityTable(lower, upper, rows)


def test_spin_uncertainty_single_spin_rotation_term():
    table = synthetic_table({}, {1: 1.0})
    assert spin_uncertainty("t", table) == pytest.approx(0.05, abs=1e-15)


def test_spin_uncertainty_contact_terms_both_levels():
    table = synthetic_table({4: 1.0}, {4: 1.0}, lower_values={4: 2.0e5, 5: 0.0})
    # upper contributes eps_F * |gamma' E'| = 1e-6 * 1, lower 1e-6 * 2e5
    params = SpinUncertaintyParams()
    u = spin_uncertainty("t", table, params)
    assert u == pytest.approx(1e-6 * 1.0 + 1e-6 * 2.0e5, rel=1e-12, abs=0)


def test_spin_uncertainty_breit_pauli_scale():
    table = synthetic_table({}, {6: 0.5}, upper_values={**{k: 0.0 for k in angular.COEFF_INDICES}, 6: 100.0})
    alpha2 = 0.0072973525693 ** 2
    assert spin_uncertainty("t", table) == pytest.approx(alpha2 * 0.5 * 100.0, rel=1e-12, abs=0)


def test_eps_override_replaces_u1_prime():
    table = synthetic_table({}, {1: 1.0}, upper_values={**{k: 1.0 for k in angular.COEFF_INDICES}, 1: 200.0},
                            upper_eps={1: 1e-4})
    assert spin_uncertainty("t", table) == pytest.approx(1e-4 * 200.0, rel=1e-12, abs=0)


def test_spin_uncertainty_missing_row(demo_table):
    with pytest.raises(KeyError):
        spin_uncertainty("nope", demo_table)


def test_params_validation():
    with pytest.raises(ValueError):
        SpinUncertaintyParams(eps_fermi=0.0)


def test_equal_params_share_one_spin_scales_entry(demo_table):
    first = demo_table.spin_scales(SpinUncertaintyParams(u1_prime=0.07))
    assert SpinUncertaintyParams(u1_prime=0.07) == SpinUncertaintyParams(u1_prime=0.07)
    assert demo_table.spin_scales(SpinUncertaintyParams(u1_prime=0.07)) is first
    assert demo_table.spin_scales(SpinUncertaintyParams(u1_prime=0.08)) is not first


@given(u1=st.floats(min_value=1e-3, max_value=10.0))
def test_spin_uncertainty_scales_with_u1(u1):
    table = synthetic_table({}, {1: -2.0})
    params = SpinUncertaintyParams(u1_prime=u1)
    assert spin_uncertainty("t", table, params) == pytest.approx(2.0 * u1, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# coefficient file parsing


def test_read_demo_coefficient_file():
    sets = bundled.load_demo_coefficients()
    assert set(sets) == {(0, 0), (1, 1)}
    assert sets[(0, 0)].coefficient(4) == 925000.0
    assert sets[(1, 1)].coefficient(9) == 0.55


def test_coefficient_file_errors(tmp_path):
    bad_key = tmp_path / "bad_key.conf"
    bad_key.write_text("[v=0,N=0]\nE4 = 1.0\nE5 = 2.0\nE99 = 3.0\n")
    with pytest.raises(ValueError):
        read_coefficient_file(bad_key)

    dup = tmp_path / "dup.conf"
    dup.write_text("[v=0,N=0]\nE4 = 1.0\nE4 = 2.0\nE5 = 3.0\n")
    with pytest.raises(ValueError):
        read_coefficient_file(dup)

    missing = tmp_path / "missing.conf"
    missing.write_text("[v=1,N=1]\nE1 = 1.0\nE4 = 2.0\nE5 = 3.0\n")
    with pytest.raises(ValueError):
        read_coefficient_file(missing)

    stray = tmp_path / "stray.conf"
    stray.write_text("E4 = 1.0\n")
    with pytest.raises(ValueError):
        read_coefficient_file(stray)


@pytest.mark.parametrize(
    "line, msg",
    [
        ("E5 = inf", "E5 must be finite"),
        ("E5 = nan", "E5 must be finite"),
        ("eps_E4 = 0", "eps_E4 must be finite and positive"),
        ("eps_E4 = -1e-6", "eps_E4 must be finite and positive"),
        ("eps_E4 = nan", "eps_E4 must be finite and positive"),
        ("eps_E4 = inf", "eps_E4 must be finite and positive"),
    ],
)
def test_coefficient_file_rejects_non_finite_values(tmp_path, line, msg):
    path = tmp_path / "c.conf"
    path.write_text(f"[v=0,N=0]\n{line}\nE4 = 1.0\nE5 = 2.0\n")
    with pytest.raises(ValueError, match=f"c.conf:2: {msg}"):
        read_coefficient_file(path)


@pytest.mark.parametrize("values, eps", [({4: math.inf, 5: 1.0}, {}), ({4: 1.0, 5: math.nan}, {}), ({4: 1.0, 5: 1.0}, {4: math.nan})])
def test_coefficients_must_be_finite(values, eps):
    with pytest.raises(ValueError):
        HyperfineCoefficients(0, 0, values, eps)


def test_template_parses_to_empty(tmp_path):
    text = bundled.data_path("hfs_coefficients_template.conf").read_text(encoding="utf-8")
    path = tmp_path / "template.conf"
    path.write_text(text)
    assert read_coefficient_file(path) == {}


def test_transition_table_rows(demo_table):
    assert set(demo_table.rows) == {"12", "16"}
    row = demo_table.row("16")
    assert set(row.lower) == set(angular.COEFF_INDICES)
    assert set(row.upper) == set(angular.COEFF_INDICES)


# ---------------------------------------------------------------------------
# degenerate sets: coincident levels inside one F block stay unlabelled


def zero_coeffs(n_rot):
    keys = angular.CONTACT_COEFFS if n_rot == 0 else angular.COEFF_INDICES
    return HyperfineCoefficients(v=0, n_rot=n_rot, values=dict.fromkeys(keys, 0.0))


def test_zero_hamiltonian_at_n0_labels_only_the_one_state_blocks():
    levels = level_structure(zero_coeffs(0), ProductBasis(0))
    # F = 0 and F = 2 hold one coupled state at m_F = F each, F = 1 holds two
    assert [(lv.f, lv.degeneracy, lv.label) for lv in levels] == [
        (0, 1, (1, 0, 0)),
        (1, 3, None),
        (1, 3, None),
        (2, 5, (1, 2, 2)),
    ]
    assert all(lv.energy == 0.0 for lv in levels)
    assert all(lv.g1 is None and lv.g2 is None for lv in levels if lv.label is None)


def test_zero_hamiltonian_at_n1_never_guesses_a_g_label():
    levels = level_structure(zero_coeffs(1), ProductBasis(1))
    assert [(lv.f, lv.label) for lv in levels] == [
        (0, None), (0, None),
        (1, None), (1, None), (1, None), (1, None),
        (2, None), (2, None), (2, None),
        (3, (1, 2, 3)),
    ]
    assert all(lv.degeneracy == 2 * lv.f + 1 for lv in levels)


def test_levels_that_coincide_only_up_to_roundoff_stay_unlabelled():
    # with E4 alone every G1 = 1 state sits at E4/4, so inside one F block
    # the G1 = 1 levels coincide but for roundoff in the projected H
    values = {**dict.fromkeys(angular.COEFF_INDICES, 0.0), 4: 925000.0}
    levels = level_structure(HyperfineCoefficients(1, 1, values), ProductBasis(1))
    assert sorted((lv.f, lv.label or ()) for lv in levels) == [
        (0, (0, 1, 0)), (0, (1, 1, 0)),
        (1, ()), (1, ()), (1, ()), (1, (0, 1, 1)),
        (2, ()), (2, ()), (2, (0, 1, 2)),
        (3, (1, 2, 3)),
    ]
    for lv in levels:
        assert lv.energy == pytest.approx(-0.75 * 925000.0 if lv.g1 == 0 else 0.25 * 925000.0, abs=1e-8)


def test_contact_only_levels_of_different_f_are_labelled_per_f(demo_sets):
    e4, e5 = demo_sets[(0, 0)].coefficient(4), demo_sets[(0, 0)].coefficient(5)
    values = {**dict.fromkeys(angular.COEFF_INDICES, 0.0), 4: e4, 5: e5}
    levels = level_structure(HyperfineCoefficients(1, 1, values), ProductBasis(1))
    assert sorted(lv.label for lv in levels) == [
        (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3),
    ]
    # without rotational terms each (G1, G2) energy is that of N = 0; ties go by F
    n0 = {lv.label[:2]: lv.energy for lv in level_structure(demo_sets[(0, 0)], ProductBasis(0))}
    for lv in levels:
        assert lv.energy == pytest.approx(n0[lv.label[:2]], abs=1e-8)
    assert [lv.label for lv in levels] == sorted(
        (lv.label for lv in levels), key=lambda label: (n0[label[:2]], label[2])
    )


def test_basis_is_optional_and_checked_when_given(demo_sets):
    coeffs = demo_sets[(1, 1)]
    levels = level_structure(coeffs)
    assert [(lv.label, lv.energy) for lv in levels] == [
        (lv.label, lv.energy) for lv in level_structure(coeffs, ProductBasis(1))
    ]
    for lv in levels:
        assert sensitivities(coeffs, label=lv.label) == sensitivities(coeffs, ProductBasis(1), lv.label)
    wrong = ProductBasis(0)
    for call in (
        lambda: level_structure(coeffs, wrong),
        lambda: sensitivities(coeffs, wrong, levels[0].label),
    ):
        with pytest.raises(ValueError, match="coefficient set is for N=1, basis has N=0"):
            call()
    with pytest.raises(TypeError, match="label"):
        sensitivities(coeffs)


def test_zeeman_map_refuses_coincident_levels(demo_sets):
    with pytest.raises(ValueError, match="coincide"):
        zeeman_map(zero_coeffs(1), ZeemanCouplings())
    values = {**dict.fromkeys(angular.COEFF_INDICES, 0.0), 4: 925000.0, 5: 142000.0}
    with pytest.raises(ValueError, match="coincide"):
        zeeman_map(HyperfineCoefficients(1, 1, values), ZeemanCouplings())


# ---------------------------------------------------------------------------
# the F-block solve against the dense Hamiltonian, N = 0..5

DEMO = bundled.load_demo_coefficients()


@st.composite
def coefficient_sets(draw):
    """Random sets that keep the hyperfine hierarchy the (G1, G2) labels need.

    Each demo coefficient moves by up to 10 % and the whole set by a
    random sign and a scale from 1e-12 to 1e12, log-uniform; the
    degenerate kinds are contact-only sets (levels of different F
    coincide) and all-zero sets (levels of one F coincide).
    """
    n_rot = draw(st.integers(0, 5))
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    kind = draw(st.sampled_from(["perturbed", "contact-only", "zero"]))
    scale = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, 12.0))
    values = {}
    for k, e in base.values.items():
        keep = kind == "perturbed" or (kind == "contact-only" and k in angular.CONTACT_COEFFS)
        values[k] = scale * e * draw(st.floats(0.9, 1.1)) if keep else 0.0
    return HyperfineCoefficients(v=1, n_rot=n_rot, values=values)


@given(coefficient_sets())
def test_f_block_levels_match_the_dense_hamiltonian(coeffs):
    # every bound is relative to the set's own scale, so a set x 1e-12 is checked as closely as one x 1e12
    n_rot = coeffs.n_rot
    basis = ProductBasis(n_rot)
    level_set = angular._LevelSet(coeffs)
    levels = level_set.levels
    h = build_hfs(coeffs, basis)
    h_scale = float(np.max(np.abs(h)))
    weight = sum(lv.degeneracy * abs(lv.energy) for lv in levels)

    assert all(lv.degeneracy == 2 * lv.f + 1 for lv in levels)
    assert sum(2 * lv.f + 1 for lv in levels) == 12 * (2 * n_rot + 1)
    for lo, hi in zip(levels, levels[1:]):
        # ascending; levels that coincide go by F
        assert hi.energy >= lo.energy - level_set.tolerance * len(levels)
        assert hi.energy >= lo.energy or lo.f < hi.f
    assert abs(math.fsum(lv.degeneracy * lv.energy for lv in levels) - np.trace(h)) <= 1e-12 * weight
    for lv in levels:
        v = lv.vectors
        assert v.shape == (basis.dim, 2 * lv.f + 1) and not v.flags.writeable
        assert np.allclose(v.T @ v, np.eye(2 * lv.f + 1), rtol=0, atol=1e-12)
        assert np.allclose(h @ v, lv.energy * v, rtol=0, atol=1e-12 * h_scale)
        if lv.label is not None:
            gamma = sensitivities(coeffs, basis, lv.label)
            terms = [gamma[k] * coeffs.coefficient(k) for k in angular.COEFF_INDICES]
            assert abs(lv.energy - math.fsum(terms)) <= 1e-12 * sum(map(abs, terms))
    if level_set.distinct:
        # the dense oracle groups and labels the levels on its own, within a bound relative to max |H|
        dense = eigenlevels(h, basis)
        assert [(lv.label, lv.degeneracy) for lv in levels] == [(lv.label, lv.degeneracy) for lv in dense]
        assert all(abs(a.energy - b.energy) <= 1e-12 * h_scale for a, b in zip(levels, dense))


# the Python-float solve against numpy's eigh on the same blocks: over 3000 seeded sets of the kinds below
# (N = 0..5, scales 1e-12..1e12, contact-only and all-zero sets) the energies agreed within 0.8 of these ulps
# and the gamma_k within 1.6e-14
ENERGY_ULPS = 8
GAMMA_ABS = 1e-12


def assert_solve_matches_reference(coeffs, scale=1.0):
    """The levels of `coeffs` x `scale` are those of the eigh reference on `coeffs`, times `scale`.

    F, degeneracy and label of every level exactly, or the same tie as a
    ClassificationError; each energy within ENERGY_ULPS ulps of the set's
    bound on H, and gamma_k within GAMMA_ABS.
    """
    program = scaled(coeffs, scale) if scale != 1.0 else coeffs
    try:
        reference = reference_levels(coeffs)
    except ClassificationError as exc:
        with pytest.raises(ClassificationError) as raised:
            angular._LevelSet(program)
        assert str(raised.value).split("(")[0] == str(exc).split("(")[0]  # the same tie; its <G^2> may differ in roundoff
        return
    level_set = angular._LevelSet(program)
    assert [(lv.f, lv.degeneracy, lv.label) for lv in level_set.levels] == [
        (lv.f, lv.degeneracy, lv.label) for lv in reference
    ]
    for lv, ref in zip(level_set.levels, reference):
        assert abs(lv.energy - scale * ref.energy) <= ENERGY_ULPS * ulps(level_set)
        if lv.label is not None:
            assert max(abs(g - r) for g, r in zip(lv.gammas, ref.gammas)) <= GAMMA_ABS


@given(n_rot=st.integers(0, 5), z=st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=9))
def test_level_solve_matches_an_eigh_on_every_f_block(n_rot, z):
    # spin-mc-style draws: each demo coefficient moves by 1 % times a standard-normal-sized factor
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    assert_solve_matches_reference(
        HyperfineCoefficients(1, n_rot, {k: e * (1.0 + 0.01 * z[k - 1]) for k, e in base.values.items()})
    )


@given(coefficient_sets())
def test_level_solve_of_wide_and_degenerate_sets_matches_an_eigh_on_every_f_block(coeffs):
    # coincident levels (contact-only and all-zero sets) included
    assert_solve_matches_reference(coeffs)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [2.0 ** -30, 2.0 ** 30, 1e302])
def test_scaled_sets_match_the_eigh_of_the_unscaled_set(seed, scale):
    # the demo sets and all-zero sets, N = 0..5, x 2^-30, 2^30 and 1e302 (the last solved at a power of two below
    # its scale and scaled back): the levels of the unscaled reference, every energy scaled
    rng = np.random.default_rng(seed)
    for n_rot in range(6):
        base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
        moved = HyperfineCoefficients(1, n_rot, {k: e * rng.uniform(0.9, 1.1) for k, e in base.values.items()})
        for coeffs in (moved, zero_coeffs(n_rot)):
            assert_solve_matches_reference(coeffs, scale)


def random_blocks(rng):
    """Symmetric matrices of 1 x 1 to 4 x 4: random, exactly diagonal, all-zero, and with repeated eigenvalues."""
    for n in range(1, 5):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = rng.standard_normal((n, n))
        yield a + a.T
        yield np.diag(rng.standard_normal(n))
        yield np.zeros((n, n))
        for values in ([1.0] * n, [2.0, 2.0, -1.0, -1.0][:n], [3.0, -1.0, 3.0, 3.0][:n]):
            h = q @ np.diag(values) @ q.T
            yield 0.5 * (h + h.T)


@pytest.mark.parametrize("seed", range(8))
def test_python_float_block_solve_matches_numpy_eigh(seed):
    # `angular._eigen` against eigh on the same block, at the block's scale and x 2^-30, 2^30 and 1e302, and without
    # its vectors against itself
    eps = np.finfo(float).eps
    for h in random_blocks(np.random.default_rng(seed)):
        n = len(h)
        evals, x = angular._eigen(h.tolist())
        assert all(type(e) is float for e in evals) and len(x) == n and all(len(v) == n for v in x)
        assert angular._eigen(h.tolist(), vectors=False) == (evals, None)  # the rotations read only the matrix
        want = np.linalg.eigvalsh(h)
        norm = max(float(np.max(np.abs(h))), 1e-300)
        assert evals == sorted(evals)
        assert np.max(np.abs(np.array(evals) - want), initial=0.0) <= 8 * n * eps * norm
        v = np.array(x).T
        assert np.allclose(v.T @ v, np.eye(n), rtol=0, atol=8 * n * eps)
        assert np.max(np.abs(h @ v - v * evals), initial=0.0) <= 8 * n * eps * norm
        if not np.any(h - np.diag(np.diag(h))):  # exactly diagonal (a 1 x 1 or all-zero block among them): no rotation
            assert evals == sorted(np.diag(h).tolist())
            assert set(v.ravel().tolist()) <= {0.0, 1.0}  # the unit vectors, each once
            assert np.array_equal(v.sum(axis=0), np.ones(n)) and np.array_equal(v.sum(axis=1), np.ones(n))
        for s in (2.0 ** -30, 2.0 ** 30):  # a power of two scales the eigenvalues exactly and keeps the eigenvectors
            assert angular._eigen((s * h).tolist()) == ([s * e for e in evals], x)
            assert angular._eigen((s * h).tolist(), vectors=False) == ([s * e for e in evals], None)
        big, want_big = angular._eigen((1e302 * h).tolist())[0], np.linalg.eigvalsh(1e302 * h)
        assert angular._eigen((1e302 * h).tolist(), vectors=False) == (big, None)
        assert np.max(np.abs(np.array(big) - want_big), initial=0.0) <= 8 * n * eps * 1e302 * norm


# ---------------------------------------------------------------------------
# scale-free level sets: one tolerance of ulps of the set's own bound on H


def ulps(level_set):
    """One ulp of the bound on H that the tolerance of `level_set` counts in."""
    return level_set.tolerance / angular._ULPS


@given(coefficient_sets(), st.floats(-12.0, 12.0))
def test_scaling_every_coefficient_scales_every_energy_and_keeps_order_and_labels(coeffs, exponent):
    s = 10.0 ** exponent
    try:
        level_set = angular._LevelSet(coeffs)
    except ClassificationError:
        with pytest.raises(ClassificationError):
            angular._LevelSet(scaled(coeffs, s))
        return
    rescaled = angular._LevelSet(scaled(coeffs, s))
    assert [(lv.f, lv.label) for lv in rescaled.levels] == [(lv.f, lv.label) for lv in level_set.levels]
    assert rescaled.distinct == level_set.distinct
    for lv, lv_s in zip(level_set.levels, rescaled.levels):
        assert abs(lv_s.energy - s * lv.energy) <= 16 * s * ulps(level_set)


@given(coefficient_sets())
def test_every_energy_is_the_sum_of_gamma_k_e_k(coeffs):
    # Hellmann-Feynman on the level's own eigenvector, coincident levels included
    level_set = angular._LevelSet(coeffs)
    for lv in level_set.levels:
        gamma = list(lv.gammas)
        energy = math.fsum(g * coeffs.coefficient(k) for g, k in zip(gamma, angular.COEFF_INDICES))
        assert abs(lv.energy - energy) <= 16 * ulps(level_set)
        if lv.label is not None:
            assert gamma == list(sensitivities(coeffs, label=lv.label).values())


@given(coefficient_sets())
def test_degeneracy_weighted_energies_sum_to_zero(coeffs):
    # every T_k is traceless, so the spin-averaged energy is zero: the levels need no origin
    level_set = angular._LevelSet(coeffs)
    assert abs(math.fsum(lv.degeneracy * lv.energy for lv in level_set.levels)) <= 64 * ulps(level_set)


@pytest.mark.parametrize("e4", [9e-7, 9e5, 9e11])
def test_contact_only_n1_set_keeps_its_order_and_labels_at_any_scale(e4):
    # the levels of one (G1, G2) coincide across F and go by F at every scale; a tolerance fixed
    # in kHz would leave 9 of 10 levels unlabelled at 9e-7 and order them by roundoff at 9e11
    values = {**dict.fromkeys(angular.COEFF_INDICES, 0.0), 4: e4, 5: 0.15 * e4}
    level_set = angular._LevelSet(HyperfineCoefficients(1, 1, values))
    assert [lv.label for lv in level_set.levels] == [
        (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3),
    ]
    assert not level_set.distinct


def test_level_set_tolerance_is_ulps_of_the_bound_on_h(demo_sets):
    # 2^10 ulps of max |E_k| times h_bound: near 1e-6 kHz at the bundled scale, and above zero for the all-zero set
    for coeffs, expected in ((demo_sets[(0, 0)], 1.49e-7), (demo_sets[(1, 1)], 6.97e-7)):
        assert angular._LevelSet(coeffs).tolerance == pytest.approx(expected, rel=1e-3, abs=0)
        assert angular._LevelSet(scaled(coeffs, 2.0 ** -30)).tolerance == 2.0 ** -30 * angular._LevelSet(coeffs).tolerance
    zero = angular._LevelSet(zero_coeffs(1))
    assert zero.tolerance == angular._ULPS * math.ulp(0.0) * angular._blocks(1).h_bound > 0.0
    assert not zero.distinct


@pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 1.5, 2.0, 5.0])
def test_cached_single_momentum_matrices_equal_fresh_builds(j):
    cached = jmatrices(j)
    assert jmatrices(j) is cached
    fresh = angular._jmatrices.__wrapped__(round(2 * j))
    m = j - np.arange(cached.dim)
    for name in ("jz", "jplus", "jminus"):
        a = getattr(cached, name)
        assert a.dtype == getattr(fresh, name).dtype and a.tobytes() == getattr(fresh, name).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
        with pytest.raises(AttributeError, match="read-only"):
            setattr(cached, name, a.copy())
    with pytest.raises(AttributeError, match="read-only"):
        del cached.j
    assert np.array_equal(cached.jz, np.diag(m))
    assert np.allclose(np.diag(cached.jplus, 1), np.sqrt((j - m[1:]) * (j + m[1:] + 1)), rtol=0, atol=1e-15)


def coupled_basis(blocks):
    """Every coupled state of `blocks` (`_coupled_state`) as one orthogonal matrix over the product basis, and its
    (G1, G2, F, m_F): m_F ascending, then F by F and (G1, G2) ascending, as `_Blocks.jz` takes them."""
    basis = ProductBasis(blocks.n_rot)
    u, labels = np.zeros((basis.dim, basis.dim)), []
    for m in range(-(blocks.n_rot + 2), blocks.n_rot + 3):
        for b in blocks.f_blocks:
            for pair in b.pairs if b.f >= abs(m) else ():
                for (e, p, d, i), amp in angular._coupled_state(blocks.n_rot, *pair, b.f, m).items():
                    u[product_index(basis, 0.5 - e, 0.5 - p, 1 - d, blocks.n_rot - i), len(labels)] = amp
                labels.append((*pair, b.f, m))
    assert len(labels) == basis.dim
    return u, np.array(labels, dtype=float).T


@pytest.mark.parametrize("n_rot", range(6))
def test_coupled_states_diagonalize_the_dense_momenta(n_rot):
    # the Clebsch-Gordan states of every m_F block are orthonormal, and in them the dense F_z, F^2, G1^2 and
    # G2^2 are diag(m_F, F(F + 1), G1(G1 + 1), G2(G2 + 1)) to a few ulps; no T_k joins two different (F, m_F)
    basis = ProductBasis(n_rot)
    blocks = angular._blocks(n_rot)
    u, (g1, g2, f, m_f) = coupled_basis(blocks)
    assert np.allclose(u.T @ u, np.eye(basis.dim), rtol=0, atol=8 * math.ulp(1.0))
    for op, diagonal in (
        (basis.f_z(), m_f),
        (basis.f_squared(), f * (f + 1)),
        (casimir(combined_triple(basis, ("s_e", "I_p"))), g1 * (g1 + 1)),
        (casimir(combined_triple(basis, ("s_e", "I_p", "I_d"))), g2 * (g2 + 1)),
    ):
        assert np.max(np.abs(u.T @ op @ u - np.diag(diagonal))) <= 8 * math.ulp(np.max(np.abs(diagonal)))
    other = (f[:, None] != f[None, :]) | (m_f[:, None] != m_f[None, :])
    for k in angular.COEFF_INDICES:
        t = u.T @ term_operator(k, basis) @ u
        assert np.max(np.abs(t[other])) <= 8 * math.ulp(np.max(np.abs(t)))


@pytest.mark.parametrize("n_rot", range(6))
def test_term_operators_commute_with_f_z_and_f_plus(n_rot):
    # the symmetry the F-block solve rests on, checked once per N in place
    # of a commutator check on every Hamiltonian
    basis = ProductBasis(n_rot)
    f_z, f_plus, _ = combined_triple(basis, angular.SLOT_NAMES)
    m_f = np.rint(np.diag(f_z)).astype(int)
    other_block = m_f[:, None] != m_f[None, :]
    for k in angular.COEFF_INDICES:
        t = term_operator(k, basis)
        scale = max(float(np.max(np.abs(t))), 1.0)
        assert np.max(np.abs(t @ f_z - f_z @ t)) <= 1e-12 * scale
        assert np.max(np.abs(t @ f_plus - f_plus @ t)) <= 1e-12 * scale * np.max(f_plus)
        # T_k is block-diagonal in m_F
        assert np.max(np.abs(t[other_block]), initial=0.0) <= 1e-12 * scale


def perturbed(base, n_rot, rng, spread=0.01):
    values = {k: e * (1.0 + spread * rng.standard_normal()) for k, e in base.values.items()}
    return HyperfineCoefficients(v=1, n_rot=n_rot, values=values)


@pytest.mark.parametrize("n_rot", range(6))
def test_f_block_solve_agrees_with_the_dense_oracle(n_rot):
    rng = np.random.default_rng(7 + n_rot)
    basis = ProductBasis(n_rot)
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    worst = 0.0
    for _ in range(100):
        coeffs = perturbed(base, n_rot, rng)
        dense = eigenlevels(build_hfs(coeffs, basis), basis)
        levels = angular._LevelSet(coeffs).levels
        assert [(lv.label, lv.degeneracy) for lv in levels] == [(lv.label, lv.degeneracy) for lv in dense]
        worst = max(worst, max(abs(a.energy - b.energy) for a, b in zip(levels, dense)))
    assert worst <= 1e-8


@pytest.mark.parametrize("n_rot", range(6))
def test_m_states_are_the_field_free_eigenstates_of_each_m_block(n_rot):
    # the state with projection m_F of each level with F >= |m_F| (its column of `vectors`), in level order:
    # orthonormal, H u = E u on the m_F block, and between these states the Zeeman operator W that `zeeman`
    # forms from the J_z tables and the F-block eigenvectors is u^T H_Z u of the dense H_Z, and each slot's
    # <J_z> the diagonal of u^T J_z u, to a few ulps
    rng = np.random.default_rng(53 + n_rot)
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    basis = ProductBasis(n_rot)
    m_of_state = np.rint(np.diag(basis.f_z())).astype(int)
    cpl = ZeemanCouplings()
    h_z = build_zeeman(cpl, basis, 1.0)
    for coeffs in [perturbed(base, n_rot, rng) for _ in range(5)]:
        levels = level_structure(coeffs)
        dense = build_hfs(coeffs, basis)
        for m_f in range(-(n_rot + 2), n_rot + 3):
            members = [lv for lv in levels if lv.f >= abs(m_f)]
            states = np.column_stack([lv.vectors[:, lv.f - m_f] for lv in members])
            index = np.flatnonzero(m_of_state == m_f)
            assert not np.any(np.delete(states, index, axis=0))
            states = states[index]
            h = dense[np.ix_(index, index)]
            energies = np.array([lv.energy for lv in members])
            assert np.allclose(states.T @ states, np.eye(len(energies)), rtol=0, atol=1e-12)
            scale = max(1.0, float(np.max(np.abs(energies))))
            assert np.allclose(h @ states, states * energies, rtol=0, atol=1e-12 * scale)
            columns = [angular._zeeman_row(lv, members, m_f, cpl.per_slot) for lv in members]
            w = np.array([column for _, column in columns]).T
            assert np.max(np.abs(w - states.T @ h_z[np.ix_(index, index)] @ states)) <= 8 * math.ulp(cpl.c_e)
            for slot, jz in zip(angular.SLOT_NAMES, zip(*(diagonal for diagonal, _ in columns)), strict=True):
                z = triple(basis, slot)[0][np.ix_(index, index)]
                assert np.max(np.abs(np.array(jz) - np.diag(states.T @ z @ states))) <= 8 * math.ulp(max(1.0, n_rot))


@pytest.mark.parametrize("n_rot", range(6))
def test_vectors_are_the_f_block_eigenvectors_over_the_coupled_states(n_rot):
    # each column of `vectors` is sum_a x_a |G1_a G2_a F m_F>, summed per product state; the dense product
    # C x of the coupled states with the eigenvector, by which the product-basis states were formed before,
    # agrees within a few ulps
    rng = np.random.default_rng(97 + n_rot)
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    blocks = angular._blocks(n_rot)
    u, labels = coupled_basis(blocks)
    column_of = {tuple(map(int, label)): c for c, label in enumerate(labels.T)}
    for coeffs in [perturbed(base, n_rot, rng) for _ in range(5)]:
        for lv in level_structure(coeffs):
            block, x = lv.block, lv.eigenvector
            assert lv.vectors.shape == (ProductBasis(n_rot).dim, lv.degeneracy)
            for c, m in enumerate(range(lv.f, -lv.f - 1, -1)):
                want = u[:, [column_of[(*pair, lv.f, m)] for pair in block.pairs]] @ np.array(x)
                assert np.max(np.abs(lv.vectors[:, c] - want)) <= 4 * math.ulp(1.0)
