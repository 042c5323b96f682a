"""Angular-momentum algebra, level classification, and sensitivities."""

import math

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
    find_level,
    jmatrices,
    level_structure,
    quadrupole_coupling,
    read_coefficient_file,
    sensitivities,
    sensitivities_fd,
    spin_frequency,
    spin_uncertainty,
    term_operator,
    transition_table,
)
from hdspec.zeeman import ZeemanCouplings, transition_coeffs, zeeman_map

from dense_oracle import eigenlevels, round_to_j
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
                    seen.add(basis1.index(m_se, m_sp, m_sd, m_n))
    assert seen == set(range(36))


def test_index_rejects_invalid_m(basis0):
    with pytest.raises(ValueError):
        basis0.index(1.5, 0.5, 1.0, 0.0)


def test_embedded_slots_commute(basis1):
    se, ip = basis1.triple("s_e"), basis1.triple("I_p")
    for a in se:
        for b in ip:
            assert np.allclose(a @ b - b @ a, 0.0, atol=1e-12)


def test_f_squared_commutes_with_f_z(basis1):
    f2, fz = basis1.f_squared(), basis1.f_z()
    assert np.allclose(f2 @ fz - fz @ f2, 0.0, atol=1e-10)


def test_dot_is_symmetric_matrix(basis1):
    op = dot(basis1.triple("I_p"), basis1.triple("s_e"))
    assert np.array_equal(op, op.T)


@pytest.mark.parametrize("k", angular.COEFF_INDICES)
def test_term_operators_symmetric_traceless(basis1, k):
    op = term_operator(k, basis1)
    assert np.array_equal(op, op.T)
    assert abs(np.trace(op)) < 1e-9


def test_quadrupole_traceless_n0_and_n1(basis0, basis1):
    # every N operator vanishes at N = 0, so Q is identically zero there
    assert np.allclose(quadrupole_coupling(basis0), 0.0, atol=1e-12)
    q = quadrupole_coupling(basis1)
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
        assert ge == pytest.approx(ee, rel=1e-9)
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


@pytest.mark.parametrize("n_rot", range(6))
def test_coupling_scheme_names_every_highest_weight_state(n_rot):
    # G1 = s_e + I_p, G2 = G1 + I_d, F = G2 + N: one (G1, G2) per level of each F
    for block in angular._blocks(n_rot).f_blocks:
        assert len(block.pairs) == block.kernel.shape[1]
        assert list(block.pairs) == sorted(set(block.pairs))


@pytest.mark.parametrize(
    "alone, raises",
    [
        ([True, False, False], True),  # the tie touches a level of its own
        ([False, True, False], True),
        ([False, False, True], False),  # the tie lies between two coincident levels
    ],
)
def test_a_tie_at_a_group_boundary_raises_only_for_a_level_of_its_own(alone, raises):
    # <G1^2> of 0.9 and 1.1 lie 0.2 apart across the G1 = 0 / 1 step of 2
    values = [0.9, 1.1, 2.0]
    if raises:
        with pytest.raises(ClassificationError, match="ambiguous G1"):
            angular._by_rank("G1", values, range(3), [0, 1, 1], alone, 1)
    else:
        assert angular._by_rank("G1", values, range(3), [0, 1, 1], alone, 1) == {0: 0, 1: 1, 2: 1}


def window_labels(coeffs):
    """(F, energy, label) of the levels of `coeffs` by the fixed-window rule, or None where it fails.

    Each level of its own takes the G1 and G2 whose j(j+1) lie within
    0.05 of <G1^2> and <G2^2>, each on its own.
    """
    blocks, e = angular._blocks(coeffs.n_rot), angular._coefficient_vector(coeffs)
    out = set()
    for block in blocks.f_blocks:
        evals, x = np.linalg.eigh(np.tensordot(e, block.terms, 1))
        for a in range(len(evals)):
            alone = all(abs(evals[a] - evals[b]) > angular.COINCIDENT_KHZ for b in range(len(evals)) if b != a)
            label = None
            if alone:
                g = [round_to_j(float(x[:, a] @ op @ x[:, a])) for op in (block.g1_sq, block.g2_sq)]
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
        levels = angular._LevelSet(coeffs).levels
        assert all(lv.label is not None for lv in levels)
        assert len({lv.label for lv in levels}) == len(levels)
        reference = window_labels(coeffs)
        if reference is None:
            window_failed += 1
        else:
            assert {(lv.f, lv.energy, lv.label) for lv in levels} == reference
    assert window_failed > 0


def test_find_level_unresolved(basis0, demo_sets):
    levels = level_structure(demo_sets[(0, 0)], basis0)
    with pytest.raises(LookupError):
        find_level(levels, (3, 3, 3))


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
    assert f == pytest.approx(-g, rel=1e-12)


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


# one eigh per F of two or more levels, of the number of levels with that F:
# N = 0 has F = 0, 1, 2 with 1, 2, 1 levels, N = 1 has F = 0, 1, 2, 3 with
# 2, 4, 3, 1; a one-level F needs no eigh
F_BLOCK_SIZES = {0: [2], 1: [2, 4, 3]}


def test_spin_mc_style_draw_solves_each_hamiltonian_once(eigh_calls, demo_sets):
    lower, upper = scaled(demo_sets[(0, 0)], 1.01), scaled(demo_sets[(1, 1)], 0.99)
    lines = bundled.TRANSITION_LEVELS
    level_structure(lower, ProductBasis(0))
    level_structure(upper, ProductBasis(1))
    transition_table(lower, upper, lines)
    for tid in ("12", "16"):
        spin_frequency((upper, lines[tid][1]), (lower, lines[tid][0]))
    for lower_mf, upper_mf in ((0, 0), (2, 3), (-2, -3)):
        transition_coeffs((lower, (1, 2, 2, lower_mf)), (upper, (1, 2, 3, upper_mf)))
    assert eigh_calls == F_BLOCK_SIZES[0] + F_BLOCK_SIZES[1]


def test_changed_coefficient_gives_fresh_solve(eigh_calls, demo_sets, basis1):
    coeffs = scaled(demo_sets[(1, 1)], 1.0)
    before = [lv.energy for lv in level_structure(coeffs, basis1)]
    # eps_overrides do not move the levels, so they share the solve
    level_structure(scaled(coeffs, 1.0, {1: 1e-3}), basis1)
    assert eigh_calls == F_BLOCK_SIZES[1]
    coeffs.values[4] *= 1.001
    after = [lv.energy for lv in level_structure(coeffs, basis1)]
    assert eigh_calls == F_BLOCK_SIZES[1] * 2
    assert after != before
    assert after == [lv.energy for lv in angular._LevelSet(coeffs).levels]
    dense = [lv.energy for lv in eigenlevels(build_hfs(coeffs, basis1), basis1)]
    assert np.allclose(after, dense, rtol=0, atol=1e-8)


def test_cached_level_set_is_read_only(demo_sets, basis1):
    coeffs = demo_sets[(1, 1)]
    levels = level_structure(coeffs, basis1)
    with pytest.raises(ValueError, match="read-only"):
        levels[0].vectors[0, 0] = 1.0
    levels.clear()  # the caller's list, not the shared one
    levels = level_structure(coeffs, basis1)
    assert len(levels) == 10
    assert all(not lv.vectors.flags.writeable for lv in levels)
    assert all(lv.vectors is level_structure(coeffs, basis1)[i].vectors for i, lv in enumerate(levels))
    # the per-N data every set of this N shares
    blocks = angular._blocks(1)
    shared = [*blocks.index.values(), *blocks.slot_m.values(), *blocks.lowering.values()]
    for fb in blocks.f_blocks:
        shared += [fb.kernel, fb.terms, fb.flat_terms, fb.g1_sq, fb.g2_sq, fb.ops, *([] if fb.unit is None else [fb.unit])]
    assert all(not a.flags.writeable for a in shared)
    with pytest.raises(ValueError, match="read-only"):
        blocks.f_blocks[0].terms[0, 0, 0] = 1.0


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


@pytest.mark.parametrize("n_rot", [0, 1, 3])
def test_m_values_are_the_embedded_jz_diagonal(n_rot):
    basis = ProductBasis(n_rot)
    for slot in angular.SLOT_NAMES:
        assert np.array_equal(basis.m_values(slot), np.diag(basis.triple(slot)[0]))


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
    assert sets[(0, 0)].coefficient(4) == pytest.approx(925000.0)
    assert sets[(1, 1)].coefficient(9) == pytest.approx(0.55)


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
    # F = 0 and F = 2 hold one highest-weight state each, F = 1 holds two
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
    random scale and sign; the degenerate kinds are contact-only sets
    (levels of different F coincide) and all-zero sets (levels of one F
    coincide).
    """
    n_rot = draw(st.integers(0, 5))
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    kind = draw(st.sampled_from(["perturbed", "contact-only", "zero"]))
    scale = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 1e3))
    values = {}
    for k, e in base.values.items():
        keep = kind == "perturbed" or (kind == "contact-only" and k in angular.CONTACT_COEFFS)
        values[k] = scale * e * draw(st.floats(0.9, 1.1)) if keep else 0.0
    return HyperfineCoefficients(v=1, n_rot=n_rot, values=values)


@given(coefficient_sets())
def test_f_block_levels_match_the_dense_hamiltonian(coeffs):
    n_rot = coeffs.n_rot
    basis = ProductBasis(n_rot)
    levels = angular._LevelSet(coeffs).levels
    h = build_hfs(coeffs, basis)
    h_scale = max(float(np.max(np.abs(h))), 1.0)
    weight = sum(lv.degeneracy * abs(lv.energy) for lv in levels)

    assert all(lv.degeneracy == 2 * lv.f + 1 for lv in levels)
    assert sum(2 * lv.f + 1 for lv in levels) == 12 * (2 * n_rot + 1)
    for lo, hi in zip(levels, levels[1:]):
        # ascending; levels that coincide go by F
        assert hi.energy >= lo.energy - angular.COINCIDENT_KHZ * len(levels)
        assert hi.energy >= lo.energy or lo.f < hi.f
    assert sum(lv.degeneracy * lv.energy for lv in levels) == pytest.approx(np.trace(h), abs=1e-12 * weight + 1e-9)
    for lv in levels:
        v = lv.vectors
        assert v.shape == (basis.dim, 2 * lv.f + 1) and not v.flags.writeable
        assert np.allclose(v.T @ v, np.eye(2 * lv.f + 1), rtol=0, atol=1e-12)
        assert np.allclose(h @ v, lv.energy * v, rtol=0, atol=1e-12 * h_scale)
        if lv.label is not None:
            gamma = sensitivities(coeffs, basis, lv.label)
            terms = [gamma[k] * coeffs.coefficient(k) for k in angular.COEFF_INDICES]
            assert lv.energy == pytest.approx(sum(terms), abs=1e-12 * sum(map(abs, terms)) + 1e-12)


def solve_outcome(solve, coeffs):
    """The repr of (energy, degeneracy, label, gamma_1..9) of each level, or the ClassificationError raised."""
    try:
        return solve(coeffs)
    except ClassificationError as exc:
        return f"ClassificationError: {exc}"


def program_solve(coeffs):
    level_set = angular._LevelSet(coeffs)
    gammas = lambda lv: None if lv.label is None else tuple(level_set.sensitivities(lv.label).values())
    return repr([(lv.energy, lv.degeneracy, lv.label, gammas(lv)) for lv in level_set.levels])


def reference_solve(coeffs):
    levels = reference_levels(coeffs)
    return repr([(lv.energy, lv.degeneracy, lv.label, None if lv.label is None else lv.gammas) for lv in levels])


@given(n_rot=st.integers(0, 5), z=st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=9))
def test_level_solve_is_bit_for_bit_an_eigh_on_every_f_block(n_rot, z):
    # spin-mc-style draws: each demo coefficient moves by 1 % times a
    # standard-normal-sized factor; a one-level F takes no eigh, every
    # level, label and gamma_k must still be the one eigh gives
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    coeffs = HyperfineCoefficients(1, n_rot, {k: e * (1.0 + 0.01 * z[k - 1]) for k, e in base.values.items()})
    assert solve_outcome(program_solve, coeffs) == solve_outcome(reference_solve, coeffs)


@given(coefficient_sets())
def test_level_solve_of_wide_and_degenerate_sets_is_an_eigh_on_every_f_block(coeffs):
    # coincident levels (contact-only and all-zero sets) included
    assert solve_outcome(program_solve, coeffs) == solve_outcome(reference_solve, coeffs)


@given(h=st.floats(allow_nan=False, allow_infinity=False))
def test_eigh_of_a_one_by_one_matrix_is_its_entry_and_one(h):
    # what the level solve assumes of LAPACK when it skips a one-level F
    evals, x = np.linalg.eigh(np.array([[h]]))
    assert repr((evals.tolist(), x.tolist())) == repr(([h], [[1.0]]))


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
    assert np.array_equal(cached.jz, np.diag(m))
    assert np.allclose(np.diag(cached.jplus, 1), np.sqrt((j - m[1:]) * (j + m[1:] + 1)), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_rot", range(6))
def test_term_operators_commute_with_f_z_and_f_plus(n_rot):
    # the symmetry the F-block solve rests on, checked once per N in place
    # of a commutator check on every Hamiltonian
    basis = ProductBasis(n_rot)
    f_z, f_plus, _ = basis.combined_triple(angular.SLOT_NAMES)
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
    # lowered from the F-block eigenvectors, one column per level with
    # F >= |m_F| in level order: orthonormal, and H u = E u on the m_F block
    rng = np.random.default_rng(53 + n_rot)
    base = DEMO[(0, 0)] if n_rot == 0 else DEMO[(1, 1)]
    basis = ProductBasis(n_rot)
    m_of_state = np.rint(np.diag(basis.f_z())).astype(int)
    for coeffs in [perturbed(base, n_rot, rng) for _ in range(5)]:
        levels = level_structure(coeffs)
        dense = build_hfs(coeffs, basis)
        for m_f in range(-(n_rot + 2), n_rot + 3):
            states = angular.m_states(coeffs, m_f)
            index = np.flatnonzero(m_of_state == m_f)
            h = dense[np.ix_(index, index)]
            energies = np.array([lv.energy for lv in levels if lv.f >= abs(m_f)])
            assert states.shape == (len(h), len(energies))
            assert np.allclose(states.T @ states, np.eye(len(energies)), rtol=0, atol=1e-12)
            scale = max(1.0, float(np.max(np.abs(energies))))
            assert np.allclose(h @ states, states * energies, rtol=0, atol=1e-12 * scale)
