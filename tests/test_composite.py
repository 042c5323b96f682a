"""Weighted combination of the two measured hyperfine components."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdspec import bundled
from hdspec.angular import (
    COEFF_INDICES,
    HyperfineCoefficients,
    SensitivityTable,
    SpinUncertaintyParams,
    TransitionSensitivities,
    spin_uncertainty,
    transition_table,
)
from hdspec.composite import (
    CompositeInput,
    composite_frequency,
    composite_spin_uncertainty,
    optimize_weight,
    splitting_comparison,
)
from hdspec.quantity import Quantity


def two_line_table(g12_lower, g12_upper, g16_lower, g16_upper):
    lower = HyperfineCoefficients(0, 0, {4: 9.25e5, 5: 1.42e5})
    upper = HyperfineCoefficients(1, 1, {k: 1.0e3 for k in COEFF_INDICES})
    full = lambda g: {k: g.get(k, 0.0) for k in COEFF_INDICES}
    return SensitivityTable(
        lower,
        upper,
        {
            "12": TransitionSensitivities("12", full(g12_lower), full(g12_upper)),
            "16": TransitionSensitivities("16", full(g16_lower), full(g16_upper)),
        },
    )


@pytest.fixture(scope="module")
def measured():
    return bundled.load_measured_lines()


@pytest.fixture(scope="module")
def bundled_input(measured):
    return CompositeInput(
        f12=measured["12"]["f_exp"],
        f16=measured["16"]["f_exp"],
        fspin12=measured["12"]["f_spin"],
        fspin16=measured["16"]["f_spin"],
    )


def test_composite_is_affine_with_reference_anchors(bundled_input):
    at0 = composite_frequency(bundled_input, 0.0)
    at1 = composite_frequency(bundled_input, 1.0)
    mid = composite_frequency(bundled_input, 0.5)
    assert at1.value == pytest.approx(58605052164.13, abs=5e-3)
    assert at0.value == pytest.approx(58605052164.38, abs=5e-3)
    assert mid.value == pytest.approx(58605052164.255, abs=5e-3)
    assert mid.value == pytest.approx(0.5 * (at0.value + at1.value), abs=1e-9)


def test_composite_experimental_budget_is_quadrature(bundled_input):
    q = composite_frequency(bundled_input, 0.5)
    u12 = bundled_input.f12.component("exp")
    u16 = bundled_input.f16.component("exp")
    assert q.component("exp") == pytest.approx(math.hypot(0.5 * u12, 0.5 * u16), rel=1e-12, abs=0)
    assert q.component("exp") == pytest.approx(0.16101, abs=1e-4)


def test_tableless_spin_budget_is_weighted_absolute_sum(bundled_input):
    q = composite_frequency(bundled_input, 0.5)
    assert q.component("theor_spin") == 0.5 * 0.8 + 0.5 * 0.9


def test_endpoints_reduce_to_single_line_uncertainty(demo_table):
    params = SpinUncertaintyParams()
    assert composite_spin_uncertainty(demo_table, params, 1.0) == spin_uncertainty("12", demo_table, params)
    assert composite_spin_uncertainty(demo_table, params, 0.0) == spin_uncertainty("16", demo_table, params)


@settings(max_examples=30)
@given(
    gammas=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
    b1=st.floats(0.0, 1.0),
    b2=st.floats(0.0, 1.0),
)
def test_composite_uncertainty_is_convex_in_weight(gammas, b1, b2):
    g = gammas
    table = two_line_table(
        {4: g[0], 5: g[1]}, {1: g[2], 4: g[3], 6: g[4]},
        {4: g[5], 5: g[6]}, {1: g[7], 4: g[3], 6: -g[4]},
    )
    params = SpinUncertaintyParams()
    u = lambda b: composite_spin_uncertainty(table, params, b)
    mid = 0.5 * (b1 + b2)
    assert u(mid) <= 0.5 * (u(b1) + u(b2)) + 1e-12


def test_constant_profile_when_rows_are_identical():
    table = two_line_table({4: 0.5}, {1: 1.0, 6: 0.3}, {4: 0.5}, {1: 1.0, 6: 0.3})
    params = SpinUncertaintyParams()
    values = [composite_spin_uncertainty(table, params, 0.01 * i) for i in range(101)]
    assert max(values) == pytest.approx(min(values), rel=1e-12, abs=0)


@given(
    z=st.lists(st.floats(-4.0, 4.0), min_size=11, max_size=11),
    overrides=st.sampled_from([{}, {1: 1e-3, 4: 2e-6}]),
)
def test_weight_profile_and_optimum_equal_one_float_call_per_b12(z, overrides):
    # spin-mc-style draws (each demo coefficient moved by 1 % times z);
    # optimize_weight evaluates grid and candidates in one array pass,
    # which must give each value bit for bit as a float call does
    demo = bundled.load_demo_coefficients()
    moved = lambda c, zs, eps: HyperfineCoefficients(
        c.v, c.n_rot, {k: e * (1.0 + 0.01 * zk) for (k, e), zk in zip(sorted(c.values.items()), zs)}, eps
    )
    lower, upper = moved(demo[(0, 0)], z[:2], {}), moved(demo[(1, 1)], z[2:], overrides)
    table = transition_table(lower, upper, bundled.TRANSITION_LEVELS)
    params = SpinUncertaintyParams()
    u = lambda b: composite_spin_uncertainty(table, params, b)
    weight = optimize_weight(table, params)
    grid = [round(0.01 * i, 2) for i in range(101)]
    assert repr(weight.profile) == repr(tuple((b, u(b)) for b in grid))
    # the optimum: the first of the sorted breakpoints and endpoints with the least uncertainty
    candidates = {0.0, 1.0}
    for which in ("lower", "upper"):
        g12, g16 = getattr(table.row("12"), which), getattr(table.row("16"), which)
        candidates |= {g16[k] / (g16[k] - g12[k]) for k in g12 if g16[k] != g12[k]}
    best = min(sorted(b for b in candidates if 0.0 <= b <= 1.0), key=u)
    assert repr((weight.b_star, weight.u_star)) == repr((best, u(best)))


def test_optimize_weight_beats_grid(demo_table):
    params = SpinUncertaintyParams()
    profile = optimize_weight(demo_table, params)
    assert 0.0 <= profile.b_star <= 1.0
    grid_best = min(u for _, u in profile.profile)
    assert profile.u_star <= grid_best + 1e-12
    assert len(profile.profile) == 101


def test_optimize_weight_finds_interior_crossing():
    # gamma terms of opposite sign across the two lines cancel at a
    # b12 strictly inside (0, 1)
    table = two_line_table({}, {1: 1.0}, {}, {1: -1.0})
    profile = optimize_weight(table, SpinUncertaintyParams())
    assert profile.b_star == pytest.approx(0.5, abs=1e-9)
    assert profile.u_star == pytest.approx(0.0, abs=1e-12)


def perturbed_tables():
    """Sensitivity tables of perturbed demo levels, with and without eps overrides on the upper level."""
    demo = bundled.load_demo_coefficients()
    rng = np.random.default_rng(17)
    overrides = [{}, {1: 1e-3}, {2: 3e-5, 4: 2e-6, 9: 1e-4}, {1: 5e-4, 5: 4e-6}]
    for i in range(40):
        lower, upper = (
            HyperfineCoefficients(
                base.v, base.n_rot, {k: e * rng.uniform(0.9, 1.1) for k, e in base.values.items()},
                overrides[i % 4] if base.n_rot else {},
            )
            for base in (demo[(0, 0)], demo[(1, 1)])
        )
        yield transition_table(lower, upper, bundled.TRANSITION_LEVELS)


@pytest.mark.parametrize("params", [SpinUncertaintyParams(), SpinUncertaintyParams(3e-6, 2e-5, 0.2)])
def test_optimize_weight_equals_one_call_per_weight(params):
    # the array pass over the grid and the candidates gives, bit for bit,
    # what one float call of the error model per b12 gives
    eps1_branches = set()
    # the last two: one interior minimum, and identical rows (every b12 ties)
    ties = [two_line_table({}, {1: 1.0}, {}, {1: -1.0}), two_line_table({4: 0.5}, {1: 1.0}, {4: 0.5}, {1: 1.0})]
    for table in itertools.chain(perturbed_tables(), ties):
        eps1_branches.add(1 in table.upper_coeffs.eps_overrides)
        got = optimize_weight(table, params)
        grid = [round(0.01 * i, 2) for i in range(101)]
        assert got.profile == tuple((b, composite_spin_uncertainty(table, params, b)) for b in grid)
        assert all(type(b) is float and type(u) is float for b, u in got.profile)

        candidates = {0.0, 1.0}
        for which in ("lower", "upper"):
            g12, g16 = getattr(table.row("12"), which), getattr(table.row("16"), which)
            for k in g12:
                if g16[k] != g12[k] and 0.0 < g16[k] / (g16[k] - g12[k]) < 1.0:
                    candidates.add(g16[k] / (g16[k] - g12[k]))
        best = min(sorted(candidates), key=lambda b: composite_spin_uncertainty(table, params, b))
        assert got.b_star == best and type(got.b_star) is float
        assert got.u_star == composite_spin_uncertainty(table, params, best) and type(got.u_star) is float
    assert eps1_branches == {False, True}


@pytest.mark.parametrize(
    "params", [SpinUncertaintyParams(eps_fermi=1e-5, eps_bp=1e-3), SpinUncertaintyParams(3e-6, 2e-5, 0.2)]
)
def test_composite_takes_the_spin_terms_of_its_own_parameters(demo_table, measured, params):
    # the composite, the weight profile and the optimum read one set of terms: those of the input's parameters
    inp = CompositeInput(
        f12=measured["12"]["f_exp"],
        f16=measured["16"]["f_exp"],
        fspin12=measured["12"]["f_spin"],
        fspin16=measured["16"]["f_spin"],
        tables=demo_table,
        params=params,
    )
    weight = optimize_weight(demo_table, params)
    for b in [*(b for b, _ in weight.profile), weight.b_star]:
        assert composite_frequency(inp, b).component("theor_spin") == composite_spin_uncertainty(demo_table, params, b)
    assert composite_frequency(inp, weight.b_star).component("theor_spin") == weight.u_star


def test_composite_rejects_weight_outside_unit_interval(bundled_input):
    with pytest.raises(ValueError, match="b12"):
        composite_frequency(bundled_input, 1.2)
    with pytest.raises(ValueError, match="b12"):
        composite_frequency(bundled_input, -0.1)


def test_input_requires_both_rows():
    table = two_line_table({}, {1: 1.0}, {}, {1: -1.0})
    only12 = SensitivityTable(
        table.lower_coeffs, table.upper_coeffs, {"12": table.rows["12"]}
    )
    with pytest.raises(ValueError, match="16"):
        CompositeInput(
            f12=Quantity(1.0, "kHz", {"exp": 0.1}),
            f16=Quantity(2.0, "kHz", {"exp": 0.1}),
            fspin12=Quantity(0.0, "kHz", {"theor_spin": 0.1}),
            fspin16=Quantity(0.0, "kHz", {"theor_spin": 0.1}),
            tables=only12,
        )


def test_splitting_comparison_matches_reference(measured):
    cmp_ = splitting_comparison(
        measured["12"]["f_exp"],
        measured["16"]["f_exp"],
        measured["splitting_theory_khz"],
    )
    assert cmp_.difference_exp.value == pytest.approx(41294.05, abs=5e-3)
    assert cmp_.difference_exp.component("exp") == pytest.approx(0.32195, abs=1e-4)
    assert cmp_.agreement_sigma == pytest.approx(0.4402, abs=2e-3)
    assert cmp_.agreement_sigma < 1.0


def test_splitting_comparison_takes_uncertainties_whose_square_overflows():
    f12 = Quantity(100.0, "kHz", {"exp": 1e200})
    f16 = Quantity(300.0, "kHz", {"exp": 1e200})
    cmp_ = splitting_comparison(f12, f16, (200.0, 1e200))
    assert cmp_.agreement_sigma == 0.0
    cmp_ = splitting_comparison(f12, f16, (-1e200, 1e200))
    assert cmp_.agreement_sigma == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15, abs=0)


def test_splitting_report_is_json_ready(measured):
    import json

    cmp_ = splitting_comparison(
        measured["12"]["f_exp"],
        measured["16"]["f_exp"],
        measured["splitting_theory_khz"],
    )
    payload = cmp_.report()
    json.dumps(payload)
    assert payload["agreement_sigma"] == cmp_.agreement_sigma
