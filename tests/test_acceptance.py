"""End-to-end anchor values, one criterion per test.

Quantitative anchors (1-9) run against bundled inputs; the two
coefficient-dependent groups (10, 11) skip visibly while the
coefficient file ships as a template; the property groups (12-17) need
no external data.  Run with `pytest -v tests/test_acceptance.py` for
the one-line-per-criterion report.
"""

import json
import math

import numpy as np
import pytest

from hdspec import bundled
from hdspec.angular import (
    COEFF_INDICES,
    HyperfineCoefficients,
    ProductBasis,
    SensitivityTable,
    SpinUncertaintyParams,
    TransitionSensitivities,
    build_hfs,
    casimir,
    jmatrices,
    level_structure,
    sensitivities,
    sensitivities_fd,
    spin_frequency,
    spin_uncertainty,
    transition_table,
)
from hdspec.carrier import CarrierModel, carrier_strength, critical_wavelength, resolution
from hdspec.composite import (
    CompositeInput,
    composite_frequency,
    composite_spin_uncertainty,
    optimize_weight,
    splitting_comparison,
)
from hdspec.constants import (
    extract_mp_over_me,
    extract_mu_over_me,
    scaled_theory,
    theory_frequency,
)
from hdspec.lineshape import SpectrumPoint, fit_lorentzian
from hdspec.metrology import (
    CombParams,
    FrequencyTimeSeries,
    LaserLock,
    allan_deviation,
    dfg_frequency,
)
from hdspec.quantity import Quantity, combine_linear
from hdspec.zeeman import ZeemanCouplings, transition_coeffs

NEEDS_COEFFICIENTS = (
    "needs the evaluated hyperfine coefficient file: "
    "data/hfs_coefficients.conf ships as a template (see README, 'Data sources')"
)


@pytest.fixture(scope="module")
def lines():
    return bundled.load_measured_lines()


@pytest.fixture(scope="module")
def composite_input(lines):
    return CompositeInput(
        f12=lines["12"]["f_exp"],
        f16=lines["16"]["f_exp"],
        fspin12=lines["12"]["f_spin"],
        fspin16=lines["16"]["f_spin"],
    )


@pytest.fixture(scope="module")
def coefficient_sets():
    sets = bundled.load_coefficients()
    if sets is None:
        pytest.skip(NEEDS_COEFFICIENTS)
    return sets


def test_c01_theory_contribution_sum():
    q = theory_frequency(bundled.load_contributions("codata2018"))
    assert q.value == pytest.approx(58605052163.9, abs=0.05)


def test_c02_theory_plus_spin_shift_assembly(lines):
    theor = theory_frequency(bundled.load_contributions("codata2018")).value
    assert theor + lines["12"]["f_spin"].value == pytest.approx(58605013477.8, abs=0.1)
    assert theor + lines["16"]["f_spin"].value == pytest.approx(58605054771.6, abs=0.1)


def test_c03_composite_frequency_and_experimental_uncertainty(composite_input):
    q = composite_frequency(composite_input, 0.5)
    assert q.value == pytest.approx(58605052164.255, abs=1e-3)
    assert abs(q.value - 58605052164.24) < 0.05
    assert q.component("exp") == pytest.approx(0.16, abs=0.005)
    assert q.component("exp") == pytest.approx(math.hypot(0.19 / 2, 0.26 / 2), rel=1e-9)


def test_c04_hyperfine_splitting_agreement(lines):
    cmp_ = splitting_comparison(
        lines["12"]["f_exp"], lines["16"]["f_exp"], lines["splitting_theory_khz"]
    )
    assert cmp_.difference_exp.value == pytest.approx(41294.05, abs=0.01)
    assert cmp_.difference_exp.component("exp") == pytest.approx(0.32, abs=0.005)
    assert cmp_.agreement_sigma < 1.0


def test_c05_reduced_mass_ratio_extraction(composite_input):
    model = bundled.load_scaling_model("codata2018")
    consts = bundled.load_constants("codata2018")
    res = extract_mu_over_me(composite_frequency(composite_input, 0.5), model, consts)
    assert res.value == pytest.approx(1223.899228668, abs=1e-8)
    assert res.components["exp"] == pytest.approx(7e-9, rel=0.15)
    assert res.components["theor_QED"] == pytest.approx(20e-9, rel=0.15)
    assert res.components["theor_spin"] == pytest.approx(37e-9, rel=0.15)


def test_c06_proton_electron_mass_ratio_extraction(composite_input):
    model = bundled.load_scaling_model("codata2018")
    consts = bundled.load_constants("codata2018")
    md = Quantity(
        consts.md_over_mp.value, "dimensionless", {"CODATA": consts.md_over_mp.uncertainty}
    )
    res = extract_mp_over_me(
        composite_frequency(composite_input, 0.5), model, consts, md
    )
    assert res.value == pytest.approx(1836.152673384, abs=1.5e-8)
    assert res.components["exp"] == pytest.approx(11e-9, rel=0.15)
    assert res.components["theor_QED"] == pytest.approx(31e-9, rel=0.15)
    assert res.components["theor_spin"] == pytest.approx(55e-9, rel=0.15)


def test_c07_alternative_mass_scenario_shift():
    model = bundled.load_scaling_model("codata2018")
    mu_shifted = model.mu_p_ref * (1.0 - 5.28e-11)
    delta = scaled_theory(model, mu_shifted) - model.f_ref
    assert delta == pytest.approx(1.50, abs=0.02)


def test_c08_carrier_strength_model():
    model = CarrierModel(delta_rho=2.0)
    assert carrier_strength(critical_wavelength(2.0), model) == pytest.approx(0.5, abs=1e-14)
    s = carrier_strength(5.1, model)
    assert s == pytest.approx(0.0149, abs=5e-4)
    assert s < 0.02


def test_c09_line_resolution():
    assert resolution(58605052164.0, 0.195) >= 3.0e11


def test_c10_spin_frequencies_and_uncertainty_profile(coefficient_sets):
    lower, upper = coefficient_sets[(0, 0)], coefficient_sets[(1, 1)]
    table = transition_table(lower, upper, bundled.TRANSITION_LEVELS)
    f12 = spin_frequency(
        upper=(upper, bundled.TRANSITION_LEVELS["12"][1]),
        lower=(lower, bundled.TRANSITION_LEVELS["12"][0]),
    )
    f16 = spin_frequency(
        upper=(upper, bundled.TRANSITION_LEVELS["16"][1]),
        lower=(lower, bundled.TRANSITION_LEVELS["16"][0]),
    )
    assert f12 == pytest.approx(-38686.1, abs=0.5)
    assert f16 == pytest.approx(2607.7, abs=0.5)
    params = SpinUncertaintyParams()
    assert spin_uncertainty("12", table, params) == pytest.approx(0.8, abs=0.1)
    assert spin_uncertainty("16", table, params) == pytest.approx(0.9, abs=0.1)
    profile = optimize_weight(table, params)
    assert profile.u_star == pytest.approx(0.85, abs=0.1)
    window = [u for b, u in profile.profile if 0.2 <= b <= 0.8]
    assert max(window) / min(window) < 1.10


def test_c11_zeeman_coefficients(coefficient_sets):
    lower, upper = coefficient_sets[(0, 0)], coefficient_sets[(1, 1)]
    couplings = ZeemanCouplings()
    quad = {}
    for tid, expected in (("12", -2.9), ("16", -117.0)):
        lo, up = bundled.TRANSITION_LEVELS[tid]
        model = transition_coeffs(
            (lower, (*lo, 2)), (upper, (*up, up[2])), couplings
        )
        quad[tid] = model.quadratic
        assert model.quadratic == pytest.approx(expected, rel=0.05)
    for sign in (+1, -1):
        lo, up = bundled.TRANSITION_LEVELS["16"]
        model = transition_coeffs(
            (lower, (*lo, sign * 2)), (upper, (*up, sign * 3)), couplings
        )
        assert model.linear == pytest.approx(-sign * 0.55, rel=0.05)


def analytic_n0_spectrum(e4, e5):
    a, b, c = -0.75 * e4, 0.25 * e4 - 0.5 * e5, e5 / math.sqrt(2.0)
    mid, half = 0.5 * (a + b), math.hypot(0.5 * (a - b), c)
    return sorted(
        [
            (0.25 * e4 + 0.5 * e5, 5),
            (0.25 * e4 - e5, 1),
            (mid - half, 3),
            (mid + half, 3),
        ]
    )


def test_c12_angular_algebra_and_block_oracle():
    for j in (0.5, 1.0, 1.5, 2.0):
        m = jmatrices(j)
        assert np.allclose(m.jplus @ m.jminus - m.jminus @ m.jplus, 2.0 * m.jz, atol=1e-12)
        assert np.allclose(m.jz @ m.jplus - m.jplus @ m.jz, m.jplus, atol=1e-12)
        assert np.allclose(
            casimir((m.jz, m.jplus, m.jminus)), j * (j + 1) * np.eye(m.dim), atol=1e-12
        )

    basis0 = ProductBasis(0)
    rng = np.random.default_rng(20210611)
    for _ in range(100):
        e4, e5 = rng.uniform(-1e6, 1e6, 2)
        coeffs = HyperfineCoefficients(0, 0, {4: e4, 5: e5})
        got = np.sort(np.linalg.eigvalsh(build_hfs(coeffs, basis0)))
        want = np.sort(np.repeat(*zip(*analytic_n0_spectrum(e4, e5))))
        assert np.allclose(got, want, atol=1e-6 * max(1.0, abs(e4), abs(e5)))

    sets = bundled.load_demo_coefficients()
    levels0 = level_structure(sets[(0, 0)], basis0)
    levels1 = level_structure(sets[(1, 1)], ProductBasis(1))
    assert len(levels0) == 4
    assert sum(lv.degeneracy for lv in levels0) == 12
    assert len(levels1) == 10
    assert sum(lv.degeneracy for lv in levels1) == 36


def test_c13_sensitivities_match_finite_differences():
    sets = bundled.load_demo_coefficients()
    for coeffs, label in (
        (sets[(0, 0)], (1, 2, 2)),
        (sets[(1, 1)], (1, 2, 1)),
        (sets[(1, 1)], (1, 2, 3)),
    ):
        basis = ProductBasis(coeffs.n_rot)
        hf = sensitivities(coeffs, basis, label)
        fd = sensitivities_fd(coeffs, basis, label)
        for k in fd:
            assert fd[k] == pytest.approx(hf[k], rel=1e-6, abs=1e-9)


def lorentz(x, center, fwhm, amplitude, offset):
    h = fwhm**2 / 4.0
    return offset + amplitude * h / ((x - center) ** 2 + h)


def test_c14_lorentzian_fit_properties():
    truth = dict(center=0.37, fwhm=0.8, amplitude=0.25, offset=0.02)
    x = np.linspace(-2.0, 2.0, 21)
    points = [SpectrumPoint(float(xi), float(yi), 0.005) for xi, yi in zip(x, lorentz(x, **truth))]
    fit = fit_lorentzian(points)
    for name, want in truth.items():
        assert getattr(fit, name) == pytest.approx(want, rel=1e-9, abs=1e-9)

    rng = np.random.default_rng(7)
    xg = np.arange(-8, 9) * 0.125
    y = lorentz(xg, 0.25, 0.5, 0.3, 0.01) + rng.normal(0.0, 0.004, xg.size)
    base = fit_lorentzian([SpectrumPoint(float(a), float(b), 0.004) for a, b in zip(xg, y)])
    moved = fit_lorentzian(
        [SpectrumPoint(float(a) + 512.0, float(b), 0.004) for a, b in zip(xg, y)]
    )
    assert moved.center - base.center == pytest.approx(512.0, abs=1e-9)

    rng = np.random.default_rng(20210405)
    xs = np.linspace(-0.45, 0.55, 21)
    clean = lorentz(xs, 0.037, 0.195, 0.35, 0.02)
    centers = []
    for _ in range(500):
        noisy = clean + rng.normal(0.0, 0.005, xs.size)
        centers.append(
            fit_lorentzian(
                [SpectrumPoint(float(a), float(b), 0.005) for a, b in zip(xs, noisy)]
            ).center
        )
    centers = np.asarray(centers)
    sem = float(np.std(centers, ddof=1) / math.sqrt(len(centers)))
    assert abs(float(np.mean(centers)) - 0.037) < 4.0 * sem


def test_c15_composite_uncertainty_reduction_and_convexity():
    sets = bundled.load_demo_coefficients()
    table = transition_table(sets[(0, 0)], sets[(1, 1)], bundled.TRANSITION_LEVELS)
    params = SpinUncertaintyParams()
    assert composite_spin_uncertainty(table, params, 1.0) == pytest.approx(
        spin_uncertainty("12", table, params), rel=1e-14
    )
    assert composite_spin_uncertainty(table, params, 0.0) == pytest.approx(
        spin_uncertainty("16", table, params), rel=1e-14
    )

    rng = np.random.default_rng(4)
    lower = HyperfineCoefficients(0, 0, {4: 9.25e5, 5: 1.42e5})
    upper = HyperfineCoefficients(1, 1, {k: 1e3 for k in COEFF_INDICES})
    for _ in range(20):
        g = rng.uniform(-2.0, 2.0, (2, 2, len(COEFF_INDICES)))
        rows = {
            tid: TransitionSensitivities(
                tid,
                dict(zip(COEFF_INDICES, g[i][0])),
                dict(zip(COEFF_INDICES, g[i][1])),
            )
            for i, tid in enumerate(("12", "16"))
        }
        rand_table = SensitivityTable(lower, upper, rows)
        b1, b2 = sorted(rng.uniform(0.0, 1.0, 2))
        u = lambda b: composite_spin_uncertainty(rand_table, params, b)
        assert u(0.5 * (b1 + b2)) <= 0.5 * (u(b1) + u(b2)) + 1e-12


def test_c16_metrology_properties():
    def comb(f_ceo):
        return CombParams(
            80e6,
            f_ceo,
            (LaserLock(3521728, 20e6, +1, +1), LaserLock(2789120, -10e6, -1, +1)),
        )

    for f_ceo in (0.0, 35e6, -21.7e6, 1.2345e6):
        assert dfg_frequency(comb(f_ceo)) == dfg_frequency(comb(0.0))

    rng = np.random.default_rng(42)
    series = FrequencyTimeSeries(1.0, rng.normal(0.0, 1e-12, 10_000))
    rows = allan_deviation(series, [1.0, 2.0, 3.0, 5.0, 7.0, 10.0])
    slope = np.polyfit(
        np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1
    )[0]
    assert abs(slope - (-0.5)) < 0.05

    d = 1e-12
    drift = FrequencyTimeSeries(1.0, d * np.arange(200.0))
    for tau, adev, _, _ in allan_deviation(drift, [1.0, 2.0, 5.0, 10.0]):
        assert adev == pytest.approx(d * tau / math.sqrt(2.0), rel=1e-10, abs=0)


def test_c17_quantity_algebra():
    rng = np.random.default_rng(3)
    names = ("exp", "theor_QED", "theor_spin", "CODATA")
    for _ in range(50):
        q = Quantity(
            float(rng.normal()), "kHz", {n: float(u) for n, u in zip(names, rng.uniform(0, 2, 4))}
        )
        assert q.total_uncertainty("quadrature") <= q.total_uncertainty("absolute-sum") + 1e-12
        back = Quantity.from_json(q.to_json())
        assert back == q

    a = Quantity(1.0, "kHz", {"exp": 0.3})
    b = Quantity(2.0, "kHz", {"exp": 0.4, "theor_QED": 0.1})
    c = Quantity(-0.5, "kHz", {"theor_spin": 0.2})
    left = combine_linear([(1.0, combine_linear([(1.0, a), (1.0, b)])), (1.0, c)])
    right = combine_linear([(1.0, a), (1.0, combine_linear([(1.0, b), (1.0, c)]))])
    assert left.value == pytest.approx(right.value, rel=1e-12)
    for name in names:
        assert left.component(name) == pytest.approx(right.component(name), rel=1e-12, abs=1e-15)
