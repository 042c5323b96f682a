"""Comb arithmetic, maser correction, and Allan-deviation statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdspec import bundled
from hdspec.metrology import (
    CombParams,
    FrequencyTimeSeries,
    LaserLock,
    _gamma_p,
    _gammaincinv,
    _log1pmx,
    _series_or_fraction_p,
    _temme_p,
    allan_deviation,
    dfg_frequency,
    laser_frequency,
    maser_correct,
    read_counter_csv,
)


def comb_with_ceo(f_ceo):
    return CombParams(
        f_rep=80e6,
        f_ceo=f_ceo,
        lasers=(
            LaserLock(3521728, 20e6, +1, +1),
            LaserLock(2789120, -10e6, -1, +1),
        ),
    )


def test_laser_frequency_formula():
    comb = comb_with_ceo(35e6)
    lock = comb.lasers[0]
    want = lock.n * 80e6 + 35e6 + 20e6
    assert laser_frequency(comb, 0) == want
    assert laser_frequency(comb, 1) == comb.lasers[1].n * 80e6 + 35e6 + 10e6


@settings(max_examples=50)
@given(
    ceo1=st.floats(-40e6, 40e6),
    ceo2=st.floats(-40e6, 40e6),
)
def test_dfg_is_bit_exactly_ceo_free(ceo1, ceo2):
    assert dfg_frequency(comb_with_ceo(ceo1)) == dfg_frequency(comb_with_ceo(ceo2))


def test_dfg_arithmetic():
    comb = comb_with_ceo(0.0)
    want = (3521728 - 2789120) * 80e6 + 20e6 - 10e6
    assert dfg_frequency(comb) == pytest.approx(want, rel=1e-15)


def test_dfg_differs_from_laser_difference_only_by_nothing():
    comb = comb_with_ceo(12.3e6)
    assert dfg_frequency(comb) == pytest.approx(
        laser_frequency(comb, 0) - laser_frequency(comb, 1), rel=1e-15
    )


def test_dfg_rejects_mismatched_ceo_signs():
    comb = CombParams(80e6, 35e6, (LaserLock(10, 1e6, 1, 1), LaserLock(5, 1e6, 1, -1)))
    with pytest.raises(ValueError, match="ceo signs differ"):
        dfg_frequency(comb)


def test_dfg_needs_two_lasers():
    comb = CombParams(80e6, 35e6, (LaserLock(10, 1e6, 1, 1),))
    with pytest.raises(ValueError, match="two laser locks"):
        dfg_frequency(comb)


def test_lock_validation():
    with pytest.raises(ValueError, match="mode number"):
        LaserLock(0, 1e6, 1, 1)
    with pytest.raises(ValueError, match="signs"):
        LaserLock(10, 1e6, 2, 1)
    with pytest.raises(ValueError, match="repetition"):
        CombParams(-1.0, 0.0, ())


def test_maser_correction_round_trips():
    f = 58605052164255.0
    offset = 1e-10
    corrected = maser_correct(f, offset)
    assert corrected < f
    back = corrected * (1.0 + offset)
    assert abs(back - f) / f < 1e-19


def test_maser_rejects_implausible_offset():
    with pytest.raises(ValueError, match="implausible"):
        maser_correct(1e14, 2e-9)


# --- Allan deviation ----------------------------------------------------------


def test_linear_drift_gives_exact_tau_over_sqrt2():
    d = 1e-12
    t = np.arange(200.0)
    series = FrequencyTimeSeries(1.0, d * t)
    for tau, adev, _, _ in allan_deviation(series, [1.0, 2.0, 5.0, 10.0]):
        assert adev == pytest.approx(d * tau / math.sqrt(2.0), rel=1e-10)


def test_white_fm_slope_is_minus_half_over_a_decade():
    rng = np.random.default_rng(42)
    sigma = 1e-12
    series = FrequencyTimeSeries(1.0, rng.normal(0.0, sigma, 10_000))
    taus = [1.0, 2.0, 3.0, 5.0, 7.0, 10.0]
    rows = allan_deviation(series, taus)
    logt = np.log([r[0] for r in rows])
    loga = np.log([r[1] for r in rows])
    slope = np.polyfit(logt, loga, 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)
    assert rows[0][1] == pytest.approx(sigma, rel=0.05)


def test_constant_series_has_zero_deviation():
    series = FrequencyTimeSeries(1.0, np.full(50, 3.3e-13))
    ((_, adev, _, _),) = allan_deviation(series, [1.0])
    assert adev == pytest.approx(0.0, abs=1e-25)


def test_adev_scale_equivariance():
    rng = np.random.default_rng(5)
    y = rng.normal(0.0, 1e-13, 300)
    a = allan_deviation(FrequencyTimeSeries(1.0, y), [1.0, 5.0])
    b = allan_deviation(FrequencyTimeSeries(1.0, 3.0 * y), [1.0, 5.0])
    for (_, ya, la, ha), (_, yb, lb, hb) in zip(a, b):
        assert yb == pytest.approx(3.0 * ya, rel=1e-12)
        assert lb == pytest.approx(3.0 * la, rel=1e-12)
        assert hb == pytest.approx(3.0 * ha, rel=1e-12)


def test_confidence_interval_brackets_estimate():
    rng = np.random.default_rng(9)
    series = FrequencyTimeSeries(1.0, rng.normal(0.0, 1e-13, 500))
    for _, adev, lo, hi in allan_deviation(series, [1.0, 10.0]):
        assert lo < adev < hi


# chi-squared quantiles at the white-FM edf of 500 samples, m = 1 and m = 10,
# computed once with scipy.stats.chi2.ppf: (edf, ppf(0.84), ppf(0.16))
CHI2_QUANTILES = {
    1.0: (331.78133333333335, 357.36521443437414, 306.1828973197086),
    10.0: (71.95851851851852, 83.82622510991497, 60.07692202168057),
}


def test_confidence_interval_uses_chi2_quantiles():
    rng = np.random.default_rng(9)
    series = FrequencyTimeSeries(1.0, rng.normal(0.0, 1e-13, 500))
    for tau, adev, lo, hi in allan_deviation(series, sorted(CHI2_QUANTILES)):
        edf, q84, q16 = CHI2_QUANTILES[tau]
        assert lo == pytest.approx(adev * math.sqrt(edf / q84), rel=1e-13)
        assert hi == pytest.approx(adev * math.sqrt(edf / q16), rel=1e-13)


def test_confidence_interval_scale_matches_chi2_quantiles():
    # the test above compares numbers of order 1e-13, inside pytest.approx's
    # default abs=1e-12; the ratios to the estimate are checked here
    rng = np.random.default_rng(9)
    series = FrequencyTimeSeries(1.0, rng.normal(0.0, 1e-13, 500))
    for tau, adev, lo, hi in allan_deviation(series, sorted(CHI2_QUANTILES)):
        edf, q84, q16 = CHI2_QUANTILES[tau]
        assert lo / adev == pytest.approx(math.sqrt(edf / q84), rel=1e-13, abs=0)
        assert hi / adev == pytest.approx(math.sqrt(edf / q16), rel=1e-13, abs=0)


# (a, P^-1(a, 0.16), P^-1(a, 0.84)) for 40 a log-spaced over 1/3..1e5, computed
# once with scipy 1.17.1:
#     a = np.logspace(np.log10(1 / 3), 5, 40)
#     a[0], a[-1] = 1 / 3, 1e5
#     for x in a:
#         print(f"({float(x)!r}, {float(gammaincinv(x, 0.16))!r}, {float(gammaincinv(x, 0.84))!r}),")
GAMMAINCINV_TABLE = [
    (0.3333333333333333, 0.0029230489123986416, 0.6587127543892639),
    (0.4605934437931391, 0.014514873330612845, 0.9126962789279778),
    (0.6364389613956708, 0.04887256014962611, 1.2333432718899888),
    (0.8794188389800821, 0.12618647946670697, 1.6406914609340186),
    (1.2151636547472002, 0.27228487687997643, 2.1630940808515047),
    (1.67908923753681, 0.5203163012135179, 2.8398638082368213),
    (2.3201324830592265, 0.9148087283544387, 3.7249397099451467),
    (3.2059134312857283, 1.5173790252630432, 4.8920243672777755),
    (4.429868123455719, 2.4141588613169955, 6.441761912985524),
    (6.121104643595762, 3.7256801702487685, 8.511711974938077),
    (8.45802200283584, 5.6203582115247315, 11.290150954256069),
    (11.687128445892908, 8.333078525739598, 15.03512935984225),
    (16.14904421683972, 12.190903121708097, 20.10076744720819),
    (22.314431669405657, 17.64864591096037, 26.9735344950544),
    (30.833642786694703, 25.338103586570263, 36.32230826863342),
    (42.60532114743358, 36.136169838496315, 49.06746123611719),
    (58.87119477362727, 51.25905703890733, 66.47622208408964),
    (81.34705902300495, 72.3926096543787, 90.29432633674169),
    (112.40376617354875, 101.872508434814, 122.92779010487709),
    (155.31731327158062, 142.93343630011375, 167.6939190280462),
    (214.61440860136548, 200.0535620656656, 229.16795687423854),
    (296.5499686359925, 279.43076545294724, 313.66185399432476),
    (409.76691393239724, 389.64093849132763, 429.8855573984296),
    (566.2078621218292, 542.5479222849187, 589.8604597465688),
    (782.3748873523327, 754.5612024735177, 810.181222612165),
    (1081.0702311086409, 1048.374194227306, 1113.7589130116203),
    (1493.8015821857214, 1455.3666709890188, 1532.229134525975),
    (2064.1056452476823, 2018.9249816896036, 2109.278947142986),
    (2852.140582492469, 2799.03055315095, 2905.2432481404026),
    (3941.031759217129, 3878.6010052615056, 4003.4551480095342),
    (5445.640170227849, 5372.253134553523, 5519.019839675417),
    (7524.678478990512, 7438.412555477124, 7610.937035507472),
    (10397.452722223072, 10296.047884450616, 10498.850192442098),
    (14366.99566801521, 14247.795257737589, 14486.1887103363),
    (19852.032035076736, 19711.91315914207, 19992.14354276315),
    (27431.147403983116, 27266.439116136415, 27595.848323370446),
    (37903.819949993485, 37710.20707396734, 38097.42545740747),
    (52374.75289104772, 52147.16296515555, 52602.33544821716),
    (72370.40340570697, 72102.87378694529, 72637.9256556659),
    (100000.0, 99685.52164585545, 100314.47098528389),
]


@pytest.mark.parametrize("a, x16, x84", GAMMAINCINV_TABLE)
def test_gammaincinv_matches_the_committed_table(a, x16, x84):
    assert _gammaincinv(a, 0.16) == pytest.approx(x16, rel=1e-13, abs=0)
    assert _gammaincinv(a, 0.84) == pytest.approx(x84, rel=1e-13, abs=0)


def test_two_samples_give_a_finite_interval_at_tau0():
    # n = 2, m = 1 is the smallest edf the two-bin check lets through: 2/3, a = 1/3
    ((_, adev, lo, hi),) = allan_deviation(FrequencyTimeSeries(1.0, np.array([1e-13, -2e-13])), [1.0])
    a, x16, x84 = GAMMAINCINV_TABLE[0]
    assert a == 1 / 3
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo < adev < hi
    assert lo == pytest.approx(adev * math.sqrt(a / x84), rel=1e-13, abs=0)
    assert hi == pytest.approx(adev * math.sqrt(a / x16), rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "a, closed_form",
    [(0.5, lambda x: math.erf(math.sqrt(x))), (1.0, lambda x: -math.expm1(-x))],
    ids=["a=1/2", "a=1"],
)
def test_gamma_p_closed_forms(a, closed_form):
    # x < a + 1 takes the series, the rest the continued fraction
    for x in (0.01, 0.3, 1.0, 2.5, 4.0, 9.0):
        assert _gamma_p(a, x) == pytest.approx(closed_form(x), rel=1e-14, abs=0)


@pytest.mark.parametrize("s", [-0.45, -1e-3, 1e-8, 2e-3, 0.3, 0.49])
def test_log1pmx_keeps_its_digits_near_zero(s):
    want = -math.fsum((-s) ** k / k for k in range(2, 120))  # log(1 + s) - s
    assert _log1pmx(s) == pytest.approx(want, rel=2e-15, abs=0)


@pytest.mark.parametrize("a", [20.0, 47.3, 200.0, 1e3])
def test_temme_expansion_agrees_with_series_and_fraction(a):
    # both evaluations are exact to rounding where the expansion is used, and
    # the series and the continued fraction need no coefficient table
    for s in (-0.3, -0.15, -0.03, 0.0, 0.06, 0.2, 0.3):
        x = a * (1.0 + s)
        assert _temme_p(a, x) == pytest.approx(_series_or_fraction_p(a, x), rel=3e-14, abs=0)


def test_tau_must_be_integer_multiple():
    series = FrequencyTimeSeries(1.0, np.zeros(100) + 1e-13)
    with pytest.raises(ValueError, match="integer multiple"):
        allan_deviation(series, [1.5])


def test_tau_needs_two_bins():
    series = FrequencyTimeSeries(1.0, np.arange(10.0) * 1e-13)
    with pytest.raises(ValueError, match="fewer than 2"):
        allan_deviation(series, [6.0])


def test_carrier_conversion_matches_prescaled_fractional():
    rng = np.random.default_rng(17)
    carrier = 58605052164255.0
    y = rng.normal(0.0, 5e-14, 400)
    absolute = FrequencyTimeSeries(1.0, carrier * (1.0 + y), carrier_hz=carrier)
    fractional = FrequencyTimeSeries(1.0, y)
    a = allan_deviation(absolute, [1.0, 4.0])
    b = allan_deviation(fractional, [1.0, 4.0])
    for (_, ya, _, _), (_, yb, _, _) in zip(a, b):
        assert ya == pytest.approx(yb, rel=1e-9)


def test_series_validation():
    with pytest.raises(ValueError, match="positive"):
        FrequencyTimeSeries(0.0, np.zeros(10))
    with pytest.raises(ValueError, match="at least 2"):
        FrequencyTimeSeries(1.0, np.zeros(1))


# --- counter files --------------------------------------------------------------


def test_counter_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "cnt.csv"
    path.write_text("t_s,f_hz\n0.0,10.0\n1.0,10.1\n2.5,10.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not uniform"):
        read_counter_csv(path)


def test_counter_csv_needs_two_samples(tmp_path):
    path = tmp_path / "cnt.csv"
    path.write_text("t_s,f_hz\n0.0,10.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="at least 2"):
        read_counter_csv(path)


def test_bundled_counter_demo_parses_and_behaves():
    carrier = 58605052164255.0
    series = read_counter_csv(bundled.data_path("demo_counter.csv"), carrier_hz=carrier)
    assert series.tau0 == pytest.approx(1.0)
    assert len(series.samples) == 400
    ((_, adev, _, _),) = allan_deviation(series, [1.0])
    # 3 Hz white noise on a 58.6 THz carrier
    assert adev == pytest.approx(3.0 / carrier, rel=0.2)

