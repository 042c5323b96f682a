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

