"""Carrier-strength falloff model and line quality factor."""

import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdspec.carrier import (
    CarrierModel,
    carrier_strength,
    critical_wavelength,
    resolution,
)


def test_half_signal_at_critical_wavelength():
    model = CarrierModel(delta_rho=2.0)
    lam_c = critical_wavelength(2.0)
    assert lam_c == 4.0 * math.pi  # 2 pi x 2: exact, as both factors of 2 are
    assert carrier_strength(lam_c, model) == pytest.approx(0.5, abs=1e-15)


def test_mid_infrared_point_for_two_micron_spread():
    model = CarrierModel(delta_rho=2.0)
    s = carrier_strength(5.1, model)
    assert s == pytest.approx(0.0149, abs=5e-4)
    assert s < 0.02


@settings(max_examples=40)
@given(
    lam=st.floats(0.5, 50.0),
    scale=st.floats(0.1, 10.0),
    rho=st.floats(0.2, 5.0),
)
def test_scale_invariance(lam, scale, rho):
    # S depends only on lambda_c / lambda, so scaling both the
    # wavelength and the radial spread leaves it unchanged
    a = carrier_strength(lam, CarrierModel(rho))
    b = carrier_strength(scale * lam, CarrierModel(scale * rho))
    assert a == pytest.approx(b, rel=1e-12, abs=sys.float_info.min)  # S below the normal floats has lost bits


@settings(max_examples=40)
@given(
    lam1=st.floats(0.5, 50.0),
    lam2=st.floats(0.5, 50.0),
)
def test_monotone_in_wavelength(lam1, lam2):
    model = CarrierModel(2.0)
    lo, hi = sorted((lam1, lam2))
    assert carrier_strength(lo, model) <= carrier_strength(hi, model) + 1e-15


def test_limits():
    model = CarrierModel(2.0)
    assert carrier_strength(1e9, model) == pytest.approx(1.0, abs=1e-12)
    assert carrier_strength(1e-3, model) == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < carrier_strength(5.1, model) <= 1.0


def test_resolution_anchor():
    # 0.195 kHz line width on the 58.6 THz transition
    assert resolution(58605052164.0, 0.195) > 3.0e11
    assert resolution(58605052164.0, 0.195) == pytest.approx(3.005e11, rel=1e-3)


def test_validation():
    with pytest.raises(ValueError, match="radial spread"):
        critical_wavelength(0.0)
    with pytest.raises(ValueError, match="radial spread"):
        CarrierModel(-1.0)
    with pytest.raises(ValueError, match="wavelength"):
        carrier_strength(0.0, CarrierModel(2.0))
    with pytest.raises(ValueError, match="fwhm"):
        resolution(1.0, 0.0)


def test_critical_wavelength_is_computed_once_per_model():
    model = CarrierModel(2.0)
    assert model.lambda_c == critical_wavelength(2.0)
    # a sweep reads the model's lambda_c: no point computes it again
    with mock.patch("hdspec.carrier.critical_wavelength", side_effect=AssertionError("recomputed")):
        assert [carrier_strength(lam, model) for lam in (4.0 * math.pi, 5.1)] == [
            pytest.approx(0.5, abs=1e-15), pytest.approx(0.0149, abs=5e-4)]


@pytest.mark.parametrize("delta_rho", [1e308, 1.7976931348623157e308])
def test_model_whose_critical_wavelength_overflows_is_one_value_error(delta_rho):
    with pytest.raises(ValueError) as exc:
        CarrierModel(delta_rho)
    assert str(exc.value) == "critical wavelength overflows float64 (2 pi delta_rho = inf)"
