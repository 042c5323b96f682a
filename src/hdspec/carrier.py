"""Resolved-carrier signal strength of a trapped ion string.

The unshifted (carrier) line stays strong while the radiation
wavelength exceeds the critical wavelength lambda_c = 2 pi delta_rho
set by the time-averaged radial spread of the ions.  A single Gaussian
Debye-Waller-style factor, calibrated so the signal is exactly 0.5 at
lambda_c, models the falloff toward shorter wavelengths.
"""

from __future__ import annotations

import math

from .quantity import finite, overflow_as_value_error


def critical_wavelength(delta_rho: float) -> float:
    """lambda_c = 2 pi delta_rho, both in micrometer.

    Beyond float64 it is ValueError `critical wavelength overflows float64 (...)`.
    """
    if delta_rho <= 0:
        raise ValueError(f"radial spread must be positive, got {delta_rho}")
    with overflow_as_value_error("critical wavelength"):
        lambda_c = 2.0 * math.pi * delta_rho
        finite("2 pi delta_rho", lambda_c)
    return lambda_c


class CarrierModel:
    """Gaussian carrier-strength model S(lambda) in (0, 1], with its critical wavelength computed once.

    A spread that is not positive, or a lambda_c beyond float64, raises
    the ValueError of `critical_wavelength`.
    """

    __slots__ = ("delta_rho", "lambda_c")

    def __init__(self, delta_rho: float) -> None:
        self.delta_rho = delta_rho
        self.lambda_c = critical_wavelength(delta_rho)


def carrier_strength(wavelength: float, model: CarrierModel) -> float:
    """S = exp(-ln2 * (lambda_c/lambda)^2); S(lambda_c) = 0.5 exactly."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    ratio = model.lambda_c / wavelength
    return math.exp(-math.log(2.0) * ratio * ratio)


def resolution(frequency_khz: float, fwhm_khz: float) -> float:
    """Line quality factor f / FWHM."""
    if fwhm_khz <= 0:
        raise ValueError("fwhm must be positive")
    return frequency_khz / fwhm_khz
