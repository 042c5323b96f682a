"""Lorentzian depletion-line fitting."""

import csv
import math

import numpy as np
import pytest

from hdspec import bundled
from hdspec.lineshape import (
    DecayRecord,
    FitError,
    LineFit,
    LowSignalError,
    SpectrumPoint,
    build_spectrum,
    fit_lorentzian,
    fit_report,
    line_frequency,
    read_decay_csv,
)

TRUTH = dict(center=0.37, fwhm=0.8, amplitude=0.25, offset=0.02)


def lorentz(x, center, fwhm, amplitude, offset):
    h = fwhm**2 / 4.0
    return offset + amplitude * h / ((x - center) ** 2 + h)


def make_points(x, y, sem=0.005):
    return [SpectrumPoint(float(xi), float(yi), sem) for xi, yi in zip(x, y)]


def test_noiseless_roundtrip_recovers_parameters():
    x = np.linspace(-2.0, 2.0, 21)
    y = lorentz(x, **TRUTH)
    fit = fit_lorentzian(make_points(x, y))
    for name in LineFit.PARAM_NAMES:
        assert getattr(fit, name) == pytest.approx(TRUTH[name], rel=1e-9, abs=1e-9)
    assert fit.converged


def test_detuning_shift_equivariance():
    # grid spacing and shift are powers of two, so x + shift is exact
    rng = np.random.default_rng(7)
    x = np.arange(-8, 9) * 0.125
    y = lorentz(x, 0.25, 0.5, 0.3, 0.01) + rng.normal(0.0, 0.004, x.size)
    shift = 512.0
    base = fit_lorentzian(make_points(x, y))
    moved = fit_lorentzian(make_points(x + shift, y))
    assert moved.center - base.center == pytest.approx(shift, abs=1e-9)
    assert moved.fwhm == pytest.approx(base.fwhm, rel=1e-9)
    assert moved.amplitude == pytest.approx(base.amplitude, rel=1e-9)
    assert moved.offset == pytest.approx(base.offset, rel=1e-9)


def test_center_estimate_is_unbiased_over_500_spectra():
    rng = np.random.default_rng(20210405)
    x = np.linspace(-0.45, 0.55, 21)
    clean = lorentz(x, center=0.037, fwhm=0.195, amplitude=0.35, offset=0.02)
    centers = []
    for _ in range(500):
        y = clean + rng.normal(0.0, 0.005, x.size)
        centers.append(fit_lorentzian(make_points(x, y)).center)
    centers = np.asarray(centers)
    bias = float(np.mean(centers) - 0.037)
    sem = float(np.std(centers, ddof=1) / math.sqrt(len(centers)))
    assert abs(bias) < 4.0 * sem


def test_all_zero_signal_raises_low_signal():
    x = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(LowSignalError):
        fit_lorentzian(make_points(x, np.zeros_like(x)))


def test_pure_noise_never_yields_a_line():
    # chasing noise wiggles either stalls (FitError) or converges to an
    # amplitude consistent with zero (LowSignalError, a FitError subclass)
    rng = np.random.default_rng(3)
    x = np.linspace(-1.0, 1.0, 15)
    y = rng.normal(0.0, 0.005, x.size)
    with pytest.raises(FitError):
        fit_lorentzian(make_points(x, y))


def test_cost_trace_is_non_increasing():
    rng = np.random.default_rng(11)
    x = np.linspace(-2.0, 2.0, 21)
    y = lorentz(x, **TRUTH) + rng.normal(0.0, 0.01, x.size)
    fit = fit_lorentzian(make_points(x, y))
    assert len(fit.cost_trace) >= 2
    assert all(b <= a for a, b in zip(fit.cost_trace, fit.cost_trace[1:]))
    assert fit.n_iter >= 1


def test_uniform_sems_and_no_sems_agree():
    rng = np.random.default_rng(13)
    x = np.linspace(-2.0, 2.0, 21)
    y = lorentz(x, **TRUTH) + rng.normal(0.0, 0.01, x.size)
    weighted = fit_lorentzian(make_points(x, y, sem=0.01))
    plain = fit_lorentzian(make_points(x, y, sem=None))
    assert plain.center == pytest.approx(weighted.center, rel=1e-10)
    assert np.allclose(plain.covariance, weighted.covariance, rtol=1e-8)


def test_too_few_points_rejected():
    x = np.linspace(-1.0, 1.0, 4)
    with pytest.raises(ValueError, match="at least 5"):
        fit_lorentzian(make_points(x, lorentz(x, **TRUTH)))


def test_span_must_cover_initial_width():
    x = np.linspace(-2.0, 2.0, 21)
    y = lorentz(x, **TRUTH)
    wide = LineFit(0.0, 10.0, 0.25, 0.02, np.eye(4), 0.0, converged=True)
    with pytest.raises(ValueError, match="does not cover"):
        fit_lorentzian(make_points(x, y), init=wide)


def test_downward_line_fits_with_negative_amplitude():
    x = np.linspace(-2.0, 2.0, 21)
    y = lorentz(x, 0.1, 0.6, -0.2, 0.5)
    fit = fit_lorentzian(make_points(x, y))
    assert fit.amplitude == pytest.approx(-0.2, rel=1e-6)
    assert fit.fwhm == pytest.approx(0.6, rel=1e-6)


# --- spectrum assembly ------------------------------------------------------


def records_at(detuning, on_values, off_values):
    recs = [DecayRecord(detuning, f"on{i}", True, v) for i, v in enumerate(on_values)]
    recs += [DecayRecord(detuning, f"off{i}", False, v) for i, v in enumerate(off_values)]
    return recs


def test_build_spectrum_differences_classes():
    recs = records_at(0.0, [0.30, 0.34], [0.10, 0.12])
    (pt,) = build_spectrum(recs)
    assert pt.signal == pytest.approx(0.21)
    sem_on = np.std([0.30, 0.34], ddof=1) / math.sqrt(2)
    sem_off = np.std([0.10, 0.12], ddof=1) / math.sqrt(2)
    assert pt.sem == pytest.approx(math.hypot(sem_on, sem_off))


def test_build_spectrum_single_sample_has_no_sem():
    (pt,) = build_spectrum(records_at(0.5, [0.3], [0.1, 0.12]))
    assert pt.sem is None
    assert pt.signal == pytest.approx(0.3 - 0.11)


def test_build_spectrum_missing_class_names_it():
    with pytest.raises(ValueError, match="background"):
        build_spectrum([DecayRecord(0.0, "a", True, 0.3)])
    with pytest.raises(ValueError, match="laser-on"):
        build_spectrum([DecayRecord(0.0, "a", False, 0.3)])


def test_build_spectrum_sorts_detunings():
    recs = records_at(1.0, [0.2], [0.1]) + records_at(-1.0, [0.3], [0.1])
    points = build_spectrum(recs)
    assert [pt.detuning for pt in points] == [-1.0, 1.0]


def test_depletion_range_validated():
    with pytest.raises(ValueError, match="depletion"):
        DecayRecord(0.0, "x", True, 1.2)
    with pytest.raises(ValueError, match="depletion"):
        DecayRecord(0.0, "x", True, -0.01)


def test_negative_sem_rejected():
    with pytest.raises(ValueError, match="sem"):
        SpectrumPoint(0.0, 0.1, -1e-3)


# --- line frequency ---------------------------------------------------------


def test_line_frequency_uses_half_width_convention():
    x = np.linspace(-2.0, 2.0, 21)
    fit = fit_lorentzian(make_points(x, lorentz(x, **TRUTH)))
    q = line_frequency(fit, 1000.0)
    assert q.value == pytest.approx(1000.0 + TRUTH["center"], abs=1e-8)
    assert q.component("exp") == pytest.approx(TRUTH["fwhm"] / 2.0, abs=1e-8)
    assert q.unit == "kHz"


def test_line_frequency_rejects_unconverged_fit():
    fit = LineFit(0.0, 0.2, 0.3, 0.0, np.eye(4), 1.0, converged=False)
    with pytest.raises(FitError, match="unconverged"):
        line_frequency(fit, 0.0)


# --- file interfaces --------------------------------------------------------


def test_decay_csv_roundtrip(tmp_path):
    path = tmp_path / "decay.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detuning_khz", "run_id", "laser_on", "depletion"])
        writer.writerow(["-0.5", "r1", "1", "0.31"])
        writer.writerow(["-0.5", "r2", "0", "0.10"])
    recs = read_decay_csv(path)
    assert recs == [
        DecayRecord(-0.5, "r1", True, 0.31),
        DecayRecord(-0.5, "r2", False, 0.10),
    ]


def test_decay_csv_rejects_empty(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("detuning_khz,run_id,laser_on,depletion\n")
    with pytest.raises(ValueError, match="no decay records"):
        read_decay_csv(path)


def test_fit_report_is_json_ready():
    import json

    x = np.linspace(-2.0, 2.0, 21)
    fit = fit_lorentzian(make_points(x, lorentz(x, **TRUTH)))
    payload = fit_report(fit)
    json.dumps(payload)
    assert payload["converged"] is True
    assert payload["center_khz"] == pytest.approx(TRUTH["center"], abs=1e-9)


def test_bundled_depletion_scan_fits_near_truth():
    recs = read_decay_csv(bundled.data_path("line12_depletion.csv"))
    fit = fit_lorentzian(build_spectrum(recs))
    assert fit.center == pytest.approx(0.037, abs=0.01)
    assert fit.fwhm == pytest.approx(0.195, abs=0.02)
    assert fit.amplitude == pytest.approx(0.35, abs=0.05)
    # background subtraction removes the common depletion baseline
    assert fit.offset == pytest.approx(0.0, abs=0.01)
