"""Systematic-shift ledger, its standard entries, and the zero-field and zero-RF extrapolations."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdspec import bundled
from hdspec.quantity import Quantity
from hdspec.systematics import (
    ENTRY_BASES,
    LIGHT_SHIFT_KHZ_PER_AU_W_M2,
    ShiftEntry,
    apply_ledger,
    extrapolate_to_zero_field,
    light_shift_entry,
    line_fit,
    negligible_entries,
    read_amplitude_csv,
    read_entries,
    rf_extrapolate,
)


def entry(name, correction, uncertainty):
    return ShiftEntry(name, correction, uncertainty, "measured-extrapolation")


def test_apply_ledger_sums_corrections_and_quadratures_uncertainties():
    raw = Quantity(100.0, "kHz", {"exp": 0.1})
    ledger = apply_ledger(raw, [entry("a", -0.3, 0.3), entry("b", 0.1, 0.4)])
    assert ledger.corrected.value == pytest.approx(99.8)
    assert ledger.corrected.component("exp") == pytest.approx(
        math.sqrt(0.1**2 + 0.3**2 + 0.4**2)
    )
    assert ledger.raw is raw
    assert len(ledger.entries) == 2


def test_apply_ledger_sums_corrections_whose_running_total_leaves_float64_to_their_finite_sum():
    raw = Quantity(1.0, "kHz", {"exp": 0.1})
    ledger = apply_ledger(raw, [entry("a", 1e308, 0.0), entry("b", 1e308, 0.0), entry("c", -1e308, 0.0)])
    assert ledger.corrected.value == 1e308
    with pytest.raises(ValueError, match=r"^systematic-shift ledger overflows float64 \(intermediate overflow in fsum\)$"):
        apply_ledger(raw, [entry("a", 1e308, 0.0), entry("b", 1e308, 0.0)])


@settings(max_examples=30)
@given(
    corrections=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
    u=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_apply_ledger_is_order_invariant(corrections, u, seed):
    import random

    entries = [entry(f"e{i}", c, u[i]) for i, c in enumerate(corrections)]
    shuffled = entries[:]
    random.Random(seed).shuffle(shuffled)
    raw = Quantity(10.0, "kHz", {"exp": 0.05})
    a = apply_ledger(raw, entries).corrected
    b = apply_ledger(raw, shuffled).corrected
    assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
    assert a.component("exp") == pytest.approx(b.component("exp"), rel=1e-12, abs=0)


def test_apply_ledger_rejects_duplicate_names():
    raw = Quantity(1.0, "kHz", {"exp": 0.1})
    with pytest.raises(ValueError, match="duplicate"):
        apply_ledger(raw, [entry("same", 0.0, 0.1), entry("same", 0.1, 0.1)])


def test_set_to_zero_entries_carry_no_correction():
    with pytest.raises(ValueError, match="no correction"):
        ShiftEntry("x", 0.5, 0.1, "set-to-zero")


def test_entry_validation():
    with pytest.raises(ValueError, match="basis"):
        ShiftEntry("x", 0.0, 0.1, "guesswork")
    with pytest.raises(ValueError, match=">= 0"):
        ShiftEntry("x", 0.0, -0.1, "theoretical-bound")


def test_ledger_report_is_json_ready():
    import json

    raw = Quantity(100.0, "kHz", {"exp": 0.1})
    ledger = apply_ledger(raw, list(negligible_entries()))
    payload = ledger.report()
    json.dumps(payload)
    assert payload["corrected"]["value_khz"] == 100.0  # every negligible entry corrects by 0.0
    assert len(payload["entries"]) == 3


# --- RF amplitude extrapolation ---------------------------------------------


def quad_points(f0, k, amps, u):
    return [(a, Quantity(f0 + k * a**2, "kHz", {"exp": u})) for a in amps]


def test_rf_extrapolation_exact_quadratic():
    pts = quad_points(478.030, 0.3, (0.5, 1.0, 1.5), 0.1667)
    f_zero, corr = rf_extrapolate(pts, nominal_amplitude=1.0)
    assert f_zero.value == pytest.approx(478.030, abs=1e-9)
    assert corr.correction == pytest.approx(-0.3, abs=1e-9)
    assert corr.basis == "measured-extrapolation"
    assert "A^2" in corr.note


def test_rf_linear_fallback():
    pts = [(a, Quantity(10.0 + 0.5 * a, "kHz", {"exp": 0.1})) for a in (0.5, 1.0, 1.5)]
    f_zero, corr = rf_extrapolate(pts, nominal_amplitude=2.0, linear_in_amplitude=True)
    assert f_zero.value == pytest.approx(10.0, abs=1e-9)
    assert corr.correction == pytest.approx(-1.0, abs=1e-9)
    assert "A" in corr.note


def test_rf_uncertainty_is_a_priori_not_rescaled():
    base = quad_points(478.030, 0.3, (0.5, 1.0, 1.5), 0.1667)
    noisy = [
        (a, Quantity(q.value + d, "kHz", dict(q.components)))
        for (a, q), d in zip(base, (5.0, -5.0, 5.0))
    ]
    _, c0 = rf_extrapolate(base, 1.0)
    _, c1 = rf_extrapolate(noisy, 1.0)
    assert c1.uncertainty == c0.uncertainty  # from the amplitudes and the a priori weights alone


def test_rf_validation():
    pts = quad_points(1.0, 0.1, (0.5, 1.0), 0.1)
    with pytest.raises(ValueError, match="at least 3"):
        rf_extrapolate(pts, 1.0)
    same = quad_points(1.0, 0.1, (1.0, 1.0, 1.0), 0.1)
    with pytest.raises(ValueError, match="identical"):
        rf_extrapolate(same, 1.0)


def test_bundled_rf_scans_reproduce_reference_corrections():
    for name, f_nominal in (
        ("line12_rf.csv", 58605013478.330),
        ("line16_rf.csv", 58605054772.380),
    ):
        points = read_amplitude_csv(bundled.data_path(name))
        f_zero, corr = rf_extrapolate(points, bundled.RF_NOMINAL_AMPLITUDE)
        assert corr.correction == pytest.approx(-0.30, abs=2e-3)
        assert f_zero.value == pytest.approx(f_nominal - 0.30, abs=2e-3)


def test_bundled_rf_uncertainty_scale():
    points = read_amplitude_csv(bundled.data_path("line12_rf.csv"))
    _, corr = rf_extrapolate(points, bundled.RF_NOMINAL_AMPLITUDE)
    # (X^T X)^-1[1,1] for amplitudes (0.5, 1.0, 1.5) gives u(k) just
    # under 0.7 per-point units; at nominal amplitude 1 this is the
    # correction uncertainty directly
    assert corr.uncertainty == pytest.approx(0.1167, abs=2e-4)


def test_underflowing_designs_are_singular():
    # distinct amplitudes and fields whose squares (or spreads of squares) underflow: S = 0
    pts = [(a, Quantity(1.0 + i, "kHz", {"exp": 0.1})) for i, a in enumerate((1e-170, 2e-170, 3e-170))]
    with pytest.raises(ValueError, match="^singular RF extrapolation fit$"):
        rf_extrapolate(pts, 1.0)
    with pytest.raises(ValueError, match="^singular zero-field extrapolation fit$"):
        extrapolate_to_zero_field([1e-100, 2e-100, 3e-100], [1.0, 2.0, 3.0], [0.15] * 3)


def test_overflowing_ledger_names_the_ledger():
    with pytest.raises(ValueError, match=r"^systematic-shift ledger overflows float64 \("):
        apply_ledger(Quantity(1.0, "kHz", {"exp": 1e308}), [])
    with pytest.raises(ValueError, match=r"^systematic-shift ledger overflows float64 \(exp uncertainty = inf\)$"):
        apply_ledger(Quantity(1.0, "kHz", {"exp": 1e154}), [entry("a", 0.0, 1e154), entry("b", 0.0, 1e154)])


# --- the closed-form fit against a least-squares oracle -------------------------

# An oracle apart from `line_fit`: numpy's SVD least squares on the design scaled by sqrt(w), and
# the covariance from the same SVD.  Each parameter must agree to ORACLE_REL of the data's own
# scale Y = 1 + max|y| (in kHz, so that data near 0 are not held to subnormal bits): the intercept
# to ORACLE_REL Y, the slope to ORACLE_REL Y / (max x - min x), and each variance to ORACLE_REL of
# itself.  The oracle's own error grows with the spread of the weights (up to 1e6 here): at 1e-12
# it fails the bound on some draws where `line_fit` is exact, at 1e-10 on none of 7500 per test.
ORACLE_REL = 1e-10


def lstsq_line(x, y, w):
    sw = np.sqrt(np.asarray(w, dtype=float))
    design = np.column_stack([sw, sw * np.asarray(x, dtype=float)])
    (a, b), *_ = np.linalg.lstsq(design, sw * np.asarray(y, dtype=float), rcond=None)
    _, s, vt = np.linalg.svd(design, full_matrices=False)
    cov = (vt.T / s**2) @ vt
    return a, b, cov[0, 0], cov[1, 1]


def assert_matches_oracle(got, x, y, w):
    a, b, var_a, var_b = lstsq_line(x, y, w)
    scale = 1.0 + max(map(abs, y))
    assert abs(got[0] - a) <= ORACLE_REL * scale
    assert abs(got[1] - b) <= ORACLE_REL * scale / (max(x) - min(x))
    assert got[2] == pytest.approx(var_a, rel=ORACLE_REL, abs=0)
    assert got[3] == pytest.approx(var_b, rel=ORACLE_REL, abs=0)


# points spread over at least a tenth of their range, so the design is well conditioned for the oracle too
SPREAD = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=30).filter(lambda v: max(v) - min(v) >= 0.1)
OFFSETS = st.sampled_from([0.0, 478.33, -3.5e4, 58605013478.33])


@settings(max_examples=60)
@given(b=SPREAD, offset=OFFSETS, data=st.data())
def test_zero_field_fit_matches_a_lstsq_oracle(b, offset, data):
    n = len(b)
    f = [offset + d for d in data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))]
    u = data.draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    b = [math.sqrt(v) for v in b]  # so that B^2 spreads as drawn
    x = [v * v for v in b]
    if max(x) - min(x) < 0.05:
        return
    fit = extrapolate_to_zero_field(b, f, u)
    got = (fit.intercept.value, fit.curvature.value, fit.intercept.component("exp") ** 2,
           fit.curvature.component("exp") ** 2)
    assert_matches_oracle(got, x, f, [1.0 / (v * v) for v in u])
    assert fit.residuals == tuple(fi - (got[0] + got[1] * xi) for xi, fi in zip(x, f))


@settings(max_examples=60)
@given(amps=SPREAD, offset=OFFSETS, linear=st.booleans(), nominal=st.floats(0.1, 3.0), data=st.data())
def test_unweighted_rf_fit_matches_a_lstsq_oracle(amps, offset, linear, nominal, data):
    """No u_khz: every weight is 1, and neither f0 nor the entry carries an uncertainty."""
    n = len(amps)
    f = [offset + d for d in data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))]
    x = amps if linear else [a * a for a in amps]
    if max(x) - min(x) < 0.05:
        return
    f_zero, entry_ = rf_extrapolate([(a, Quantity(v, "kHz")) for a, v in zip(amps, f)], nominal, linear)
    a, k, _, _ = lstsq_line(x, f, [1.0] * n)
    scale = 1.0 + max(map(abs, f))
    assert abs(f_zero.value - a) <= ORACLE_REL * scale
    x_nom = nominal if linear else nominal * nominal
    assert abs(entry_.correction + k * x_nom) <= ORACLE_REL * scale / (max(x) - min(x)) * x_nom
    assert f_zero.components == {} and entry_.uncertainty == 0.0


U = Fraction(2.0**-53)  # the unit roundoff of float64: a rounded product or quotient is x (1 + d) + h, |d| <= U,
H = Fraction(1, 2**1075)  # |h| <= H, half the least subnormal (a rounded sum has h = 0)


def exact_line_fit(x, y, w):
    """(a, b, var a, var b) of `line_fit`'s centred normal equations, exact from the float inputs, and a bound on each.

    Each bound is how far `line_fit` may land from the exact value,
    first order in U and H, from the roundings that `line_fit` makes,
    and doubled for the terms of order U^2 left out:
    - x_m is one rounding per product w x, a rounded fsum, a rounded
      sum w and a rounded division: off by at most e = U sum w|x| / sum w
      + 3U |x_m| + (n / sum w + 1) H, and y_m by f alike;
    - each summand of S = sum w dx^2 and of P = sum w dx dy carries four
      roundings (the difference, the products) and each fsum one more;
      the means off by e and f move S by e^2 sum w and P by e f sum w,
      since sum w dx = sum w dy = 0;
    - b = P / S, a = y_m - b x_m, var b = 1 / S and
      var a = 1 / sum w + x_m^2 / S add one rounding per operation.
    """
    x, y, w = ([Fraction(v) for v in vs] for vs in (x, y, w))
    sw = sum(w)
    x_m, y_m = sum(wi * v for wi, v in zip(w, x)) / sw, sum(wi * v for wi, v in zip(w, y)) / sw
    dx, dy = [v - x_m for v in x], [v - y_m for v in y]
    s = sum(wi * d * d for wi, d in zip(w, dx))
    p = sum(wi * d * g for wi, d, g in zip(w, dx, dy))
    b = p / s
    a = y_m - b * x_m
    var_a, var_b = 1 / sw + x_m * x_m / s, 1 / s

    n = len(w)
    e = U * sum(wi * abs(v) for wi, v in zip(w, x)) / sw + 3 * U * abs(x_m) + (n / sw + 1) * H
    f = U * sum(wi * abs(v) for wi, v in zip(w, y)) / sw + 3 * U * abs(y_m) + (n / sw + 1) * H
    ds = sum(4 * U * wi * (abs(d) + e) ** 2 + H * (abs(d) + e + 1) for wi, d in zip(w, dx)) + U * s + e * e * sw
    dp = sum(4 * U * wi * (abs(d) + e) * (abs(g) + f) + H * (abs(g) + f + 1) for wi, d, g in zip(w, dx, dy))
    dp += U * abs(p) + e * f * sw
    db = (dp + abs(b) * ds) / s + U * abs(b) + H
    da = f + db * abs(x_m) + abs(b) * e + U * abs(b * x_m) + U * abs(a) + H
    dva = 2 * U / sw + (x_m * x_m * (ds / s + 2 * U) + 2 * abs(x_m) * e + e * e + H) / s + U * var_a + 2 * H
    dvb = (ds / s + U) * var_b + H
    return (a, b, var_a, var_b), tuple(2 * d for d in (da, db, dva, dvb))


@st.composite
def weighted_lines(draw):
    """(x, y, w): SPREAD points, y an OFFSETS value plus up to 5 kHz, weights in [1e-3, 1e3]."""
    x = draw(SPREAD)
    n, offset = len(x), draw(OFFSETS)
    y = [offset + d for d in draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))]
    return x, y, draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))


@settings(max_examples=60)
@given(case=weighted_lines())
# a numpy lstsq oracle missed the exact intercept (5.72 to 1e-15) by 2.3e-10 here, where line_fit did not
@example(case=([1.0, 0.875, 0.875, 0.875], [0.0, 0.0, 0.0, 1.0], [0.001, 1.0, 56.0, 143.0]))
def test_line_fit_matches_an_exact_rational_solve(case):
    exact, bounds = exact_line_fit(*case)
    for got, want, bound in zip(line_fit(*case, "fit"), exact, bounds):
        assert abs(Fraction(got) - want) <= bound, (got, float(want), float(bound))


# --- light shift and negligible rows ----------------------------------------


def test_light_shift_constant_value():
    assert LIGHT_SHIFT_KHZ_PER_AU_W_M2 == pytest.approx(4.684e-9, rel=1e-3, abs=0)


def test_light_shift_constant_is_codata_2018():
    # alpha_au / (2 eps0 c h) in kHz per (a.u. W/m^2), CODATA 2018 values
    alpha_au, eps0, c, h = 1.64877727436e-41, 8.8541878128e-12, 299792458.0, 6.62607015e-34
    assert LIGHT_SHIFT_KHZ_PER_AU_W_M2 == pytest.approx(alpha_au / (2 * eps0 * c * h) / 1e3, rel=1e-15, abs=0)


def test_light_shift_below_threshold_is_zero():
    e = light_shift_entry(**{
        "alpha_s_upper": bundled.LIGHT_SHIFT_INPUTS["alpha_s_upper"],
        "alpha_t_upper": bundled.LIGHT_SHIFT_INPUTS["alpha_t_upper"],
        "alpha_lower": bundled.LIGHT_SHIFT_INPUTS["alpha_lower"],
        "intensity": bundled.LIGHT_SHIFT_INPUTS["intensity_w_m2"],
        "measured_bound": bundled.LIGHT_SHIFT_INPUTS["measured_bound_khz"],
    })
    assert e.correction == 0.0
    assert e.uncertainty == 0.0
    assert e.basis == "set-to-zero"
    assert "W/m^2" in e.note


def test_light_shift_capped_by_measured_bound():
    e = light_shift_entry(4.475, -1.442, 3.0, intensity=1e9, measured_bound=0.2)
    assert e.uncertainty == 0.2  # the measured bound itself


def test_light_shift_uses_estimate_when_below_bound():
    # pick an intensity placing the estimate between 1e-3 and the bound
    delta = abs(4.475 - 3.0) + 1.442
    intensity = 0.05 / (LIGHT_SHIFT_KHZ_PER_AU_W_M2 * delta)
    e = light_shift_entry(4.475, -1.442, 3.0, intensity, measured_bound=0.2)
    assert e.uncertainty == pytest.approx(0.05, rel=1e-9, abs=0)


def test_light_shift_rejects_negative_intensity():
    with pytest.raises(ValueError, match="intensity"):
        light_shift_entry(4.475, -1.442, 3.0, -1.0, 0.2)


def test_negligible_entries_shape():
    entries = negligible_entries()
    assert [e.name for e in entries] == [
        "black-body radiation",
        "electric quadrupole",
        "trap displacement",
    ]
    for e in entries:
        assert e.basis == "set-to-zero"
        assert e.correction == 0.0
        assert e.uncertainty == 0.0


def test_read_entries_reads_back_the_entries_report_writes(tmp_path):
    _, rf_entry = rf_extrapolate(read_amplitude_csv(bundled.data_path("line12_rf.csv")), 1.0)
    entries = [*negligible_entries(), rf_entry]
    path = tmp_path / "entries.json"
    path.write_text(json.dumps([e.report() for e in entries]))
    assert read_entries(path) == entries


def test_entry_bases_frozen():
    assert ENTRY_BASES == ("measured-extrapolation", "theoretical-bound", "set-to-zero")


# --- file interface -----------------------------------------------------------


def test_amplitude_csv_roundtrip(tmp_path):
    path = tmp_path / "rf.csv"
    path.write_text(
        "amplitude,f_khz,u_khz\n0.5,478.105,0.1667\n1.0,478.330,\n1.5,478.705\n",
        encoding="utf-8",
    )
    points = read_amplitude_csv(path)
    assert points[0][0] == 0.5
    assert points[0][1].value == 478.105
    assert points[0][1].component("exp") == 0.1667
    assert points[1][1].components == {}
    assert points[2][1].components == {}


def test_amplitude_csv_rejects_empty(tmp_path):
    path = tmp_path / "rf.csv"
    path.write_text("amplitude,f_khz,u_khz\n", encoding="utf-8")
    with pytest.raises(ValueError, match="rf.csv: no data rows$"):
        read_amplitude_csv(path)
