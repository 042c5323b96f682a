"""Lorentzian depletion-line fitting."""

import csv
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdspec import bundled, lineshape
from hdspec.cli import main
from hdspec.lineshape import (
    DecayScan,
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
BUNDLED_SCAN = read_decay_csv(bundled.data_path("line12_depletion.csv"))


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


def test_detuning_shift_equivariance():
    # grid spacing and shift are powers of two, so x + shift is exact
    rng = np.random.default_rng(7)
    x = np.arange(-8, 9) * 0.125
    y = lorentz(x, 0.25, 0.5, 0.3, 0.01) + rng.normal(0.0, 0.004, x.size)
    shift = 512.0
    base = fit_lorentzian(make_points(x, y))
    moved = fit_lorentzian(make_points(x + shift, y))
    assert moved.center - base.center == pytest.approx(shift, abs=1e-9)
    assert moved.fwhm == pytest.approx(base.fwhm, rel=1e-9, abs=0)
    assert moved.amplitude == pytest.approx(base.amplitude, rel=1e-9, abs=0)
    assert moved.offset == pytest.approx(base.offset, rel=1e-9, abs=0)


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
    assert plain.center == pytest.approx(weighted.center, rel=1e-10, abs=0)
    assert np.allclose(plain.covariance, weighted.covariance, rtol=1e-8)


# --- the numpy fit as an oracle ---------------------------------------------


def _np_model_and_jacobian(p, x):
    center, gamma, amp, offset = p
    u = x - center
    h = gamma ** 2 / 4.0
    denom = u ** 2 + h
    q = h / denom
    jac = np.empty((len(x), 4))
    jac[:, 0] = amp * h * 2.0 * u / denom ** 2
    jac[:, 1] = amp * (gamma / 2.0) * u ** 2 / denom ** 2
    jac[:, 2] = q
    jac[:, 3] = 1.0
    return offset + amp * q, jac


def numpy_fit(points):
    """(parameters, covariance) of an independent damped Gauss-Newton fit of all four parameters, by np.linalg.lstsq and pinv."""
    x, y = np.array([pt.detuning for pt in points]), np.array([pt.signal for pt in points])
    sems = [pt.sem for pt in points]
    w = 1.0 / np.array(sems) ** 2 if all(s is not None and s > 0 for s in sems) else np.ones_like(y)
    order, k = np.argsort(x), max(1, len(x) // 4)
    edges = np.sort(np.concatenate([y[order[:k]], y[order[-k:]]]))
    offset = float((edges[k - 1] + edges[k]) / 2.0)
    extremal = int(np.argmax(np.abs(y - offset)))
    sign = 1.0 if y[extremal] >= offset else -1.0
    p = np.array([x[extremal], float(np.ptp(x)) / 2.0, sign * float(np.ptp(y)), offset])

    def cost_of(params):
        return float(np.sum(w * (y - _np_model_and_jacobian(params, x)[0]) ** 2))

    lam, cost = 1e-3, cost_of(p)
    for _ in range(200):
        model, jac = _np_model_and_jacobian(p, x)
        normal = jac.T @ (w[:, None] * jac)
        step, *_ = np.linalg.lstsq(normal + lam * np.diag(np.diag(normal)), jac.T @ (w * (y - model)), rcond=None)
        new_cost = cost_of(p + step)
        if new_cost <= cost:
            p, lam = p + step, lam * 0.1
            rel, cost = (cost - new_cost) / max(cost, np.finfo(float).tiny), new_cost
            if rel < 1e-12 or float(np.linalg.norm(step)) < 1e-10:
                break
        else:
            lam *= 10.0
    p[1] = abs(p[1])
    _, jac = _np_model_and_jacobian(p, x)
    return p, np.linalg.pinv(jac.T @ (w[:, None] * jac)) * (cost / (len(x) - 4))


def oracle_cases():
    yield "bundled", build_spectrum(BUNDLED_SCAN)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        x = np.linspace(-2.0, 2.0, 16 + 9 * seed)
        y = lorentz(x, rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5), rng.choice([-1, 1]) * rng.uniform(0.1, 0.5), 0.02)
        yield f"seed {seed}", make_points(x, y + rng.normal(0.0, 0.01, x.size), sem=0.01 if seed % 2 else None)


# The oracle's Gauss-Newton converges linearly and stops at a relative cost change below 1e-12, up to a
# few 1e-7 standard errors short of the minimum that the fit's Newton steps reach: each parameter agrees to
# 1e-6 of its standard error, each covariance entry to 1e-6 of sqrt(C_ii C_jj).  The largest seen are
# 4.2e-7 and 1e-7.
ORACLE_BOUND = 1e-6


@pytest.mark.parametrize("name, points", list(oracle_cases()), ids=[name for name, _ in oracle_cases()])
def test_fit_agrees_with_the_numpy_lstsq_and_pinv_oracle(name, points):
    fit = fit_lorentzian(points)
    params, covariance = numpy_fit(points)
    sigma = np.sqrt(np.diag(covariance))
    got = np.array([getattr(fit, n) for n in LineFit.PARAM_NAMES])
    assert np.max(np.abs(got - params) / sigma) <= ORACLE_BOUND
    assert np.max(np.abs(np.array(fit.covariance) - covariance) / np.outer(sigma, sigma)) <= ORACLE_BOUND


def test_the_inverse_gives_zero_rows_for_zero_columns_and_none_for_any_other_singular_matrix():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 4))
    normal = a.T @ a
    assert np.allclose(lineshape._cholesky_inverse(normal.tolist()), np.linalg.inv(normal), rtol=1e-12, atol=0)
    # a zero Jacobian column (the center's, at amplitude 0): its row and column are 0, as in the pseudo-inverse
    a[:, 0] = 0.0
    normal = a.T @ a
    got = np.array(lineshape._cholesky_inverse(normal.tolist()))
    assert (got[0] == 0).all() and (got[:, 0] == 0).all()
    assert np.allclose(got, np.linalg.pinv(normal), rtol=1e-12, atol=0)
    # two equal columns: singular with no zero column
    a[:, 0] = a[:, 1]
    assert lineshape._cholesky_inverse((a.T @ a).tolist()) is None


def test_a_singular_normal_matrix_at_the_solution_is_a_fit_error(monkeypatch):
    x = np.linspace(-2.0, 2.0, 21)
    points = make_points(x, lorentz(x, **TRUTH))
    inverse, calls = lineshape._cholesky_inverse, []
    monkeypatch.setattr(lineshape, "_cholesky_inverse", lambda a: calls.append(a) or inverse(a))
    fit_lorentzian(points)
    last = len(calls)  # the covariance's is the last inverse

    def singular_last(a):
        calls.append(a)
        return None if len(calls) == 2 * last else inverse(a)

    monkeypatch.setattr(lineshape, "_cholesky_inverse", singular_last)
    with pytest.raises(FitError) as exc:
        fit_lorentzian(points)
    assert type(exc.value) is FitError
    assert str(exc.value) == "the normal matrix at the solution is singular: the data do not determine the parameters"


def test_too_few_points_rejected():
    x = np.linspace(-1.0, 1.0, 4)
    with pytest.raises(ValueError, match="at least 5"):
        fit_lorentzian(make_points(x, lorentz(x, **TRUTH)))


def test_span_must_cover_initial_width():
    # every point at one detuning: the span is 0, and so is the initial FWHM
    x = np.full(5, 0.3)
    with pytest.raises(ValueError, match="does not cover"):
        fit_lorentzian(make_points(x, lorentz(x, **TRUTH)))


# --- every fit ends at the least cost of a grid search: the oracle cases' recipe, unweighted


def recipe_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    x = np.linspace(-2.0, 2.0, n)
    y = lorentz(x, rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5), rng.choice([-1, 1]) * rng.uniform(0.1, 0.5), 0.02)
    return x, y + rng.normal(0.0, 0.01, x.size)


def grid_costs(x, y, centers, fwhms):
    """The unweighted cost of the line at each (center, FWHM) pair with its least-squares amplitude and offset."""
    h = (fwhms[:, None] / 2.0) ** 2
    q = h / ((x - centers[:, None]) ** 2 + h)
    q -= q.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    sqq = np.einsum("ij,ij->i", q, q)
    r = yc - np.divide(q @ yc, sqq, out=np.zeros_like(sqq), where=sqq > 0)[:, None] * q
    return np.einsum("ij,ij->i", r, r)


def grid_minimum(x, y):
    """The least cost over a (center, FWHM) grid, refined twice about its least point.

    Centers: the detunings and 101 steps over twice the span; FWHMs: 60
    log steps from 1/50 of the point spacing to twice the span, so a line
    narrower than the spacing through one point is on the grid.  Each
    refinement is 21 x 21 points over one step either side.
    """
    xs = np.unique(x)
    span, spacing = xs[-1] - xs[0], np.min(np.diff(xs))
    centers = np.union1d(np.linspace(xs[0] - span / 2, xs[-1] + span / 2, 101), xs)
    step, ratio = span / 50, (100 * span / spacing) ** (1 / 59)
    fwhms = spacing / 50 * ratio ** np.arange(60)
    best = (np.inf, 0.0, 0.0)
    for _ in range(3):
        cc, ff = (a.ravel() for a in np.meshgrid(centers, fwhms))
        costs = grid_costs(x, y, cc, ff)
        i = int(np.argmin(costs))
        best = min(best, (float(costs[i]), cc[i], ff[i]))
        centers, fwhms = best[1] + np.linspace(-step, step, 21), best[2] * ratio ** np.linspace(-1, 1, 21)
        step, ratio = step / 10, ratio ** 0.1
    return best[0]


# A fit, or the fault it names, ends at most this far above the grid's least cost, relatively.  The grid's
# least cost lies above the minimum by its finite steps; a fit to another local minimum lies above it by far more.
GRID_RTOL = 1e-9
NARROWER = re.compile(r"the line is narrower than the point spacing: \|FWHM\| (\S+) < (\S+) kHz")


def fit_at_the_grid_minimum(n, seed):
    """The fit of `recipe_spectrum(n, seed)`, or the FitError it raised, once its cost is the grid's least.

    A FitError is LowSignalError or names a line narrower than the point
    spacing; its cost is that of its trace's last step.
    """
    x, y = recipe_spectrum(n, seed)
    try:
        fit = fit_lorentzian(make_points(x, y, sem=None))
    except LowSignalError as exc:
        fit, cost = exc, exc.trace[-1]
    except FitError as exc:
        got = NARROWER.fullmatch(str(exc))
        assert got, f"{n} points, seed {seed}: {exc}"
        fwhm, spacing = map(float, got.groups())
        assert fwhm < spacing == float(f"{4.0 / (n - 1):.3g}") and len(exc.trace) > 1
        fit, cost = exc, exc.trace[-1]
    else:
        cost = float(np.sum((y - lorentz(x, fit.center, fit.fwhm, fit.amplitude, fit.offset)) ** 2))
    least = grid_minimum(x, y)
    assert cost <= least * (1.0 + GRID_RTOL), f"{n} points, seed {seed}: cost {cost!r} > grid {least!r}"
    return fit


@pytest.mark.parametrize("n", [16, 25, 36, 49, 64, 81, 101])
def test_each_fit_ends_at_the_grid_minimum_or_names_its_fault(n):
    for seed in range(20):
        fit_at_the_grid_minimum(n, seed)


@pytest.mark.parametrize("n, seed", [(49, 295), (25, 120)])
def test_a_wrong_local_minimum_and_a_refused_line_are_gone(n, seed):
    """The four-parameter Gauss-Newton fit returned a downward line at 1.47 kHz for seed 295 at 49 points, where the
    data hold an upward line at -0.36 kHz, and called the normal matrix singular for seed 120 at 25 points."""
    assert isinstance(fit_at_the_grid_minimum(n, seed), LineFit)


@pytest.mark.parametrize("n", [7, 9, 12])
def test_a_line_narrower_than_the_point_spacing_is_named(n):
    """Over seeds 0-299 at n points, a fit whose best line is narrower than the point spacing 4/(n-1) kHz says so.

    Every fit, and every fit that names that fault, ends at the grid's
    least cost.
    """
    outcomes = [fit_at_the_grid_minimum(n, seed) for seed in range(300)]
    assert any(type(outcome) is FitError for outcome in outcomes)


def test_fit_line_on_a_line_narrower_than_the_point_spacing_is_one_data_error(tmp_path, capsys):
    x, y = recipe_spectrum(7, 0)
    rows = "".join(f"{xi!r},a,1,{0.5 + yi!r}\n{xi!r},a,0,0.5\n" for xi, yi in zip(x.tolist(), y.tolist()))
    path = tmp_path / "decay.csv"
    path.write_text("detuning_khz,run_id,laser_on,depletion\n" + rows)
    assert main(["fit-line", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and NARROWER.fullmatch(err.removeprefix("data error: ").strip()), err


def test_downward_line_fits_with_negative_amplitude():
    x = np.linspace(-2.0, 2.0, 21)
    y = lorentz(x, 0.1, 0.6, -0.2, 0.5)
    fit = fit_lorentzian(make_points(x, y))
    assert fit.amplitude == pytest.approx(-0.2, rel=1e-6)
    assert fit.fwhm == pytest.approx(0.6, rel=1e-6)


# --- spectrum assembly ------------------------------------------------------


def scan_of(records):
    """A DecayScan of (detuning, laser_on, depletion) records in file order, in the columns `read_decay_csv` gives."""
    return DecayScan(
        [float(d) for d, _, _ in records], [float(bool(on)) for _, on, _ in records], [float(v) for _, _, v in records]
    )


def records_at(detuning, on_values, off_values):
    return [(detuning, True, v) for v in on_values] + [(detuning, False, v) for v in off_values]


def exact_mean_and_sem(values):
    """Mean and SEM from sums rounded once from their exact (Fraction) values, as math.fsum rounds them."""
    n = len(values)
    mean = float(sum(map(Fraction, values), Fraction(0))) / n
    if n < 2:
        return mean, None
    dev = [v - mean for v in values]
    return mean, math.sqrt(float(sum((Fraction(d * d) for d in dev), Fraction(0))) / (n - 1)) / math.sqrt(n)


def dict_spectrum(records):
    """(detuning, signal, sem) per detuning, by the row-by-row dict regroup: the reference for build_spectrum."""
    by_detuning = {}
    for detuning, laser_on, depletion in records:
        on, off = by_detuning.setdefault(detuning, ([], []))
        (on if laser_on else off).append(depletion)
    points = []
    for detuning in sorted(by_detuning):
        on, off = by_detuning[detuning]
        if not on or not off:
            missing = "laser-on" if not on else "background"
            raise ValueError(f"detuning {detuning} kHz has no {missing} records")
        (mean_on, sem_on), (mean_off, sem_off) = exact_mean_and_sem(on), exact_mean_and_sem(off)
        sem = math.sqrt(sem_on ** 2 + sem_off ** 2) if sem_on is not None and sem_off is not None else None
        points.append((detuning, mean_on - mean_off, sem))
    return points


def spectrum_outcome(build, records):
    # repr tells -0.0 from 0.0 and compares every float bit for bit
    try:
        return "ok", repr(build(records))
    except ValueError as exc:
        return "ValueError", str(exc)


def columnar_spectrum(records):
    return [(pt.detuning, pt.signal, pt.sem) for pt in build_spectrum(scan_of(records))]


def test_build_spectrum_differences_classes():
    records = records_at(0.0, [0.30, 0.34], [0.10, 0.12])
    (pt,) = build_spectrum(scan_of(records))
    assert pt.signal == pytest.approx(0.21)
    sem_on = np.std([0.30, 0.34], ddof=1) / math.sqrt(2)
    sem_off = np.std([0.10, 0.12], ddof=1) / math.sqrt(2)
    assert pt.sem == pytest.approx(math.hypot(sem_on, sem_off))
    assert [(pt.detuning, pt.signal, pt.sem)] == dict_spectrum(records)


def test_build_spectrum_single_sample_has_no_sem():
    records = records_at(0.5, [0.3], [0.1, 0.12])
    (pt,) = build_spectrum(scan_of(records))
    assert pt.sem is None
    assert pt.signal == pytest.approx(0.3 - 0.11)
    assert [(pt.detuning, pt.signal, pt.sem)] == dict_spectrum(records)


def test_build_spectrum_missing_class_names_it():
    with pytest.raises(ValueError, match="background"):
        build_spectrum(scan_of([(0.0, True, 0.3)]))
    with pytest.raises(ValueError, match="laser-on"):
        build_spectrum(scan_of([(0.0, False, 0.3)]))
    # the lowest detuning that lacks a class is named, wherever it is in the file
    records = records_at(1.0, [0.2], [0.1]) + [(0.5, False, 0.1)] + records_at(-1.0, [0.2], [0.1]) + [(0.25, True, 0.2)]
    with pytest.raises(ValueError) as exc:
        build_spectrum(scan_of(records))
    assert str(exc.value) == "detuning 0.25 kHz has no background records"
    assert spectrum_outcome(columnar_spectrum, records) == spectrum_outcome(dict_spectrum, records)


def test_build_spectrum_sorts_detunings():
    records = records_at(1.0, [0.2], [0.1]) + records_at(-1.0, [0.3], [0.1])
    points = build_spectrum(scan_of(records))
    assert [pt.detuning for pt in points] == [-1.0, 1.0]


def test_build_spectrum_groups_interleaved_unsorted_detunings_in_file_order():
    rng = np.random.default_rng(5)
    detunings = rng.permutation(np.linspace(-1.0, 1.0, 9)).tolist()
    # 40 records per detuning and class, shuffled together
    records = [(d, bool(on), float(v)) for d in detunings for on in (0, 1) for v in rng.random(40)]
    records = [records[i] for i in rng.permutation(len(records))]
    got = build_spectrum(scan_of(records))
    assert [pt.detuning for pt in got] == sorted(detunings)
    assert repr(columnar_spectrum(records)) == repr(dict_spectrum(records))


@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_build_spectrum_merges_signed_zeros_under_the_first_seen(first):
    second = -first
    records = [(first, True, 0.30), (second, False, 0.10), (second, True, 0.34), (first, False, 0.12), (second, False, 0.11)]
    (pt,) = build_spectrum(scan_of(records))
    assert math.copysign(1.0, pt.detuning) == math.copysign(1.0, first)
    assert pt.signal == math.fsum([0.30, 0.34]) / 2 - math.fsum([0.10, 0.12, 0.11]) / 3
    assert repr(columnar_spectrum(records)) == repr(dict_spectrum(records))


RECORDS = st.lists(
    st.tuples(
        st.integers(0, 3).flatmap(lambda i: st.floats(-1e3, 1e3) if i == 0 else st.sampled_from([-0.0, 0.0, 0.5])),
        st.booleans(),
        st.floats(0.0, 1.0),
    ),
    max_size=120,
)


@settings(max_examples=300)
@given(records=RECORDS)
def test_build_spectrum_matches_the_dict_regroup(records):
    """Signals and sems bit for bit, the same detuning keys, or the same error."""
    assert spectrum_outcome(columnar_spectrum, records) == spectrum_outcome(dict_spectrum, records)


# class sizes around the blocks of numpy's pairwise summation (8 and 128), whose sums differ from fsum's
CLASS_SIZES = st.one_of(st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 256, 257, 300]), st.integers(1, 300))


@st.composite
def uneven_scans(draw):
    """Records of 1-4 detunings, each class 1-300 records of depletions in [1e-3, 1], shuffled together."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for detuning in draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4, unique=True)):
        for laser_on in (True, False):
            lo = draw(st.sampled_from([1e-3, 0.1, 0.5, 0.999]))
            n = draw(CLASS_SIZES)
            values = np.exp(rng.uniform(math.log(lo), 0.0, n)) if draw(st.booleans()) else rng.uniform(lo, 1.0, n)
            records += [(detuning, laser_on, float(v)) for v in np.clip(values, 1e-3, 1.0)]
    return [records[i] for i in rng.permutation(len(records))]


@settings(max_examples=200, deadline=None)
@given(records=uneven_scans())
def test_build_spectrum_is_the_correctly_rounded_mean_and_sem_bit_for_bit(records):
    """Per class mean(on) - mean(off) and the sample standard deviation over sqrt(n), each sum rounded once."""
    assert repr(columnar_spectrum(records)) == repr(dict_spectrum(records))


BUNDLED_RECORDS = list(zip(BUNDLED_SCAN.detuning, BUNDLED_SCAN.laser_on, BUNDLED_SCAN.depletion))


def fit_outcome(points):
    fit = fit_lorentzian(points)
    return repr((fit.center, fit.fwhm, fit.amplitude, fit.offset, fit.covariance, fit.n_iter, fit.cost_trace))


@settings(max_examples=30, deadline=None)
@given(records=st.permutations(BUNDLED_RECORDS))
def test_shuffled_records_give_the_same_spectrum_and_fit_bit_for_bit(records):
    assert repr(columnar_spectrum(records)) == repr(columnar_spectrum(BUNDLED_RECORDS))
    assert fit_outcome(build_spectrum(scan_of(records))) == fit_outcome(build_spectrum(scan_of(BUNDLED_RECORDS)))


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


# --- file interfaces --------------------------------------------------------


def test_decay_csv_roundtrip(tmp_path):
    path = tmp_path / "decay.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detuning_khz", "run_id", "laser_on", "depletion"])
        writer.writerow(["-0.5", "r1", "1", "0.31"])
        writer.writerow(["-0.5", "r2", "0", "0.10"])
    scan = read_decay_csv(path)
    assert len(scan) == 2
    assert scan.detuning == [-0.5, -0.5]
    assert scan.laser_on == [1.0, 0.0]
    assert scan.depletion == [0.31, 0.10]


def test_record_count_is_the_number_of_data_rows(tmp_path, capsys):
    """len() of the scan counts records, as the benchmark's trace does; fit-line reports it as n_records."""
    lines = bundled.data_path("line12_depletion.csv").read_text().splitlines()
    path = tmp_path / "decay.csv"
    path.write_text("\n".join(lines[:1] + lines[1:] * 3 + [""]))  # a blank line is no record
    scan = read_decay_csv(path)
    assert main(["fit-line", "--input", str(path), "--out-dir", str(tmp_path)]) == 0
    assert len(scan) == (len(lines) - 1) * 3
    assert json.loads((tmp_path / "fit_line.json").read_text())["n_records"] == len(scan)


@pytest.mark.parametrize(
    "text, message",
    [
        ("detuning_khz,laser_on,depletion,run_id\n0.1,1,0.3,a\n0.2,0,0.3\n", "{path}:3: run_id is missing"),
        ("detuning_khz,laser_on,depletion\n0.1,1,0.3\n", "{path}:1: missing column run_id"),
    ],
    ids=["cell", "column"],
)
def test_run_id_is_required_though_unused(tmp_path, capsys, text, message):
    path = tmp_path / "decay.csv"
    path.write_text(text)
    assert main(["fit-line", "--input", str(path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"


def test_decay_csv_rejects_empty(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("detuning_khz,run_id,laser_on,depletion\n")
    with pytest.raises(ValueError, match="decay.csv: no data rows$"):
        read_decay_csv(path)


def test_fit_report_is_json_ready():
    x = np.linspace(-2.0, 2.0, 21)
    fit = fit_lorentzian(make_points(x, lorentz(x, **TRUTH)))
    payload = fit_report(fit)
    json.dumps(payload)
    assert payload["converged"] is True
    assert payload["center_khz"] == pytest.approx(TRUTH["center"], abs=1e-9)


def test_bundled_depletion_scan_fits_near_truth():
    scan = read_decay_csv(bundled.data_path("line12_depletion.csv"))
    fit = fit_lorentzian(build_spectrum(scan))
    assert fit.center == pytest.approx(0.037, abs=0.01)
    assert fit.fwhm == pytest.approx(0.195, abs=0.02)
    assert fit.amplitude == pytest.approx(0.35, abs=0.05)
    # background subtraction removes the common depletion baseline
    assert fit.offset == pytest.approx(0.0, abs=0.01)
