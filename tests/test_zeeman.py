"""Magnetic-sublevel mapping, transition coefficients, field extrapolation."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdspec import angular, bundled, zeeman
from hdspec.angular import (
    HyperfineCoefficients,
    ProductBasis,
    build_hfs,
    level_structure,
)
from hdspec.zeeman import (
    DEFAULT_B_GRID,
    ZeemanCouplings,
    _member,
    _state_coeffs,
    _sublevels,
    read_couplings_file,
    transition_coeffs,
    transition_truncation,
    zeeman_map,
)
from hdspec.systematics import extrapolate_to_zero_field, read_field_scan_csv

from dense_oracle import build_zeeman, eigenlevels, product_index, triple

STRETCHED_12 = (1, 2, 2)
STRETCHED_16 = (1, 2, 3)
N1_BLOCKS = (1, 4, 8, 10, 8, 4, 1)  # the m_F blocks of N = 1, m_F = -3 .. 3
# the longest grid on which `zeeman_map` solves an N = 1 set in Python floats
N1_PYTHON_POINTS = int(zeeman._PYTHON_WORK // sum(k ** 3 for k in N1_BLOCKS if k > 1))


def state(zmap, label):
    """The state of `zmap` with the (G1, G2, F, m_F) `label`; LookupError if it has none."""
    label = tuple(label)
    for st_ in zmap.states:
        if st_.label == label:
            return st_
    raise LookupError(f"no Zeeman state with label {label}")


def slot_ms(basis):
    ranges = []
    for j in (0.5, 0.5, 1.0, float(basis.n_rot)):
        ranges.append([j - i for i in range(int(round(2 * j)) + 1)])
    return itertools.product(*ranges)


def test_build_zeeman_is_diagonal_with_projection_sums(basis1):
    cpl = ZeemanCouplings(2802.5, -4.2577, -0.6536, -0.55)
    b = 0.137
    h = build_zeeman(cpl, basis1, b)
    assert np.allclose(h, np.diag(np.diag(h)), atol=0.0)
    for m_e, m_p, m_d, m_n in slot_ms(basis1):
        idx = product_index(basis1, m_e, m_p, m_d, m_n)
        want = b * (cpl.c_e * m_e + cpl.c_p * m_p + cpl.c_d * m_d + cpl.c_n * m_n)
        assert h[idx, idx] == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_zero_field_column_is_exactly_field_free(demo_sets):
    coeffs = demo_sets[(0, 0)]
    zmap = zeeman_map(coeffs, ZeemanCouplings())
    levels = angular._level_set(coeffs)
    for st_ in zmap.states:
        lv = levels.level((st_.g1, st_.g2, st_.f))
        assert st_.energies[0] == lv.energy


def test_build_zeeman_matches_embedded_projections(basis1):
    cpl = ZeemanCouplings()
    dense = 0.3 * (
        cpl.c_e * triple(basis1, "s_e")[0]
        + cpl.c_p * triple(basis1, "I_p")[0]
        + cpl.c_d * triple(basis1, "I_d")[0]
        + cpl.c_n * triple(basis1, "N")[0]
    )
    assert np.array_equal(build_zeeman(cpl, basis1, 0.3), dense)


def test_stretched_state_is_exactly_linear(demo_sets):
    cpl = ZeemanCouplings()
    zmap = zeeman_map(demo_sets[(1, 1)], cpl, (0.0, 0.25, 0.5, 0.75, 1.0))
    st_ = state(zmap, (1, 2, 3, 3))
    slope = 0.5 * cpl.c_e + 0.5 * cpl.c_p + cpl.c_d + cpl.c_n
    want = st_.energies[0] + slope * np.asarray(zmap.b_values)
    assert np.allclose(st_.energies, want, rtol=1e-12, atol=1e-9)


@settings(max_examples=25)
@given(
    c_e=st.floats(800.0, 1e300),
    c_p=st.floats(-10.0, 10.0),
    c_d=st.floats(-10.0, 10.0),
    c_n=st.floats(-10.0, -0.01),
)
def test_stretched_transition_slope_is_rotational_coupling(c_e, c_p, c_d, c_n):
    # the fully stretched sublevels are product states for any coupling
    # values, so everything except the N projection cancels in the
    # transition, exactly as the projections are subtracted slot by slot
    # before they are weighted, and the quadratic term vanishes identically
    sets = bundled.load_demo_coefficients()
    cpl = ZeemanCouplings(c_e, c_p, c_d, c_n)
    for sign in (+1, -1):
        model = transition_coeffs(
            (sets[(0, 0)], (*STRETCHED_12, sign * 2)),
            (sets[(1, 1)], (*STRETCHED_16, sign * 3)),
            couplings=cpl,
        )
        assert model.linear == sign * c_n
        assert model.quadratic == 0.0


def test_default_couplings_give_published_linear_coefficient(demo_sets):
    model = transition_coeffs(
        (demo_sets[(0, 0)], (1, 2, 2, 2)),
        (demo_sets[(1, 1)], (1, 2, 3, 3)),
    )
    assert model.linear == -0.55


@pytest.mark.parametrize(
    ("transition", "lower_mf", "upper_mf", "want"),
    [
        ("12", 0, 0, (0.0, -123.67864814824637)),
        ("16", 0, 0, (0.0, 104.67400570171428)),
        ("12", 2, 1, (-339.19850044539544, -90.68312738767851)),
        ("12", -1, 0, (699.2337750000002, -122.43961228860597)),
    ],
)
def test_multi_state_m_blocks_give_the_pinned_coefficients(demo_sets, transition, lower_mf, upper_mf, want):
    # upper m_F blocks of 8 or 10 levels, lower ones of 1, 3 or 4 (the stretched pair of the golden report has
    # one level in each block): the F-block eigenvectors, J_z between the coupled states and the second-order
    # sum give exactly these values
    lower, upper = bundled.TRANSITION_LEVELS[transition]
    model = transition_coeffs(
        (demo_sets[(0, 0)], (*lower, lower_mf)),
        (demo_sets[(1, 1)], (*upper, upper_mf)),
        read_couplings_file(bundled.data_path("zeeman_couplings.txt")),
    )
    assert (model.linear, model.quadratic) == want


def test_small_field_curvature_matches_perturbation_theory(basis0, demo_sets):
    coeffs = demo_sets[(0, 0)]
    cpl = ZeemanCouplings()
    lv = angular._level_set(coeffs).level((1, 0, 0))
    v0, e0 = lv.vectors[:, 0], lv.energy

    z = build_zeeman(cpl, basis0, 1.0)
    slope_pt = float(v0 @ z @ v0)
    evals, evecs = np.linalg.eigh(build_hfs(coeffs, basis0))
    amp = evecs.T @ (z @ v0)
    mask = np.abs(evals - e0) > 1e-6
    curv_pt = float(np.sum(amp[mask] ** 2 / (e0 - evals[mask])))

    grid = np.array([0.0, 5e-3, 1e-2])
    en = state(zeeman_map(coeffs, cpl, grid), (1, 0, 0, 0)).energies
    # exact parabola through three points; eigensolver noise on ~1e6 kHz
    # eigenvalues limits the slope to ~1e-7 kHz/G here
    coef = np.linalg.solve(np.column_stack([np.ones(3), grid, grid**2]), en)
    assert coef[1] == pytest.approx(slope_pt, abs=1e-4)
    assert coef[2] == pytest.approx(curv_pt, rel=1e-3)


def _overlap_tracker(coeffs, couplings, basis, grid):
    """Reference: follow each sublevel from B = 0 (grid[0]) by maximum eigenvector overlap."""
    h0 = build_hfs(coeffs, basis)
    fz = basis.f_z()
    labels, energies0, columns = [], [], []
    for level in level_structure(coeffs, basis):
        mvals, rot = np.linalg.eigh(level.vectors.T @ fz @ level.vectors)
        labels += [(*level.label, int(round(m))) for m in mvals]
        energies0 += [level.energy] * len(mvals)
        columns.append(level.vectors @ rot)
    tracked = np.hstack(columns)
    energies = np.empty((len(labels), len(grid)))
    energies[:, 0] = energies0
    for j, b in enumerate(grid[1:], start=1):
        evals, evecs = np.linalg.eigh(h0 + build_zeeman(couplings, basis, b))
        overlaps = np.abs(evecs.T @ tracked)
        cols = np.argmax(overlaps, axis=0)
        assert np.min(overlaps[cols, np.arange(len(labels))]) > 0.9, f"tracking lost at B = {b} G"
        assert len(set(cols.tolist())) == len(labels)
        energies[:, j] = evals[cols]
        tracked = evecs[:, cols] * np.sign(np.sum(evecs[:, cols] * tracked, axis=0))
    return labels, energies


@pytest.mark.parametrize("key", [(0, 0), (1, 1)])
def test_coarse_grid_matches_fine_overlap_tracking(key, demo_sets):
    coeffs = demo_sets[key]
    basis = ProductBasis(key[1])
    cpl = ZeemanCouplings()
    fine = np.arange(2001) / 10.0  # 0-200 G in 0.1 G steps
    coarse = fine[::50]  # 0-200 G in 5 G steps
    labels, ref = _overlap_tracker(coeffs, cpl, basis, fine)
    zmap = zeeman_map(coeffs, cpl, coarse)
    assert [st_.label for st_ in zmap.states] == labels
    got = np.array([st_.energies for st_ in zmap.states])
    assert np.allclose(got, ref[:, ::50], rtol=0, atol=1e-8)


@pytest.mark.parametrize("n_rot", range(6))
def test_map_is_the_spectrum_of_each_dense_m_f_block(n_rot, demo_sets):
    # 1 %-perturbed sets of N = 0..5, from weak fields to past the
    # hyperfine decoupling: at every B the sublevels of one m_F are the
    # eigenvalues of that block of the dense H0 + H_Z
    rng = np.random.default_rng(71 + n_rot)
    base = demo_sets[(0, 0)] if n_rot == 0 else demo_sets[(1, 1)]
    basis = ProductBasis(n_rot)
    m_of_state = np.rint(np.diag(basis.f_z())).astype(int)
    blocks = {m: np.flatnonzero(m_of_state == m) for m in range(-(n_rot + 2), n_rot + 3)}
    cpl = ZeemanCouplings()
    grid = (0.05, 1.0, 20.0, 200.0)
    for _ in range(3):
        values = {k: e * (1.0 + 0.01 * rng.standard_normal()) for k, e in base.values.items()}
        coeffs = HyperfineCoefficients(1, n_rot, values)
        h0 = build_hfs(coeffs, basis)
        zmap = zeeman_map(coeffs, cpl, grid)
        for j, b in enumerate(grid):
            h = h0 + build_zeeman(cpl, basis, b)
            dense = {m: np.linalg.eigvalsh(h[np.ix_(i, i)]) for m, i in blocks.items()}
            scale = max(float(np.max(np.abs(e))) for e in dense.values())
            for m, want in dense.items():
                got = np.sort([st_.energies[j] for st_ in zmap.states if st_.m_f == m])
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_grid_not_starting_at_zero_matches_sliced_full_grid(demo_sets):
    coeffs = demo_sets[(0, 0)]
    cpl = ZeemanCouplings()
    full = zeeman_map(coeffs, cpl, (0.0, 0.05, 0.10))
    part = zeeman_map(coeffs, cpl, (0.05, 0.10))
    for st_ in part.states:
        ref = state(full, st_.label)
        assert np.allclose(st_.energies, ref.energies[1:], rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "grid, msg",
    [
        ((0.2, 0.1), "ascending"),
        ((0.1, 0.1), "ascending"),
        ((-0.1, 0.1), "non-negative"),
        ((), "non-empty"),
        ((0.0, math.nan), "finite"),
        ((math.nan, 0.1), "finite"),
        ((0.0, math.inf), "finite"),
        ((-math.inf, 0.0), "finite"),
    ],
)
def test_grid_validation(demo_sets, grid, msg):
    with pytest.raises(ValueError, match=msg):
        zeeman_map(demo_sets[(0, 0)], ZeemanCouplings(), grid)


def test_zeeman_operator_that_leaves_float64_is_one_value_error(demo_sets):
    # c_N = -1.5e308 at N = 3: terms of c_N <j|N_z|i> leave float64 on Python floats, where numpy's guard
    # cannot see them, and the grid holds no B = 0 whose 0 x inf it would see
    coeffs = HyperfineCoefficients(1, 3, dict(demo_sets[(1, 1)].values))
    with pytest.raises(ValueError, match=r"^Zeeman map overflows float64 \(W = -?inf\)$"):
        zeeman_map(coeffs, ZeemanCouplings(c_n=-1.5e308), (0.05, 0.1))


@pytest.mark.parametrize("n", [2, 16, 17, 21, N1_PYTHON_POINTS, N1_PYTHON_POINTS + 1])
def test_a_sublevel_energy_beyond_float64_is_one_value_error_on_either_path(demo_sets, n):
    # diag(E) + B W is finite up to 1.28e305 G, but its largest eigenvalues are not: Jacobi's scaled solve
    # overflows on the way back, and numpy's stacked eigvalsh returns an infinity without a word (short grids, and
    # both sides of the N = 1 work bound)
    grid = tuple(1.28e305 * i / (n - 1) for i in range(n))
    detail = "math range error" if n <= N1_PYTHON_POINTS else "sublevel energy = -?inf"
    with pytest.raises(ValueError, match=rf"^Zeeman map overflows float64 \({detail}\)$"):
        zeeman_map(demo_sets[(1, 1)], ZeemanCouplings(), grid)


def test_state_lookup_error(demo_sets):
    zmap = zeeman_map(demo_sets[(0, 0)], ZeemanCouplings())
    with pytest.raises(LookupError, match="no Zeeman state"):
        state(zmap, (9, 9, 9, 9))


def test_transition_coeffs_requires_zero_field_point(demo_sets):
    with pytest.raises(ValueError, match="B = 0"):
        transition_truncation(
            (demo_sets[(0, 0)], (1, 2, 2, 2)),
            (demo_sets[(1, 1)], (1, 2, 3, 3)),
            b_values=(0.1, 0.2),
        )


FINE_GRID = np.arange(2001) / 10000.0  # 0-0.2 G in 0.1 mG steps
COARSE_GRID = np.arange(41) * 5.0  # 0-200 G in 5 G steps


@pytest.mark.parametrize("grid", [DEFAULT_B_GRID, FINE_GRID, COARSE_GRID], ids=["default", "fine", "coarse"])
def test_transition_coeffs_solves_the_sublevels_zeeman_map_gives(grid, demo_sets):
    # every label of both demo levels: the truncation solves each state
    # alone in its m_F block, and its energies are those of the full map,
    # bit for bit
    cpl = ZeemanCouplings()
    lower, upper = demo_sets[(0, 0)], demo_sets[(1, 1)]
    b = np.asarray(grid, dtype=float)
    maps = [zeeman_map(c, cpl, grid).states for c in (lower, upper)]
    pairs = [(lo, maps[1][0]) for lo in maps[0]] + [(maps[0][0], up) for up in maps[1]]
    assert len(pairs) == 12 + 36
    for lo, up in pairs:
        model, truncation = transition_truncation((lower, lo.label), (upper, up.label), cpl, grid)
        assert model == transition_coeffs((lower, lo.label), (upper, up.label), cpl)
        shift = (np.asarray(up.energies) - lo.energies) - (up.energies[0] - lo.energies[0])
        assert truncation == float(np.max(np.abs(shift - (model.linear * b + model.quadratic * b ** 2))))


def test_transition_coeffs_solves_two_m_f_blocks(eigen_solves, eigvalsh_calls, demo_sets):
    # the truncation grid is solved one m_F block per state, after the level solves of both sets: blocks of 4 and 10
    # states field by field in Python floats up to the work bound (41 points), in one stacked call each past it
    transition_truncation((demo_sets[(0, 0)], (1, 2, 2, 2)), (demo_sets[(1, 1)], (1, 2, 3, 3)))
    # m_F = 2 of N = 0 holds 1 state (F = 2), m_F = 3 of N = 1 holds 1 (F = 3): no solve past the level solves
    assert eigen_solves == [1, 2, 1, 2, 4, 3, 1] and eigvalsh_calls == []
    line12_m0 = (demo_sets[(0, 0)], (1, 1, 1, 0)), (demo_sets[(1, 1)], (1, 1, 1, 0))
    for grid in (DEFAULT_B_GRID, COARSE_GRID):
        eigen_solves.clear()
        transition_truncation(*line12_m0, b_values=grid)
        fields = len(grid) - 1  # B = 0 is the field-free energies
        assert eigen_solves == [4] * fields + [10] * fields and eigvalsh_calls == []
    # each side takes the path of its set's map: Python floats at 41 points (N = 0 up to 1271, N = 1 up to 69)
    sets = [angular._level_set(c).levels for c, _ in line12_m0]
    paths = [zeeman._on_python_floats(len(g), levels) for g in (COARSE_GRID, FINE_GRID) for levels in sets]
    assert paths == [True, True, False, False]
    eigen_solves.clear()
    transition_truncation(*line12_m0, b_values=FINE_GRID)
    assert eigvalsh_calls == [(2001, 4, 4), (2001, 10, 10)] and eigen_solves == []


def _stacked_energies(coeffs, label, couplings, grid):
    """The energies of one sublevel by numpy's stacked eigvalsh of its whole m_F block, with B = 0 the level energy."""
    members, row = _member(coeffs, label)
    w = [angular._zeeman_row(lv, members, label[3], couplings.per_slot)[1] for lv in members]
    energies = [lv.energy for lv in members]
    out = np.linalg.eigvalsh(np.diag(energies) + np.asarray(grid)[:, None, None] * np.array(w))
    out[0] = energies
    return out[:, row]


@pytest.mark.parametrize("sign", [1, -1])
def test_stretched_pair_on_a_long_grid_makes_no_solve_and_the_stacked_truncation(sign, eigen_solves, eigvalsh_calls, demo_sets):
    # both m_F blocks hold one state, so E + B w over 2001 fields is all there is: no Jacobi, no numpy, and the
    # floats of the stacked 1 x 1 eigvalsh
    cpl = read_couplings_file(bundled.data_path("zeeman_couplings.txt"))
    states = (demo_sets[(0, 0)], (*STRETCHED_12, 2 * sign)), (demo_sets[(1, 1)], (*STRETCHED_16, 3 * sign))
    level_structure(states[0][0]), level_structure(states[1][0])
    eigen_solves.clear()
    model, truncation = transition_truncation(*states, cpl, FINE_GRID)
    assert eigen_solves == [] and eigvalsh_calls == []
    lo, up = (_stacked_energies(*s, cpl, FINE_GRID) for s in states)
    shift = (up - lo) - (up[0] - lo[0])
    assert truncation == float(np.max(np.abs(shift - (model.linear * FINE_GRID + model.quadratic * FINE_GRID ** 2))))


def _both_paths(monkeypatch, solve):
    """`solve()` field by field in Python floats, and then on the stacked eigvalsh, whatever its work."""
    monkeypatch.setattr(zeeman, "_PYTHON_WORK", math.inf)
    python = solve()
    monkeypatch.setattr(zeeman, "_PYTHON_WORK", 0)
    return python, solve()


def _solve_bound(evals):
    """A bound on how far two backward-stable solves of one symmetric n x n block H can put its eigenvalues apart.

    Jacobi (Golub & Van Loan, sec. 8.5) and LAPACK's eigvalsh each give
    the exact eigenvalues of H + dH with ||dH||_2 <= p(n) eps ||H||_2,
    so by Weyl's inequality the two differ by at most 2 p(n) eps ||H||_2,
    and ||H||_2 <= ||H||_F = sqrt(sum of the eigenvalues squared), which
    near float64's largest value is taken after the factor 2 p(n) eps.
    p(n) is a modest polynomial for both; p(n) = 2n holds on every block
    here with a margin of about 5 (the largest difference seen is 0.21
    of the bound).
    """
    c = 2 * 2 * len(evals) * np.finfo(float).eps
    return math.hypot(*(c * e for e in evals))


PATH_GRIDS = {
    "default": DEFAULT_B_GRID,
    # 0-200 G over the longest grid of an N = 1 map on Python floats, and over one point more
    "short": tuple(200.0 * i / (N1_PYTHON_POINTS - 1) for i in range(N1_PYTHON_POINTS)),
    "one past": tuple(200.0 * i / N1_PYTHON_POINTS for i in range(N1_PYTHON_POINTS + 1)),
    # B W up to 1.4e308: unscaled, Jacobi's sums leave float64 and put the eigenvalues of m_F = 0 of N = 1 18 % off
    "past the Jacobi limit": (0.0, 1e305),
}


@pytest.mark.parametrize("grid", PATH_GRIDS.values(), ids=PATH_GRIDS)
def test_python_and_stacked_solves_of_every_m_f_block_agree(grid, monkeypatch, demo_sets):
    cpl = ZeemanCouplings()
    for coeffs in demo_sets.values():
        f_max = coeffs.n_rot + 2
        for m in range(-f_max, f_max + 1):
            python, stacked = _both_paths(monkeypatch, lambda: _sublevels(coeffs, cpl, m, zeeman.field_grid(grid)))
            assert all(type(e) is float for row in python + stacked for e in row)
            for column, (got, want) in enumerate(zip(zip(*python), zip(*stacked))):
                if grid[column] == 0.0:
                    assert got == want  # the field-free energies on both paths
                assert max(map(abs, map(operator.sub, got, want))) <= _solve_bound(want)


@pytest.mark.parametrize("tid", ["12", "16"])
def test_python_and_stacked_truncations_agree_for_every_m_f_pair(tid, monkeypatch, demo_sets):
    # the truncation differs between the paths by no more than the sublevels of the two blocks at one field
    cpl = ZeemanCouplings()
    (lo, up), lower, upper = bundled.TRANSITION_LEVELS[tid], demo_sets[(0, 0)], demo_sets[(1, 1)]
    for lower_mf, upper_mf in itertools.product(range(-lo[2], lo[2] + 1), range(-up[2], up[2] + 1)):
        states = (lower, (*lo, lower_mf)), (upper, (*up, upper_mf))
        (model, python), (model_stacked, stacked) = _both_paths(monkeypatch, lambda: transition_truncation(*states, cpl))
        assert model == model_stacked and type(python) is float
        bound = max(
            math.fsum(_solve_bound([row[j] for row in _sublevels(c, cpl, label[3], DEFAULT_B_GRID)]) for c, label in states)
            for j in range(1, len(DEFAULT_B_GRID))
        )
        assert abs(python - stacked) <= bound


def test_a_long_grid_takes_the_stacked_path_and_a_short_one_python_floats(eigen_solves, eigvalsh_calls, demo_sets):
    # past the work bound one stacked eigvalsh per block of more than one state, within it (41 points among them) one
    # Jacobi per such block and field; a block of one state takes neither
    coeffs, cpl = demo_sets[(1, 1)], ZeemanCouplings()
    level_structure(coeffs)
    eigen_solves.clear()
    sizes = [k for k in N1_BLOCKS if k > 1]
    for n in (2001, N1_PYTHON_POINTS + 1):
        zmap = zeeman_map(coeffs, cpl, tuple(i / 10000.0 for i in range(n)))
        assert eigvalsh_calls == [(n, k, k) for k in sizes] and eigen_solves == []
        assert type(zmap.b_values) is tuple and all(type(e) is float for st_ in zmap.states for e in st_.energies)
        eigvalsh_calls.clear()
    for n in (41, N1_PYTHON_POINTS):
        zmap = zeeman_map(coeffs, cpl, tuple(i / 10000.0 for i in range(n)))
        assert eigvalsh_calls == [] and eigen_solves == [k for k in sizes for _ in range(n - 1)]
        assert type(zmap.b_values) is tuple and all(type(e) is float for st_ in zmap.states for e in st_.energies)
        eigen_solves.clear()
    for n_rot in range(6):  # the default grid stays on Python floats at every N up to 5
        zeeman_map(HyperfineCoefficients(1, n_rot, dict(demo_sets[min(n_rot, 1), min(n_rot, 1)].values)), cpl)
        assert eigvalsh_calls == []


@pytest.mark.parametrize("b, step", [(1e154, "multiply"), (1e200, "square"), (1e306, "multiply")])
def test_a_truncation_that_leaves_float64_names_its_step_on_both_paths(b, step, monkeypatch, demo_sets):
    # c B^2 (1e154 G), B^2 (1e200 G) and B W (1e306 G) of line 12 at m_F 0 -> 0, worded as numpy words them
    states = (demo_sets[(0, 0)], (1, 2, 2, 0)), (demo_sets[(1, 1)], (1, 2, 1, 0))
    for work in (math.inf, 0):
        monkeypatch.setattr(zeeman, "_PYTHON_WORK", work)
        with pytest.raises(ValueError, match=rf"^Zeeman coefficient solve overflows float64 \(overflow encountered in {step}\)$"):
            transition_truncation(*states, b_values=(0.0, b))


@pytest.mark.parametrize("lower_mf, upper_mf", [(2, 3), (-2, -3), (0, 0), (1, 1)])
def test_exact_coefficients_make_no_eigen_solve_past_the_level_solve(lower_mf, upper_mf, eigen_solves, eigvalsh_calls, demo_sets):
    # one-state blocks (the stretched pairs) need no solve at all, and the
    # other blocks take their field-free states from the cached F-block solve
    lower, upper = demo_sets[(0, 0)], demo_sets[(1, 1)]
    level_structure(lower), level_structure(upper)
    eigen_solves.clear()
    transition_coeffs((lower, (1, 2, 2, lower_mf)), (upper, (1, 2, 3, upper_mf)))
    assert eigen_solves == [] and eigvalsh_calls == []


def test_a_one_state_block_is_exactly_linear(demo_sets):
    # a stretched sublevel is the product state with every projection at
    # its largest (or smallest) value, alone in its m_F block: its <J_z>
    # are those projections exactly
    cpl = ZeemanCouplings()
    for coeffs in (demo_sets[(0, 0)], demo_sets[(1, 1)]):
        f = coeffs.n_rot + 2
        for sign in (+1, -1):
            jz, quadratic = _state_coeffs(coeffs, (1, 2, f, sign * f), cpl)
            assert list(jz) == [sign * 0.5, sign * 0.5, sign * 1.0, sign * coeffs.n_rot]
            assert quadratic == 0.0


def test_m_f_zero_has_no_linear_term(demo_sets):
    # V changes sign under m_F -> -m_F, so E(B) of an m_F = 0 state is even in B
    lower, upper = demo_sets[(0, 0)], demo_sets[(1, 1)]
    for lo, up in itertools.product(level_structure(lower), level_structure(upper)):
        model = transition_coeffs((lower, (*lo.label, 0)), (upper, (*up.label, 0)))
        assert model.linear == 0.0
        assert model.quadratic != 0.0


def _dense_coeffs(coeffs, cpl, label):
    """(a, c) of one sublevel by perturbation theory on the full dense Hamiltonian of `dense_oracle`."""
    basis = ProductBasis(coeffs.n_rot)
    h0 = build_hfs(coeffs, basis)
    level = next(lv for lv in eigenlevels(h0, basis) if lv.label == tuple(label[:3]))
    # the state of the multiplet with projection m_F
    m_vals, rot = np.linalg.eigh(level.vectors.T @ basis.f_z() @ level.vectors)
    state = level.vectors @ rot[:, int(np.argmin(np.abs(m_vals - label[3])))]
    z = build_zeeman(cpl, basis, 1.0)
    evals, evecs = np.linalg.eigh(h0)
    amp = evecs.T @ (z @ state)
    far = np.abs(evals - level.energy) > 1e-6
    return float(state @ z @ state), float(np.sum(amp[far] ** 2 / (level.energy - evals[far])))


# every component of lines 12 and 16 with |m_F| <= F on both sides and |Delta m_F| <= 1
LINE_COMPONENTS = [
    ((1, 2, 2, m_lo), (1, 2, f_up, m_up))
    for f_up in (1, 3)
    for m_lo in range(-2, 3)
    for m_up in (m_lo - 1, m_lo, m_lo + 1)
    if abs(m_up) <= f_up
]


@settings(max_examples=25)
@given(
    factors=st.lists(st.floats(0.99, 1.01), min_size=11, max_size=11),
    component=st.sampled_from(LINE_COMPONENTS),
)
def test_exact_coefficients_match_central_differences_and_the_dense_oracle(factors, component, demo_sets):
    lower, upper = (
        HyperfineCoefficients(base.v, base.n_rot, {k: e * f for (k, e), f in zip(base.values.items(), fs)})
        for base, fs in ((demo_sets[(0, 0)], factors[:2]), (demo_sets[(1, 1)], factors[2:]))
    )
    cpl = ZeemanCouplings()
    model = transition_coeffs((lower, component[0]), (upper, component[1]), cpl)

    # central differences of the sublevels at B = -h, 0, h
    h = 1e-3
    shift = []
    for coeffs, label in zip((lower, upper), component):
        members, row = _member(coeffs, label)
        shift.append(np.asarray(_sublevels(coeffs, cpl, label[3], (-h, 0.0, h))[row]))
    shift = shift[1] - shift[0]
    # eigenvalues of up to ~1e6 kHz round to ~1e-10 kHz, which the second
    # difference over h^2 = 1e-6 G^2 lifts to ~1e-4 kHz/G^2
    assert model.linear == pytest.approx((shift[2] - shift[0]) / (2 * h), rel=1e-4, abs=1e-5)
    assert model.quadratic == pytest.approx((shift[2] + shift[0] - 2 * shift[1]) / (2 * h * h), rel=1e-4, abs=1e-3)

    # perturbation theory on the dense Hamiltonian, labelled from outside
    (a_lo, c_lo), (a_up, c_up) = (_dense_coeffs(co, cpl, label) for co, label in zip((lower, upper), component))
    assert model.linear == pytest.approx(a_up - a_lo, rel=1e-9, abs=1e-9)
    assert model.quadratic == pytest.approx(c_up - c_lo, rel=1e-9, abs=1e-9)
    if component[0][3] == component[1][3] == 0:
        assert model.linear == 0.0


@pytest.mark.parametrize(
    "lower_label, upper_label",
    [
        ((1, 2, 2, 3), (1, 2, 3, 3)),  # |m_F| > F of the lower level
        ((1, 2, 2, 5), (1, 2, 3, 3)),  # |m_F| past every F of N = 0
        ((1, 2, 2, 2), (0, 1, 0, 1)),  # |m_F| > F of the upper level
        ((1, 2, 1, 0), (1, 2, 3, 0)),  # no such level
        ((1, 2, 2), (1, 2, 3, 0)),  # no m_F
    ],
)
def test_transition_coeffs_rejects_a_label_the_level_lacks(lower_label, upper_label, demo_sets):
    with pytest.raises(LookupError, match="no Zeeman state"):
        transition_coeffs((demo_sets[(0, 0)], lower_label), (demo_sets[(1, 1)], upper_label))


def test_transition_coeffs_refuses_coincident_levels(demo_sets):
    values = dict.fromkeys(range(1, 10), 0.0)
    with pytest.raises(ValueError, match="coincide"):
        transition_coeffs((demo_sets[(0, 0)], (1, 2, 2, 0)), (HyperfineCoefficients(1, 1, values), (1, 2, 3, 0)))


def scaled(coeffs, s):
    return HyperfineCoefficients(coeffs.v, coeffs.n_rot, {k: e * s for k, e in coeffs.values.items()})


@pytest.mark.parametrize("s", [1e-9, 2.0 ** -30, 1e9])
def test_rescaled_coefficients_and_couplings_rescale_every_zeeman_result(s, demo_sets):
    # coefficients and couplings x s: every sublevel energy and both coefficients scale by s, and the
    # field-free levels of the demo (1, 1) set x 1e-9, far apart on the set's own scale, still map
    lower, upper = demo_sets[(0, 0)], demo_sets[(1, 1)]
    cpl = ZeemanCouplings()
    cpl_s = ZeemanCouplings(cpl.c_e * s, cpl.c_p * s, cpl.c_d * s, cpl.c_n * s)
    zmap, zmap_s = zeeman_map(upper, cpl), zeeman_map(scaled(upper, s), cpl_s)
    assert [st_.label for st_ in zmap_s.states] == [st_.label for st_ in zmap.states]
    for st_, st_s in zip(zmap.states, zmap_s.states):
        assert np.allclose(st_s.energies, s * np.asarray(st_.energies), rtol=1e-12, atol=0.0)
    for (lo, up), (lower_mf, upper_mf) in (
        (bundled.TRANSITION_LEVELS["12"], (0, 0)),
        (bundled.TRANSITION_LEVELS["12"], (1, 1)),
        (bundled.TRANSITION_LEVELS["16"], (2, 3)),
    ):
        model = transition_coeffs((lower, (*lo, lower_mf)), (upper, (*up, upper_mf)), cpl)
        model_s = transition_coeffs((scaled(lower, s), (*lo, lower_mf)), (scaled(upper, s), (*up, upper_mf)), cpl_s)
        assert model_s.linear == pytest.approx(s * model.linear, rel=1e-12, abs=0.0)
        assert model_s.quadratic == pytest.approx(s * model.quadratic, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "grid, msg",
    [
        ((0.0, 0.2, 0.1), "ascending"),
        ((0.0, 0.1, 0.1), "ascending"),
        ((-0.1, 0.1), "non-negative"),
        ((), "non-empty"),
        ((0.1, 0.2), "B = 0"),
    ],
)
def test_transition_coeffs_checks_the_grid_before_any_solve(grid, msg, eigen_solves, eigvalsh_calls, demo_sets):
    # the truncation grid is checked before the coefficients or the grid are solved
    with pytest.raises(ValueError, match=msg):
        transition_truncation((demo_sets[(0, 0)], (1, 2, 2, 2)), (demo_sets[(1, 1)], (1, 2, 3, 3)), b_values=grid)
    assert eigen_solves == [] and eigvalsh_calls == []


# --- zero-field extrapolation ---------------------------------------------


def test_exact_parabola_roundtrip():
    b = np.array([0.2, 0.4, 0.6])
    f = 478.330 - 2.9 * b**2
    fit = extrapolate_to_zero_field(b, f, [0.15] * 3)
    assert fit.intercept.value == pytest.approx(478.330, abs=1e-9)
    assert fit.curvature.value == pytest.approx(-2.9, abs=1e-9)
    assert fit.curvature.unit == "kHz/G^2"
    assert np.allclose(fit.residuals, 0.0, atol=1e-9)


def test_design_of_bundled_grid_passes_point_uncertainty_through():
    # for fields (0.2, 0.4, 0.6) the unweighted design has
    # (X^T X)^-1[0, 0] = 1, so u(f0) equals the per-point uncertainty
    b = [0.2, 0.4, 0.6]
    fit = extrapolate_to_zero_field(b, [1.0, 2.0, 3.0], [0.15] * 3)
    assert fit.intercept.component("exp") == pytest.approx(0.15, rel=1e-12, abs=0)


def test_no_chi_square_rescaling():
    b = [0.2, 0.4, 0.6]
    base = extrapolate_to_zero_field(b, [478.214, 477.866, 477.286], [0.15] * 3)
    noisy = extrapolate_to_zero_field(b, [483.214, 472.866, 482.286], [0.15] * 3)
    assert noisy.intercept.component("exp") == base.intercept.component("exp")
    assert np.max(np.abs(noisy.residuals)) > 1.0


def test_weight_pulls_intercept_toward_precise_points():
    b = [0.2, 0.4, 0.6]
    f = [10.0, 10.0, 20.0]
    loose = extrapolate_to_zero_field(b, f, [1.0, 1.0, 1.0])
    tight = extrapolate_to_zero_field(b, f, [1.0, 1.0, 1e-3])
    assert loose.intercept.value != pytest.approx(tight.intercept.value, abs=1e-3)


@pytest.mark.parametrize(
    "b, f, u, msg",
    [
        ([0.1], [1.0], None, "two distinct"),
        ([0.1, -0.1], [1.0, 2.0], None, "two distinct"),
        ([0.1, 0.2], [1.0], None, "same length"),
        ([0.1, 0.2], [1.0, 2.0], [0.1, -0.1], "positive"),
        ([0.1, 0.2], [1.0, 2.0], [0.1], "positive"),
    ],
)
def test_extrapolation_validation(b, f, u, msg):
    with pytest.raises(ValueError, match=msg):
        extrapolate_to_zero_field(b, f, u)


def test_bundled_field_scans_reproduce_reference_numbers():
    b, f, u = read_field_scan_csv(bundled.data_path("line12_zeeman.csv"))
    fit = extrapolate_to_zero_field(b, f, u)
    # scan rows are stored rounded to 1e-3 kHz, limiting the roundtrip
    assert fit.intercept.value == pytest.approx(58605013478.330, abs=5e-4)
    assert fit.intercept.component("exp") == pytest.approx(0.15, rel=1e-9)
    assert fit.curvature.value == pytest.approx(-2.9, abs=1e-3)

    b, f, u = read_field_scan_csv(bundled.data_path("line16_zeeman.csv"))
    fit = extrapolate_to_zero_field(b, f, u)
    assert fit.intercept.value == pytest.approx(58605054772.380, abs=5e-4)
    assert fit.intercept.component("exp") == pytest.approx(0.20, rel=1e-9)
    assert fit.curvature.value == pytest.approx(-117.0, abs=1e-3)


def test_field_scan_csv_roundtrip(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text(
        "B_gauss,f_khz,u_khz\n0.2,478.214,0.15\n0.4,477.866,0.15\n",
        encoding="utf-8",
    )
    b, f, u = read_field_scan_csv(path)
    assert b == [0.2, 0.4]
    assert f == [478.214, 477.866]
    assert u == [0.15, 0.15]


def test_field_scan_csv_rejects_empty(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("B_gauss,f_khz,u_khz\n", encoding="utf-8")
    with pytest.raises(ValueError, match="scan.csv: no data rows$"):
        read_field_scan_csv(path)


def test_field_scan_csv_names_a_non_numeric_cell(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("B_gauss,f_khz,u_khz\n0.2,478.214,0.15\n0.4,abc,0.15\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_field_scan_csv(path)
    assert str(exc.value) == f"{path}:3: f_khz has a bad numeric value 'abc'"


# --- couplings file ---------------------------------------------------------


def test_bundled_couplings_file_parses():
    cpl = read_couplings_file(bundled.data_path("zeeman_couplings.txt"))
    assert cpl.c_e == 2802.5
    assert cpl.c_n == -0.55


def test_couplings_file_missing_key(tmp_path):
    path = tmp_path / "cpl.txt"
    path.write_text("c_e = 2802.5\nc_p = -4.2577\nc_d = -0.6536\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing key c_N"):
        read_couplings_file(path)


def test_couplings_file_duplicate_key(tmp_path):
    path = tmp_path / "cpl.txt"
    path.write_text("c_e = 1\nc_e = 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        read_couplings_file(path)


def test_couplings_file_names_a_non_numeric_value(tmp_path):
    path = tmp_path / "cpl.txt"
    path.write_text("c_e = 2802.5\nc_p = abc\nc_d = -0.6536\nc_N = -0.55\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_couplings_file(path)
    assert str(exc.value) == f"{path}:2: c_p has a bad numeric value 'abc'"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_couplings_file_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "cpl.txt"
    path.write_text(f"c_e = 2802.5\nc_p = -4.2577\nc_d = {value}\nc_N = -0.55\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_couplings_file(path)
    assert str(exc.value) == f"{path}:3: c_d must be finite"


def test_couplings_file_unknown_key(tmp_path):
    path = tmp_path / "cpl.txt"
    path.write_text("c_x = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key 'c_x'"):
        read_couplings_file(path)


def test_default_grid_is_frozen():
    assert DEFAULT_B_GRID[0] == 0.0
    assert all(b2 > b1 for b1, b2 in zip(DEFAULT_B_GRID, DEFAULT_B_GRID[1:]))
