"""Theory frequency table, scaling model, and mass-ratio extraction."""

import math

import pytest

from hdspec import bundled
from hdspec.constants import (
    Constant,
    Contribution,
    ContributionTable,
    ScalingModel,
    comparison_report,
    extract_mp_over_me,
    extract_mu_over_me,
    read_constants_file,
    read_contribution_csv,
    read_scaling_file,
    scaled_theory,
    theory_frequency,
)
from hdspec.quantity import Quantity


@pytest.fixture(scope="module")
def model():
    return bundled.load_scaling_model("codata2018")


@pytest.fixture(scope="module")
def constants():
    return bundled.load_constants("codata2018")


def measured_quantity(value):
    return Quantity(value, "kHz", {"exp": 0.16101, "theor_spin": 0.85})


def test_theory_sum_and_budget_channels():
    q = theory_frequency(bundled.load_contributions("codata2018"))
    assert q.value == pytest.approx(58605052163.91, abs=0.05)
    assert q.component("CODATA") == 1.3  # the alpha^0 row's uncertainty, as read
    assert q.component("theor_QED") == pytest.approx(0.5, abs=5e-3)


def test_theory_sum_is_the_correctly_rounded_sum_of_its_rows():
    """`math.fsum`, the same last bit on every Python version: builtin sum() gives ...163.91001 before 3.12."""
    table = bundled.load_contributions("codata2018")
    assert theory_frequency(table).value == math.fsum(r.value for r in table.rows if not r.bookkeeping) == 58605052163.91


def test_bookkeeping_rows_do_not_enter_the_sum():
    table = bundled.load_contributions("codata2018")
    without = ContributionTable(tuple(r for r in table.rows if not r.bookkeeping))
    assert theory_frequency(table).value == theory_frequency(without).value
    assert table.row("proton size").bookkeeping
    with pytest.raises(KeyError, match="no contribution"):
        table.row("does not exist")


def test_missing_mandatory_contribution_is_named():
    table = bundled.load_contributions("codata2018")
    broken = ContributionTable(tuple(r for r in table.rows if r.name != "alpha^3"))
    with pytest.raises(ValueError, match="alpha\\^3"):
        theory_frequency(broken)


def test_case2_table_shifts_only_the_nonrelativistic_term():
    base = bundled.load_contributions("codata2018")
    alt = bundled.load_contributions("penning")
    assert alt.row("alpha^0").value - base.row("alpha^0").value == pytest.approx(1.50, abs=1e-6)
    for name in ("alpha^2", "alpha^3", "further corrections"):
        assert alt.row(name).value == base.row(name).value


# --- scaling model ------------------------------------------------------------


def test_scaled_theory_identity_at_reference(model):
    assert scaled_theory(model, model.mu_p_ref) == model.f_ref  # f_ref * 1.0 ** beta


def test_scaled_theory_linear_response(model):
    delta = 1e-11
    f = scaled_theory(model, model.mu_p_ref * (1.0 + delta))
    assert f - model.f_ref == pytest.approx(model.beta * delta * model.f_ref, rel=1e-4)
    assert f - model.f_ref == pytest.approx(-0.284, abs=2e-3)


def test_scaled_theory_rejects_large_excursions(model):
    with pytest.raises(ValueError, match="linearization"):
        scaled_theory(model, model.mu_p_ref * 1.001)


def test_at_reference_moves_along_the_curve(model):
    f_new = model.f_ref + 1.5
    moved = model.at_reference(f_new)
    assert moved.f_ref == f_new
    assert scaled_theory(moved, moved.mu_p_ref) == f_new
    # the original point stays on the shifted curve to first order
    assert moved.mu_p_ref == model.mu_p_ref * (f_new / model.f_ref) ** (1.0 / model.beta)


def test_beta_window_enforced():
    with pytest.raises(ValueError, match="beta"):
        ScalingModel(f_ref=1.0, mu_p_ref=1836.0, beta=-0.6)


# --- extraction ---------------------------------------------------------------


def test_extraction_inverts_the_scaling_model(model, constants):
    f_exp = measured_quantity(model.f_ref)
    res = extract_mp_over_me(f_exp, model, constants, Quantity(constants.md_over_mp.value, "", {"codata": constants.md_over_mp.uncertainty}))
    assert res.value == model.mu_p_ref  # mu_p_ref * 1.0 ** (1 / beta)
    r = constants.md_over_mp.value
    res_mu = extract_mu_over_me(f_exp, model, constants)
    assert res_mu.value == model.mu_p_ref * r / (1.0 + r)


def test_extraction_channel_scaling(model, constants):
    f_exp = measured_quantity(model.f_ref + 0.2)
    res = extract_mu_over_me(f_exp, model, constants)
    scale = abs(1.0 / model.beta) * res.value / model.f_ref
    assert res.components["exp"] == pytest.approx(0.16101 * scale, rel=1e-12, abs=0.0)  # about 7e-9
    assert res.components["theor_spin"] == pytest.approx(0.85 * scale, rel=1e-12, abs=0.0)
    assert res.components["theor_QED"] == pytest.approx(model.u_qed * scale, rel=1e-12, abs=0.0)
    assert set(res.components) == {"exp", "theor_QED", "theor_spin", "CODATA"}


def test_extraction_is_profile_invariant(constants):
    # moving the reference point along the scaling curve must not change
    # the extracted ratio (the curve itself is the physical content)
    f_exp = measured_quantity(58605052164.255)
    md = Quantity(constants.md_over_mp.value, "", {"codata": constants.md_over_mp.uncertainty})
    values = []
    for profile in ("codata2018", "penning"):
        model = bundled.load_scaling_model(profile)
        values.append(extract_mp_over_me(f_exp, model, constants, md).value)
    assert abs(values[0] - values[1]) < 2e-10


def test_mp_extraction_folds_mass_ratio_uncertainty_into_codata(model, constants):
    f_exp = measured_quantity(model.f_ref)
    md_exact = Quantity(constants.md_over_mp.value, "", {})
    md_loose = Quantity(constants.md_over_mp.value, "", {"codata": 1e-9})
    tight = extract_mp_over_me(f_exp, model, constants, md_exact)
    loose = extract_mp_over_me(f_exp, model, constants, md_loose)
    r = constants.md_over_mp.value
    extra = loose.value * 1e-9 / (r * (1.0 + r))
    assert loose.components["CODATA"] == pytest.approx(
        math.hypot(tight.components["CODATA"], extra), rel=1e-9, abs=0.0
    )


def test_extraction_requires_budget_components(model, constants):
    bare = Quantity(model.f_ref, "kHz", {"exp": 0.16})
    with pytest.raises(ValueError, match="theor_spin"):
        extract_mu_over_me(bare, model, constants)


def test_extraction_rejects_distant_frequency(model, constants):
    far = measured_quantity(model.f_ref * 1.001)
    with pytest.raises(ValueError, match="linearization"):
        extract_mu_over_me(far, model, constants)


def test_extraction_report_totals(model, constants):
    res = extract_mu_over_me(measured_quantity(model.f_ref), model, constants)
    payload = res.report()
    assert payload["total_uncertainty"] == math.sqrt(math.fsum(u * u for u in res.components.values()))
    assert payload["total_fractional"] == payload["total_uncertainty"] / res.value


# --- comparisons ----------------------------------------------------------------


def test_comparison_pulls():
    rows = comparison_report(
        [("this work", 10.0, 0.1), ("other", 10.3, 0.2), ("exact", 10.0, 0.0)],
        reference="this work",
    )
    assert rows[0].pull == 0.0
    assert rows[1].pull == pytest.approx(1.5)
    assert rows[2].pull == 0.0


def test_comparison_unknown_reference():
    with pytest.raises(ValueError, match="not among"):
        comparison_report([("a", 1.0, 0.1)], reference="b")
    with pytest.raises(ValueError, match="at least one"):
        comparison_report([])


# --- file formats ----------------------------------------------------------------


def test_bundled_constants_profiles_differ_in_mass_ratio():
    codata = bundled.load_constants("codata2018")
    penning = bundled.load_constants("penning")
    assert codata.mp_over_me.value == 1836.15267343
    assert penning.mp_over_me.value == 1836.152673309
    assert penning.mp_over_me.uncertainty == 7.1e-8
    assert "Penning" in penning.mp_over_me.source
    assert codata.md_over_mp.value == penning.md_over_mp.value


def test_constants_file_accepts_both_plus_minus_forms(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "mp_over_me = 1836.15267343 ± 0.00000011 # a\n"
        "md_over_mp = 1.999007501274 +/- 0.000000000035 # mean\n",
        encoding="utf-8",
    )
    cs = read_constants_file(path)
    assert cs.mp_over_me.uncertainty == pytest.approx(1.1e-7, rel=1e-12, abs=0)
    assert cs.md_over_mp.uncertainty == pytest.approx(3.5e-11, rel=1e-12, abs=0)
    assert cs.md_over_mp.source == "mean"
    assert cs.mp_over_me.source == "a"


@pytest.mark.parametrize(
    "lines, msg",
    [
        ("mp_over_me = 1 ± 0.1\nmp_over_me = 2 ± 0.1\n", "duplicate"),
        ("nonsense line\n", "expected"),
        ("bogus_name = 1 ± 0.1\n", "expected"),
        ("mp_over_me = 1836.15267343 ± 0.1\n", "missing constant md_over_mp"),
    ],
)
def test_constants_file_validation(tmp_path, lines, msg):
    path = tmp_path / "c.txt"
    path.write_text(lines, encoding="utf-8")
    with pytest.raises(ValueError, match=msg):
        read_constants_file(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("md_over_mp = abc ± 0.1", "md_over_mp has a bad numeric value 'abc'"),
        ("md_over_mp = 2 ± nan", "md_over_mp uncertainty must be finite and >= 0"),
        ("md_over_mp = 2 ± -0.1", "md_over_mp uncertainty must be finite and >= 0"),
        ("md_over_mp = 0 ± 0.1", "md_over_mp must be finite and positive"),
        ("md_over_mp = inf ± 0.1", "md_over_mp must be finite and positive"),
    ],
)
def test_constants_file_names_the_line_of_a_bad_value(tmp_path, line, message):
    path = tmp_path / "c.txt"
    path.write_text(f"mp_over_me = 1836.15267343 ± 0.00000011\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_constants_file(path)
    assert str(exc.value) == f"{path}:2: {message}"


def test_scaling_file_parses_bundled_reference(model):
    assert model.f_ref == pytest.approx(58605052163.91, abs=1e-6)
    assert model.mu_p_ref == 1836.152673406
    assert model.beta == -0.4846
    assert model.u_qed == 0.5
    assert model.u_codata_other == 0.07


@pytest.mark.parametrize(
    "content, msg",
    [
        ("f_ref_khz = 1\n", "missing key mu_p_ref"),
        (
            "f_ref_khz = 58605052163.91\nmu_p_ref = 1836.152673406\nbeta = -0.4846\n"
            "u_qed_khz = 0.5\nu_codata_other_khz = 0.07\nsurprise = 1\n",
            "unknown key 'surprise'",
        ),
        ("f_ref_khz = 1\nf_ref_khz = 2\n", "duplicate"),
        ("just text\n", "key = value"),
    ],
)
def test_scaling_file_validation(tmp_path, content, msg):
    path = tmp_path / "s.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=msg):
        read_scaling_file(path)


SCALING_TEXT = (
    "f_ref_khz = 58605052163.91\nmu_p_ref = 1836.152673406\nbeta = {beta}\n"
    "u_qed_khz = 0.5\nu_codata_other_khz = 0.07\n"
)


def test_scaling_file_names_a_non_numeric_value(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(SCALING_TEXT.format(beta="abc"), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_scaling_file(path)
    assert str(exc.value) == f"{path}:3: beta has a bad numeric value 'abc'"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_scaling_file_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "s.txt"
    path.write_text(SCALING_TEXT.format(beta=value), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_scaling_file(path)
    assert str(exc.value) == f"{path}:3: beta must be finite"


def test_contribution_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "name,value_khz,u_khz,bookkeeping\nalpha^0,100.0,1.3,0\nproton size,-17.17,,1\n",
        encoding="utf-8",
    )
    table = read_contribution_csv(path)
    assert table.rows[0] == Contribution("alpha^0", 100.0, 1.3, False)
    assert table.rows[1] == Contribution("proton size", -17.17, 0.0, True)


@pytest.mark.parametrize(
    "row, msg",
    [
        ("x,nan,0.1,0", "value_khz must be finite"),
        ("x,inf,0.1,0", "value_khz must be finite"),
        ("x,1.0,nan,0", "u_khz must be finite and >= 0"),
        ("x,1.0,inf,0", "u_khz must be finite and >= 0"),
        ("x,1.0,-0.1,0", "u_khz must be finite and >= 0"),
        ("x,1.0,0.1,2", "bookkeeping must be 0 or 1"),
        ("x,1.0,0.1,-1", "bookkeeping must be 0 or 1"),
        ("x,1.0,0.1,", "bookkeeping has a bad numeric value ''$"),
        ("x,1.0,0.1", "bookkeeping has a bad numeric value None$"),
        ("x,abc,0.1,0", "value_khz has a bad numeric value 'abc'$"),
        ("x,1.0,abc,0", "u_khz has a bad numeric value 'abc'$"),
    ],
)
def test_contribution_csv_rejects_bad_cells(tmp_path, row, msg):
    path = tmp_path / "t.csv"
    path.write_text(f"name,value_khz,u_khz,bookkeeping\nalpha^0,100.0,1.3,0\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"t.csv:3: {msg}"):
        read_contribution_csv(path)


def test_contribution_csv_rejects_empty(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("name,value_khz,u_khz,bookkeeping\n", encoding="utf-8")
    with pytest.raises(ValueError, match="t.csv: no data rows$"):
        read_contribution_csv(path)


def test_constant_rejects_negative_uncertainty():
    with pytest.raises(ValueError, match=">= 0"):
        Constant(1.0, -0.1)
