"""Access to the packaged example inputs.

The shipped data reproduce the published headline numbers out of the
box, except for predictions that need the externally tabulated
hyperfine coefficients; those read hfs_coefficients.conf, which is
shipped only as a template (see README, "Data sources").
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .quantity import FINITE, NON_NEGATIVE, OPTIONAL_FINITE, OPTIONAL_NON_NEGATIVE, Quantity, Rule, read_json

# The loaders import the modules they read with, so that `import hdspec.cli`
# (parser defaults, --help) and the commands that need no arrays stay cheap.
if TYPE_CHECKING:
    from .angular import HyperfineCoefficients
    from .constants import ConstantSet, ContributionTable, ScalingModel
    from .systematics import ShiftLedger
    from .zeeman import FieldExtrapolation, ZeemanCouplings

CONSTANT_PROFILES = ("codata2018", "penning")

# the package's data directory, resolved once: `data_path` then costs one stat
_DATA = Path(__file__).parent / "data"

# transition id -> ((G1, G2, F) lower, (G1, G2, F) upper)
TRANSITION_LEVELS = {
    "12": ((1, 2, 2), (1, 2, 1)),
    "16": ((1, 2, 2), (1, 2, 3)),
}

# configuration of the bundled systematic-shift chain
RF_NOMINAL_AMPLITUDE = 1.0
LIGHT_SHIFT_INPUTS = {
    "alpha_s_upper": 4.475,
    "alpha_t_upper": -1.442,
    "alpha_lower": 3.0,
    "intensity_w_m2": 4.0e3,
    "measured_bound_khz": 0.2,
}


def data_path(name: str) -> Path:
    path = _DATA / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file {name!r}")
    return path


def load_constants(profile: str = "codata2018") -> ConstantSet:
    if profile not in CONSTANT_PROFILES:
        raise ValueError(f"unknown constants profile {profile!r}")
    from .constants import read_constants_file

    return read_constants_file(data_path(f"constants_{profile}.txt"))


def load_contributions(profile: str = "codata2018") -> ContributionTable:
    from .constants import read_contribution_csv

    case = {"codata2018": "case1", "penning": "case2"}[profile]
    return read_contribution_csv(data_path(f"contributions_{case}.csv"))


def load_scaling_model(profile: str = "codata2018") -> ScalingModel:
    """Scaling model at the profile's theory reference point.

    The penning profile moves the reference along the scaling curve to
    the case-II contribution sum, which leaves extractions invariant.
    """
    from .constants import read_scaling_file, theory_frequency

    base = read_scaling_file(data_path("analysis_reference.txt"))
    if profile == "codata2018":
        return base
    return base.at_reference(theory_frequency(load_contributions(profile)).value)


def load_couplings() -> ZeemanCouplings:
    from .zeeman import read_couplings_file

    return read_couplings_file(data_path("zeeman_couplings.txt"))


# measured_lines.json: per line f_exp and f_spin in kHz, and levels that must be those of TRANSITION_LEVELS
_KHZ = Rule("must be kHz", choices=frozenset({"kHz"}), optional=True)
_LINE = {"f_exp": {"value": FINITE, "unit": _KHZ, "components": {"exp": NON_NEGATIVE}},
         "f_spin": {"value": FINITE, "unit": _KHZ, "components": {"theor_spin": NON_NEGATIVE}},
         "lower_level": [FINITE], "upper_level": [FINITE]}
_MEASURED_LINES = {**dict.fromkeys(TRANSITION_LEVELS, _LINE), "splitting_theory_khz": [OPTIONAL_FINITE, OPTIONAL_NON_NEGATIVE]}


def load_measured_lines(path: str | Path | None = None) -> dict:
    """f_exp and f_spin of each line as Quantity, and the optional (value, u) splitting theory in kHz."""
    src = Path(path) if path is not None else data_path("measured_lines.json")
    raw = read_json(src, _MEASURED_LINES)
    out: dict = {}
    for line, levels in TRANSITION_LEVELS.items():
        for key, level in zip(("lower_level", "upper_level"), levels):
            if raw[line][key] != list(level):
                raise ValueError(f"{src}: {line}.{key} must be {list(level)}")
        out[line] = {"f_exp": Quantity(**raw[line]["f_exp"]), "f_spin": Quantity(**raw[line]["f_spin"])}
    split = raw.get("splitting_theory_khz")
    out["splitting_theory_khz"] = None if split is None else tuple(split)
    return out


def load_coefficients() -> dict[tuple[int, int], HyperfineCoefficients] | None:
    """The evaluated coefficient file, or None while only the template ships."""
    from .angular import read_coefficient_file

    try:
        path = data_path("hfs_coefficients.conf")
    except FileNotFoundError:
        return None
    parsed = read_coefficient_file(path)
    return parsed or None


def load_demo_coefficients() -> dict[tuple[int, int], HyperfineCoefficients]:
    from .angular import read_coefficient_file

    return read_coefficient_file(data_path("demo_coefficients.conf"))


def corrected_line(line: str) -> tuple[FieldExtrapolation, ShiftLedger]:
    """Zero-field extrapolation plus systematic ledger for one bundled line.

    ledger.corrected carries the corrected line frequency with the full
    `exp` uncertainty (statistical and systematic in quadrature).
    """
    from .systematics import apply_ledger, light_shift_entry, negligible_entries, read_amplitude_csv, rf_extrapolate
    from .zeeman import extrapolate_to_zero_field, read_field_scan_csv

    if line not in TRANSITION_LEVELS:
        raise ValueError(f"unknown line {line!r}")
    b, f, u = read_field_scan_csv(data_path(f"line{line}_zeeman.csv"))
    ext = extrapolate_to_zero_field(b, f, u)
    _, rf_entry = rf_extrapolate(read_amplitude_csv(data_path(f"line{line}_rf.csv")), RF_NOMINAL_AMPLITUDE)
    light = light_shift_entry(
        LIGHT_SHIFT_INPUTS["alpha_s_upper"],
        LIGHT_SHIFT_INPUTS["alpha_t_upper"],
        LIGHT_SHIFT_INPUTS["alpha_lower"],
        LIGHT_SHIFT_INPUTS["intensity_w_m2"],
        LIGHT_SHIFT_INPUTS["measured_bound_khz"],
    )
    ledger = apply_ledger(ext.intercept, [rf_entry, light, *negligible_entries()])
    return ext, ledger
