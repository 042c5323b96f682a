"""Theory frequency, mass-ratio scaling, and constant extraction.

The ab initio prediction for the spin-averaged frequency is assembled
from a tabulated ledger of contributions ordered in powers of alpha.
Around the tabulated evaluation point, f responds to the proton-to-
electron mass ratio mu_p = m_p/m_e (at fixed m_d/m_p) through a single
logarithmic derivative beta, which is what lets a measured frequency be
inverted for mu/m_e and m_p/m_e with a four-component error budget.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .quantity import (
    FINITE, FLAG, NON_NEGATIVE, OPTIONAL_NON_NEGATIVE, POSITIVE, TEXT, Quantity, checked_field, read_keys, read_table,
)

MANDATORY_CONTRIBUTIONS = (
    "alpha^0",
    "alpha^2",
    "alpha^3",
    "alpha^4",
    "alpha^5",
    "alpha^6",
    "further corrections",
)

CONSTANT_NAMES = ("mp_over_me", "md_over_mp")


@dataclass(frozen=True)
class Constant:
    value: float
    uncertainty: float
    source: str = ""

    def __post_init__(self) -> None:
        if self.uncertainty < 0:
            raise ValueError("constant uncertainty must be >= 0")


@dataclass(frozen=True)
class ConstantSet:
    """The two mass ratios the extraction reads (dimensionless)."""

    mp_over_me: Constant
    md_over_mp: Constant


@dataclass(frozen=True)
class Contribution:
    name: str
    value: float
    uncertainty: float = 0.0
    bookkeeping: bool = False


@dataclass(frozen=True)
class ContributionTable:
    """Ordered contributions to the theory frequency, in kHz.

    Bookkeeping rows (e.g. finite-size terms already contained in the
    alpha^2 term) are displayed in budgets but excluded from the sum.
    """

    rows: tuple[Contribution, ...]

    def row(self, name: str) -> Contribution:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"no contribution named {name!r}")


def theory_frequency(table: ContributionTable) -> Quantity:
    """Sum the non-bookkeeping contributions.

    The mass-constant (CODATA) uncertainty rides on the nonrelativistic
    alpha^0 row; the uncertainties of all other summed rows combine in
    quadrature into theor_QED.
    """
    names = [r.name for r in table.rows]
    for mandatory in MANDATORY_CONTRIBUTIONS:
        if mandatory not in names:
            raise ValueError(f"contribution table is missing the {mandatory!r} term")
    value = sum(r.value for r in table.rows if not r.bookkeeping)
    u_codata = table.row("alpha^0").uncertainty
    u_qed = math.sqrt(
        sum(r.uncertainty ** 2 for r in table.rows if not r.bookkeeping and r.name != "alpha^0")
    )
    return Quantity(value, "kHz", {"theor_QED": u_qed, "CODATA": u_codata})


@dataclass(frozen=True)
class ScalingModel:
    """Log-linear response of the theory frequency to mu_p = m_p/m_e.

    beta = d ln f / d ln mu_p at constant m_d/m_p.  Extraction reads the
    spin-theory uncertainty from the measured frequency's own component.
    """

    f_ref: float
    mu_p_ref: float
    beta: float = -0.4846
    u_qed: float = 0.5
    u_codata_other: float = 0.07

    def __post_init__(self) -> None:
        if not -0.5 < self.beta < -0.45:
            raise ValueError(f"beta = {self.beta} outside the physical window (-0.5, -0.45)")

    def at_reference(self, f_ref_new: float) -> "ScalingModel":
        """Move the reference point along the scaling curve.

        Used for alternative mass scenarios: a shifted theory value
        implies the reference mass ratio consistent with the same curve.
        """
        mu_new = self.mu_p_ref * (f_ref_new / self.f_ref) ** (1.0 / self.beta)
        return dataclasses.replace(self, f_ref=f_ref_new, mu_p_ref=mu_new)


def scaled_theory(model: ScalingModel, mu_p: float) -> float:
    """f = f_ref * (mu_p / mu_p_ref)^beta, valid near the reference."""
    ratio = mu_p / model.mu_p_ref
    if abs(math.log(ratio)) >= 1e-6:
        raise ValueError(
            f"mu_p = {mu_p} is outside the linearization range of the scaling model"
        )
    return model.f_ref * ratio ** model.beta


@dataclass(frozen=True)
class ExtractionResult:
    """An extracted mass ratio with per-channel absolute uncertainties."""

    name: str
    value: float
    components: dict[str, float]

    @property
    def total_uncertainty(self) -> float:
        return math.sqrt(sum(u * u for u in self.components.values()))

    @property
    def total_fractional(self) -> float:
        return self.total_uncertainty / abs(self.value)

    def report(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "components": dict(sorted(self.components.items())),
            "total_uncertainty": self.total_uncertainty,
            "total_fractional": self.total_fractional,
        }


def _require_components(f_exp: Quantity) -> None:
    for name in ("exp", "theor_spin"):
        if name not in f_exp.components:
            raise ValueError(f"measured frequency must carry an {name!r} component")


def _invert(f_exp: Quantity, model: ScalingModel, value_ref: float) -> tuple[float, dict[str, float]]:
    """value_ref * (f_exp/f_ref)^(1/beta), and each frequency channel u mapped to |1/beta| * (u/f_ref) * value."""
    ratio = f_exp.value / model.f_ref
    if abs(math.log(ratio)) >= 1e-6:
        raise ValueError("measured frequency is outside the linearization range")
    value = value_ref * ratio ** (1.0 / model.beta)
    scale = abs(1.0 / model.beta) * value / model.f_ref
    channels = {
        "exp": f_exp.component("exp"),
        "theor_QED": model.u_qed,
        "theor_spin": f_exp.component("theor_spin"),
        "CODATA": model.u_codata_other,
    }
    return value, {k: u * scale for k, u in channels.items()}


def extract_mu_over_me(f_exp: Quantity, model: ScalingModel, constants: ConstantSet) -> ExtractionResult:
    """Invert the scaling model for the reduced-mass ratio mu/m_e.

    mu/m_e = (mu/m_e)_ref * (f_exp/f_ref)^(1/beta) at constant m_d/m_p;
    each frequency uncertainty u maps to |1/beta| * (u/f_ref) * value.
    """
    _require_components(f_exp)
    r = constants.md_over_mp.value
    value, components = _invert(f_exp, model, model.mu_p_ref * r / (1.0 + r))
    return ExtractionResult("mu_over_me", value, components)


def extract_mp_over_me(
    f_exp: Quantity, model: ScalingModel, constants: ConstantSet, md_over_mp: Quantity
) -> ExtractionResult:
    """Invert for m_p/m_e; fold the m_d/m_p uncertainty into CODATA.

    m_p/m_e equals (mu/m_e)(1 + r)/r with r = m_d/m_p, which collapses
    to mu_p_ref * (f_exp/f_ref)^(1/beta) on the same scaling curve.  The
    r uncertainty enters through the conversion channel
    |d(m_p/m_e)/dr| = (m_p/m_e)/(r(1+r)).
    """
    _require_components(f_exp)
    if md_over_mp.value <= 0:
        raise ValueError("md_over_mp must be positive")
    value, components = _invert(f_exp, model, model.mu_p_ref)
    r, u_r = md_over_mp.value, md_over_mp.total_uncertainty()
    components["CODATA"] = math.hypot(components["CODATA"], value * u_r / (r * (1.0 + r)))
    return ExtractionResult("mp_over_me", value, components)


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    value: float
    uncertainty: float
    pull: float


def comparison_report(
    determinations: Sequence[tuple[str, float, float]], reference: str | None = None
) -> list[ComparisonRow]:
    """Pulls (value - reference)/u of each determination.

    The reference is a determination label (default: the first entry);
    its own pull is zero by construction.
    """
    if not determinations:
        raise ValueError("need at least one determination")
    labels = [d[0] for d in determinations]
    ref_label = reference if reference is not None else labels[0]
    if ref_label not in labels:
        raise ValueError(f"reference {ref_label!r} is not among the determinations")
    ref_value = next(v for label, v, _ in determinations if label == ref_label)
    return [
        ComparisonRow(label, value, u, (value - ref_value) / u if u > 0 else 0.0)
        for label, value, u in determinations
    ]


# ---------------------------------------------------------------------------
# file formats


_CONSTANT_RE = re.compile(
    r"^(?P<name>\w+)\s*=\s*(?P<value>[^\s±]+)\s*(?:±|\+/-)\s*(?P<u>\S+)\s*(?:#\s*(?P<source>.*))?$"
)


def read_constants_file(path: str | Path) -> ConstantSet:
    """Parse `name = value ± uncertainty # source` lines: a finite, positive value and a finite u >= 0."""
    found: dict[str, Constant] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _CONSTANT_RE.match(line)
        if not m or m.group("name") not in CONSTANT_NAMES:
            raise ValueError(f"{path}:{lineno}: expected `name = value ± uncertainty # source`")
        name = m.group("name")
        if name in found:
            raise ValueError(f"{path}:{lineno}: duplicate constant {name}")
        found[name] = Constant(
            checked_field(m.group("value"), POSITIVE, path, lineno, name),
            checked_field(m.group("u"), NON_NEGATIVE, path, lineno, f"{name} uncertainty"),
            (m.group("source") or "").strip(),
        )
    missing = [n for n in CONSTANT_NAMES if n not in found]
    if missing:
        raise ValueError(f"{path}: missing constant {missing[0]}")
    return ConstantSet(found["mp_over_me"], found["md_over_mp"])


def read_contribution_csv(path: str | Path) -> ContributionTable:
    """Read `name, value_khz, u_khz, bookkeeping(0|1)` rows, order kept.

    value_khz must be finite; u_khz, if the column and the cell are there,
    finite and >= 0 (else 0); bookkeeping 0 or 1.
    """
    cols = read_table(
        path, [("value_khz", FINITE), ("u_khz", OPTIONAL_NON_NEGATIVE), ("bookkeeping", FLAG), ("name", TEXT)]
    )
    rows = [
        Contribution(name, value, 0.0 if math.isnan(u) else u, bookkeeping == "1")
        for name, value, u, bookkeeping in zip(
            cols["name"], cols["value_khz"].tolist(), cols["u_khz"].tolist(), cols["bookkeeping"]
        )
    ]
    if not rows:
        raise ValueError(f"{path}: empty contribution table")
    return ContributionTable(tuple(rows))


def read_scaling_file(path: str | Path) -> ScalingModel:
    """Parse the scaling-model reference data (key = value lines)."""
    keys = read_keys(path, {"f_ref_khz": POSITIVE, "mu_p_ref": POSITIVE, "beta": FINITE, "u_qed_khz": NON_NEGATIVE,
                            "u_codata_other_khz": NON_NEGATIVE})
    return ScalingModel(keys["f_ref_khz"], keys["mu_p_ref"], keys["beta"], keys["u_qed_khz"], keys["u_codata_other_khz"])
