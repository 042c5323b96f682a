"""Physical quantities with named uncertainty components.

A measured or derived number in this package rarely carries a single
error bar.  The analysis tracks statistical and systematic parts
separately (``exp``, ``theor_QED``, ``theor_spin``, ``CODATA``, plus
free-form ``other:<tag>`` entries) so that downstream propagation can
treat them as independent channels, and reports can render them in the
parenthetical style of precision spectroscopy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

KNOWN_COMPONENTS = ("exp", "theor_QED", "theor_spin", "CODATA")


def _validated_components(components: Mapping[str, float]) -> dict[str, float]:
    # canonical names are reserved; any other non-empty name flows through
    out: dict[str, float] = {}
    for name, u in components.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"component names must be non-empty strings, got {name!r}")
        u = float(u)
        if not math.isfinite(u) or u < 0.0:
            raise ValueError(f"component {name!r} must be a finite value >= 0, got {u}")
        out[name] = u
    return out


@dataclass(frozen=True)
class Quantity:
    """A value with a unit and named, independent uncertainty components.

    Components are absolute (same unit as the value).  Instances are
    immutable; derive modified ones with :meth:`with_component`.
    """

    value: float
    unit: str = "kHz"
    components: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        object.__setattr__(self, "components", _validated_components(self.components))

    def component(self, name: str) -> float:
        """Return one component's uncertainty, 0 if absent."""
        return self.components.get(name, 0.0)

    def with_component(self, name: str, u: float) -> "Quantity":
        comps = dict(self.components)
        comps[name] = u
        return Quantity(self.value, self.unit, comps)

    def total_uncertainty(self, mode: str = "quadrature") -> float:
        """Combine all components into one number.

        ``quadrature`` treats components as independent; ``absolute-sum``
        is the conservative bound used by the spin-theory error model.
        """
        if mode == "quadrature":
            return math.sqrt(sum(u * u for u in self.components.values()))
        if mode == "absolute-sum":
            return sum(self.components.values())
        raise ValueError(f"unknown combination mode {mode!r}")

    def to_json(self) -> str:
        return json.dumps(
            {"value": self.value, "unit": self.unit, "components": dict(sorted(self.components.items()))},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Quantity":
        raw = json.loads(text)
        return cls(raw["value"], raw.get("unit", "kHz"), raw.get("components", {}))

    def __format__(self, spec: str) -> str:
        if spec:
            return format(self.value, spec) + f" {self.unit}"
        return parenthetical(self)


def combine_linear(terms: Sequence[tuple[float, Quantity]]) -> Quantity:
    """Linear combination sum(c_i * q_i) with per-component propagation.

    The value combines linearly; each named component combines in
    quadrature across terms with weight |c_i|, which assumes a given
    component name is independent between terms.  Correlated spin-theory
    sums must not go through here (see the composite module).
    """
    if not terms:
        raise ValueError("combine_linear needs at least one term")
    units = {q.unit for _, q in terms}
    if len(units) > 1:
        raise ValueError(f"mixed units in combination: {sorted(units)}")
    value = sum(c * q.value for c, q in terms)
    names: set[str] = set()
    for _, q in terms:
        names.update(q.components)
    comps = {
        name: math.sqrt(sum((c * q.component(name)) ** 2 for c, q in terms))
        for name in names
    }
    return Quantity(value, terms[0][1].unit, comps)


def parenthetical(q: Quantity, digits: int = 2) -> str:
    """Render ``58605013478.03(19)_exp kHz``-style text.

    Each component is scaled to the least significant digit of the
    rounded value.  Purely a display helper; no rounding feeds back into
    the analysis.
    """
    if not q.components:
        return f"{q.value} {q.unit}"
    max_u = max(q.components.values())
    if max_u <= 0.0:
        decimals = 2
    else:
        # keep `digits` significant figures in the largest component
        decimals = max(0, digits - 1 - math.floor(math.log10(max_u)))
    scale = 10 ** decimals
    parts = "".join(
        f"({max(1, round(u * scale))})_{name}" for name, u in sorted(q.components.items())
    )
    return f"{q.value:.{decimals}f}{parts} {q.unit}"


def parse_field(text: str | None, path, lineno: int, name: str) -> float:
    """One numeric field of an input file; a missing or unparseable one names `path:line` and the field."""
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ValueError(f"{path}:{lineno}: {name} has a bad numeric value {text!r}") from None
