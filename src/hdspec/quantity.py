"""Physical quantities with named uncertainty components.

A measured or derived number in this package rarely carries a single
error bar.  The analysis tracks statistical and systematic parts
separately (``exp``, ``theor_QED``, ``theor_spin``, ``CODATA``, plus
free-form ``other:<tag>`` entries) so that downstream propagation can
treat them as independent channels, and reports can render them in the
parenthetical style of precision spectroscopy.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

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


@contextlib.contextmanager
def overflow_as_value_error(what: str):
    """Turn float64 overflow inside the block into one ValueError that names `what`.

    numpy would otherwise print a RuntimeWarning for each overflow,
    division by zero or invalid operation on finite but huge inputs, and
    leave an infinity or NaN for a later, less telling check.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{what} overflows float64 ({exc})") from None


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


# ---------------------------------------------------------------------------
# validated CSV tables


@dataclass(frozen=True)
class Rule:
    """What the cells of a CSV column must hold.

    A numeric rule has `accepts`, a predicate that takes a float array or
    one float (NaN fails every rule); a text rule has none, and `choices`
    (if set) are the allowed stripped values.
    `requirement` completes the row-path message `<columns> <requirement>`,
    and `shows_value` appends the offending cell.  An `optional` numeric
    column may be absent or hold an empty (or blank) cell, read as NaN.
    """

    requirement: str
    accepts: Callable | None = None
    choices: frozenset[str] | None = None
    shows_value: bool = False
    optional: bool = False


FINITE = Rule("must be finite", lambda x: (x > -math.inf) & (x < math.inf))
POSITIVE = Rule("must be finite and positive", lambda x: (x > 0) & (x < math.inf))
NON_NEGATIVE = Rule("must be finite and >= 0", lambda x: (x >= 0) & (x < math.inf))
UNIT_INTERVAL = Rule("must be in [0, 1]", lambda x: (x >= 0) & (x <= 1), shows_value=True)
FLAG = Rule("must be 0 or 1", choices=frozenset({"0", "1"}), shows_value=True)
TEXT = Rule("is missing")

OPTIONAL_NON_NEGATIVE = replace(NON_NEGATIVE, optional=True)


# Bytes on which np.loadtxt and csv + float() part ways: quotes (csv
# unquotes), NUL (csv rejects it before Python 3.11), and the separators
# \x1c-\x1f, which loadtxt strips around a number and float() does not.
_ROW_PATH_BYTES = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# A file this small costs less row by row than the fixed cost of np.loadtxt.
_FAST_MIN_BYTES = 1024
_SCAN_BYTES = 1 << 16

Columns = Sequence[tuple[str | tuple[str, ...], Rule]]


def _steps(columns: Columns) -> list[tuple[tuple[str, ...], Rule]]:
    return [((names,) if isinstance(names, str) else tuple(names), rule) for names, rule in columns]


def read_table(path: str | Path, columns: Columns) -> dict[str, np.ndarray | list[str]]:
    """Read and check the named columns of a CSV file with a header row.

    `columns` is a sequence of (column name or names, Rule) steps.  Returns
    each numeric column as a float array and each text column as a list
    of stripped strings, one entry per data row; blank lines are skipped.

    Fast path: a pure-ASCII file of at least `_FAST_MIN_BYTES` without
    quotes, NUL or \\x1c-\\x1f is parsed with one `np.loadtxt` for the
    numeric columns (and one for the text columns), and the rules are
    checked on whole arrays.  Any other file, and any cell that does not
    parse or breaks its rule, goes to the row path, which reads the file
    with `csv.DictReader` and is the authority: it returns the values the
    fast path would, or raises the first fault as `path:line: <column>
    ...`.  The header is read as DictReader reads it (names not stripped,
    the last of a duplicated name wins); a missing required column raises
    KeyError with its name.
    """
    steps = _steps(columns)
    fast = _read_fast(path, steps)
    return fast if fast is not None else _read_rows(path, steps)


def _read_fast(path, steps) -> dict | None:
    """The table by whole-column parsing, or None where the row path must decide."""
    try:
        header = _plain_header(path)
    except OSError:  # the row path raises it as the csv reader always has
        return None
    if header is None:
        return None
    index = {name: i for i, name in enumerate(header.split(","))}
    numeric = [n for names, rule in steps if rule.accepts is not None for n in names if n in index or not rule.optional]
    texts = [n for names, rule in steps if rule.accepts is None for n in names]
    if not all(n in index for n in numeric + texts):
        return None

    def load(usecols: list[int], dtype=float) -> np.ndarray:
        with open(path, encoding="utf-8") as fh:  # universal newlines: \r and \r\n end a line, as for csv
            fh.readline()  # the header
            return np.loadtxt(fh, dtype=dtype, delimiter=",", usecols=usecols, comments=None, ndmin=2)

    out: dict = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # on blank lines and on no data at all: the row count decides
            if numeric:
                cells = load(usecols=[index[n] for n in numeric])
                out.update((n, col.copy()) for n, col in zip(numeric, cells.T))  # each column its own buffer
            if texts:
                cells = load(usecols=[index[n] for n in texts], dtype=object)  # each cell a str, as written
                out.update((n, [s.strip() for s in col]) for n, col in zip(texts, cells.T.tolist()))
    except ValueError:
        return None
    n_rows = len(out[(numeric + texts)[0]])
    if not n_rows:  # no data rows: the row path says so
        return None
    for names, rule in steps:
        for n in names:
            if n not in out:  # an optional column the header lacks
                out[n] = np.full(n_rows, np.nan)
            elif rule.accepts is not None and not _accepted(rule, out[n]):
                return None
            elif rule.choices is not None and not rule.choices.issuperset(out[n]):
                return None
    return out


def _plain_header(path) -> str | None:
    """The header line of a file the fast path may read, else None.

    The file must hold at least `_FAST_MIN_BYTES`, all ASCII and none of
    `_ROW_PATH_BYTES`; it is scanned in chunks, so no copy of it is kept.
    """
    if os.path.getsize(path) < _FAST_MIN_BYTES:
        return None
    with open(path, "rb") as fh:
        chunk = fh.read(_SCAN_BYTES)
        header = chunk.partition(b"\n")[0].partition(b"\r")[0]  # csv ends a line at \r or \n
        if len(header) == _SCAN_BYTES:  # no line end in sight: the header may go on
            return None
        while chunk:
            if not chunk.isascii() or any(b in chunk for b in _ROW_PATH_BYTES):
                return None
            chunk = fh.read(_SCAN_BYTES)
    return header.decode("ascii")


def _accepted(rule: Rule, values: np.ndarray) -> bool:
    with np.errstate(invalid="ignore"):  # NaN compares False, quietly
        return bool(rule.accepts(values).all())


def _read_rows(path, steps) -> dict:
    """The table row by row; the first fault raises `path:line: <column> ...`."""
    required = [n for names, rule in steps if rule.accepts is not None and not rule.optional for n in names]
    texts = {names[0] for names, rule in steps if rule.accepts is None}
    out: dict = {n: [] for names, _ in steps for n in names}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                line = reader.line_num
                values = {n: parse_field(row[n], path, line, n) for n in required}
                for names, rule in steps:
                    name = names[0]
                    if rule.accepts is None:
                        values[name] = _text_cell(row[name], rule, path, line, name)
                    elif rule.optional and not (row.get(name) or "").strip():
                        values[name] = math.nan
                    else:
                        if rule.optional:
                            values[name] = parse_field(row[name], path, line, name)
                        if not all([rule.accepts(values[n]) for n in names]):
                            raise ValueError(_fault(path, line, names, rule, values[name]))
                for n, v in values.items():
                    out[n].append(v)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return {n: v if n in texts else np.array(v, dtype=float) for n, v in out.items()}


def _text_cell(cell: str | None, rule: Rule, path, line: int, name: str) -> str:
    if rule.choices is None:
        if cell is None:  # a short row
            raise ValueError(f"{path}:{line}: {name} {rule.requirement}")
        return cell.strip()
    cell = (cell or "").strip()
    if cell not in rule.choices:
        raise ValueError(_fault(path, line, (name,), rule, cell))
    return cell


def _fault(path, line: int, names: tuple[str, ...], rule: Rule, value) -> str:
    got = f", got {value!r}" if rule.shows_value else ""
    return f"{path}:{line}: {' and '.join(names)} {rule.requirement}{got}"
