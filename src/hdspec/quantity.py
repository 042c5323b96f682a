"""Physical quantities with named uncertainty components, and the validated input readers.

A measured or derived number in this package rarely carries a single
error bar.  The analysis tracks statistical and systematic parts
separately (``exp``, ``theor_QED``, ``theor_spin``, ``CODATA``, plus
free-form ``other:<tag>`` entries) so that downstream propagation can
treat them as independent channels.  A Quantity's JSON form, `{value,
unit, components}`, is written by `Quantity.report` alone, and reports
print it in the parenthetical style of precision spectroscopy
(`parenthetical`; `fixed` prints one number by the same 1e15 rule).
Every input file is read once, by `input_bytes`, and decoded as UTF-8 by
`input_text` (`path: 'utf-8' codec can't decode ...` if it is not), for
one reader per format: `read_table` (CSV), `read_keys` (`key = value`) or
`read_json`.  The first two read the lines of `input_lines`, which end at
CR, LF or CR LF, with a Rule per column or key; the third a shape built of
Rules.  A fault is one ValueError that names the file.  `read_table` reads
every table row by row into columns that are lists of Python floats, and
a `Rule` checks one float at a time.  Arithmetic that leaves float64, in
numpy or on Python floats, is one ValueError that names its step: each
step that can leave float64 runs under the one guard,
`overflow_as_value_error`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence


def _validated_components(components: Mapping[str, float]) -> dict[str, float]:
    # any non-empty name is a component
    out: dict[str, float] = {}
    for name, u in components.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"component names must be non-empty strings, got {name!r}")
        u = float(u)
        if not math.isfinite(u) or u < 0.0:
            raise ValueError(f"component {name!r} must be a finite value >= 0, got {u}")
        out[name] = u
    return out


class Record:
    """A record of the fields its class names in `__slots__`, equal to a record of its class with equal fields.

    The record classes whose values are compared or shown derive from it;
    their repr names the class and each field.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Quantity(Record):
    """A value with a unit and named, independent uncertainty components.

    Components are absolute (same unit as the value).  No method changes
    an instance, and two are equal when value, unit and components are;
    a changed quantity is a new one, built from the changed components.
    """

    __slots__ = ("value", "unit", "components")

    def __init__(self, value: float, unit: str = "kHz", components: Mapping[str, float] | None = None) -> None:
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        self.value = value
        self.unit = unit
        self.components = _validated_components({} if components is None else components)

    def component(self, name: str) -> float:
        """Return one component's uncertainty, 0 if absent."""
        return self.components.get(name, 0.0)

    def total_uncertainty(self, mode: str = "quadrature") -> float:
        """Combine all components into one number.

        ``quadrature`` treats components as independent; ``absolute-sum``
        is the conservative bound used by the spin-theory error model.
        """
        if mode == "quadrature":
            return quadrature(self.components.values())
        if mode == "absolute-sum":
            return math.fsum(self.components.values())
        raise ValueError(f"unknown combination mode {mode!r}")

    def report(self) -> dict:
        """The JSON form of the quantity: value, unit and components in name order, each number a float."""
        return {
            "value": float(self.value),
            "unit": self.unit,
            "components": {k: float(v) for k, v in sorted(self.components.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.report(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Quantity":
        raw = json.loads(text)
        return cls(raw["value"], raw.get("unit", "kHz"), raw.get("components", {}))


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
    value = exact_sum(c * q.value for c, q in terms)
    names: set[str] = set()
    for _, q in terms:
        names.update(q.components)
    comps = {name: quadrature(c * q.component(name) for c, q in terms) for name in names}
    return Quantity(value, terms[0][1].unit, comps)


def exact_sum(values: Iterable[float]) -> float:
    """`math.fsum` of `values`, also where its running total leaves float64 on the way to a finite sum.

    `math.fsum` raises OverflowError `intermediate overflow in fsum`
    where a partial sum overflows, whatever the total.  Where every value
    is finite, their exact sum is then taken in `fractions.Fraction` and
    rounded once; a sum beyond float64 raises that OverflowError.
    """
    values = list(values)
    try:
        return math.fsum(values)
    except OverflowError as exc:
        if not all(map(math.isfinite, values)):
            raise
        from fractions import Fraction

        total = Fraction(0)
        for v in values:
            total += Fraction(v)
        try:
            return float(total)
        except OverflowError:
            raise exc from None


def quadrature(values: Iterable[float]) -> float:
    """The root of the sum of squares of `values`, inf where that sum leaves float64.

    Every sum of floats in this package is correctly rounded, by
    `math.fsum` or `exact_sum`: builtin sum() of floats rounds by the
    Python version's rule (compensated from 3.12 on), so its last bit
    would depend on it.
    """
    try:
        return math.sqrt(math.fsum(u * u for u in values))
    except OverflowError:  # finite squares whose sum leaves float64
        return math.inf


@contextlib.contextmanager
def overflow_as_value_error(what: str):
    """Turn arithmetic that leaves float64 inside the block into one ValueError that names `what`.

    Every ArithmeticError in the block (numpy's FloatingPointError,
    OverflowError, ZeroDivisionError) becomes ValueError `<what>
    overflows float64 (<detail>)`.  When numpy is loaded, its overflow,
    division by zero and invalid operation raise inside the block rather
    than print a RuntimeWarning and leave an infinity or NaN for a later,
    less telling check.  A block that computes on arrays imports numpy
    before it enters; a numpy-free command never loads it here.  Python's
    `*`, `+` and `-` overflow to an infinity or NaN without a word:
    `finite` turns such a value into an OverflowError.
    """
    np = sys.modules.get("numpy")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise") if np else contextlib.nullcontext():
            yield
    except ArithmeticError as exc:
        raise ValueError(f"{what} overflows float64 ({exc.args[-1] if exc.args else exc})") from None


def finite(name: str, *values: float) -> None:
    """Raise OverflowError `<name> = <value>` at the first of `values` that is not finite."""
    for v in values:
        if not math.isfinite(v):
            raise OverflowError(f"{name} = {v!r}")


def finite_step(step: str, values: list[float]) -> list[float]:
    """`values`, or OverflowError `overflow encountered in <step>`, numpy's words, where one left float64."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"overflow encountered in {step}")
    return values


_EXPONENT_FROM = 1e15  # where a float64 holds no hundredths, a printed number switches to exponent form
_DIGITS = 2  # significant digits of each component in `parenthetical` text


def fixed(x: float, spec: str) -> str:
    """`x` in the fixed-point format `spec` (`.2f`, `+.4f`, ...) below 1e15 in magnitude.

    From 1e15 on, where a float64 holds no hundredths, it is in exponent
    form to 7 digits with `spec`'s flags (`+.2f` as `+.6e`): the text is
    bounded for any float.
    """
    return format(x, spec) if abs(x) < _EXPONENT_FROM else format(x, spec.partition(".")[0] + ".6e")


def parenthetical(q: Quantity) -> str:
    """Render ``58605013478.03(19)_exp kHz``-style text.

    Each component is scaled to the least significant digit of the
    rounded value: an exact 0 prints as (0), and a non-zero component
    that rounds to 0 as (1).  From 1e15 on, the value or the largest
    component switches the text to exponent form,
    ``1.223899e+300(1.5e-01)_exp kHz``: the value to 7 digits and each
    component to 2, bounded for any float.  Purely a display helper; no rounding feeds back into the
    analysis.
    """
    if not q.components:
        return f"{q.value} {q.unit}"
    max_u = max(q.components.values())
    if max(abs(q.value), max_u) >= _EXPONENT_FROM:
        parts = "".join(f"({u:.{_DIGITS - 1}e})_{name}" for name, u in sorted(q.components.items()))
        return f"{q.value:.6e}{parts} {q.unit}"
    if max_u <= 0.0:
        decimals = 2
    else:
        # keep `_DIGITS` significant figures in the largest component
        decimals = max(0, _DIGITS - 1 - math.floor(math.log10(max_u)))
    scale = 10 ** decimals
    parts = "".join(
        f"({max(1, round(u * scale)) if u else 0})_{name}" for name, u in sorted(q.components.items())
    )
    return f"{q.value:.{decimals}f}{parts} {q.unit}"


def checked_field(text: str | None, rule: Rule, path, lineno: int, name: str) -> float:
    """One numeric field of an input file that `rule` accepts.

    A missing or unparseable field, or a value the rule refuses, is
    ValueError `path:line: <name> ...`: the field and what is wrong.
    """
    try:
        x = float(text)
    except (TypeError, ValueError):
        raise ValueError(f"{path}:{lineno}: {name} has a bad numeric value {text!r}") from None
    if not rule.accepts(x):
        got = f", got {x!r}" if rule.shows_value else ""
        raise ValueError(f"{path}:{lineno}: {name} {rule.requirement}{got}") from None
    return x


# ---------------------------------------------------------------------------
# validated CSV tables


class Rule:
    """What a CSV column, a `key = value` key or a JSON value must hold.

    A numeric rule has `accepts`, a predicate that takes one float (NaN
    fails every rule); a 0/1 flag is such a rule.  A text rule has none,
    and `choices` (if set) are the values a JSON string may take; a CSV
    text cell is any text.  `requirement` completes the message `<name>
    <requirement>`, and `shows_value` appends the offending value.  An
    `optional` numeric CSV column may be absent or hold an empty (or
    blank) cell, read as NaN; an optional key may be absent.  A CSV text
    column, optional or not, must be there with a cell in every row; one
    that is not `kept` is checked, but `read_table` does not return it.
    """

    __slots__ = ("requirement", "accepts", "choices", "shows_value", "optional", "kept")

    def __init__(
        self,
        requirement: str,
        accepts: Callable | None = None,
        choices: frozenset[str] | None = None,
        shows_value: bool = False,
        optional: bool = False,
        kept: bool = True,
    ) -> None:
        self.requirement = requirement
        self.accepts = accepts
        self.choices = choices
        self.shows_value = shows_value
        self.optional = optional
        self.kept = kept


FINITE = Rule("must be finite", lambda x: -math.inf < x < math.inf)
POSITIVE = Rule("must be finite and positive", lambda x: 0 < x < math.inf)
NON_NEGATIVE = Rule("must be finite and >= 0", lambda x: 0 <= x < math.inf)
UNIT_INTERVAL = Rule("must be in [0, 1]", lambda x: 0 <= x <= 1, shows_value=True)
FLAG = Rule("must be 0 or 1", lambda x: x == 0 or x == 1, shows_value=True)
TEXT = Rule("is missing")

OPTIONAL_FINITE = Rule(FINITE.requirement, FINITE.accepts, optional=True)
OPTIONAL_POSITIVE = Rule(POSITIVE.requirement, POSITIVE.accepts, optional=True)
OPTIONAL_NON_NEGATIVE = Rule(NON_NEGATIVE.requirement, NON_NEGATIVE.accepts, optional=True)
OPTIONAL_TEXT = Rule(TEXT.requirement, optional=True)
UNUSED_TEXT = Rule(TEXT.requirement, kept=False)


def input_bytes(path: str | Path) -> bytes:
    """The bytes of the input file at `path`: every reader takes its file from here, in one read."""
    return Path(path).read_bytes()


def input_text(path: str | Path, data: bytes | None = None) -> str:
    """`data`, or the bytes of the file at `path`, as UTF-8 text; else ValueError `path: <codec message>`."""
    try:
        return (input_bytes(path) if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def input_lines(path: str | Path, data: bytes | None = None) -> io.TextIOWrapper:
    """The lines of `input_text` as `open(path, newline="")` reads them: each keeps its end, CR, LF or CR LF."""
    data = input_bytes(path) if data is None else data
    input_text(path, data)  # the whole file is checked first, so a fault is named at its offset in the file
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def read_table(path: str | Path, columns: Mapping[str, Rule]) -> dict[str, list[float] | list[str]]:
    """`parse_table` of the CSV file at `path`."""
    return parse_table(path, input_bytes(path), columns)


def parse_table(path: str | Path, data: bytes, columns: Mapping[str, Rule]) -> dict[str, list[float] | list[str]]:
    """Read and check the named columns of the CSV bytes of the file at `path`, with a header row, row by row.

    `columns` maps each column name to its Rule.  Returns each numeric
    column as a list of Python floats and each kept text column as a list
    of stripped strings, one entry per data row; blank lines are skipped.
    A text column, kept or not, must be there with a cell in every row;
    one that is not kept is left out.  The header is read as
    `csv.DictReader` reads it (names not stripped, the last of a
    duplicated name wins); a column it lacks, other than an optional
    numeric one, is `path:1: missing column <name>`, and a file without
    data rows `path: no data rows`.  A row is read once, and its first
    fault is `path:line: <column> ...` at the cell that holds it: the
    cells are checked required numeric columns first, then optional
    numeric columns, then text columns, each in the order of `columns`.
    A line is the physical line `csv.reader` has read up to: a row's last
    line, or, for a `csv.Error`, the line it stopped on.
    """
    out: dict = {n: [] for n, rule in columns.items() if rule.kept}
    n_rows = 0
    reader = csv.reader(input_lines(path, data))  # each line with its end, for csv
    try:
        index = {name: i for i, name in enumerate(next(reader, ()))}
        required, optional, texts = [], [], []  # (index, accepts, append, name, rule) of each column, in check order
        for name, rule in columns.items():
            optional_number = rule.optional and rule.accepts is not None
            if not (optional_number or name in index):
                raise ValueError(f"{path}:1: missing column {name}")
            plans = optional if optional_number else texts if rule.accepts is None else required
            plans.append((index.get(name, math.inf), rule.accepts, out[name].append if rule.kept else None, name, rule))
        for row in reader:
            if not row:
                continue
            n_rows += 1
            try:
                for i, accepts, append, name, rule in required:
                    if not accepts(x := float(row[i])):
                        raise ValueError
                    append(x)
                for i, accepts, append, name, rule in optional:
                    cell = row[i] if i < len(row) else ""
                    if not cell.strip():  # a blank or missing cell is NaN, unchecked
                        append(math.nan)
                    elif accepts(x := float(cell)):
                        append(x)
                    else:
                        raise ValueError
                for i, accepts, append, name, rule in texts:
                    cell = row[i]
                    if append:
                        append(cell.strip())
            except (IndexError, ValueError):  # the cell of the plan in hand: `checked_field` words a numeric one
                if accepts is None:
                    raise ValueError(f"{path}:{reader.line_num}: {name} {rule.requirement}") from None
                checked_field(row[i] if i < len(row) else None, rule, path, reader.line_num, name)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not n_rows:
        raise ValueError(f"{path}: no data rows")
    return out


# ---------------------------------------------------------------------------
# validated key = value files and JSON documents


def read_keys(path: str | Path, rules: Mapping[str, Rule], section=None):
    """{key: value} of a file of `key = value` lines, one numeric Rule per key; `#` starts a comment.

    With a compiled pattern as `section`, a line it matches opens a section,
    and the result is a list of (match, line number, {key: value}) in file
    order.  A key whose rule is `optional` may be absent.  A fault raises
    ValueError as `path:line: ...`, or `path: missing key x`.
    """
    sections = [] if section else [(None, 0, {})]
    for lineno, raw in enumerate(input_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        header = section and section.match(line)
        if header:
            sections.append((header, lineno, {}))
        elif line:
            key, sep, text = (t.strip() for t in line.partition("="))
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            if key not in rules:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if not sections:
                raise ValueError(f"{path}:{lineno}: {key} is outside of a section")
            if key in sections[-1][2]:
                raise ValueError(f"{path}:{lineno}: duplicate key {key}")
            sections[-1][2][key] = checked_field(text, rules[key], path, lineno, key)
    for header, _, values in sections:
        for key, rule in rules.items():
            if not (rule.optional or key in values):
                raise ValueError(f"{path}: {f'{header.string} ' if header else ''}missing key {key}")
    return sections if section else sections[0][2]


def read_json(path: str | Path, shape):
    """A JSON document checked against `shape`, each number as a float.

    A shape is a Rule, a dict or a list.  A dict is an object with exactly
    its keys; a key may be absent (and is then absent from the result) when
    its shape is an `optional` Rule or a list of them.  A list of one shape
    is an array of any length, a longer list an array of one item per
    shape.  A numeric Rule takes a number, or a string that float() reads,
    that is finite and passes it; a text Rule takes a string, one of its
    `choices` if set.  A fault raises ValueError as `path: <key path> ...`.
    """
    text = input_text(path).replace("\r\n", "\n").replace("\r", "\n")  # universal newlines: a fault's place as read
    try:  # an integer is read as float() reads its digits: no int beyond float64, no digit limit
        doc = json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:  # not JSON, or nested past the parser's depth
        raise ValueError(f"{path}: {exc}") from None
    return _checked(doc, shape, path, "")


def _optional(shape) -> bool:
    return shape.optional if isinstance(shape, Rule) else isinstance(shape, list) and all(map(_optional, shape))


def _checked(value, shape, path, where: str):
    def fault(what: str) -> ValueError:
        return ValueError(f"{path}: {where or 'the document'} {what}")

    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise fault("must be an object")
        prefix = f"{where}." if where else ""
        for key in value:
            if key not in shape:  # repr escapes a line break in the key: the message stays one line
                raise ValueError(f"{path}: {prefix}{repr(key)[1:-1]} is not a known key")
        for key, sub in shape.items():
            if key not in value and not _optional(sub):
                raise ValueError(f"{path}: {prefix}{key} is missing")
        return {key: _checked(value[key], sub, path, prefix + key) for key, sub in shape.items() if key in value}
    if isinstance(shape, list):
        if not isinstance(value, list) or len(shape) > 1 and len(value) != len(shape):
            raise fault("must be a list" if len(shape) == 1 else f"must be a list of {len(shape)}")
        items = shape * len(value) if len(shape) == 1 else shape
        return [_checked(v, s, path, f"{where}[{i}]") for i, (v, s) in enumerate(zip(value, items))]
    if shape.accepts is None:
        if not isinstance(value, str) or shape.choices is not None and value not in shape.choices:
            raise fault("must be a string" if shape.choices is None else shape.requirement)
        return value
    if not isinstance(value, (float, str)):  # a boolean or null is no number
        raise fault("must be a number")
    try:
        x = float(value)
    except ValueError:
        raise fault(f"has a bad numeric value {value!r}") from None
    if not math.isfinite(x):
        raise fault("must be finite")
    if not shape.accepts(x):
        raise fault(shape.requirement)
    return x
