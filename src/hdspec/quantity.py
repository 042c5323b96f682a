"""Physical quantities with named uncertainty components, and the validated input readers.

A measured or derived number in this package rarely carries a single
error bar.  The analysis tracks statistical and systematic parts
separately (``exp``, ``theor_QED``, ``theor_spin``, ``CODATA``, plus
free-form ``other:<tag>`` entries) so that downstream propagation can
treat them as independent channels, and reports can render them in the
parenthetical style of precision spectroscopy.  Every input file is read
by one reader per format, `read_table` (CSV), `read_keys` (`key = value`)
or `read_json`.  The first two take a mapping from each column or key to
its `Rule`, the third a shape built of Rules; a fault is one ValueError
that names the file.  Arithmetic that leaves float64, in numpy or on
Python floats, is one ValueError that names its step: each step that can
leave float64 runs under the one guard, `overflow_as_value_error`.
"""

from __future__ import annotations

import array
import contextlib
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, Mapping, Sequence

# numpy is imported inside the functions that build arrays: the commands that
# build none (carrier, dfg, ledger, compare, extract, and extrapolate-b,
# extrapolate-rf, fit-line and adev on inputs read row by row) then start
# without it


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
    derive modified ones with :meth:`with_component`.
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


def checked_field(text: str, rule: Rule, path, lineno: int, name: str) -> float:
    """`parse_field`, then `rule`; a value the rule refuses names `path:line`, the field and the requirement."""
    x = parse_field(text, path, lineno, name)
    if not rule.accepts(x):
        raise ValueError(_fault(path, lineno, name, rule, x))
    return x


# ---------------------------------------------------------------------------
# validated CSV tables


class Rule:
    """What a CSV column, a `key = value` key or a JSON value must hold.

    A numeric rule has `accepts`, a predicate that takes a float array or
    one float (NaN fails every rule); a 0/1 flag is such a rule.  A text
    rule has none, and `choices` (if set) are the values a JSON string may
    take; a CSV text cell is any text.  `requirement` completes the
    message `<name> <requirement>`, and `shows_value` appends the
    offending value.  An `optional` numeric CSV column may be absent or
    hold an empty (or blank) cell, read as NaN; an optional key may be
    absent.  A CSV text column that is not `kept` must be there, with a
    cell in every row, but `read_table` does not return it.
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


FINITE = Rule("must be finite", lambda x: (x > -math.inf) & (x < math.inf))
POSITIVE = Rule("must be finite and positive", lambda x: (x > 0) & (x < math.inf))
NON_NEGATIVE = Rule("must be finite and >= 0", lambda x: (x >= 0) & (x < math.inf))
UNIT_INTERVAL = Rule("must be in [0, 1]", lambda x: (x >= 0) & (x <= 1), shows_value=True)
FLAG = Rule("must be 0 or 1", lambda x: (x == 0) | (x == 1), shows_value=True)
TEXT = Rule("is missing")

OPTIONAL_FINITE = Rule(FINITE.requirement, FINITE.accepts, optional=True)
OPTIONAL_POSITIVE = Rule(POSITIVE.requirement, POSITIVE.accepts, optional=True)
OPTIONAL_NON_NEGATIVE = Rule(NON_NEGATIVE.requirement, NON_NEGATIVE.accepts, optional=True)
OPTIONAL_TEXT = Rule(TEXT.requirement, optional=True)
UNUSED_TEXT = Rule(TEXT.requirement, kept=False)


# Bytes on which np.loadtxt and csv + float() part ways: quotes (csv
# unquotes), NUL (csv rejects it before Python 3.11), and the separators
# \x1c-\x1f, which loadtxt strips around a number and float() does not.
_ROW_PATH_BYTES = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# A file this small costs less row by row than the fixed cost of np.loadtxt.
_FAST_MIN_BYTES = 1024
# Before numpy is loaded, the fast path also pays for importing it.  Measured
# on a 2-core x86 VM with Python 3.11 and numpy 2.4: `import numpy` 34 ms, the
# row path 50-80 us per kB, so break-even at 400-700 kB; in a slower run of the
# same VM, 146 ms against 166-198 us per kB (np.loadtxt 22-36 us per kB), so
# break-even near 900 kB.  Below this size a file is read row by row, with the
# same numbers: `extrapolate-b` on the 127 kB cli-large field scan writes the
# same report bytes in 44 ms instead of 79 (first run), 166 instead of 274.
_IMPORT_MIN_BYTES = 512 * 1024
_SCAN_BYTES = 1 << 16

def read_table(path: str | Path, columns: Mapping[str, Rule]) -> dict[str, np.ndarray | array.array | list[str]]:
    """Read and check the named columns of a CSV file with a header row.

    `columns` maps each column name to its Rule.  Returns each numeric
    column as a float64 sequence with `tolist()` (a numpy array from the
    fast path, an `array.array('d')` from the row path, so a small file
    is read without numpy) and each kept text column as a list of
    stripped strings, one entry per data row; blank lines are skipped.
    A text column that is not kept is checked (the column and a cell in
    every row) and left out.  A caller that wants arrays takes
    `np.asarray` of the columns.

    Fast path: a pure-ASCII file without quotes, NUL or \\x1c-\\x1f, of at
    least `_FAST_MIN_BYTES` once numpy is loaded and of at least
    `_IMPORT_MIN_BYTES` before, is parsed with one `np.loadtxt` for the
    numeric columns (and one for the text columns), and the rules are
    checked on whole arrays.  Any other file, and any cell that does not
    parse or breaks its rule, goes to the row path, which reads the file
    with `csv.DictReader` and is the authority: it returns the values the
    fast path would, or raises the first fault as ValueError.  The header
    is read as DictReader reads it (names not stripped, the last of a
    duplicated name wins); a required column it lacks is `path:1: missing
    column <name>`, a bad cell `path:line: <column> ...`, and a file
    without data rows `path: no data rows`.
    """
    fast = _read_fast(path, columns)
    return fast if fast is not None else _read_rows(path, columns)


def _read_fast(path, columns: Mapping[str, Rule]) -> dict | None:
    """The table by whole-column parsing, or None where the row path must decide."""
    try:
        header = _plain_header(path)
    except OSError:  # the row path raises it as the csv reader always has
        return None
    if header is None:
        return None
    import numpy as np

    index = {name: i for i, name in enumerate(header.split(","))}
    numeric = [n for n, rule in columns.items() if rule.accepts is not None and (n in index or not rule.optional)]
    texts = [n for n, rule in columns.items() if rule.accepts is None and rule.kept]
    unused = [n for n, rule in columns.items() if rule.accepts is None and not rule.kept]
    if not all(n in index for n in numeric + texts + unused):
        return None
    # a row that has a loaded column has every column before it; past them, the
    # furthest unused one is loaded as one character per cell, only to be there
    furthest = max((index[n] for n in unused), default=-1)
    present = [furthest] if furthest > max((index[n] for n in numeric + texts), default=-1) else []

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
            n_rows = len(out[(numeric + texts)[0]]) if numeric + texts else 0
            if present:
                n_rows = len(load(usecols=present, dtype="U1"))
    except ValueError:
        return None
    if not n_rows:  # no data rows: the row path says so
        return None
    for name, rule in columns.items():
        if not rule.kept:
            continue
        if name not in out:  # an optional column the header lacks
            out[name] = np.full(n_rows, np.nan)
        elif rule.accepts is not None and not _accepted(rule, out[name]):
            return None
    return out


def _plain_header(path) -> str | None:
    """The header line of a file the fast path may read, else None.

    The file must hold at least `_FAST_MIN_BYTES` (`_IMPORT_MIN_BYTES`
    while numpy is not loaded), all ASCII and none of `_ROW_PATH_BYTES`;
    it is scanned in chunks, so no copy of it is kept.
    """
    min_bytes = _FAST_MIN_BYTES if "numpy" in sys.modules else max(_FAST_MIN_BYTES, _IMPORT_MIN_BYTES)
    if os.path.getsize(path) < min_bytes:
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
    import numpy as np

    with np.errstate(invalid="ignore"):  # NaN compares False, quietly
        return bool(rule.accepts(values).all())


def _read_rows(path, columns: Mapping[str, Rule]) -> dict:
    """The table row by row; the first fault raises ValueError as `read_table` describes."""
    required = [n for n, rule in columns.items() if rule.accepts is not None and not rule.optional]
    out: dict = {n: [] for n, rule in columns.items() if rule.kept}
    n_rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or ()
            for name, rule in columns.items():
                if not (rule.optional or name in header):
                    raise ValueError(f"{path}:1: missing column {name}")
            for row in reader:
                n_rows += 1
                line = reader.line_num
                values = {n: parse_field(row[n], path, line, n) for n in required}
                for name, rule in columns.items():
                    cell = row.get(name)
                    if rule.accepts is None:
                        if cell is None:  # a short row
                            raise ValueError(f"{path}:{line}: {name} {rule.requirement}")
                        if rule.kept:
                            values[name] = cell.strip()
                    elif rule.optional and not (cell or "").strip():
                        values[name] = math.nan
                    else:
                        if rule.optional:
                            values[name] = parse_field(cell, path, line, name)
                        if not rule.accepts(values[name]):
                            raise ValueError(_fault(path, line, name, rule, values[name]))
                for n, v in values.items():
                    out[n].append(v)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not n_rows:
        raise ValueError(f"{path}: no data rows")
    return {n: v if columns[n].accepts is None else array.array("d", v) for n, v in out.items()}


def _fault(path, line: int, name: str, rule: Rule, value) -> str:
    got = f", got {value!r}" if rule.shows_value else ""
    return f"{path}:{line}: {name} {rule.requirement}{got}"


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
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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
    try:  # an integer is read as float() reads its digits: no int beyond float64, no digit limit
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested past the parser's depth
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
