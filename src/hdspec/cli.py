"""Command-line front end for the analysis chain.

Every command writes a deterministic JSON report into --out-dir (sorted
keys, shortest-roundtrip floats, so reruns on identical inputs are
byte-identical), plus CSV tables for anything meant to be plotted.  Each
report is published as a new file by `_publish`: the carrier sweep as
its rows are computed, every other report rendered whole.  A record
writes its own JSON form (`Quantity.report`, `ShiftEntry.report`, ...);
a table is one list of rows, written to the CSV under its header and to
the JSON report as `dict(zip(header, row))` objects, or taken from the
report dicts the JSON holds.

A JSON report is the text of `json.dumps(payload, sort_keys=True,
indent=2, allow_nan=False)` plus a newline.  With an indent, `json.dumps`
encodes in pure Python, value by value, so `_render_json` lays the
payload out itself: dicts with str keys and lists (or tuples) by a short
recursion, a list of exact ints and floats with one `repr` map and one
join (a `_Floats` list with the texts it carries, which a CSV table can
share), strings by `json.encoder.encode_basestring_ascii`, and floats
(numpy's float64 among them) by `float.__repr__`.  `json.dumps` of the
whole payload stays the authority: wherever the renderer stops (a NaN or
infinity, a non-str key, any other type), the report is its text, or its
error.

Exit codes: 0 success, 1 data error, 2 configuration error.  A handler
first reads and checks all its inputs (files, flags and the coefficient
source), then computes and writes its reports inside one `_computing()`
block.  A failure while the inputs are read and checked is a
configuration error: `main` turns an OSError, ValueError, LookupError or
TypeError that escapes a handler before its block into one.  A failure
while computing is a data error: the block turns a ValueError,
LookupError, RuntimeError or ArithmeticError into one.

The commands are one table, `COMMANDS`.  `main` parses a well-formed
`hdspec <command> ...` with that command's parser alone, and anything
else (no command, top-level `--help`, an unknown command, an argument
the command does not know) with the full tree of every command's parser,
so help and usage errors are argparse's own (`_parse_args`).  A handler,
and each helper it calls, imports the analysis modules it runs, so a
command loads only those, and numpy only if one of them builds arrays:
spin-structure, composite, carrier, dfg, ledger, compare, extract,
extrapolate-b, extrapolate-rf and fit-line start without it at any input
size, zeeman-map and zeeman-coeffs where the map of each level set they
solve is within `zeeman._PYTHON_WORK` over the grid (the default grid at
every N up to 5, N = 1 up to 69 points, N = 0 up to 1271), and
zeeman-coeffs on a stretched pair, whose blocks hold one state, on any
grid, adev on a counter log under 512 KiB (the bundled one among them),
and reproduce-paper while `hfs_coefficients.conf` ships as a template
only.
`--help` and the parser defaults read nothing beyond `bundled` and
`quantity`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import bundled
from .quantity import (
    FINITE, OPTIONAL_TEXT, TEXT, Quantity, Rule, fixed, parenthetical, read_json,
)

if TYPE_CHECKING:
    from . import coefficients, composite, constants, metrology, systematics, zeeman


class _Failure(Exception):
    exit_code = 1


class DataFailure(_Failure):
    exit_code = 1


class ConfigFailure(_Failure):
    exit_code = 2


@contextlib.contextmanager
def _computing():
    """Where a handler computes and writes its reports, after reading and checking its inputs: failures are data errors."""
    try:
        yield
    except (ValueError, LookupError, RuntimeError, ArithmeticError) as exc:  # numpy's LinAlgError is a ValueError
        raise DataFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# output helpers


def _publish(path: Path, chunks: Iterable[str]) -> Path:
    """Write a report, the text of the str `chunks` in order, to `path` as a new file.

    The chunks go to a temp file next to `path` as they come, so a
    report rendered chunk by chunk is never held whole; the old report
    is then unlinked and the temp file renamed onto the free name.
    Nothing is truncated in place (a rerun never stalls on writeback of
    the report it replaces, and a failed write, or a chunk that fails to
    render, leaves the old report whole and no temp file), and a symlink
    at `path` is replaced, not followed.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
        path.unlink(missing_ok=True)  # first: renaming onto an existing name stalls like a truncate
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise ConfigFailure(f"cannot write {path}: {exc}") from exc
        raise
    print(f"wrote {path}")
    return path


_NUMBER_TYPES = frozenset({int, float})


class _Floats(list):
    """A list of floats that carries their `float.__repr__` texts, made once for every report that shows them.

    To `json.dumps`, the authority, it is a plain list.
    """

    def __init__(self, values):
        super().__init__(values)
        self.texts = list(map(float.__repr__, self))


class _Unrendered(Exception):
    """A value that `_render_json` leaves to `json.dumps`."""


def _render_json(value, indent: str) -> str:
    """`value` as `json.dumps(..., sort_keys=True, indent=2, allow_nan=False)` writes it at `indent`."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _Unrendered
        return float.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _NUMBER_TYPES.issuperset(map(type, value)):  # bool is not int here
            body = sep.join(value.texts if isinstance(value, _Floats) else map(repr, value))
            if "n" in body:  # nan or inf
                raise _Unrendered
        else:
            body = sep.join([_render_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not {str}.issuperset(map(type, value)):
            raise _Unrendered
        body = sep.join([f"{_json_string(k)}: {_render_json(value[k], inner)}" for k in sorted(value)])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise _Unrendered


def _write_json(out_dir: Path, stem: str, payload: dict) -> Path:
    try:
        text = _render_json(payload, "")
    except (_Unrendered, ValueError, RecursionError):  # what the renderer does not finish, json.dumps decides
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:  # a NaN or infinity reached the report
            raise DataFailure(f"{stem} report: {exc}") from exc
    return _publish(out_dir / f"{stem}.json", (text, "\n"))


def _csv_lines(rows: Iterable[list]):
    """Each of `rows` as a CSV line with a CRLF end, as `csv.writer` writes it, one line at a time.

    Every row goes through `csv.writer` (its quoting rules for str cells,
    None as an empty cell).  It writes each int and float, numpy's
    float64 among them, as `str(x)`, for a float the text of
    `repr(float(x))`: a row of numbers is its `repr`s joined by commas.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _write_csv(out_dir: Path, stem: str, header: list[str], rows: Iterable[list]) -> Path:
    """Publish `header` and the iterable `rows` as `<stem>.csv`, each row rendered as it comes (see `_csv_lines`)."""
    return _publish(out_dir / f"{stem}.csv", _csv_lines(itertools.chain([header], rows)))


def _write_csv_grid(
    out_dir: Path, stem: str, header: list[str], leads: list, xs: _Floats, columns: list[_Floats]
) -> Path:
    """`_write_csv` of the rows `[*lead, x, y]`, x and y running over `xs` and that lead's column.

    Each lead is rendered once, and each x and y is its `_Floats` text;
    the lines of a lead are joined without a row list.
    """
    x_cells = [f"{x}," for x in xs.texts]
    parts = list(_csv_lines([header]))
    for lead, ys in zip(leads, columns):
        # the lead's cells and a comma, rendered before a cell: on its own, csv writes one empty cell as '""'
        start = next(_csv_lines([[*lead, 0.0]]))[: -len("0.0\r\n")]
        lines = list(map(str.__add__, x_cells, ys.texts))
        if lines:
            parts.append(start + ("\r\n" + start).join(lines) + "\r\n")
    return _publish(out_dir / f"{stem}.csv", parts)


# ---------------------------------------------------------------------------
# argument helpers


def _finite_float(text: str) -> float:
    """argparse type for every float flag: NaN and infinities are config errors."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigFailure(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigFailure(f"expected a finite number, got {text!r}")
    return value


def _floats_arg(text: str, flag: str) -> list[float]:
    """A comma-separated list flag; every entry passes the check of `_finite_float`."""
    try:
        values = [_finite_float(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ConfigFailure:
        raise ConfigFailure(f"{flag} expects comma-separated finite numbers, got {text!r}") from None
    if not values:
        raise ConfigFailure(f"{flag} is empty")
    return values


def _parse_level(text: str) -> tuple[int, int]:
    try:
        v, n = (int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigFailure(f"--level expects 'v,N' integers, got {text!r}") from exc
    return v, n


def _resolve_coefficients(args) -> dict | None:
    """Coefficient sets from --coefficients, else --demo, else the bundled file (None if absent).

    A --coefficients file must hold at least one section; only the bundled
    file may be an unfilled template.
    """
    if args.coefficients is not None:
        from .coefficients import read_coefficient_file

        sets = read_coefficient_file(args.coefficients)
        if not sets:
            raise ConfigFailure(f"{args.coefficients}: no [v=..,N=..] section with coefficients")
        return sets
    if getattr(args, "demo", False):
        return bundled.load_demo_coefficients()
    return bundled.load_coefficients()


def _coefficient_sets(args) -> dict:
    """Resolve the hyperfine-coefficient file, failing fast when absent."""
    sets = _resolve_coefficients(args)
    if sets is None:
        raise ConfigFailure(
            "no evaluated hyperfine coefficients are bundled (data/hfs_coefficients.conf "
            "ships as a template; see README, 'Data sources'); pass --coefficients FILE, "
            "or --demo for illustrative numbers"
        )
    return sets


def _transition_sets(sets: dict):
    for key in ((0, 0), (1, 1)):
        if key not in sets:
            raise ConfigFailure(f"coefficient file lacks a [v={key[0]},N={key[1]}] section")
    return sets[(0, 0)], sets[(1, 1)]


def _standard_table(lower, upper) -> coefficients.SensitivityTable:
    from . import angular

    return angular.transition_table(lower, upper, bundled.TRANSITION_LEVELS)


def _spin_lines(lower, upper, table: coefficients.SensitivityTable) -> dict[str, tuple[float, float]]:
    """(f_spin, u_spin) in kHz of each line of `bundled.TRANSITION_LEVELS`, in sorted order; `table` is the sets' own."""
    from . import angular, coefficients

    return {
        tid: (angular.spin_frequency((upper, up), (lower, lo)), coefficients.spin_uncertainty(tid, table))
        for tid, (lo, up) in sorted(bundled.TRANSITION_LEVELS.items())
    }


def _couplings(args) -> zeeman.ZeemanCouplings:
    from . import zeeman

    if args.couplings is not None:
        return zeeman.read_couplings_file(args.couplings)
    return bundled.load_couplings()


def _b_values(args, grid_check):
    """The --b-values grid, else `zeeman.DEFAULT_B_GRID`, as the `zeeman` check `grid_check` returns it."""
    from . import zeeman

    return grid_check(_floats_arg(args.b_values, "--b-values") if args.b_values is not None else zeeman.DEFAULT_B_GRID)


def _read_composite(args) -> tuple[dict, tuple | None]:
    """Check --b12, then read the measured lines and the (lower, upper) coefficient sets (None with no source)."""
    if not 0.0 <= args.b12 <= 1.0:
        raise ConfigFailure(f"--b12 must be in [0, 1], got {args.b12!r}")
    lines = bundled.load_measured_lines(args.lines)
    sets = _resolve_coefficients(args)
    return lines, None if sets is None else _transition_sets(sets)


def _composite_input(lines: dict, transition_sets: tuple | None) -> composite.CompositeInput:
    """The `CompositeInput` of what `_read_composite` read: with the sensitivity table of the sets, if any."""
    from . import composite

    return composite.CompositeInput(
        f12=lines["12"]["f_exp"],
        f16=lines["16"]["f_exp"],
        fspin12=lines["12"]["f_spin"],
        fspin16=lines["16"]["f_spin"],
        tables=None if transition_sets is None else _standard_table(*transition_sets),
    )


# ---------------------------------------------------------------------------
# commands


def _cmd_spin_structure(args) -> int:
    from . import angular

    sets = _coefficient_sets(args)
    with _computing():
        header = ["section", "g1", "g2", "f", "degeneracy", "energy_khz"]
        payload: dict = {"sections": {}}
        csv_rows = []
        for (v, n), coeffs in sorted(sets.items()):
            levels = angular.level_structure(coeffs)
            name = f"v={v},N={n}"
            rows = [[name, lv.g1, lv.g2, lv.f, int(lv.degeneracy), float(lv.energy)] for lv in levels]
            payload["sections"][name] = [dict(zip(header[1:], row[1:])) for row in rows]  # a level without its section
            csv_rows.extend(rows)

        if (0, 0) in sets and (1, 1) in sets:
            lower, upper = sets[(0, 0)], sets[(1, 1)]
            table = _standard_table(lower, upper)
            transitions = {}
            for tid, (f_spin, u_spin) in _spin_lines(lower, upper, table).items():
                lo, up = bundled.TRANSITION_LEVELS[tid]
                row = table.row(tid)
                transitions[tid] = {
                    "lower_level": list(lo),
                    "upper_level": list(up),
                    "f_spin_khz": float(f_spin),
                    "u_spin_khz": float(u_spin),
                    "gamma_lower": {f"E{k}": float(row.lower[k]) for k in sorted(row.lower)},
                    "gamma_upper": {f"E{k}": float(row.upper[k]) for k in sorted(row.upper)},
                }
            for tid, t in transitions.items():  # every line computed before any is printed
                f_spin, u_spin = (fixed(t[k], ".2f") for k in ("f_spin_khz", "u_spin_khz"))
                print(f"line {tid}: f_spin = {f_spin} kHz, u_spin = {u_spin} kHz")
            payload["transitions"] = transitions

        _write_json(args.out_dir, "spin_structure", payload)
        if args.format == "csv":
            _write_csv(args.out_dir, "spin_structure", header, csv_rows)
    return 0


def _cmd_zeeman_map(args) -> int:
    from . import zeeman

    sets = _coefficient_sets(args)
    key = _parse_level(args.level)
    if key not in sets:
        raise ConfigFailure(f"coefficient file has no [v={key[0]},N={key[1]}] section")
    b_values = _b_values(args, zeeman.field_grid)
    couplings = _couplings(args)
    with _computing():
        zmap = zeeman.zeeman_map(sets[key], couplings, b_values=b_values)
        b_gauss = _Floats(zmap.b_values)  # each field and each energy rendered once, for both reports
        energies = [_Floats(st.energies) for st in zmap.states]
        header = ["g1", "g2", "f", "m_f", "B_gauss", "energy_khz"]
        labels = [st.label for st in zmap.states]
        payload = {
            "level": {"v": key[0], "n": key[1]},
            "b_gauss": b_gauss,
            "states": [dict(zip(header, label), energies_khz=e) for label, e in zip(labels, energies)],
        }
        print(f"{len(zmap.states)} sublevels over {len(zmap.b_values)} field values")
        _write_json(args.out_dir, "zeeman_map", payload)
        _write_csv_grid(args.out_dir, "zeeman_map", header, labels, b_gauss, energies)
    return 0


def _cmd_zeeman_coeffs(args) -> int:
    from . import zeeman

    sets = _coefficient_sets(args)
    lower, upper = _transition_sets(sets)
    lo, up = bundled.TRANSITION_LEVELS[args.transition]
    lo_state, up_state = zeeman.state_label((*lo, args.lower_mf)), zeeman.state_label((*up, args.upper_mf))
    b_values = _b_values(args, zeeman.truncation_grid)
    couplings = _couplings(args)
    with _computing():
        model, truncation = zeeman.transition_truncation((lower, lo_state), (upper, up_state), couplings, b_values)
        payload = {
            "transition": args.transition,
            "lower_state": list(lo_state),
            "upper_state": list(up_state),
            "linear_khz_per_gauss": float(model.linear),
            "quadratic_khz_per_gauss2": float(model.quadratic),
            "truncation_khz": truncation,
        }
        print(
            f"line {args.transition} (m_F {args.lower_mf} -> {args.upper_mf}): "
            f"{model.linear:+.4g} kHz/G {model.quadratic:+.4g} kHz/G^2"
        )
        _write_json(args.out_dir, "zeeman_coeffs", payload)
    return 0


def _cmd_extrapolate_b(args) -> int:
    from . import systematics

    b, f, u = systematics.read_field_scan_csv(args.input)
    with _computing():
        ext = systematics.extrapolate_to_zero_field(b, f, u)
        payload = {
            "n_points": len(b),
            "intercept": ext.intercept.report(),
            "curvature": ext.curvature.report(),
            "residuals_khz": list(ext.residuals),
        }
        print(f"f(B=0) = {parenthetical(ext.intercept)}  curvature {ext.curvature.value:+.4g} kHz/G^2")
        _write_json(args.out_dir, "extrapolate_b", payload)
    return 0


def _cmd_fit_line(args) -> int:
    from . import lineshape

    scan = lineshape.read_decay_csv(args.input)
    with _computing():
        points = lineshape.build_spectrum(scan)
        _write_csv(
            args.out_dir,
            "fit_line_spectrum",
            ["detuning_khz", "signal", "sem"],
            [[pt.detuning, pt.signal, pt.sem] for pt in points],  # a missing sem is an empty cell
        )

        fit = lineshape.fit_lorentzian(points)
        payload = {"n_records": len(scan), "n_points": len(points), "fit": lineshape.fit_report(fit)}
        print(
            f"center = {fixed(fit.center, '+.4f')} kHz, fwhm = {fixed(fit.fwhm, '.4f')} kHz, "
            f"amplitude = {fixed(fit.amplitude, '.4f')} in {fit.n_iter} iterations"
        )
        if args.absolute_offset_khz is not None:
            line = lineshape.line_frequency(fit, args.absolute_offset_khz)
            payload["line"] = line.report()
            print(f"line frequency = {parenthetical(line)}")
        _write_json(args.out_dir, "fit_line", payload)
    return 0


def _cmd_extrapolate_rf(args) -> int:
    from . import systematics

    points = systematics.read_amplitude_csv(args.input)
    with _computing():
        f_zero, entry = systematics.rf_extrapolate(points, args.nominal_amplitude, args.linear)
        payload = {
            "n_points": len(points),
            "f_zero": f_zero.report(),
            "entry": entry.report(),
        }
        print(f"f(A=0) = {parenthetical(f_zero)}  correction at nominal: {entry.correction:+.4g} kHz")
        _write_json(args.out_dir, "extrapolate_rf", payload)
    return 0


def _cmd_ledger(args) -> int:
    from . import systematics

    negligible = systematics.negligible_entries() if args.include_negligible else ()
    entries = systematics.read_entries(args.entries, negligible) if args.entries else []
    entries.extend(negligible)
    if args.raw_u_khz < 0:
        raise ConfigFailure(f"--raw-u-khz must be >= 0, got {args.raw_u_khz!r}")
    raw = Quantity(args.raw_khz, "kHz", {"exp": args.raw_u_khz})
    with _computing():
        ledger = systematics.apply_ledger(raw, entries)
        payload = ledger.report()
        print(f"corrected: {parenthetical(ledger.corrected)} from {len(entries)} entries")
        _write_json(args.out_dir, "ledger", payload)
        if args.format == "csv":
            header = ["name", "correction_khz", "uncertainty_khz", "basis"]
            _write_csv(args.out_dir, "ledger", header, [[e[k] for k in header] for e in payload["entries"]])
    return 0


def _cmd_composite(args) -> int:
    from . import composite

    lines, transition_sets = _read_composite(args)
    if args.optimize and transition_sets is None:
        raise ConfigFailure("--optimize needs a sensitivity table; pass --coefficients FILE or --demo")
    with _computing():
        inp = _composite_input(lines, transition_sets)
        weights = composite.weight_profile(inp.terms)
        b12 = weights.b_star if args.optimize else args.b12
        q = composite.composite_frequency(inp, b12)
        profile = [[float(b), float(u)] for b, u in weights.profile]

        payload = {
            "b12": float(b12),
            "value_khz": float(q.value),
            "u_exp_khz": float(q.component("exp")),
            "u_spin_khz": float(q.component("theor_spin")),
            "profile": profile,
        }
        if lines["splitting_theory_khz"] is not None:
            cmp_ = composite.splitting_comparison(inp.f12, inp.f16, lines["splitting_theory_khz"])
            payload["splitting"] = cmp_.report()
            print(
                f"splitting: {fixed(cmp_.difference_exp.value, '.2f')} kHz "
                f"(theory {fixed(cmp_.difference_theory.value, '.2f')} kHz, {fixed(cmp_.agreement_sigma, '.2f')} sigma)"
            )
        print(f"composite: {parenthetical(q)} at b12 = {b12:g}")
        _write_json(args.out_dir, "composite", payload)
        _write_csv(args.out_dir, "composite_profile", ["b12", "u_spin_khz"], profile)
    return 0


def _md_over_mp_quantity(consts: constants.ConstantSet) -> Quantity:
    c = consts.md_over_mp
    return Quantity(c.value, "dimensionless", {"CODATA": c.uncertainty})


def _cmd_extract(args) -> int:
    from . import composite, constants

    lines, transition_sets = _read_composite(args)
    model = bundled.load_scaling_model(args.constants_profile)
    consts = bundled.load_constants(args.constants_profile)
    with _computing():
        q = composite.composite_frequency(_composite_input(lines, transition_sets), args.b12)
        mu = constants.extract_mu_over_me(q, model, consts)
        mp = constants.extract_mp_over_me(q, model, consts, _md_over_mp_quantity(consts))
        payload = {
            "constants_profile": args.constants_profile,
            "b12": float(args.b12),
            "composite": q.report(),
            "mu_over_me": mu.report(),
            "mp_over_me": mp.report(),
            "reference_mp_over_me": {
                "value": float(consts.mp_over_me.value),
                "uncertainty": float(consts.mp_over_me.uncertainty),
                "source": consts.mp_over_me.source,
            },
        }
        for res in (mu, mp):
            print(
                f"{res.name} = {res.value:.9f} +- {res.total_uncertainty:.1e} "
                f"({res.total_fractional:.1e} fractional)"
            )
        _write_json(args.out_dir, "extract", payload)
        if args.format == "csv":
            results = (payload["mu_over_me"], payload["mp_over_me"])
            rows = [[r["name"], k, u] for r in results for k, u in r["components"].items()]
            _write_csv(args.out_dir, "extract_components", ["quantity", "component", "uncertainty"], rows)
    return 0


_DETERMINATIONS = {"quantity": OPTIONAL_TEXT, "reference": OPTIONAL_TEXT,
                   "determinations": [{"label": TEXT, "value": FINITE, "u": Rule("must be > 0", lambda x: x > 0)}]}


def _read_determinations(path: Path) -> tuple[str, str | None, list[tuple[str, float, float]]]:
    """The quantity, the reference and the (label, value, u) rows of a `compare` input."""
    raw = read_json(path, _DETERMINATIONS)
    rows = [(d["label"], d["value"], d["u"]) for d in raw["determinations"]]
    if not rows:
        raise ValueError(f"{path}: no determinations")
    reference = raw.get("reference")
    if reference is not None and reference not in [r[0] for r in rows]:
        raise ValueError(f"{path}: reference {reference!r} is not among the determinations")
    return raw.get("quantity", ""), reference, rows


def _cmd_compare(args) -> int:
    from . import constants

    source = args.input if args.input is not None else bundled.data_path("determinations_mp_over_me.json")
    quantity_name, file_ref, rows = _read_determinations(source)
    if args.reference is not None and args.reference not in [r[0] for r in rows]:
        raise ConfigFailure(f"--reference {args.reference!r} is not among the determinations")
    reference = args.reference if args.reference is not None else file_ref
    with _computing():
        report = constants.comparison_report(rows, reference)
        header = ["label", "value", "uncertainty", "pull"]
        table = [[r.label, float(r.value), float(r.uncertainty), float(r.pull)] for r in report]
        payload = {
            "quantity": quantity_name,
            "reference": reference if reference is not None else rows[0][0],
            "rows": [dict(zip(header, row)) for row in table],
        }
        for label, value, u, pull in table:
            print(f"{label:32s} {fixed(value, '.9f')} +- {u:.1e}  pull {fixed(pull, '+.2f')}")
        _write_json(args.out_dir, "compare", payload)
        _write_csv(args.out_dir, "compare", header, table)
    return 0


def _default_taus(series: metrology.FrequencyTimeSeries) -> list[float]:
    """Octave spacing from tau0 while at least 4 overlapping differences remain; DataFailure if tau0 has fewer."""
    taus, m = [], 1
    while len(series.samples) - 2 * m + 1 >= 4:
        taus.append(m * series.tau0)
        m *= 2
    if not taus:
        raise DataFailure(
            f"counter log of {len(series.samples)} samples is too short for the default tau list "
            "(at least 5, for 4 overlapping differences at tau0); give --tau-list"
        )
    return taus


def _cmd_adev(args) -> int:
    from . import metrology

    series = metrology.read_counter_csv(args.input, args.carrier_hz)
    taus = _floats_arg(args.tau_list, "--tau-list") if args.tau_list is not None else _default_taus(series)
    metrology.bin_sizes(series, taus)
    with _computing():
        header = ["tau_s", "adev", "ci_low", "ci_high"]
        rows = [list(map(float, row)) for row in metrology.allan_deviation(series, taus)]
        payload = {
            "n_samples": int(len(series.samples)),
            "tau0_s": float(series.tau0),
            "carrier_hz": None if args.carrier_hz is None else float(args.carrier_hz),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        for t, a, *_ in rows:
            print(f"tau = {t:8g} s  adev = {a:.3e}")
        _write_json(args.out_dir, "adev", payload)
        _write_csv(args.out_dir, "adev", header, rows)
    return 0


def _cmd_dfg(args) -> int:
    from . import metrology

    if not abs(args.maser_fractional_offset) < 1e-9:
        raise ConfigFailure(f"--maser-fractional-offset must be in (-1e-9, 1e-9), got {args.maser_fractional_offset!r}")
    comb = metrology.CombParams(
        args.f_rep_hz,
        args.f_ceo_hz,
        (
            metrology.LaserLock(args.n1, args.beat1_hz, args.beat_sign1, args.ceo_sign1),
            metrology.LaserLock(args.n2, args.beat2_hz, args.beat_sign2, args.ceo_sign2),
        ),
    )
    with _computing():
        f1 = metrology.laser_frequency(comb, 0)
        f2 = metrology.laser_frequency(comb, 1)
        f0 = metrology.dfg_frequency(comb)
        corrected = metrology.maser_correct(f0, args.maser_fractional_offset)
        payload = {
            "f_rep_hz": float(comb.f_rep),
            "f_ceo_hz": float(comb.f_ceo),
            "laser1_hz": float(f1),
            "laser2_hz": float(f2),
            "dfg_hz": float(f0),
            "maser_fractional_offset": float(args.maser_fractional_offset),
            "dfg_corrected_hz": float(corrected),
        }
        print(f"difference frequency = {f0!r} Hz (maser-corrected {corrected!r} Hz)")
        _write_json(args.out_dir, "dfg", payload)
    return 0


def _parse_sweep(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigFailure(f"--sweep expects MIN:MAX:COUNT, got {text!r}") from exc
    if not (0 < lo < hi < math.inf) or n < 2:
        raise ConfigFailure(f"--sweep needs finite 0 < MIN < MAX and COUNT >= 2, got {text!r}")
    return lo, hi, n


def _sweep_grid(lo: float, hi: float, n: int) -> Iterable[float]:
    """The points of `np.linspace(lo, hi, n)`, bit for bit, by numpy's own arithmetic, one at a time.

    numpy scales the index by the step and adds `lo`, and sets the last
    point to `hi`; where the step underflows to 0 it divides the index by
    `n - 1` and scales by the span instead.
    """
    span, div = hi - lo, n - 1
    step = span / div
    if step == 0:
        yield from (i / div * span + lo for i in range(div))
    else:
        yield from (i * step + lo for i in range(div))
    yield hi


def _cmd_carrier(args) -> int:
    from . import carrier

    if args.lambda_um is None and args.sweep is None:
        raise ConfigFailure("pass --lambda-um and/or --sweep MIN:MAX:COUNT")
    if not args.delta_rho_um > 0:
        raise ConfigFailure(f"--delta-rho-um must be positive, got {args.delta_rho_um!r}")
    if args.lambda_um is not None and not args.lambda_um > 0:
        raise ConfigFailure(f"--lambda-um must be positive, got {args.lambda_um!r}")
    sweep = None if args.sweep is None else _parse_sweep(args.sweep)
    with _computing():
        model = carrier.CarrierModel(args.delta_rho_um)  # a lambda_c beyond float64 is a data error
        lam_c = model.lambda_c
        payload = {"delta_rho_um": float(args.delta_rho_um), "critical_wavelength_um": float(lam_c)}
        if args.lambda_um is not None:
            strength = carrier.carrier_strength(args.lambda_um, model)
            payload["lambda_um"] = float(args.lambda_um)
            payload["strength"] = float(strength)
            print(f"S({args.lambda_um:g} um) = {strength:.4f}  (lambda_c = {fixed(lam_c, '.3f')} um)")
        if sweep is not None:
            rows = ([lam, float(carrier.carrier_strength(lam, model))] for lam in _sweep_grid(*sweep))
            _write_csv(args.out_dir, "carrier_sweep", ["lambda_um", "strength"], rows)
        _write_json(args.out_dir, "carrier", payload)
    return 0


# ---------------------------------------------------------------------------
# full-chain reproduction: one table of published anchors


def _anchors(sets: dict | None) -> list[tuple]:
    """(name, compute) per anchor; compute() returns (quantity, value, target, tol) checks, or is None (skip).

    Files that several rows share are read here, and a compute does all
    of its row's computation.  The two rows that need the coefficient
    file import `angular` and `zeeman` in their own compute: skipped,
    they load neither.
    """
    from . import carrier, composite, constants, lineshape

    lines = bundled.load_measured_lines()
    contributions = bundled.load_contributions("codata2018")
    model = bundled.load_scaling_model("codata2018")
    consts = bundled.load_constants("codata2018")
    fspin = {tid: lines[tid]["f_spin"] for tid in ("12", "16")}

    def theory():  # the spin-averaged contribution sum
        return constants.theory_frequency(contributions).value

    @functools.cache  # the line chain runs once per line; a failure re-raises in every row that needs it
    def corrected(tid):  # zero-field extrapolation, then the systematic ledger
        return bundled.corrected_line(tid)[1].corrected

    def composite_half():
        inp = composite.CompositeInput(corrected("12"), corrected("16"), fspin["12"], fspin["16"])
        return composite.composite_frequency(inp, 0.5)

    def c_chain(tid):
        f, target = corrected(tid), lines[tid]["f_exp"]
        return [
            ("f_khz", f.value, target.value, 0.005),
            ("u_exp_khz", f.component("exp"), target.component("exp"), 0.005),
        ]

    def c_composite():
        q = composite_half()
        return [
            ("f_khz", q.value, 58605052164.255, 0.005),
            ("u_exp_khz", q.component("exp"), 0.16, 0.005),
            ("u_spin_khz", q.component("theor_spin"), 0.85, 0.005),
        ]

    def c_splitting():
        cmp_ = composite.splitting_comparison(corrected("12"), corrected("16"), lines["splitting_theory_khz"])
        return [
            ("f16_minus_f12_khz", cmp_.difference_exp.value, 41294.05, 0.01),
            ("u_exp_khz", cmp_.difference_exp.component("exp"), 0.32, 0.005),
            ("sigma_vs_theory", cmp_.agreement_sigma, 0.0, 1.0),
        ]

    def c_extraction(res, target, tol, components):  # components within 15 %
        return [(res.name, res.value, target, tol)] + [
            (f"u_{k}", res.components[k], t, 0.15 * t) for k, t in components.items()
        ]

    def c_mu():
        mu = constants.extract_mu_over_me(composite_half(), model, consts)
        return c_extraction(mu, 1223.899228668, 1e-8, {"exp": 7e-9, "theor_QED": 20e-9, "theor_spin": 37e-9})

    def c_mp():
        mp = constants.extract_mp_over_me(composite_half(), model, consts, _md_over_mp_quantity(consts))
        return c_extraction(mp, 1836.152673384, 1.5e-8, {"exp": 11e-9, "theor_QED": 31e-9, "theor_spin": 55e-9})

    def c_case2():
        shift = constants.scaled_theory(model, model.mu_p_ref * (1.0 - 5.28e-11)) - model.f_ref
        penning = model.at_reference(constants.theory_frequency(bundled.load_contributions("penning")).value)
        return [
            ("scaling_shift_khz", shift, 1.50, 0.02),
            ("table_shift_khz", penning.f_ref - theory(), 1.50, 0.02),
            ("penning_mu_p_ref", penning.mu_p_ref, bundled.load_constants("penning").mp_over_me.value, 2e-9),
        ]

    def c_carrier():
        model_c = carrier.CarrierModel(2.0)
        return [
            ("S_lambda_c", carrier.carrier_strength(carrier.critical_wavelength(2.0), model_c), 0.5, 1e-12),
            ("S_5.1um", carrier.carrier_strength(5.1, model_c), 0.0149, 0.0005),
        ]

    def c_demo_fit():  # synthetic data with truth 0.037 / 0.195 kHz, not a published number
        scan = lineshape.read_decay_csv(bundled.data_path("line12_depletion.csv"))
        fit = lineshape.fit_lorentzian(lineshape.build_spectrum(scan))
        return [("center_khz", fit.center, 0.037, 0.05), ("fwhm_khz", fit.fwhm, 0.195, 0.05)]

    def c_spin_freqs():
        from . import coefficients

        lower, upper = _transition_sets(sets)
        table = _standard_table(lower, upper)
        spin = _spin_lines(lower, upper, table)
        checks = []
        for tid, f_target, u_target in (("12", -38686.1, 0.8), ("16", 2607.7, 0.9)):
            checks.append((f"f_spin_{tid}_khz", spin[tid][0], f_target, 0.5))
            checks.append((f"u_spin_{tid}_khz", spin[tid][1], u_target, 0.1))
        wp = composite.optimize_weight(table, coefficients.DEFAULT_PARAMS)
        flat = [u for b, u in wp.profile if 0.2 <= b <= 0.8]
        return checks + [
            ("u_spin_min_khz", wp.u_star, 0.85, 0.1),
            ("u_spin_max_over_min_b12_0.2_0.8", max(flat) / min(flat), 1.0, 0.1),
        ]

    def c_zeeman_coeffs():
        from . import zeeman

        lower, upper = _transition_sets(sets)
        couplings = bundled.load_couplings()

        def coeffs(tid, lower_mf, upper_mf):
            lo, up = bundled.TRANSITION_LEVELS[tid]
            return zeeman.transition_coeffs((lower, (*lo, lower_mf)), (upper, (*up, upper_mf)), couplings)

        return [
            ("quadratic_12_khz_per_g2", coeffs("12", 0, 0).quadratic, -2.9, 0.05 * 2.9),
            ("quadratic_16_khz_per_g2", coeffs("16", 0, 0).quadratic, -117.0, 0.05 * 117.0),
            ("linear_16_mf+2_khz_per_g", coeffs("16", 2, 3).linear, -0.55, 0.05 * 0.55),
            ("linear_16_mf-2_khz_per_g", coeffs("16", -2, -3).linear, 0.55, 0.05 * 0.55),
        ]

    return [
        ("theory: spin-averaged contribution sum", lambda: [("f_khz", theory(), 58605052163.9, 0.05)]),
        ("theory: spin-corrected line 12", lambda: [("f_khz", theory() + fspin["12"].value, 58605013477.8, 0.1)]),
        ("theory: spin-corrected line 16", lambda: [("f_khz", theory() + fspin["16"].value, 58605054771.6, 0.1)]),
        ("line 12: zero-field extrapolation + systematic ledger", lambda: c_chain("12")),
        ("line 16: zero-field extrapolation + systematic ledger", lambda: c_chain("16")),
        ("composite spin-averaged frequency (b12 = 0.5)", c_composite),
        ("hyperfine splitting f16 - f12 vs theory", c_splitting),
        ("extraction: mu/m_e", c_mu),
        ("extraction: m_p/m_e", c_mp),
        ("case-II mass scenario: -5.28e-11 input shift", c_case2),
        ("carrier strength model", c_carrier),
        (
            "line resolution at 0.195 kHz FWHM",
            lambda: [("resolution", carrier.resolution(58605052164.255, 0.195), 3.0e11, 0.05e11)],
        ),
        ("demo depletion spectrum fit", c_demo_fit),
        ("spin frequencies and uncertainties from evaluated coefficients", c_spin_freqs if sets else None),
        ("Zeeman transition coefficients from evaluated coefficients", c_zeeman_coeffs if sets else None),
    ]


def _cmd_reproduce_paper(args) -> int:
    anchors = _anchors(bundled.load_coefficients())
    with _computing():
        rows: list[dict] = []
        for name, compute in anchors:
            if compute is None:
                detail = "needs data/hfs_coefficients.conf, which ships as a template only (see README, 'Data sources')"
                rows.append({"name": name, "status": "skip", "detail": detail, "checks": []})
                continue
            try:
                checks = [
                    {"quantity": q, "value": float(v), "target": float(t), "tol": float(tol)}
                    for q, v, t, tol in compute()
                ]
                if not all(math.isfinite(c[k]) for c in checks for k in ("value", "target", "tol")):
                    raise ValueError("a check is not finite")
            except Exception as exc:  # a failing row must not abort the table
                rows.append({"name": name, "status": "fail", "detail": f"error: {exc}", "checks": []})
                continue
            ok = all(abs(c["value"] - c["target"]) <= c["tol"] for c in checks)
            detail = "; ".join(f"{c['quantity']} {c['value']!r} (target {c['target']!r} +- {c['tol']!r})" for c in checks)
            rows.append({"name": name, "status": "pass" if ok else "fail", "detail": detail, "checks": checks})

        n_pass, n_fail, n_skip = (sum(r["status"] == s for r in rows) for s in ("pass", "fail", "skip"))
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"{r['status'].upper():4s}  {r['name']:{width}s}  {r['detail']}")
        print(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")

        payload = {"rows": rows, "n_pass": n_pass, "n_fail": n_fail, "n_skip": n_skip}
        _write_json(args.out_dir, "reproduce_paper", payload)
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# the command table


def _field_args(p):
    p.add_argument("--couplings", type=Path, help="Zeeman couplings file (default: bundled)")
    p.add_argument("--b-values", help="comma-separated fields in gauss (default 0,0.05,...,0.2)")


def _zeeman_map_args(p):
    p.add_argument("--level", default="1,1", help="'v,N' section to map (default 1,1)")
    _field_args(p)


def _zeeman_coeffs_args(p):
    p.add_argument("--transition", choices=sorted(bundled.TRANSITION_LEVELS), required=True)
    p.add_argument("--lower-mf", type=int, required=True)
    p.add_argument("--upper-mf", type=int, required=True)
    _field_args(p)


def _extrapolate_b_args(p):
    p.add_argument("--input", type=Path, required=True, help="CSV with B_gauss,f_khz,u_khz")


def _fit_line_args(p):
    p.add_argument("--input", type=Path, required=True, help="CSV with detuning_khz,run_id,laser_on,depletion")
    p.add_argument("--absolute-offset-khz", type=_finite_float, help="absolute frequency of zero detuning")


def _extrapolate_rf_args(p):
    p.add_argument("--input", type=Path, required=True, help="CSV with amplitude,f_khz,u_khz")
    p.add_argument("--nominal-amplitude", type=_finite_float, required=True)
    p.add_argument("--linear", action="store_true", help="linear-in-amplitude model instead of quadratic")


def _ledger_args(p):
    p.add_argument("--raw-khz", type=_finite_float, required=True)
    p.add_argument("--raw-u-khz", type=_finite_float, required=True)
    p.add_argument("--entries", type=Path, help="JSON list of {name, correction_khz, uncertainty_khz, basis, note}")
    p.add_argument("--include-negligible", action="store_true", help="append the standard negligible-shift rows")


def _composite_args(p):
    p.add_argument("--b12", type=_finite_float, default=0.5, help="weight of line 12 (default 0.5)")
    p.add_argument("--optimize", action="store_true", help="minimize the spin uncertainty over b12 (needs tables)")


def _extract_args(p):
    p.add_argument("--b12", type=_finite_float, default=0.5, help="composite weight of line 12 (default 0.5)")
    p.add_argument(
        "--constants-profile",
        choices=bundled.CONSTANT_PROFILES,
        default="codata2018",
        help="fundamental-constant set and matching theory reference",
    )


def _compare_args(p):
    p.add_argument("--input", type=Path, help="determinations JSON (default: bundled mass-ratio table)")
    p.add_argument("--reference", help="label of the reference determination")


def _adev_args(p):
    p.add_argument("--input", type=Path, required=True, help="CSV with t_s,f_hz")
    p.add_argument("--carrier-hz", type=_finite_float, help="carrier for fractional conversion")
    p.add_argument("--tau-list", help="comma-separated averaging times in s (default: octaves)")


def _dfg_args(p):
    p.add_argument("--f-rep-hz", type=_finite_float, required=True)
    p.add_argument("--f-ceo-hz", type=_finite_float, default=0.0)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--beat1-hz", type=_finite_float, required=True)
    p.add_argument("--beat2-hz", type=_finite_float, required=True)
    for flag in ("--beat-sign1", "--beat-sign2", "--ceo-sign1", "--ceo-sign2"):
        p.add_argument(flag, type=int, choices=(-1, 1), default=1)
    p.add_argument("--maser-fractional-offset", type=_finite_float, default=0.0)


def _carrier_args(p):
    p.add_argument("--delta-rho-um", type=_finite_float, required=True, help="thermal radial spread in um")
    p.add_argument("--lambda-um", type=_finite_float, help="wavelength to evaluate in um")
    p.add_argument("--sweep", help="MIN:MAX:COUNT wavelength sweep written as CSV")


def _table_options(p):
    p.add_argument("--format", choices=("json", "csv"), default="json", help="'csv' additionally writes a flat table")


def _coeffs_options(p):
    p.add_argument("--coefficients", type=Path, help="hyperfine coefficient file (sectioned [v=..,N=..])")
    p.add_argument(
        "--demo", action="store_true", help="use the bundled illustrative coefficients (not evaluated values)"
    )


def _lines_options(p):
    p.add_argument("--lines", type=Path, help="measured-lines JSON (default: bundled values)")


# the option groups commands share, by the name COMMANDS gives them
_SHARED_OPTIONS = {"coeffs": _coeffs_options, "lines": _lines_options, "table": _table_options}

# name, help, shared option groups (see `_SHARED_OPTIONS`), builder of the command's own arguments, handler
COMMANDS = (
    ("spin-structure", "hyperfine levels, spin frequencies, sensitivities", ("coeffs", "table"), None, _cmd_spin_structure),
    ("zeeman-map", "magnetic sublevel energies over a field grid", ("coeffs",), _zeeman_map_args, _cmd_zeeman_map),
    ("zeeman-coeffs", "exact Zeeman coefficients of one transition at B = 0, truncation over --b-values", ("coeffs",), _zeeman_coeffs_args, _cmd_zeeman_coeffs),
    ("extrapolate-b", "zero-field extrapolation of line positions", (), _extrapolate_b_args, _cmd_extrapolate_b),
    ("fit-line", "spectrum build + Lorentzian fit + line frequency", (), _fit_line_args, _cmd_fit_line),
    ("extrapolate-rf", "zero-RF-amplitude extrapolation + ledger entry", (), _extrapolate_rf_args, _cmd_extrapolate_rf),
    ("ledger", "apply a systematic-shift ledger to a raw frequency", ("table",), _ledger_args, _cmd_ledger),
    ("composite", "weighted spin-averaged frequency", ("coeffs", "lines"), _composite_args, _cmd_composite),
    ("extract", "mass-ratio extraction with budgets", ("coeffs", "lines", "table"), _extract_args, _cmd_extract),
    ("compare", "pulls of independent determinations against a reference", (), _compare_args, _cmd_compare),
    ("adev", "overlapping Allan deviation of a counter log", (), _adev_args, _cmd_adev),
    ("dfg", "difference-frequency arithmetic of two comb locks", (), _dfg_args, _cmd_dfg),
    ("carrier", "recoil-free carrier strength vs wavelength", (), _carrier_args, _cmd_carrier),
    ("reproduce-paper", "run the full chain on bundled inputs; pass/fail per anchor", (), None, _cmd_reproduce_paper),
)


def _fill_command_parser(p: argparse.ArgumentParser, shared, add_arguments, handler) -> None:
    """Give a command's parser its options: --out-dir, the `shared` groups in order, then its own."""
    p.add_argument("--out-dir", type=Path, default=Path("."), help="directory for JSON/CSV reports")
    for group in shared:
        _SHARED_OPTIONS[group](p)
    if add_arguments is not None:
        add_arguments(p)
    p.set_defaults(handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser, with every command's parser filled under its name and help line."""
    parser = argparse.ArgumentParser(
        prog="hdspec",
        description="Analysis chain for one-photon mid-infrared spectroscopy of the fundamental vibrational "
        "transition of about 100 HD+ ions in a Coulomb cluster of laser-cooled atomic ions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, shared, add_arguments, handler in COMMANDS:
        _fill_command_parser(sub.add_parser(name, help=help_text), shared, add_arguments, handler)
    return parser


# each command's shared option groups, builder of its own arguments and handler, by its name
_COMMANDS_BY_NAME = {name: rest for name, _, *rest in COMMANDS}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What `_build_parser().parse_args(argv)` gives, with one parser where `argv` is a well-formed command.

    The top-level parser has no option that takes a value, and it hands
    every argument after the command to that command's parser, whose
    namespace it takes over next to `command`.  So where `argv` starts
    with a command name, that command's parser alone parses the rest,
    and `command` is set as the sub-parsers action sets it.  Where that
    parse leaves arguments it does not know, or `argv` starts with no
    command name, the full tree parses `argv`, so help, usage errors and
    `unrecognized arguments` are argparse's own words.
    """
    command = _COMMANDS_BY_NAME.get(argv[0]) if argv else None
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"hdspec {argv[0]}")  # the prog and defaults `add_parser` gives it
        _fill_command_parser(parser, *command)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
        return args.handler(args)
    except (_Failure, OSError, ValueError, LookupError, TypeError) as exc:
        code = exc.exit_code if isinstance(exc, _Failure) else 2  # the others escaped before the handler's `_computing` block
        print(f"{'config error' if code == 2 else 'data error'}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
