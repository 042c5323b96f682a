"""Layer spans and counts, recorded from outside the hdspec package.

A layer is one hdspec module.  `Tracer.install` replaces every public
module-level function of each layer, and the constructor of each plain
(non-dataclass) class, with a timing wrapper in every hdspec namespace
that holds a reference to it, so `zeeman.eigenlevels` and
`angular.eigenlevels` are both traced.  `numpy.linalg.eigh` is wrapped
too and counted against the innermost open layer span.  Spans and counts
stay in memory; `dump` writes them out once, and `summarize` turns one
or more dumps into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
import types

LAYERS = ("cli", "bundled", "angular", "zeeman", "lineshape", "metrology", "systematics", "composite", "constants")

# per-call medians reported as <layer>.<function>_s
TIMED_CALLS = {
    "angular": ("read_coefficient_file", "level_structure", "transition_table"),
    "zeeman": ("zeeman_map",),
    "lineshape": ("read_decay_csv", "fit_lorentzian"),
    "metrology": ("read_counter_csv", "allan_deviation"),
    "composite": ("optimize_weight",),
}

# counts taken from a traced call's result: (layer, function) -> (counter, size of result)
RESULT_COUNTS = {
    ("zeeman", "zeeman_map"): ("zeeman.field_points", lambda r: len(r.b_values)),
    ("lineshape", "read_decay_csv"): ("lineshape.records_parsed", len),
    ("lineshape", "fit_lorentzian"): ("lineshape.fit_iterations", lambda r: r.n_iter),
    ("metrology", "read_counter_csv"): ("metrology.samples_parsed", lambda r: len(r.samples)),
}

# counts of calls: (layer, function) -> counter
CALL_COUNTS = {
    ("angular", "level_structure"): "angular.level_structure_calls",
    ("angular", "ProductBasis.__init__"): "angular.bases_built",
    ("angular", "term_operator"): "angular.term_operators_built",
}


class Tracer:
    def __init__(self) -> None:
        # span: [layer, function, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.distinct_hamiltonians = 0
        self._seen: set[bytes] = set()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        call_counter = CALL_COUNTS.get((layer, name))
        result_counter = RESULT_COUNTS.get((layer, name))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            if call_counter:
                self._count(call_counter)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if result_counter:
                self._count(result_counter[0], int(result_counter[1](result)))
            return result

        return traced

    def _wrap_eigh(self, eigh):
        @functools.wraps(eigh)
        def traced_eigh(a, *args, **kwargs):
            if self._stack:
                layer = self.spans[self._stack[-1]][0]
                self._count(f"{layer}.eigensolves")
                if layer == "angular":
                    digest = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
                    if digest not in self._seen:
                        self._seen.add(digest)
                        self.distinct_hamiltonians += 1
            return eigh(a, *args, **kwargs)

        return traced_eigh

    def new_pass(self) -> None:
        """Start a new pass: Hamiltonians are counted as distinct per pass."""
        self._seen.clear()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy

        modules = {layer: importlib.import_module(f"hdspec.{layer}") for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replacements[id(obj)] = self._wrap(layer, name, obj)
                elif (
                    isinstance(obj, type)
                    and not issubclass(obj, BaseException)
                    and not dataclasses.is_dataclass(obj)
                    and "__init__" in vars(obj)
                ):
                    self._patch(obj, "__init__", self._wrap(layer, f"{name}.__init__", vars(obj)["__init__"]))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hdspec" or mod_name.startswith("hdspec.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacements and isinstance(obj, types.FunctionType):
                    self._patch(mod, name, replacements[id(obj)])
        self._patch(numpy.linalg, "eigh", self._wrap_eigh(numpy.linalg.eigh))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, value = self._originals.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "distinct_hamiltonians": self.distinct_hamiltonians}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.record(), fh)


def summarize(records: list[dict], n_passes: int) -> dict[str, float]:
    """Per-layer metrics from the records of `n_passes` traced passes.

    Self times and counts are per pass; `_s` call metrics are medians per
    call over every record; calls that never happened read 0.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    durations: dict[tuple[str, str], list[float]] = {}
    counts: dict[str, int] = {}
    distinct = 0
    for rec in records:
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for layer, name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (layer, name, start, end, _) in enumerate(spans):
            self_s[layer] += (end - start) - child[i]
            durations.setdefault((layer, name), []).append(end - start)
        for key, n in rec["counts"].items():
            counts[key] = counts.get(key, 0) + n
        distinct += rec["distinct_hamiltonians"]

    out = {f"{layer}.self_s": self_s[layer] / n_passes for layer in LAYERS}
    for layer, fns in TIMED_CALLS.items():
        for fn in fns:
            calls = durations.get((layer, fn))
            out[f"{layer}.{fn}_s"] = statistics.median(calls) if calls else 0.0
    counters = [*CALL_COUNTS.values(), *(c for c, _ in RESULT_COUNTS.values())]
    counters += ["angular.eigensolves", "zeeman.eigensolves"]
    for name in counters:
        out[name] = counts.get(name, 0) / n_passes
    solves = counts.get("angular.eigensolves", 0)
    out["angular.solve_reuse"] = distinct / solves if solves else 0.0
    return out
