"""Spans around the public functions of every stringlinks layer.

Tracer replaces each listed function in every stringlinks module that
holds it, the defining module and each module that imported it by name,
records one span per call with its parent and the benchmark operation
that caused it, and restores the originals on exit.  Size counters are
read from call arguments and return values, and the time spent reading
them is left out of every span.  A listed name that no longer exists
raises MissingTracedName, so a refactor cannot silently drop a layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

TRACED: Dict[str, Tuple[str, ...]] = {
    "cli": ("run",),
    "diagram": ("parse_morse", "trace"),
    "wirtinger": ("presentation", "fox_matrix"),
    "algebra": ("solve", "det", "rank", "taylor_expand"),
    "gassner": ("gassner", "burau", "fox_of_word", "solve_fox_system", "reduce",
                "fixes_weight_vectors"),
    "walks": ("walk_matrix", "solve_labeling"),
    "alexander": ("full_report", "closure_matrix", "torsion", "factorization_identity",
                  "alexander_poly_closure", "alexander_function"),
    "finitetype": ("taylor_gassner", "alternating_sum"),
}

# solve is attributed to the oracle that called it.
SOLVE_CALLERS = (("gassner.solve_fox_system", "algebra.solve.fox"),
                 ("walks.solve_labeling", "algebra.solve.walk"))

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = (
    ("cli.run.self_s", "s", "lower"),
    ("diagram.parse_morse.self_s", "s", "lower"),
    ("diagram.trace.self_s", "s", "lower"),
    ("diagram.trace.calls_per_word", "calls/word", "lower"),
    ("wirtinger.fox_matrix.self_s", "s", "lower"),
    ("wirtinger.presentation.self_s", "s", "lower"),
    ("wirtinger.arcs_max", "count", "lower"),
    ("algebra.solve.fox.self_s", "s", "lower"),
    ("algebra.solve.walk.self_s", "s", "lower"),
    ("algebra.solve.calls_per_word", "calls/word", "lower"),
    ("algebra.det.self_s", "s", "lower"),
    ("algebra.det.calls_per_word", "calls/word", "lower"),
    ("algebra.rank.self_s", "s", "lower"),
    ("algebra.taylor_expand.self_s", "s", "lower"),
    ("algebra.max_dim", "count", "lower"),
    ("algebra.max_terms", "count", "lower"),
    ("algebra.max_coeff_bits", "bits", "lower"),
    ("algebra.self_share", "ratio", "lower"),
    ("gassner.solve_fox_system.calls_per_word", "calls/word", "lower"),
    ("gassner.self_s", "s", "lower"),
    ("walks.solve_labeling.self_s", "s", "lower"),
    ("walks.core_max", "count", "lower"),
    ("alexander.alexander_poly_closure.self_s", "s", "lower"),
    ("alexander.factorization_identity.self_s", "s", "lower"),
    ("alexander.self_s", "s", "lower"),
    ("finitetype.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


class MissingTracedName(LookupError):
    """A function the tracer is told to wrap does not exist."""


class Span:
    __slots__ = ("name", "parent", "start", "end", "paused", "op")

    def __init__(self, name: str, parent: Optional[int], op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.paused = 0.0


def _polys(result):
    """The Laurent polynomials (or series) a traced algebra call returned."""
    if hasattr(result, "entries"):  # RatMatrix
        for row in result.entries:
            for x in row:
                yield x.num
                yield x.den
    elif hasattr(result, "den"):  # RatFunc
        yield result.num
        yield result.den
    elif hasattr(result, "terms"):  # TruncatedSeries
        yield result


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self, traced: Dict[str, Tuple[str, ...]] = TRACED):
        self.traced = traced
        self.spans: List[Span] = []
        self.sizes: Dict[str, int] = {"algebra.max_dim": 0, "algebra.max_terms": 0,
                                      "algebra.max_coeff_bits": 0, "walks.core_max": 0,
                                      "wirtinger.arcs_max": 0}
        self.op = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def __enter__(self) -> "Tracer":
        originals = {}
        for layer, names in self.traced.items():
            module = importlib.import_module("stringlinks." + layer)
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    raise MissingTracedName("stringlinks.%s.%s no longer exists" % (layer, name))
                originals[id(fn)] = (fn, self._wrap("%s.%s" % (layer, name), fn))
        for modname, module in list(sys.modules.items()):
            if modname != "stringlinks" and not modname.startswith("stringlinks."):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = originals.get(id(value), (None, None))
                if fn is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            self._count(name, index, args, result)
            if parent is not None:
                spans[parent].paused += clock() - span.end
            return result

        traced.__wrapped__ = fn
        return traced

    def _bump(self, key: str, value: int) -> None:
        if value > self.sizes[key]:
            self.sizes[key] = value

    def _count(self, name: str, index: int, args, result) -> None:
        if name == "wirtinger.presentation":
            self._bump("wirtinger.arcs_max", len(args[0].arcs))
        if name not in ("algebra.solve", "algebra.det", "algebra.rank", "algebra.taylor_expand"):
            return
        if name != "algebra.taylor_expand":
            self._bump("algebra.max_dim", args[0].rows)
        if self.solve_caller(index) == "algebra.solve.walk":
            self._bump("walks.core_max", args[0].rows)
        for p in _polys(result):
            if p.terms:
                self._bump("algebra.max_terms", len(p.terms))
                self._bump("algebra.max_coeff_bits", max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in p.terms.values()))

    def solve_caller(self, index: int) -> Optional[str]:
        """algebra.solve.fox or .walk for a solve span, else None."""
        if self.spans[index].name != "algebra.solve":
            return None
        parent = self.spans[index].parent
        while parent is not None:
            for caller, label in SOLVE_CALLERS:
                if self.spans[parent].name == caller:
                    return label
            parent = self.spans[parent].parent
        return None

    def self_times(self) -> List[float]:
        """Span duration minus its direct children and its paused time."""
        own = [s.end - s.start - s.paused for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def by_name(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self time and call count per span name, solve also split by caller."""
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            names = [span.name]
            caller = self.solve_caller(i)
            if caller:
                names.append(caller)
            for name in names:
                seconds[name] = seconds.get(name, 0.0) + own
                calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def metrics(self, words: int, untraced_s: float, traced_s: float) -> Dict[str, float]:
        """Every per-layer metric for the traced pass over `words` words."""
        seconds, calls = self.by_name()
        layer: Dict[str, float] = {}
        for name, value in seconds.items():
            if name.count(".") == 1:  # layer.function; solve's split has two dots
                layer[name.split(".")[0]] = layer.get(name.split(".")[0], 0.0) + value
        total = sum(layer.values())
        values: Dict[str, float] = dict(self.sizes)
        for name, _, _ in LAYER_METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = seconds.get(base, 0.0) if "." in base else layer.get(base, 0.0)
            elif kind == "calls_per_word":
                values[name] = calls.get(base, 0) / max(words, 1)
        values["algebra.self_share"] = layer.get("algebra", 0.0) / total if total else 0.0
        values["trace_overhead"] = traced_s / untraced_s - 1.0
        return {name: values.get(name, 0.0) for name, _, _ in LAYER_METRICS}

    def dominant(self) -> Tuple[str, float]:
        """The span name with the largest self time (solve split by caller)."""
        seconds, _ = self.by_name()
        total = sum(v for k, v in seconds.items() if k.count(".") == 1)
        candidates = {k: v for k, v in seconds.items() if k != "algebra.solve"}
        name = max(candidates, key=candidates.get)
        return name, candidates[name] / total

    def dump(self, path) -> None:
        rows = [[i, s.parent, s.name, s.start, s.end, s.op] for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
