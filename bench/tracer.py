"""Span tracer for the traced run.

Wraps every public function of the hahnium modules and rebinds the wrapper
in every hahnium module namespace that holds the original, so calls between
modules are seen too.  Only the benchmark's own process is affected, and only
between ``install`` and ``uninstall``.

Each call becomes a span (id, parent id, request id, name, start, end).  Self
time, a span's duration minus the time its child spans cover, is accumulated
per function as spans close, so the per-layer totals cover every span; the
first ``SPAN_CAP`` spans are also kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

SPAN_CAP = 50_000
LAYERS = ("specfun", "orthopoly", "laguerre_integrals", "angular", "hydrogen_nr",
          "hydrogen_rel", "oracle", "cli")
# Functions whose span durations are kept for percentiles.
TIMED = ("hydrogen_nr.expect_r_power_nr", "hydrogen_nr.screening_nr",
         "hydrogen_rel.expect_r_power_rel")
ORACLE_CASES = ("oracle.brute_expect_nr", "oracle.brute_expect_rel", "oracle.brute_screening")


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return {
        name: obj for name in names
        if inspect.isfunction(obj := getattr(module, name, None))
        and obj.__module__ == module.__name__
    }


def _series_terms(counters: Counter, kind: str):
    def hook(args, result) -> None:
        counters[kind] += 1
        counters["series_terms"] += args[0].termination_index() + 1
    return hook


def _quad_hook(counters: Counter):
    def hook(args, result) -> None:
        counters["quad_calls"] += 1
        counters["evaluations"] += getattr(result, "evaluations", 0)
    return hook


def _points_hook(counters: Counter):
    def hook(args, result) -> None:
        counters["points"] += int(np.size(args[1]))
    return hook


def _flag_hook(counters: Counter):
    def hook(args, result) -> None:
        counters["flagged"] += bool(getattr(result, "cancellation_flag", False))
    return hook


class Tracer:
    def __init__(self, modules: dict):
        """modules: layer name -> hahnium module object."""
        self.modules = modules
        self.stack: list = []  # [span id, time covered by children]
        self.spans: list = []
        self.next_id = 0
        self.request_id = -1
        self.stats: dict = {}  # "layer.function" -> [calls, self seconds]
        self.durations = {name: array("d") for name in TIMED}
        self.counters: Counter = Counter()
        self._hooks = {
            "specfun.hyp_terminating": _series_terms(self.counters, "series_float"),
            "specfun.hyp_terminating_exact": _series_terms(self.counters, "series_exact"),
            "oracle.quad_semi_infinite": _quad_hook(self.counters),
            "orthopoly.laguerre": _points_hook(self.counters),
            "hydrogen_rel.expect_r_power_rel": _flag_hook(self.counters),
        }
        self._rebound: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0])
        durations = self.durations.get(name)
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                if durations is not None:
                    durations.append(elapsed)
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, self.request_id, name, start, end))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, module in self.modules.items():
            for fname, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def layer_totals(self, layer: str) -> tuple:
        calls = self_s = 0
        for name, (count, seconds) in self.stats.items():
            if name.split(".", 1)[0] == layer:
                calls += count
                self_s += seconds
        return calls, self_s

    def median_us(self, name: str) -> float:
        values = sorted(self.durations[name])
        return values[(len(values) - 1) // 2] * 1e6 if values else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "request": request, "name": name,
                                         "start": start, "end": end}) + "\n")
