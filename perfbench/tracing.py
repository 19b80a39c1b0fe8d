"""Span tracing of qcpredict from outside the package.

A `Tracer` replaces each traced function, for the duration of `installed()`,
in every ``qcpredict`` module namespace that holds it, so the program's own
calls run through the wrapper: replacing ``compile_circuit`` in
``qcpredict.compiler`` alone would miss the calls ``rank_options`` makes
through ``qcpredict.scoring``. Spans (name, start, end, parent, circuit or
request id) and counters are kept in memory and written out by `write_spans`.
A traced name that the package no longer defines is reported as absent and
counts 0 calls.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _optimize_level(args: dict) -> str:
    level = args.get("level")
    return f"O{level}" if isinstance(level, int) else str(level)


def _fingerprint(*parts) -> int:
    """Identity of a call's input, for the distinct-inputs / calls ratios."""
    return hash(parts)


def _layout_key(layout) -> tuple:
    return tuple(sorted(layout.items()))


class _Hook:
    """What one traced function contributes beyond its span.

    ``item`` names the circuit or request the span works on (children inherit
    it), ``suffix`` splits the span name by an argument, ``count`` adds to the
    tracer's counters from the arguments and the result.
    """

    def __init__(self, item=None, suffix=None, count=None):
        self.item = item
        self.suffix = suffix
        self.count = count


def _count_parse(t, a, r):
    t.add("qasm.parse_qasm.bytes", len(a["source"]))


def _count_expand(t, a, r):
    t.distinct("compiler.expand_three_qubit", _fingerprint(a["circuit"]))


def _count_route(t, a, r):
    t.add("compiler.route.swaps", r[2])
    t.distinct("compiler.route", _fingerprint(a["circuit"], a["device"].id, _layout_key(a["layout"])))


def _count_decompose(t, a, r):
    t.add("compiler.decompose_to_native.ops_out", len(r.ops))
    t.distinct("compiler.decompose_to_native", _fingerprint(a["circuit"], a["device"].id))


def _count_optimize(t, a, r):
    t.add("compiler.optimize.ops_removed", len(a["circuit"].ops) - len(r.ops))


def _count_score(t, a, r):
    if a.get("result") is not None:
        t.add("scoring.evaluate_score.ops", len(a["result"].circuit.ops))


def _count_equivalence(t, a, r):
    t.add("simulator.check_equivalence.decided", 1)


def _circuit_name(a):
    return a["circuit"].name or None


# (module, function) -> hook, for every traced public function on the
# generate -> label -> train -> predict path
TARGETS: dict[tuple[str, str], _Hook | None] = {
    ("cli", "main"): None,
    ("qasm", "parse_qasm"): _Hook(item=lambda a: a.get("name") or None, count=_count_parse),
    ("qasm", "to_qasm"): None,
    ("generators", "generate_corpus"): None,
    ("devices", "builtin_devices"): None,
    ("compiler", "compile_circuit"): _Hook(item=_circuit_name),
    ("compiler", "expand_three_qubit"): _Hook(count=_count_expand),
    ("compiler", "place_line"): None,
    ("compiler", "place_graph"): None,
    ("compiler", "route"): _Hook(count=_count_route),
    ("compiler", "decompose_to_native"): _Hook(count=_count_decompose),
    ("compiler", "optimize"): _Hook(suffix=_optimize_level, count=_count_optimize),
    ("scoring", "rank_options"): _Hook(item=_circuit_name),
    ("scoring", "evaluate_score"): _Hook(count=_count_score),
    ("features", "extract_features"): None,
    ("ml", "fit_forest"): None,
    ("ml", "save_model"): None,
    ("ml", "load_model"): None,
    ("ml", "predict_many"): None,
    ("pipeline", "label_dataset"): None,
    ("pipeline", "train_model"): None,
    ("pipeline", "evaluate"): None,
    ("pipeline", "read_corpus"): None,
    ("pipeline", "write_labels_csv"): None,
    ("simulator", "check_equivalence"): _Hook(count=_count_equivalence),
}

PACKAGE = "qcpredict"


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, item]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set[int]] = defaultdict(set)
        self.absent: list[str] = []

    # -- counters ----------------------------------------------------------
    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def distinct(self, name: str, key: int) -> None:
        self.keys[name].add(key)

    # -- spans -------------------------------------------------------------
    def _open(self, name: str, item: str | None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), 0.0, parent, item])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None):
        index = self._open(name, item)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, hook: _Hook | None):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if hook is not None else None
            span_name = name
            item = None
            if hook is not None:
                if hook.suffix is not None:
                    span_name = f"{name}.{hook.suffix(bound)}"
                if hook.item is not None:
                    item = hook.item(bound)
            tracer.counts[f"{name}.calls"] += 1
            index = tracer._open(span_name, item)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None and hook.count is not None:
                hook.count(tracer, bound, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every traced function through a recording wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replaced: list[tuple[object, str, object]] = []
        self.absent = []
        for (module, function), hook in TARGETS.items():
            name = f"{module}.{function}"
            home = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(home, function, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        replaced.append((m, attr, original))
        try:
            yield self
        finally:
            for m, attr, original in replaced:
                setattr(m, attr, original)

    # -- results -----------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total self time, and the longest single span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        longest: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            total[name] += (end - start) - children
            longest[name] = max(longest[name], end - start)
        return total, longest

    def unique_frac(self, name: str) -> float:
        calls = self.counts.get(f"{name}.calls", 0)
        return len(self.keys.get(name, ())) / calls if calls else 0.0

    def count_summary(self) -> dict[str, float]:
        """Every count and distinct-input ratio, for the determinism check."""
        summary: dict[str, float] = dict(self.counts)
        for name in self.keys:
            summary[f"{name}.unique_frac"] = self.unique_frac(name)
        return summary

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; `parent` indexes the line of the parent span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": None if parent < 0 else parent, "item": item}
                fh.write(json.dumps(record) + "\n")
