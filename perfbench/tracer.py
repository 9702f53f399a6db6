"""Span tracer that wraps gsalg's entry points from outside the package.

A span records (name, start, end, parent); the spans of one benchmark run
share a run id.  They are kept in memory and written once, when the traced
process ends.  Patching is by identity: every attribute of every loaded
``gsalg.*`` module that *is* the original function is replaced, because
``cli`` and ``gscore`` bind ``build_table`` and friends with ``from ...
import``.  A target that no longer exists is recorded as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter

# (span name, module, attribute).  Several attributes may share a span name.
TARGETS = (
    ("graded.build_table", "gsalg.graded", "build_table"),
    ("graded.normal_form", "gsalg.graded", "GradedIdealTable.normal_form"),
    ("linalg.gfp.insert_rows", "gsalg.linalg", "GFpEchelon.insert_rows"),
    ("linalg.gfp.reduce_rows", "gsalg.linalg", "GFpEchelon.reduce_rows"),
    ("linalg.gfp.reduce", "gsalg.linalg", "GFpEchelon.reduce"),
    ("linalg.block_rref", "gsalg.linalg", "_block_rref"),
    ("linalg.mulmod", "gsalg.linalg", "_mulmod"),
    ("linalg.gf2.insert", "gsalg.linalg", "GF2Echelon.insert"),
    ("linalg.gf2.reduce", "gsalg.linalg", "GF2Echelon.reduce"),
    ("gscore.minimal_power", "gsalg.gscore", "minimal_power"),
    ("gscore.certified_sides", "gsalg.gscore", "_certified_sides"),
    ("gscore.certified_log2_gap", "gsalg.gscore", "certified_log2_gap"),
    ("gscore.check_blueprint", "gsalg.gscore", "check_blueprint"),
    ("gscore.blueprint_io", "gsalg.gscore", "save_blueprint"),
    ("gscore.blueprint_io", "gsalg.gscore", "load_blueprint"),
    ("gscore.blueprint_table", "gsalg.gscore", "blueprint_table"),
    ("gscore.nil_certificate", "gsalg.gscore", "nil_certificate"),
    ("symfun.window_generators", "gsalg.symfun", "window_generators"),
    ("freealg.parse_poly", "gsalg.freealg", "parse_poly"),
    ("freealg.pow", "gsalg.freealg", "Polynomial.__pow__"),
)

IMPORT_SPAN = "process.import"


def _rows_in(counts, args, result):
    rows = getattr(args[1], "shape", (1,))
    counts["rows_in"] += rows[0] if len(rows) == 2 else 1
    counts["new_pivots"] += len(result)


def _row_in(counts, args, result):
    counts["rows_in"] += 1
    counts["new_pivots"] += result is not None


def _mulmod_flop(counts, args, result):
    (m, k), w = args[0].shape, args[1].shape[1]
    counts["mulmod_flop"] += 2 * m * k * w


# Counters taken where the work happens: rows handed to an echelon and the
# new pivots they gave, and the operation count of each modular matmul
# (2*m*k*w from the operand shapes; computed, not measured).
OBSERVERS = {
    "GFpEchelon.insert_rows": _rows_in,
    "GF2Echelon.insert": _row_in,
    "_mulmod": _mulmod_flop,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list = []
        self._stack: list = []
        self._open: Counter = Counter()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if tracer._open[name]:
                # a recursive call is timed once, by its outermost span
                result = fn(*args, **kwargs)
            else:
                idx = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "gsalg" or k.startswith("gsalg.")]
        for name, modname, path in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(modname)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append("%s (%s.%s)" % (name, modname, path))
                continue
            wrapped = self._wrap(name, orig, OBSERVERS.get(path))
            if owner_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "absent": self.absent,
                },
                fh,
            )


# Per-layer metrics: name -> (kind, span or counter).  "s" is the summed
# duration of a span name, "calls" its call count (recursive calls included).
LAYER_METRICS = {
    "graded.build_table.s": ("s", "graded.build_table"),
    "graded.build_table.self_s": ("self_s", "graded.build_table"),
    "graded.rows_in": ("count", "rows_in"),
    "graded.row_yield": ("yield", None),
    "graded.normal_form.s": ("s", "graded.normal_form"),
    "graded.normal_form.calls": ("calls", "graded.normal_form"),
    "linalg.gfp.insert_rows.s": ("s", "linalg.gfp.insert_rows"),
    "linalg.gfp.reduce_rows.s": ("s", "linalg.gfp.reduce_rows"),
    "linalg.gfp.reduce.s": ("s", "linalg.gfp.reduce"),
    "linalg.gfp.insert_rows.calls": ("calls", "linalg.gfp.insert_rows"),
    "linalg.block_rref.calls": ("calls", "linalg.block_rref"),
    "linalg.mulmod.calls": ("calls", "linalg.mulmod"),
    "linalg.mulmod.s": ("s", "linalg.mulmod"),
    "linalg.mulmod.gflop": ("gflop", "mulmod_flop"),
    "linalg.gf2.insert.s": ("s", "linalg.gf2.insert"),
    "linalg.gf2.reduce.s": ("s", "linalg.gf2.reduce"),
    "linalg.gf2.insert.calls": ("calls", "linalg.gf2.insert"),
    "gscore.minimal_power.s": ("s", "gscore.minimal_power"),
    "gscore.minimal_power.calls": ("calls", "gscore.minimal_power"),
    "gscore.probes": ("calls", "gscore.certified_sides"),
    "gscore.certified_log2_gap.s": ("s", "gscore.certified_log2_gap"),
    "gscore.check_blueprint.s": ("s", "gscore.check_blueprint"),
    "gscore.blueprint_io.s": ("s", "gscore.blueprint_io"),
    "gscore.blueprint_table.s": ("s", "gscore.blueprint_table"),
    "gscore.nil_certificate.s": ("s", "gscore.nil_certificate"),
    "symfun.window_generators.s": ("s", "symfun.window_generators"),
    "freealg.parse_poly.s": ("s", "freealg.parse_poly"),
    "freealg.pow.s": ("s", "freealg.pow"),
    "process.import_s": ("import", IMPORT_SPAN),
}


def summarize(traces: list) -> dict:
    """Per-layer metrics of one pass from the trace dumps of its processes.

    Durations, counts and self times add up over the processes;
    process.import_s is the median import time of one process.
    """
    total, self_s, calls, counts, imports = Counter(), Counter(), Counter(), Counter(), []
    for trace in traces:
        calls.update(trace["calls"])
        counts.update(trace["counts"])
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if name == IMPORT_SPAN:
                imports.append(end - start)
    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "s":
            out[metric] = total[key]
        elif kind == "self_s":
            out[metric] = self_s[key]
        elif kind in ("calls", "count"):
            out[metric] = (calls if kind == "calls" else counts)[key]
        elif kind == "gflop":
            out[metric] = counts[key] / 1e9
        elif kind == "yield":
            out[metric] = counts["new_pivots"] / counts["rows_in"] if counts["rows_in"] else 0.0
        else:
            out[metric] = statistics.median(imports) if imports else 0.0
    return out
