"""Spans and counts at the boundaries between adrdesign's modules.

The library has no instrumentation of its own, so the traced run wraps, from
here, the functions through which one module calls the next. A wrapped name
is replaced in every adrdesign module that bound it: ``sweep`` imported its
own ``maximize_rate_constrained``, ``_unified_grid`` and ``_rate_raw``, and
patching only the defining module would miss those calls. Methods are
wrapped on their class.

Each call records a span (layer, start, end, parent span, request) in
memory. A layer's self time is its span time minus the time of the spans it
directly contains.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _calls(args, kwargs, out):
    return 0


def _points_of(i, j):
    """Work = broadcast size of positional arguments i and j."""
    def work(args, kwargs, out):
        return int(np.broadcast(np.asarray(args[i]), np.asarray(args[j])).size)
    return work


def _size_of_arg(i):
    def work(args, kwargs, out):
        return int(np.size(args[i]))
    return work


def _grid_cells(args, kwargs, out):
    values = getattr(out, "values", None)
    return int((values if values is not None else out.labels).size)


def _study_cells(args, kwargs, out):
    rows = getattr(out, "rows", None)
    return len(rows) if rows is not None else int(out.values.size)


def _text_bytes(args, kwargs, out):
    return len(out.encode("utf-8"))


def layer_table():
    """(layer, owner, attribute, work) for every traced boundary.

    owner is the module that defines a function, or the class of a method.
    """
    from adrdesign import adr, cli, config, link, optimizer, sweep

    return [
        ("cli.main", cli, "main", _calls),
        ("config.load_config", config, "load_config", _calls),
        ("optimizer.solve", optimizer, "maximize_rate_constrained", _calls),
        ("optimizer.boundary", optimizer, "_unified_grid", _size_of_arg(2)),
        ("link.rate", link, "_rate_raw", _points_of(2, 3)),
        ("adr.dimensions", adr, "_height", _points_of(1, 2)),
        ("adr.dimensions", adr, "_top_area", _points_of(1, 2)),
        ("adr.geometry", adr, "geometry", _calls),
        ("sweep.study", sweep, "rmax_surface", _study_cells),
        ("sweep.study", sweep, "rmax_vs_fovmin", _study_cells),
        ("sweep.map", sweep, "grid_sweep", _grid_cells),
        ("sweep.map", sweep, "design_space", _grid_cells),
        ("sweep.map", sweep, "feasible_region", _grid_cells),
        ("sweep.regenerate", sweep, "regenerate", _calls),
    ] + [
        ("sweep.serialise", cls, method, _text_bytes)
        for cls in (sweep.Grid2D, sweep.RegionMask, sweep.FovSweepTable)
        for method in ("to_csv", "to_json")
    ]


class Tracer:
    """In-memory spans and per-layer totals of one traced run."""

    def __init__(self):
        self.spans = []  # (id, parent id, layer, start, end, request id, work)
        self._stack = []  # [span id, child seconds, layer] of the open spans
        self.request = -1
        self.totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        self.in_solve_points = 0  # boundary points inverted inside solver calls

    def begin_request(self):
        self.request += 1

    def wrap(self, fn, layer, work):
        def traced(*args, **kwargs):
            frame = [len(self.spans) + len(self._stack), 0.0, layer]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            elapsed = end - start
            if self._stack:
                self._stack[-1][1] += elapsed
            amount = work(args, kwargs, out)
            total = self.totals[layer]
            total["calls"] += 1
            total["s"] += elapsed
            total["self_s"] += elapsed - frame[1]
            total["work"] += amount
            if layer == "optimizer.boundary" and any(
                    f[2] == "optimizer.solve" for f in self._stack):
                self.in_solve_points += amount
            self.spans.append((frame[0], parent, layer, start, end, self.request, amount))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced boundary for the duration of the block."""
        patches = []
        for layer, owner, attr, work in layer_table():
            original = getattr(owner, attr)
            wrapper = self.wrap(original, layer, work)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != "adrdesign" and not name.startswith("adrdesign."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for target, key, original in reversed(patches):
                setattr(target, key, original)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, start, end, request, work in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer, "request": request,
                    "start_s": start, "end_s": end, "work": work,
                }) + "\n")


def layer_metrics(totals, in_solve_points, rounds, round_s, overhead):
    """Per-layer metrics, each a total over one round of the workload."""
    def t(layer, key):
        return totals[layer][key] / rounds if layer in totals else 0.0

    ms = 1e3
    solves = t("optimizer.solve", "calls")
    kernel_s = t("link.rate", "s") + t("adr.dimensions", "s")
    values = {
        "cli.main.calls": (t("cli.main", "calls"), "count"),
        "cli.main.self_ms": (t("cli.main", "self_s") * ms, "ms"),
        "config.load_config.ms": (t("config.load_config", "s") * ms, "ms"),
        "optimizer.solve.calls": (solves, "count"),
        "optimizer.solve.self_ms": (t("optimizer.solve", "self_s") * ms, "ms"),
        "optimizer.boundary.calls": (t("optimizer.boundary", "calls"), "count"),
        "optimizer.boundary.points": (t("optimizer.boundary", "work"), "count"),
        "optimizer.boundary.ms": (t("optimizer.boundary", "s") * ms, "ms"),
        "optimizer.boundary_points_per_solve": (
            in_solve_points / rounds / solves if solves else 0.0, "count"),
        "sweep.study.cells": (t("sweep.study", "work"), "count"),
        "sweep.study.self_ms": (t("sweep.study", "self_s") * ms, "ms"),
        "link.rate.calls": (t("link.rate", "calls"), "count"),
        "link.rate.points": (t("link.rate", "work"), "count"),
        "link.rate.ms": (t("link.rate", "s") * ms, "ms"),
        "adr.dimensions.points": (t("adr.dimensions", "work"), "count"),
        "adr.dimensions.ms": (t("adr.dimensions", "s") * ms, "ms"),
        "adr.geometry.calls": (t("adr.geometry", "calls"), "count"),
        "adr.geometry.ms": (t("adr.geometry", "s") * ms, "ms"),
        "sweep.map.cells": (t("sweep.map", "work"), "count"),
        "sweep.map.self_ms": (t("sweep.map", "self_s") * ms, "ms"),
        "sweep.serialise.bytes": (t("sweep.serialise", "work"), "B"),
        "sweep.serialise.ms": (t("sweep.serialise", "s") * ms, "ms"),
        "sweep.regenerate.ms": (t("sweep.regenerate", "s") * ms, "ms"),
        "kernel.share_pct": (100.0 * kernel_s / round_s if round_s else 0.0, "%"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }
    return values
