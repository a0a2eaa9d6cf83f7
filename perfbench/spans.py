"""In-memory span recording around ranktail's public functions.

The traced run replaces each function listed in ``WRAPPED`` with a timing
wrapper under every name a ranktail module looks it up by (for example
``ranktail.cli.load_edge_list`` and ``ranktail.graph.load_edge_list`` are the
same function object, so both names get the wrapper).  Nothing inside
``src/ranktail`` is edited; ``uninstall`` puts the original objects back.

A span is (id, name, start, end, parent id, counters).  Spans stay in memory
and are written once, by the worker, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# layer -> the public functions of that layer that the workloads reach.
# cli.cmd_<x> spans are named cli.<x>.  Inner per-sample helpers
# (sample_pareto, sample_indegree) are left unwrapped: simulate_Y_levels
# calls them ~10^5 times per op.
WRAPPED = {
    "cli": ["main", "cmd_analyze", "cmd_simulate", "cmd_generate"],
    "graph": ["load_edge_list", "write_edge_list", "degree_profile"],
    "synth": ["generate"],
    "pagerank": ["pagerank", "export_scores"],
    "tails": ["ccdf", "choose_xmin", "fit_exponent_mle", "decimate_ccdf",
              "write_ccdf_csv"],
    "theory": ["validate_outdegree_hist", "b_coefficient", "coefficient_Ck",
               "coefficient_C", "coefficient_lower_bound", "predict_line"],
    "report": ["analyze_graph", "write_analysis"],
    "simulate": ["simulate_R", "iterate_pool", "tail_ratio_table",
                 "simulate_Y_levels"],
}


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.removeprefix('cmd_')}" if layer == "cli" else f"{layer}.{func}"


def pagerank_bytes_per_iter(n: int, m: int, idx_bytes: int = 8, ptr_bytes: int = 8) -> int:
    """Bytes one power iteration of ``ranktail.pagerank.pagerank`` reads and
    writes, computed from array sizes (cache hits and line granularity are
    ignored, so this is not a measured bandwidth).

    Edge streams, m entries each:
      read in_src (idx_bytes), gather w[in_src] (8), write the gathered
      vector (8), reduceat reads it back (8).
    Row-pointer streams: in_ptr read twice for the non-empty mask
      (2 * (n+1) * ptr_bytes); the mask written and read three times (3n);
      starts[nonempty] written and read (2 * 8n).
    Float64 passes over n entries (20 * 8n): dangling gather 1, r*inv_out 3,
      zeros 1, reduceat output 1, scatter into sums 2, +dm 2, *c 2,
      +(1-c) 2, r_new - r 3, abs 2, sum 1.
    """
    edge = m * (idx_bytes + 8 + 8 + 8)
    rows = 2 * (n + 1) * ptr_bytes + 3 * n + 2 * 8 * n
    vectors = 20 * 8 * n
    return edge + rows + vectors


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (TypeError, OSError):
        return 0


def _pagerank_counters(a, result) -> dict:
    g = a["g"]
    iters = int(result.iters_run)
    per_iter = pagerank_bytes_per_iter(g.n, g.m, g.in_src.itemsize, g.in_ptr.itemsize)
    return {"iters": iters, "edges": g.m * iters, "bytes": per_iter * iters}


# span name -> counters taken from (arguments by parameter name, result)
COUNTERS = {
    "graph.load_edge_list": lambda a, r: {"bytes": _file_bytes(a["source"])},
    "graph.write_edge_list": lambda a, r: {"bytes": _file_bytes(a["dest"])},
    "pagerank.export_scores": lambda a, r: {"bytes": _file_bytes(a["dest"])},
    "synth.generate": lambda a, r: {"edges": r.m},
    "pagerank.pagerank": _pagerank_counters,
    "simulate.iterate_pool": lambda a, r: {"samples": a["spec"].pool_size},
    "simulate.simulate_Y_levels": lambda a, r: {"aborted": int(r.aborted.sum()),
                                                "samples": int(r.aborted.size)},
}


class Recorder:
    """Nested spans of one thread, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1] if self._stack else None,
                "counters": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counters = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counters is not None:
                named = signature.bind(*args, **kwargs).arguments
                span["counters"] = counters(named, result)
            return result
        return wrapper


def ranktail_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ranktail" or name.startswith("ranktail."))]


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every function in WRAPPED under all its ranktail names.

    Returns the (module, attribute, original) list that ``uninstall`` needs.
    """
    modules = ranktail_modules()
    undo = []
    for layer, funcs in WRAPPED.items():
        layer_mod = importlib.import_module(f"ranktail.{layer}")
        for func in funcs:
            original = getattr(layer_mod, func)
            wrapper = recorder.wrap(original, span_name(layer, func))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


# -- arithmetic on recorded spans ---------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _outermost(spans: list[dict], same) -> list[dict]:
    """Spans with no ancestor for which same(ancestor, span) holds."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        p = s["parent"]
        while p is not None and not same(by_id[p], s):
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, total (outermost spans only), self time, counters;
    per layer: total of outermost spans in the layer, self time, calls."""
    selfs = self_times(spans)
    names: dict[str, dict] = {}
    for s in spans:
        entry = names.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                             "counters": {}})
        entry["calls"] += 1
        entry["self_s"] += selfs[s["id"]]
        for key, val in s["counters"].items():
            entry["counters"][key] = entry["counters"].get(key, 0) + val
    for s in _outermost(spans, lambda a, b: a["name"] == b["name"]):
        names[s["name"]]["s"] += s["end"] - s["start"]

    def layer(s):
        return s["name"].split(".", 1)[0]

    layers: dict[str, dict] = {}
    for s in spans:
        entry = layers.setdefault(layer(s), {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[s["id"]]
    for s in _outermost(spans, lambda a, b: layer(a) == layer(b)):
        layers[layer(s)]["s"] += s["end"] - s["start"]
    return {"names": names, "layers": layers}
