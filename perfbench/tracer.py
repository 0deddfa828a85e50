"""Span tracer for traced benchmark runs.

It wraps the public entry points of each pgturan layer from the outside, so
the library itself is unchanged.  Each call records a span (name, start, end,
parent span) and, for some functions, counts read off the return value.  All
of it stays in memory until the process writes it out at the end.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter

# Layer boundaries: module -> the public functions wrapped in spans.  Helpers
# that run once per search node or per point (bits, is_arc, point_id,
# apply_projectivity, ...) are left out, because a span per call would cost
# more than the work it measures.
BOUNDARIES = {
    "gf": ("make_field",),
    "geometry": ("build_geometry",),
    "structures": ("enumerate_complete_arcs", "classify_up_to_collineation",
                   "arcs_equivalent", "max_blocking_set_size"),
    "covering": ("min_hitting_set", "m_of_arc", "compute_Mq", "verify_appendix"),
    "construction": ("build_hypergraph", "contains_subgeometry"),
    "bounds": ("optimize_bound", "reproduce_tables", "reproduce_arc_optima"),
    "verify": ("run_all",),
    "cli": ("main",),
}

# Counts taken from a traced function's return value.
RESULT_COUNTS = {
    "structures.enumerate_complete_arcs": lambda r: {"structures.arcs_found": len(r)},
    "structures.arcs_equivalent": lambda r: {"structures.equiv_true": int(bool(r))},
    "structures.max_blocking_set_size":
        lambda r: {"structures.blocking_nodes": r.explored_nodes},
    "covering.min_hitting_set": lambda r: {"covering.hitting_nodes": r.explored_nodes},
    "construction.build_hypergraph": lambda r: {"construction.edges": len(r.edges)},
    "construction.contains_subgeometry": lambda r: {"construction.embed_nodes": r.nodes},
    "verify.run_all": lambda r: {"verify.claims": len(r),
                                 "verify.claim_s_sum": sum(c.seconds for c in r)},
}

# Per-layer metric -> span whose outermost calls it sums (seconds).
TIME_METRICS = {
    "gf.make_field_s": "gf.make_field",
    "geometry.build_s": "geometry.build_geometry",
    "structures.enumerate_s": "structures.enumerate_complete_arcs",
    "structures.classify_s": "structures.classify_up_to_collineation",
    "structures.blocking_s": "structures.max_blocking_set_size",
    "covering.hitting_s": "covering.min_hitting_set",
    "covering.mq_s": "covering.compute_Mq",
    "covering.appendix_s": "covering.verify_appendix",
    "construction.build_s": "construction.build_hypergraph",
    "construction.embed_s": "construction.contains_subgeometry",
    "bounds.optimize_s": "bounds.optimize_bound",
    "bounds.tables_s": "bounds.reproduce_tables",
}

# Per-layer metric -> span whose calls it counts.
CALL_METRICS = {
    "geometry.build_calls": "geometry.build_geometry",
    "structures.equiv_tests": "structures.arcs_equivalent",
    "covering.hitting_calls": "covering.min_hitting_set",
    "bounds.optimize_calls": "bounds.optimize_bound",
    "bounds.arc_optima_calls": "bounds.reproduce_arc_optima",
}

COUNT_METRICS = ("structures.arcs_found", "structures.blocking_nodes",
                 "covering.hitting_nodes", "construction.edges",
                 "construction.embed_nodes", "verify.claims", "verify.claim_s_sum")

DERIVED_METRICS = ("structures.equiv_hit_ratio", "geometry.cache_hit_ratio",
                   "verify.self_s", "cli.import_s")

LAYER_METRICS = (*TIME_METRICS, *CALL_METRICS, *COUNT_METRICS, *DERIVED_METRICS)


class Tracer:
    """Records spans and counts for every call into the layer boundaries.

    Single-threaded: the span stack is shared, which is right because the
    benchmark never raises PGTURAN_THREADS above its default of 1.
    """

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self.missed: list[str] = []

    def install(self) -> None:
        """Replace each boundary function in every pgturan namespace holding it.

        `from .structures import enumerate_complete_arcs` copies the name into
        the importing module, so patching only the defining module would miss
        the calls made through the copy.  Any namespace still holding an
        original afterwards is listed in `missed`.
        """
        for mod_name, fn_names in BOUNDARIES.items():
            module = importlib.import_module(f"pgturan.{mod_name}")
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                self._originals[name] = original
                wrapper = self._wrap(name, original)
                for ns in _pgturan_modules():
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        originals = {id(fn): name for name, fn in self._originals.items()}
        self.missed = [f"{ns.__name__}.{attr} ({originals[id(value)]})"
                       for ns in _pgturan_modules()
                       for attr, value in vars(ns).items() if id(value) in originals]

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def record(self, import_s: float) -> dict:
        """This process's spans and counts, in the form `layer_metrics` reads."""
        info = self._originals["geometry.build_geometry"].cache_info()
        return {"import_s": import_s, "spans": self.spans, "counts": dict(self.counts),
                "cache": [info.hits, info.misses], "unpatched": self.missed}

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count_result is not None:
                counts.update(count_result(result))
            return result

        return traced


def _pgturan_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pgturan" or name.startswith("pgturan."))]


def _outermost_seconds(spans, name) -> float:
    """Time inside `name`, counting a span nested in another `name` span once."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


def _self_seconds(spans, name) -> float:
    """Time inside `name` spans not covered by their child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    total = 0.0
    for idx, span in enumerate(spans):
        if span[0] != name:
            continue
        covered, reach = 0.0, span[1]
        for start, end in sorted(children.get(idx, ())):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        total += span[2] - span[1] - covered
    return total


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the records of its processes."""
    out = {m: 0.0 for m in LAYER_METRICS}
    hits = misses = 0
    for rec in records:
        spans = rec["spans"]
        for metric, name in TIME_METRICS.items():
            out[metric] += _outermost_seconds(spans, name)
        for metric, name in CALL_METRICS.items():
            out[metric] += sum(1 for s in spans if s[0] == name)
        for metric in COUNT_METRICS:
            out[metric] += rec["counts"].get(metric, 0)
        out["verify.self_s"] += _self_seconds(spans, "verify.run_all")
        hits += rec["cache"][0]
        misses += rec["cache"][1]
    equiv_true = sum(rec["counts"].get("structures.equiv_true", 0) for rec in records)
    if out["structures.equiv_tests"]:
        out["structures.equiv_hit_ratio"] = equiv_true / out["structures.equiv_tests"]
    if hits + misses:
        out["geometry.cache_hit_ratio"] = hits / (hits + misses)
    if records:
        out["cli.import_s"] = statistics.median(rec["import_s"] for rec in records)
    return out
