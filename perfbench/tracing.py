"""Spans around the calls into landalloc's layers, recorded from outside.

`install(tracer)` replaces each traced public function with a wrapper in
every landalloc module namespace that binds it (and each traced codec
method on its class), so calls made through any import path are seen.
Each call is one span; a span's self time is its duration minus the
durations of the traced calls made inside it. Spans are aggregated per
name in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# Counters recorded per call: name -> fn(args, kwargs, result) -> {key: increment}.
def _count_evaluate_batch(args, kwargs, result):
    inst, codes = args[0], args[1]
    rows = _rows(codes)
    # computed gather bytes: the (B, E, K) float64 gathers of both edge ends
    gather_mb = rows * len(inst.edge_i) * inst.n_uses * 8 * 2 / 1e6
    return {"rows": rows, "single_row_calls": int(rows == 1), "computed_mb": gather_mb}


def _count_first_arg_rows(args, kwargs, result):
    return {"rows": _rows(args[0])}


def _count_method_rows(args, kwargs, result):
    return {"rows": _rows(args[1])}


def _count_pool(args, kwargs, result):
    return {"rows": int(args[1])}


def _count_points(args, kwargs, result):
    return {"points": len(args[0])}


def _count_bytes(args, kwargs, result):
    return {"bytes": len(result)}


ROWS = (_count_first_arg_rows, ("rows",))
METHOD_ROWS = (_count_method_rows, ("rows",))
BYTES = (_count_bytes, ("bytes",))
PLAIN = (None, ())

# (module, attribute) -> (counter, the keys it counts); an attribute
# "Class.method" names a method.
TARGETS = {
    ("model", "evaluate_batch"): (
        _count_evaluate_batch, ("rows", "single_row_calls", "computed_mb")
    ),
    ("operators", "sbx_batch"): ROWS,
    ("operators", "uniform_batch"): ROWS,
    ("operators", "random_mutation_batch"): ROWS,
    ("operators", "polynomial_mutation_batch"): ROWS,
    ("operators", "scaled_add_batch"): ROWS,
    ("operators", "scaled_difference_batch"): ROWS,
    ("operators", "tournament_indices"): (_count_pool, ("rows",)),
    ("operators", "PlotCodec.encode_rows"): METHOD_ROWS,
    ("operators", "PlotCodec.decode_rows"): METHOD_ROWS,
    ("operators", "PlotCodec.clamp"): METHOD_ROWS,
    ("engines", "run_engine"): PLAIN,
    ("engines", "fast_non_dominated_sort"): (_count_points, ("points",)),
    ("engines", "crowding_distance"): PLAIN,
    ("metrics", "hypervolume_2d"): PLAIN,
    ("metrics", "pareto_filter"): PLAIN,
    ("metrics", "indicator_suite"): PLAIN,
    ("stats", "kruskal_wallis"): PLAIN,
    ("stats", "dunn_posthoc"): PLAIN,
    ("stats", "compact_letter_display"): PLAIN,
    ("instance_io", "generate_synthetic"): PLAIN,
    ("instance_io", "load_instance"): PLAIN,
    ("instance_io", "canonical_dumps"): BYTES,
    ("harness", "record_to_json"): BYTES,
    ("harness", "record_from_dict"): PLAIN,
    ("harness", "combined_front_entries"): PLAIN,
    ("harness", "load_bundle"): PLAIN,
    ("harness", "verify_bundle"): PLAIN,
    ("harness", "run_experiment"): PLAIN,
    ("report", "generate_report"): PLAIN,
    ("cli", "main"): PLAIN,
}


class Tracer:
    """Aggregates spans by name; single-threaded, like the runs it traces."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self._child_time: list[float] = []  # one accumulator per open span
        self._engine_depth = 0
        self.init_evals = 0  # one-row evaluations made inside an engine run
        self.engine_population = 0  # population sizes of the traced engine runs

    def wrap(self, name: str, fn, counter=None, keys=()):
        stats = self.spans.setdefault(name, SpanStats(counts=dict.fromkeys(keys, 0)))
        is_engine = name == "engines.run_engine"
        is_eval = name == "model.evaluate_batch"
        open_spans = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_engine:
                self._engine_depth += 1
                self.engine_population += args[1].population_size
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children
                if is_engine:
                    self._engine_depth -= 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stats.add(key, value)
            if is_eval and self._engine_depth and _rows(args[1]) == 1:
                self.init_evals += 1
            return result

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, st in sorted(self.spans.items()):
            out[f"{name}.s"] = (st.total_s, "s")
            out[f"{name}.calls"] = (st.calls, "count")
            for key, value in sorted(st.counts.items()):
                unit = {"computed_mb": "MB", "bytes": "bytes"}.get(key, "count")
                out[f"{name}.{key}"] = (value, unit)
        out["engines.self_s"] = (self.spans["engines.run_engine"].self_s, "s")
        out["report.self_s"] = (self.spans["report.generate_report"].self_s, "s")
        for name in ("harness.verify_bundle", "harness.run_experiment"):
            out[f"{name}.self_s"] = (self.spans[name].self_s, "s")
        ratio = self.engine_population / self.init_evals if self.init_evals else 0.0
        out["engines.init_accept_ratio"] = (ratio, "ratio")
        return out

    def dump(self) -> dict:
        return {
            name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s, **st.counts}
            for name, st in sorted(self.spans.items())
        }


def install(tracer: Tracer):
    """Wrap every target in each loaded landalloc namespace that binds it.

    Returns a function that puts the original functions back.
    """
    replaced = []
    namespaces = [m for n, m in sys.modules.items() if n == "landalloc" or n.startswith("landalloc.")]
    for (module, attr), (counter, keys) in TARGETS.items():
        owner = sys.modules[f"landalloc.{module}"]
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            replaced.append((cls, meth, getattr(cls, meth)))
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), counter, keys))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, counter, keys)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    replaced.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def restore() -> None:
        for obj, key, original in reversed(replaced):
            setattr(obj, key, original)

    return restore
