"""Span and count recorder that wraps tscnet's public functions from outside.

Wrappers replace module attributes (``autonet.forward``, ``kmeans.silhouette``,
``cli.main`` ...), so every call that goes through the module namespace is
recorded, including calls a module makes to its own functions. Calls through
a name imported with ``from x import f`` are not seen; no pipeline stage is
reached that way. Spans stay in memory and are written out once, when the
traced run ends.

Per-layer metrics are derived from the spans of one operation by
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict

MODULES = ("ingest", "features", "kmeans", "autonet", "rng", "pipeline", "svgplot", "cli")

# Private functions that are a stage boundary with no public function of its
# own: k resolution runs the silhouette sweep under k = auto and passes the
# given k through otherwise.
EXTRA = {"pipeline": ("_resolve_k",)}

# Return values worth keeping: the fitted model's Lloyd iterations and the
# size of every SVG document.
MEASURES = {
    "kmeans.kmeans_fit": lambda model: model.iterations_run,
    "svgplot.line_chart": len,
    "svgplot.scatter_chart": len,
}

# Unit of every per-layer metric that is not in seconds.
UNITS = {
    "ingest.rows_per_s": "rows/s",
    "kmeans.fit_calls": "count",
    "kmeans.silhouette_calls": "count",
    "kmeans.iterations": "count",
    "autonet.epochs_per_s": "epochs/s",
    "autonet.forward_calls": "count",
    "autonet.backward_calls": "count",
    "autonet.adam_calls": "count",
    "rng.shuffle_calls": "count",
    "svgplot.bytes": "bytes",
}


class Recorder:
    """Spans as (op, name, start, end, parent index) plus per-name counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.values: list[tuple[int, str, int]] = []
        self.stack: list[int] = []
        self.op = -1
        self.originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        spans, stack, values = self.spans, self.stack, self.values
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [self.op, name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                values.append((self.op, name, measure(result)))
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of each module, plus ``Xorshift64Star.shuffle``."""
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                own = inspect.isfunction(obj) and obj.__module__ == module.__name__
                if own and (not attr.startswith("_") or attr in EXTRA.get(short, ())):
                    self._patch(module, attr, f"{short}.{attr.lstrip('_')}")
        self._patch(package.rng.Xorshift64Star, "shuffle", "rng.shuffle")

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self.originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "values": self.values}


def _child_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return child


def layer_metrics(trace: dict, op: int, price_rows: int, epochs: int) -> dict[str, float]:
    """Per-layer metrics for one traced operation (one `run`, one `report`)."""
    indexed = [(i, s) for i, s in enumerate(trace["spans"]) if s[0] == op]
    child = _child_times(s for _, s in indexed)
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for i, (_, name, start, end, _parent) in indexed:
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - child[i]
    values = defaultdict(list)
    for vop, name, v in trace["values"]:
        if vop == op:
            values[name].append(v)

    # the emit phase: run_pipeline after its evaluate stage span has ended
    (run_idx, run_span), = [(i, s) for i, s in indexed if s[1] == "pipeline.run_pipeline"]
    (evaluate,) = [s for _, s in indexed if s[4] == run_idx and s[1] == "pipeline.evaluate"]
    # the last cli.main span of the operation is its `report`
    report_idx, report_span = [(i, s) for i, s in indexed if s[1] == "cli.main"][-1]

    ingest_s = total["ingest.load_price_table"]
    train_s = total["autonet.train"]
    return {
        "ingest.load_s": ingest_s,
        "ingest.rows_per_s": price_rows / ingest_s,
        "features.build_s": total["features.build_feature_table"],
        "kmeans.select_k_s": total["pipeline.resolve_k"],
        "kmeans.fit_calls": calls["kmeans.kmeans_fit"],
        "kmeans.fit_s": total["kmeans.kmeans_fit"],
        "kmeans.silhouette_calls": calls["kmeans.silhouette"],
        "kmeans.silhouette_s": total["kmeans.silhouette"],
        "kmeans.lloyd_s": self_time["kmeans.kmeans_fit"],
        "kmeans.iterations": values["kmeans.kmeans_fit"][-1],
        "autonet.train_s": train_s,
        "autonet.epochs_per_s": epochs / train_s,
        "autonet.forward_calls": calls["autonet.forward"],
        "autonet.forward_s": total["autonet.forward"],
        "autonet.backward_calls": calls["autonet.backward"],
        "autonet.backward_s": total["autonet.backward"],
        "autonet.adam_calls": calls["autonet.adam_step"],
        "autonet.adam_s": total["autonet.adam_step"],
        "autonet.save_s": total["autonet.save_model"],
        "autonet.load_s": total["autonet.load_model"],
        "rng.shuffle_calls": calls["rng.shuffle"],
        "rng.shuffle_s": total["rng.shuffle"],
        "pipeline.split_s": total["pipeline.split"],
        "pipeline.evaluate_s": total["pipeline.evaluate"],
        "pipeline.emit_s": run_span[3] - evaluate[3],
        "svgplot.scatter_s": total["svgplot.scatter_chart"],
        "svgplot.line_s": total["svgplot.line_chart"],
        "svgplot.bytes": sum(values["svgplot.scatter_chart"]) + sum(values["svgplot.line_chart"]),
        "cli.report_self_s": report_span[3] - report_span[2] - child[report_idx],
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
