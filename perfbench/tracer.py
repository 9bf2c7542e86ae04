"""In-memory span tracer wrapped around quantred's public functions.

Each wrapper replaces a function at the module attribute its caller looks
it up through (``pipeline.calibrate_scale``, ``weight_quant.solve_spd``,
...), so the program itself is unchanged. A span records its name, start,
end, the id of the span that was open when it began, and the counts taken
at the same wrap point. Spans stay in memory and are written out once, at
exit. ``per_module_metrics`` turns a span list into the benchmark's
per-module metrics.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    """Collects nested spans for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run ``fn`` inside a span; ``count`` maps (args, kwargs, result) to counts."""
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": self.clock(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = self.clock()
            self._open.pop()
        if count is not None:
            span["counts"] = count(args, kwargs, result)
        return result

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Replace ``module.attr`` with a traced wrapper of the same function.

        ``name`` is a span name or a function of the call's arguments.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            return self.call(span_name, fn, args, kwargs, count)

        setattr(module, attr, traced)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span["id"]] = (end - start) - covered
    return result


def install(tracer: Tracer) -> None:
    """Wrap every traced quantred function at its caller's lookup point."""
    from quantred import act_correct, pipeline, quantizers, tensorfile, weight_quant

    def calib_name(x, family, bits, granularity):
        if granularity == "per_tensor":
            return "quantizers.act_calib"
        return "quantizers.weight_calib"

    def calib_counts(args, kwargs, result):
        x = args[0]
        if args[3] == "per_tensor":
            return {"evals": int(x.size) * len(quantizers.ALPHA_GRID)}
        return {"rows": int(x.shape[0])}

    def refine_counts(args, kwargs, result):
        # committed steps; each flips up to k coordinates, exactly one at k = 1
        steps = len(result[1]) - 1
        return {"flips": steps, "useful": int(steps > 0)}

    def file_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    tracer.wrap(tensorfile, "load_manifest", "tensorfile.load_manifest")
    tracer.wrap(tensorfile, "read_tensor", "tensorfile.read", file_bytes)
    tracer.wrap(pipeline, "read_tensor", "tensorfile.read", file_bytes)
    tracer.wrap(pipeline, "write_tensor", "tensorfile.write", file_bytes)
    for attr in ("run_manifest", "run_ablation", "load_layers", "write_csv", "quantize_layer"):
        tracer.wrap(pipeline, attr, f"pipeline.{attr}")
    tracer.wrap(pipeline, "calibrate_scale", calib_name, calib_counts)
    tracer.wrap(pipeline, "quantize_with_scheme", "quantizers.quantize")
    tracer.wrap(pipeline, "solve_activation_correction", "act_correct.solve")
    tracer.wrap(pipeline, "layer_mse", "oracle.layer_mse")
    tracer.wrap(pipeline, "quantize_layer_weights", "weight_quant.layer")
    tracer.wrap(act_correct, "spd_factor", "linalg.factor")
    tracer.wrap(weight_quant, "spd_factor", "linalg.factor")
    tracer.wrap(weight_quant, "accumulate_moments", "moments.accumulate")
    tracer.wrap(weight_quant, "init_rounding", "weight_quant.init")
    tracer.wrap(weight_quant, "refine_rounding", "weight_quant.refine", refine_counts)
    tracer.wrap(weight_quant, "solve_spd", "weight_quant.ridge_solve")


# metric name -> (span name, what to sum: "time", "self", "calls" or a count key)
_SPAN_METRICS = {
    "quantizers.act_calib_s": ("quantizers.act_calib", "time"),
    "quantizers.act_calib_calls": ("quantizers.act_calib", "calls"),
    "quantizers.act_calib_evals": ("quantizers.act_calib", "evals"),
    "quantizers.weight_calib_s": ("quantizers.weight_calib", "time"),
    "quantizers.weight_calib_calls": ("quantizers.weight_calib", "calls"),
    "quantizers.weight_calib_rows": ("quantizers.weight_calib", "rows"),
    "quantizers.quantize_s": ("quantizers.quantize", "time"),
    "weight_quant.layer_s": ("weight_quant.layer", "time"),
    "weight_quant.self_s": ("weight_quant.layer", "self"),
    "weight_quant.init_s": ("weight_quant.init", "time"),
    "weight_quant.refine_s": ("weight_quant.refine", "time"),
    "weight_quant.refine_calls": ("weight_quant.refine", "calls"),
    "weight_quant.flips_committed": ("weight_quant.refine", "flips"),
    "weight_quant.ridge_solve_s": ("weight_quant.ridge_solve", "time"),
    "weight_quant.ridge_solves": ("weight_quant.ridge_solve", "calls"),
    "moments.accumulate_s": ("moments.accumulate", "time"),
    "linalg.factor_s": ("linalg.factor", "time"),
    "linalg.factor_calls": ("linalg.factor", "calls"),
    "act_correct.solve_s": ("act_correct.solve", "time"),
    "act_correct.solve_calls": ("act_correct.solve", "calls"),
    "tensorfile.load_manifest_s": ("tensorfile.load_manifest", "time"),
    "tensorfile.read_s": ("tensorfile.read", "time"),
    "tensorfile.read_calls": ("tensorfile.read", "calls"),
    "tensorfile.write_s": ("tensorfile.write", "time"),
    "oracle.layer_mse_s": ("oracle.layer_mse", "time"),
    "oracle.layer_mse_calls": ("oracle.layer_mse", "calls"),
    "pipeline.quantize_layer_s": ("pipeline.quantize_layer", "time"),
    "pipeline.quantize_layer_calls": ("pipeline.quantize_layer", "calls"),
}

METRIC_UNITS = {
    name: "s" if name.endswith("_s") else "count" for name in _SPAN_METRICS
}
METRIC_UNITS.update(
    {
        "weight_quant.refine_useful_ratio": "ratio",
        "tensorfile.read_mb": "MB",
        "tensorfile.write_mb": "MB",
        "pipeline.self_s": "s",
        "trace.overhead_s": "s",
    }
)


def per_module_metrics(spans: list[dict]) -> dict[str, float]:
    """Sum spans into the per-module metrics (all but ``trace.overhead_s``)."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        acc = totals.setdefault(span["name"], {"time": 0.0, "self": 0.0, "calls": 0})
        acc["time"] += span["end"] - span["start"]
        acc["self"] += selfs[span["id"]]
        acc["calls"] += 1
        for key, value in span["counts"].items():
            acc[key] = acc.get(key, 0) + value
    empty = {"time": 0.0, "self": 0.0, "calls": 0}

    def get(span_name, key):
        return totals.get(span_name, empty).get(key, 0)

    metrics = {
        metric: get(span_name, key) for metric, (span_name, key) in _SPAN_METRICS.items()
    }
    calls = get("weight_quant.refine", "calls")
    metrics["weight_quant.refine_useful_ratio"] = (
        get("weight_quant.refine", "useful") / calls if calls else 0.0
    )
    metrics["tensorfile.read_mb"] = get("tensorfile.read", "bytes") / 1e6
    metrics["tensorfile.write_mb"] = get("tensorfile.write", "bytes") / 1e6
    metrics["pipeline.self_s"] = sum(
        acc["self"] for name, acc in totals.items() if name.startswith("pipeline.")
    )
    return metrics
