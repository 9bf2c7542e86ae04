"""Per-layer quantization pipeline and the run/ablate/sweep entry points.

A run composes up to three stages on top of plain calibrated quantization:
activation-error correction of the full-precision weights ("aqer"),
rounding refinement inside the progressive weight loop ("wqer_rounding"),
and ridge correction of the unquantized remainder ("wqer_ridge").
Disabling a stage bypasses it exactly; with no stages the output is plain
round-to-nearest on the calibrated lattices.

`LayerRun` is the one per-layer runner. It checks the calibration and eval
batches and calibrates once, builds the moment cache of the quantized
batch when a stage first needs it (one Gram per run, shared by aqer and
the weight loop), and keeps the last aqer step and remainder ridge for
the next result; `quantize_layer`, `run_ablation` and `run_sweep` are
loops over `LayerRun.result`, so what they share follows from what each
product depends on.

report.json, traces.csv, and the code tensors are deterministic for a
given config and input, byte for byte. `RunConfig.jobs` (--jobs) is
accepted and validated but has no effect: the weight loop runs all
channels of a split together in one thread. It stays until the benchmark
configuration, which passes "jobs": 1, stops passing it. Wall times go
to a separate timings.json, per layer under the stage names act_calib,
weight_calib (including the re-calibration after aqer), aqer, wqer and
total; the run configuration echo goes to run_config.json. Neither is
part of the deterministic output contract.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .act_correct import solve_activation_correction
from .linalg import SingularSystemError, require_int, require_strength
from .moments import InsufficientSamplesError
from .quantizers import (
    MAX_BITS,
    LogSqrt2Params,
    NonFiniteInputError,
    QuantScheme,
    UniformParams,
    calibrate_scale,
    check_finite,
    quantize_with_scheme,
)
from .tensorfile import LayerManifestEntry, read_tensor, write_tensor
from .weight_quant import (
    TRACE_FIELDS,
    LayerMomentCache,
    RemainderRidge,
    quantize_layer_weights,
)

STAGE_AQER = "aqer"
STAGE_ROUNDING = "wqer_rounding"
STAGE_RIDGE = "wqer_ridge"
ALL_STAGES = (STAGE_AQER, STAGE_ROUNDING, STAGE_RIDGE)

TRACE_COLUMNS = ("layer_id", "channel", *TRACE_FIELDS)

ABLATION_GRID = (
    ("baseline", frozenset()),
    ("aqer", frozenset({STAGE_AQER})),
    ("rounding", frozenset({STAGE_ROUNDING})),
    ("ridge", frozenset({STAGE_RIDGE})),
    ("rounding+ridge", frozenset({STAGE_ROUNDING, STAGE_RIDGE})),
    ("aqer+rounding", frozenset({STAGE_AQER, STAGE_ROUNDING})),
    ("aqer+ridge", frozenset({STAGE_AQER, STAGE_RIDGE})),
    ("aqer+rounding+ridge", frozenset(ALL_STAGES)),
)

SWEEP_PARAMS = ("lambda", "k", "n_images")


class ConfigError(Exception):
    """Invalid run configuration."""


# RunConfig's integer fields and their [lo, hi]; a bit width may also be None
_INT_RANGES = {"k": (0, None), "max_iter": (0, None), "jobs": (1, None),
               "bits_w": (2, MAX_BITS), "bits_a": (2, MAX_BITS)}


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters and switches for one pipeline run."""

    lambda1: float = 1e4
    lambda2: float = 1e4
    k: int = 1
    max_iter: int = 100
    bits_w: int | None = None
    bits_a: int | None = None
    stages: frozenset = frozenset(ALL_STAGES)
    jobs: int = 1  # validated, no effect; see the module docstring

    def __post_init__(self):
        try:
            for name in ("lambda1", "lambda2"):
                require_strength(name, getattr(self, name))
            for name, (lo, hi) in _INT_RANGES.items():
                value = getattr(self, name)
                if value is not None or not name.startswith("bits_"):
                    object.__setattr__(self, name, require_int(name, value, lo, hi))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        stages = self.stages
        if isinstance(stages, str):  # a --stages or config-file string: a word or a comma list
            text, words = stages.strip(), {"all": ALL_STAGES, "none": ()}
            stages = words.get(text, [t.strip() for t in text.split(",") if t.strip()])
        try:
            stages = frozenset(stages)
            valid = all(isinstance(stage, str) for stage in stages)
        except TypeError:  # not iterable, or an unhashable item
            valid = False
        if not valid:
            raise ConfigError(
                "stages must be a string or a collection of stage names, "
                f"got {self.stages!r}"
            )
        unknown = stages - set(ALL_STAGES)
        if unknown:
            raise ConfigError(
                f"unknown stages {sorted(unknown)}; valid: {', '.join(ALL_STAGES)}"
            )
        object.__setattr__(self, "stages", stages)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(doc) - fields
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return RunConfig(**doc)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["stages"] = sorted(self.stages)
        return doc


@dataclass(frozen=True)
class LayerResult:
    """In-memory outcome of quantizing one layer."""

    layer_id: str
    n_samples: int
    act_scheme: QuantScheme
    weight_scheme: QuantScheme
    codes: np.ndarray
    w_bar: np.ndarray
    mse: dict
    reduction: dict
    trace: tuple[list[dict], ...]
    timings: dict


def _ratio(before: float, after: float) -> float:
    if before <= 0.0:
        return 0.0
    return 1.0 - after / before


def layer_mse(y_fp: np.ndarray, w_q: np.ndarray, a_q: np.ndarray) -> float:
    """(1/N) sum_n ||y_n - W_bar xbar_n||^2 against full-precision outputs y = X W^T.

    The one lookup point of every evaluation, which the benchmark tracer
    wraps. The difference and its square are formed in place in one
    N x d_out buffer, so a `LayerRun`, which keeps y, scores any number of
    quantized weights against it without forming it again.
    `oracle.layer_mse` recomputes the same value on its own.
    """
    diff = a_q @ w_q.T
    np.subtract(y_fp, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(np.sum(diff) / a_q.shape[0])


@dataclass(frozen=True)
class AqerStep:
    """The activation correction at one lambda1, re-calibrated and re-quantized."""

    lambda1: float
    updated_w: np.ndarray
    scheme: QuantScheme
    codes: np.ndarray
    w_bar: np.ndarray
    mse: float
    calib_s: float
    aqer_s: float


class LayerRun:
    """One layer's quantization, each product built once for every result asked of it.

    The constructor checks the calibration and eval batches, calibrates
    activations and weights, forms the full-precision output `y_fp` =
    eval_fp W^T that every MSE of the run is scored against, and scores
    plain round-to-nearest, which no stage, lambda or k changes. `cache` is
    the moment cache of the quantized batch, built when a stage first needs
    it and shared by aqer and the weight loop; `aqer` keeps the last
    activation-correction step (it depends on lambda1) and `ridge` the last
    remainder ridge (it depends on lambda2); `result` runs the configured
    stages on top of them. So an ablation or a sweep asks one run for every
    combination or value, and each product is built once per value of what
    it depends on. A stale step or ridge is dropped before its replacement
    is built, so a run never holds two of one kind.
    """

    def __init__(
        self,
        w: np.ndarray,
        a_fp: np.ndarray,
        act_family: str,
        bits_w: int,
        bits_a: int,
        eval_batch: np.ndarray | None = None,
    ):
        w = np.asarray(w, dtype=np.float64)
        a_fp = np.asarray(a_fp, dtype=np.float64)
        if w.ndim != 2 or a_fp.ndim != 2 or w.shape[1] != a_fp.shape[1]:
            raise ValueError(
                f"incompatible shapes: weights {w.shape}, activations {a_fp.shape}"
            )
        self.eval_fp = a_fp if eval_batch is None else np.asarray(eval_batch, dtype=np.float64)
        if self.eval_fp.ndim != 2 or self.eval_fp.shape[1] != w.shape[1]:
            raise ValueError(
                f"incompatible eval batch shape {self.eval_fp.shape} "
                f"for weights {w.shape}"
            )
        inputs = {"weight matrix": w, "calibration batch": a_fp, "eval batch": self.eval_fp}
        for name, x in inputs.items():
            if x.size == 0:
                raise ValueError(f"{name} of shape {x.shape} is empty")
        if eval_batch is not None:
            check_finite(self.eval_fp, path="eval batch")
            if act_family == "log_sqrt2" and float(self.eval_fp.min()) < 0.0:
                raise ValueError("log_sqrt2 activations require a nonnegative eval batch")
        self.w, self.a_fp, self.bits_w, self.bits_a = w, a_fp, bits_w, bits_a
        self.timings = {}
        t0 = time.perf_counter()
        self.act_scheme = calibrate_scale(a_fp, act_family, bits_a, "per_tensor")
        self.timings["act_calib"] = time.perf_counter() - t0
        _, self.a_q = quantize_with_scheme(a_fp, self.act_scheme, codes=False)
        t0 = time.perf_counter()
        self.base_scheme = calibrate_scale(w, "uniform", bits_w, "per_channel")
        self.timings["weight_calib"] = time.perf_counter() - t0
        self.base_codes, self.base_w_bar = quantize_with_scheme(w, self.base_scheme)

        if eval_batch is None:
            self.eval_q = self.a_q
        else:
            _, self.eval_q = quantize_with_scheme(self.eval_fp, self.act_scheme, codes=False)
        self.y_fp = self.eval_fp @ w.T
        self.mse_baseline = layer_mse(self.y_fp, self.base_w_bar, self.eval_q)
        self._cache: LayerMomentCache | None = None
        self._aqer: AqerStep | None = None
        self._ridge: RemainderRidge | None = None

    @property
    def cache(self) -> LayerMomentCache:
        """The moment cache of the quantized batch, built on first use.

        Every stage reads it, and it needs two samples: a one-sample
        calibration batch raises InsufficientSamplesError naming the batch,
        while plain round-to-nearest (no stage) never builds it.
        """
        if self._cache is None:
            n = self.a_q.shape[0]
            if n < 2:
                raise InsufficientSamplesError(
                    f"calibration batch of shape {self.a_q.shape} has {n} sample; "
                    "the aqer and wqer stages need at least 2"
                )
            self._cache = LayerMomentCache(self.a_q)
        return self._cache

    def aqer(self, lambda1: float) -> AqerStep:
        """Correct the weights for the activation error, then re-calibrate them.

        The update shifts rows, so the weight scales are calibrated again on
        the corrected weights.
        """
        if self._aqer is not None and self._aqer.lambda1 == lambda1:
            return self._aqer
        self._aqer = None  # drop the stale step before building its replacement
        t0 = time.perf_counter()
        updated_w = self.w + solve_activation_correction(
            self.w, self.a_fp, self.cache, lambda1
        )
        t1 = time.perf_counter()
        scheme = calibrate_scale(updated_w, "uniform", self.bits_w, "per_channel")
        t2 = time.perf_counter()
        codes, w_bar = quantize_with_scheme(updated_w, scheme)
        self._aqer = AqerStep(
            lambda1=lambda1,
            updated_w=updated_w,
            scheme=scheme,
            codes=codes,
            w_bar=w_bar,
            mse=layer_mse(self.y_fp, w_bar, self.eval_q),
            calib_s=t2 - t1,
            aqer_s=(t1 - t0) + (time.perf_counter() - t2),
        )
        return self._aqer

    def ridge(self, lambda2: float) -> RemainderRidge:
        """The weight loop's remainder ridge at lambda2."""
        if self._ridge is None or self._ridge.lambda2 != lambda2:
            self._ridge = None  # drop the stale ridge before building its replacement
            self._ridge = RemainderRidge(self.cache, lambda2)
        return self._ridge

    def result(self, cfg: RunConfig, layer_id: str = "layer") -> LayerResult:
        """Run the configured stages and collect the result."""
        aqer_on = STAGE_AQER in cfg.stages
        rounding_on = STAGE_ROUNDING in cfg.stages
        ridge_on = STAGE_RIDGE in cfg.stages
        mse = {"baseline": self.mse_baseline}
        reduction = {}
        timings = dict(self.timings)

        current = self.w
        weight_scheme = self.base_scheme
        codes, w_bar = self.base_codes, self.base_w_bar
        if aqer_on:
            aqer = self.aqer(cfg.lambda1)
            current = aqer.updated_w
            weight_scheme = aqer.scheme
            codes, w_bar = aqer.codes, aqer.w_bar
            mse["after_aqer"] = aqer.mse
            reduction["aqer"] = _ratio(mse["baseline"], mse["after_aqer"])
            timings["weight_calib"] += aqer.calib_s
            timings["aqer"] = aqer.aqer_s

        trace = ()
        if rounding_on or ridge_on:
            t0 = time.perf_counter()
            wres = quantize_layer_weights(
                current,
                weight_scheme.params,
                self.cache,
                self.ridge(cfg.lambda2) if ridge_on else None,
                k=cfg.k if rounding_on else 0,
                max_iter=cfg.max_iter,
            )
            codes, w_bar, trace = wres.codes, wres.w_bar, wres.trace
            mse["after_wqer"] = layer_mse(self.y_fp, w_bar, self.eval_q)
            prev = mse.get("after_aqer", mse["baseline"])
            reduction["wqer"] = _ratio(prev, mse["after_wqer"])
            timings["wqer"] = time.perf_counter() - t0

        mse["final"] = mse.get("after_wqer", mse.get("after_aqer", mse["baseline"]))
        reduction["cumulative"] = _ratio(mse["baseline"], mse["final"])

        return LayerResult(
            layer_id=layer_id,
            n_samples=self.a_fp.shape[0],
            act_scheme=self.act_scheme,
            weight_scheme=weight_scheme,
            codes=codes,
            w_bar=w_bar,
            mse=mse,
            reduction=reduction,
            trace=trace,
            timings=timings,
        )


def quantize_layer(
    w: np.ndarray,
    a_fp: np.ndarray,
    act_family: str,
    bits_w: int,
    bits_a: int,
    cfg: RunConfig,
    layer_id: str = "layer",
    eval_batch: np.ndarray | None = None,
) -> LayerResult:
    """Calibrate and quantize one linear layer under the configured stages.

    All arithmetic is float64 regardless of the on-disk dtype. The
    baseline MSE is always computed against plain round-to-nearest on
    scales calibrated from the original weights; stage MSEs are appended
    as stages run. Weight scales are calibrated again after the activation
    correction step when it is enabled, since the update shifts rows.

    `eval_batch` switches MSE evaluation to a separate activation batch
    (quantized with the calibration-fitted parameters); by default the
    calibration batch itself is evaluated. An empty calibration batch, a
    mis-shaped or empty eval batch, or one with a negative value on a
    log-sqrt2 layer raises ValueError, and an eval batch holding NaN or Inf
    raises NonFiniteInputError, before any calibration.

    This is one `LayerRun` asked for one result.
    """
    run = LayerRun(w, a_fp, act_family, bits_w, bits_a, eval_batch)
    return run.result(cfg, layer_id)


def _params_dict(p) -> dict:
    if isinstance(p, UniformParams):
        return {
            "scale": float(p.scale),
            "zero_point": int(p.zero_point),
            "degenerate": bool(p.degenerate),
        }
    if isinstance(p, LogSqrt2Params):
        return {"scale": float(p.scale), "degenerate": bool(p.degenerate)}
    raise TypeError(f"unknown params {type(p)!r}")


def layer_report_entry(result: LayerResult, codes_path: str | None) -> dict:
    return {
        "layer_id": result.layer_id,
        "n_samples": int(result.n_samples),
        "bits_w": int(result.weight_scheme.bits),
        "bits_a": int(result.act_scheme.bits),
        "act_quant": {
            "family": result.act_scheme.family,
            "bits": int(result.act_scheme.bits),
            **_params_dict(result.act_scheme.params[0]),
        },
        "weight_quant": {
            "family": result.weight_scheme.family,
            "granularity": result.weight_scheme.granularity,
            "bits": int(result.weight_scheme.bits),
            "channels": [_params_dict(p) for p in result.weight_scheme.params],
        },
        "mse": {key: float(value) for key, value in sorted(result.mse.items())},
        "reduction": {
            key: float(value) for key, value in sorted(result.reduction.items())
        },
        "codes_path": codes_path,
        "error": None,
    }


def trace_rows(result: LayerResult) -> list[dict]:
    """One dict per refinement iteration, keyed by TRACE_COLUMNS."""
    return [
        {"layer_id": result.layer_id, "channel": channel, **row}
        for channel, rows in enumerate(result.trace)
        for row in rows
    ]


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class ManifestRunResult:
    report_path: Path
    entries: list[dict]
    failures: int


# Programming errors (a bare ValueError, TypeError, ...) propagate; config
# and manifest problems are rejected as ConfigError/ManifestError up front.
NUMERICAL_ERRORS = (
    SingularSystemError,
    InsufficientSamplesError,
    FloatingPointError,
    NonFiniteInputError,
)


def _read_finite(path, per_row: bool = False) -> np.ndarray:
    data = np.asarray(read_tensor(path), dtype=np.float64)
    check_finite(data, per_row=per_row, path=path)
    return data


def _load_layer(entry: LayerManifestEntry, cfg: RunConfig):
    """Read a layer's tensors as float64, rejecting NaN/Inf with the file name."""
    w = _read_finite(entry.weight_path, per_row=True)
    a_fp = _read_finite(entry.calib_path)
    bits_w = cfg.bits_w if cfg.bits_w is not None else entry.bits_w
    bits_a = cfg.bits_a if cfg.bits_a is not None else entry.bits_a
    return w, a_fp, bits_w, bits_a


def run_manifest(
    entries: list[LayerManifestEntry], cfg: RunConfig, out_dir: str | Path
) -> ManifestRunResult:
    """Quantize every manifest layer, writing the run artifacts.

    A layer that fails numerically is recorded in the report with its
    error message and does not stop the other layers.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_entries = []
    all_traces = []
    timings = {}
    failures = 0
    for entry in entries:
        t0 = time.perf_counter()
        try:
            w, a_fp, bits_w, bits_a = _load_layer(entry, cfg)
            result = quantize_layer(
                w, a_fp, entry.act_quant, bits_w, bits_a, cfg, layer_id=entry.layer_id
            )
        except NUMERICAL_ERRORS as exc:
            failures += 1
            report_entries.append(
                {"layer_id": entry.layer_id, "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        codes_name = f"{entry.layer_id}_codes.npy"
        write_tensor(out_dir / codes_name, result.codes.astype(np.int32))
        report_entries.append(layer_report_entry(result, codes_name))
        all_traces.extend(trace_rows(result))
        result.timings["total"] = time.perf_counter() - t0
        timings[entry.layer_id] = {
            key: float(value) for key, value in sorted(result.timings.items())
        }

    report_path = out_dir / "report.json"
    _dump_json(report_path, {"layers": report_entries})
    write_csv(out_dir / "traces.csv", all_traces, TRACE_COLUMNS)
    _dump_json(out_dir / "timings.json", {"layers": timings})
    _dump_json(out_dir / "run_config.json", cfg.to_dict())
    return ManifestRunResult(
        report_path=report_path, entries=report_entries, failures=failures
    )


def load_layers(entries: list[LayerManifestEntry], cfg: RunConfig):
    """Materialize manifest layers as float64 arrays for ablation/sweep runs."""
    layers = []
    for entry in entries:
        w, a_fp, bits_w, bits_a = _load_layer(entry, cfg)
        layers.append((entry.layer_id, w, a_fp, entry.act_quant, bits_w, bits_a))
    return layers


def run_ablation(layers, cfg: RunConfig) -> list[dict]:
    """All eight stage combinations over the given layers.

    Returns one row per (combination, layer) with the final MSE and the
    reduction against that layer's plain round-to-nearest baseline, in
    combination-major order. One `LayerRun` per layer serves all eight
    combinations, so each layer is calibrated once, forms its Gram once,
    solves aqer once and builds one remainder ridge. An empty layer list
    raises ConfigError.
    """
    if not layers:
        raise ConfigError("ablation needs at least one layer")
    combos = [(name, stages, cfg.replace(stages=stages)) for name, stages in ABLATION_GRID]
    per_combo = [[] for _ in combos]
    for layer_id, w, a_fp, act_family, bits_w, bits_a in layers:
        run = LayerRun(w, a_fp, act_family, bits_w, bits_a)
        for rows, (combo_name, stages, combo_cfg) in zip(per_combo, combos):
            result = run.result(combo_cfg, layer_id)
            rows.append(
                {
                    "combination": combo_name,
                    "aqer": int(STAGE_AQER in stages),
                    "rounding": int(STAGE_ROUNDING in stages),
                    "ridge": int(STAGE_RIDGE in stages),
                    "layer_id": layer_id,
                    "mse_baseline": result.mse["baseline"],
                    "mse_final": result.mse["final"],
                    "reduction_vs_baseline": result.reduction["cumulative"],
                }
            )
    return [row for rows in per_combo for row in rows]


def run_sweep(param: str, values, layers, cfg: RunConfig) -> list[dict]:
    """One row per swept value, averaged over layers.

    `lambda` couples lambda1 = lambda2; `k` sets the flip budget (k = 0 is
    bit-identical to disabling the rounding stage); `n_images` calibrates
    on the first v rows only while always evaluating MSE on the full
    batch, so rows are comparable across calibration sizes.

    A `lambda` or `k` sweep asks one `LayerRun` per layer for every value,
    so either forms each layer's Gram once; a `k` sweep solves aqer and
    builds the remainder ridge once per layer, and a `lambda` sweep once
    per value. `n_images` changes the calibration batch, so each value gets
    a run of its own.

    Raises ConfigError before any work for an unknown param, no values, no
    layers, or a `k` or `n_images` value that `require_int` rejects, with
    the message a `RunConfig` field gets: a float such as 2.0 is no integer.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep param {param!r}; valid: {SWEEP_PARAMS}")
    if len(values) == 0:
        raise ConfigError("sweep needs at least one value")
    if not layers:
        raise ConfigError("sweep needs at least one layer")
    if param == "lambda":
        run_cfgs = [cfg.replace(lambda1=float(v), lambda2=float(v)) for v in values]
    else:
        try:
            counts = [require_int(param, v, 0 if param == "k" else 2) for v in values]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if param == "k":
            run_cfgs = [cfg.replace(k=count) for count in counts]
        else:
            run_cfgs = [cfg for _ in values]
            largest = max(counts)
            for layer_id, _, a_fp, *_ in layers:
                if largest > a_fp.shape[0]:
                    raise ConfigError(
                        f"n_images {largest} exceeds the {a_fp.shape[0]} "
                        f"calibration samples of layer {layer_id!r}"
                    )
    per_value = [([], [], []) for _ in values]
    for layer_id, w, a_fp, act_family, bits_w, bits_a in layers:
        run = None
        for value, run_cfg, (baselines, finals, reductions) in zip(
            values, run_cfgs, per_value
        ):
            if param == "n_images":
                run = None  # drop the last size's products before the next run
                run = LayerRun(
                    w, a_fp[: int(value)], act_family, bits_w, bits_a, eval_batch=a_fp
                )
            elif run is None:
                run = LayerRun(w, a_fp, act_family, bits_w, bits_a)
            result = run.result(run_cfg, layer_id)
            baselines.append(result.mse["baseline"])
            finals.append(result.mse["final"])
            reductions.append(result.reduction["cumulative"])
    rows = []
    for value, (baselines, finals, reductions) in zip(values, per_value):
        rows.append(
            {
                "param": param,
                "value": float(value),
                "layers": len(layers),
                "mse_baseline_mean": float(np.mean(baselines)),
                "mse_final_mean": float(np.mean(finals)),
                "reduction_mean": float(np.mean(reductions)),
            }
        )
    return rows


def write_csv(path: str | Path, rows: list[dict], columns: tuple[str, ...]) -> None:
    """One line per row; a floating cell, Python's or numpy's, as repr(float(value))."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row[col]
            floating = isinstance(value, (float, np.floating))
            cells.append(repr(float(value)) if floating else str(value))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


ABLATION_COLUMNS = (
    "combination",
    "aqer",
    "rounding",
    "ridge",
    "layer_id",
    "mse_baseline",
    "mse_final",
    "reduction_vs_baseline",
)

SWEEP_COLUMNS = (
    "param",
    "value",
    "layers",
    "mse_baseline_mean",
    "mse_final_mean",
    "reduction_mean",
)
