"""Seeded synthetic layers and chains for end-to-end evaluation.

Activations are drawn with per-channel means and standard deviations so
channels have the uneven spread that makes per-tensor activation
quantization lossy. A chain threads layers through gelu/softmax/identity
stages; a softmax stage routes the downstream layer onto the log-sqrt2
activation quantizer. Everything is deterministic in (seed, index).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf

from . import pipeline
from .oracle import layer_mse
from .tensorfile import write_tensor

NONLINEARITIES = ("identity", "gelu", "softmax")
ACTIVATION_KINDS = ("gaussian", "mixture")

VARIANTS = ("rtn", "aqer", "wqer", "erq")
_VARIANT_STAGES = {
    "rtn": frozenset(),
    "aqer": frozenset({pipeline.STAGE_AQER}),
    "wqer": frozenset({pipeline.STAGE_ROUNDING, pipeline.STAGE_RIDGE}),
    "erq": frozenset(pipeline.ALL_STAGES),
}


@dataclass(frozen=True)
class SynthSpec:
    """Deterministic description of a synthetic layer chain."""

    seed: int
    dims: tuple[tuple[int, int], ...]
    n_samples: int = 256
    activation: str = "gaussian"
    nonlinearities: tuple[str, ...] = ()
    mean_range: tuple[float, float] = (-1.5, 1.5)
    std_range: tuple[float, float] = (0.3, 2.0)

    def __post_init__(self):
        if not self.dims:
            raise ValueError("need at least one layer")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")
        if self.activation not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.activation!r}")
        if len(self.nonlinearities) != len(self.dims) - 1:
            raise ValueError("need one nonlinearity between consecutive layers")
        for name in self.nonlinearities:
            if name not in NONLINEARITIES:
                raise ValueError(f"unknown nonlinearity {name!r}")
        for i in range(len(self.dims) - 1):
            if self.dims[i + 1][1] != self.dims[i][0]:
                raise ValueError(
                    f"layer {i + 1} input dim {self.dims[i + 1][1]} does not "
                    f"match layer {i} output dim {self.dims[i][0]}"
                )


def gelu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _apply_nonlinearity(name: str, x: np.ndarray) -> np.ndarray:
    if name == "identity":
        return x
    if name == "gelu":
        return gelu(x)
    if name == "softmax":
        return softmax_rows(x)
    raise ValueError(f"unknown nonlinearity {name!r}")


def generate_layer(spec: SynthSpec, index: int):
    """Weights and a standalone calibration batch for layer `index`.

    Deterministic in (spec.seed, index): equal seeds give bit-identical
    tensors. The batch has per-channel Gaussian (or bimodal mixture)
    marginals with channel means and scales drawn from the spec ranges.
    """
    if not 0 <= index < len(spec.dims):
        raise ValueError(f"layer index {index} out of range")
    d_out, d_in = spec.dims[index]
    rng = np.random.default_rng([spec.seed, index])
    w = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
    means = rng.uniform(spec.mean_range[0], spec.mean_range[1], size=d_in)
    log_lo, log_hi = np.log(spec.std_range[0]), np.log(spec.std_range[1])
    stds = np.exp(rng.uniform(log_lo, log_hi, size=d_in))
    noise = rng.standard_normal((spec.n_samples, d_in))
    a = means + stds * noise
    if spec.activation == "mixture":
        side = rng.integers(0, 2, size=(spec.n_samples, d_in)) * 2 - 1
        a = a + side * stds
    return w, a


def act_family_for_layer(spec: SynthSpec, index: int) -> str:
    """log_sqrt2 after a softmax stage, uniform otherwise."""
    if index > 0 and spec.nonlinearities[index - 1] == "softmax":
        return "log_sqrt2"
    return "uniform"


def fp_chain(spec: SynthSpec):
    """Full-precision reference pass: per-layer inputs and outputs."""
    weights = [generate_layer(spec, i)[0] for i in range(len(spec.dims))]
    x = generate_layer(spec, 0)[1]
    inputs = []
    outputs = []
    for i, w in enumerate(weights):
        if i > 0:
            x = _apply_nonlinearity(spec.nonlinearities[i - 1], outputs[i - 1])
        inputs.append(x)
        outputs.append(x @ w.T)
    return weights, inputs, outputs


@dataclass(frozen=True)
class ChainReport:
    per_layer: tuple[dict, ...]
    end_to_end: dict
    signal_power: float


def run_chain(spec: SynthSpec, cfg: "pipeline.RunConfig") -> ChainReport:
    """Quantize the chain under four pipelines and report MSE per layer.

    Variants: rtn (calibration only), aqer (activation correction only),
    wqer (progressive weight quantization only), erq (both). Each layer
    consumes the dequantized output of the previous quantized layer passed
    through the stage nonlinearity; MSE at layer l compares against the
    full-precision chain at the same point.
    """
    weights, fp_inputs, fp_outputs = fp_chain(spec)
    bits_w = cfg.bits_w if cfg.bits_w is not None else 4
    bits_a = cfg.bits_a if cfg.bits_a is not None else 4
    per_layer = [dict() for _ in weights]
    end_to_end = {}
    for variant in VARIANTS:
        vcfg = cfg.replace(stages=_VARIANT_STAGES[variant])
        x = fp_inputs[0]
        for i, w in enumerate(weights):
            if i > 0:
                x = _apply_nonlinearity(spec.nonlinearities[i - 1], y_bar)
            result = pipeline.quantize_layer(
                w,
                x,
                act_family_for_layer(spec, i),
                bits_w,
                bits_a,
                vcfg,
                layer_id=f"layer{i}",
            )
            per_layer[i][variant] = layer_mse(w, fp_inputs[i], result.w_bar, result.a_q)
            y_bar = result.a_q @ result.w_bar.T
        end_to_end[variant] = per_layer[-1][variant]
    power = float(np.mean(np.sum(fp_outputs[-1] ** 2, axis=1)))
    return ChainReport(
        per_layer=tuple(per_layer), end_to_end=end_to_end, signal_power=power
    )


def write_manifest_files(
    spec: SynthSpec, out_dir: str | Path, bits_w: int = 4, bits_a: int = 4
) -> Path:
    """Write float32 tensors plus a manifest for the chain's layers.

    Calibration batches are the full-precision chain activations at each
    layer, so a post-softmax layer gets nonnegative data as its log-sqrt2
    quantizer requires. Returns the manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights, fp_inputs, _ = fp_chain(spec)
    layers = []
    for i, w in enumerate(weights):
        weight_name = f"layer{i}_weight.npy"
        calib_name = f"layer{i}_calib.npy"
        write_tensor(out_dir / weight_name, w.astype(np.float32))
        write_tensor(out_dir / calib_name, fp_inputs[i].astype(np.float32))
        layers.append(
            {
                "layer_id": f"layer{i}",
                "weight_path": weight_name,
                "calib_path": calib_name,
                "act_quant": act_family_for_layer(spec, i),
                "bits_w": bits_w,
                "bits_a": bits_a,
            }
        )
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({"layers": layers}, indent=2, sort_keys=True) + "\n")
    return manifest
