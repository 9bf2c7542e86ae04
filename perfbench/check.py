"""Correctness checks on one repetition's artifacts.

``quantize`` runs: every layer's final MSE is recomputed with
``oracle.layer_mse`` from the written codes, dequantized with the channel
params in report.json, against calibration activations quantized with the
reported activation params; codes must lie in [0, 2^bits_w - 1].
``ablate`` runs: ablation.csv must hold every (combination, layer) row,
each layer's baseline MSE must match an independent round-to-nearest
recompute, and every reduction must equal 1 - final / baseline.

Files are read with ``numpy.load``, not the program's own reader. A check
returns the number of layer results it examined and one message per
failed layer result.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quantred import oracle, pipeline, quantizers

RTOL = 1e-9
DETERMINISTIC_ARTIFACTS = ("report.json", "traces.csv", "ablation.csv")


@dataclass
class CheckResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def artifact_hashes(out_dir: str | Path) -> dict[str, str]:
    """SHA-256 of every artifact covered by the determinism contract."""
    out_dir = Path(out_dir)
    hashes = {}
    for path in sorted(out_dir.iterdir()):
        if path.name in DETERMINISTIC_ARTIFACTS or path.name.endswith("_codes.npy"):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def combined_hash(hashes: dict[str, str]) -> str:
    lines = "".join(f"{name} {digest}\n" for name, digest in sorted(hashes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def _manifest_layers(manifest_path: Path) -> list[dict]:
    layers = json.loads(manifest_path.read_text())["layers"]
    for layer in layers:
        layer["w"] = np.load(manifest_path.parent / layer["weight_path"]).astype(np.float64)
        layer["a"] = np.load(manifest_path.parent / layer["calib_path"]).astype(np.float64)
    return layers


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= RTOL * max(abs(a), abs(b))


def _quantize_activations(a: np.ndarray, act: dict) -> np.ndarray:
    if act["family"] == "uniform":
        params = quantizers.UniformParams(act["scale"], act["zero_point"], act["bits"])
        return quantizers.quantize_uniform(a, params)[1]
    params = quantizers.LogSqrt2Params(act["scale"], act["bits"])
    return quantizers.quantize_log_sqrt2(a, params)[1]


def _check_quantize_layer(layer: dict, entry: dict, out_dir: Path) -> str | None:
    if entry.get("error") is not None:
        return f"run error: {entry['error']}"
    codes = np.load(out_dir / entry["codes_path"])
    if codes.dtype != np.int32 or codes.shape != layer["w"].shape:
        return f"codes dtype {codes.dtype} shape {codes.shape}"
    qmax = (1 << entry["bits_w"]) - 1
    if codes.size and (codes.min() < 0 or codes.max() > qmax):
        return f"codes outside [0, {qmax}]"
    channels = entry["weight_quant"]["channels"]
    if len(channels) != codes.shape[0]:
        return f"{len(channels)} channel params for {codes.shape[0]} rows"
    scale = np.array([c["scale"] for c in channels], dtype=np.float64)[:, None]
    zero = np.array([c["zero_point"] for c in channels], dtype=np.int64)[:, None]
    w_bar = scale * (codes.astype(np.int64) - zero).astype(np.float64)
    a_q = _quantize_activations(layer["a"], entry["act_quant"])
    mse = oracle.layer_mse(layer["w"], layer["a"], w_bar, a_q)
    if not _close(mse, entry["mse"]["final"]):
        return f"recomputed MSE {mse!r} != reported {entry['mse']['final']!r}"
    return None


def check_quantize(manifest_path: str | Path, out_dir: str | Path) -> CheckResult:
    manifest_path, out_dir = Path(manifest_path), Path(out_dir)
    layers = _manifest_layers(manifest_path)
    result = CheckResult(attempted=len(layers))
    try:
        entries = json.loads((out_dir / "report.json").read_text())["layers"]
    except (OSError, ValueError, KeyError) as exc:
        result.failures = [f"report.json unreadable: {exc}"] * len(layers)
        return result
    by_id = {e.get("layer_id"): e for e in entries}
    for layer in layers:
        lid = layer["layer_id"]
        try:
            message = _check_quantize_layer(layer, by_id[lid], out_dir)
        except Exception as exc:  # a malformed artifact fails this layer only
            message = f"{type(exc).__name__}: {exc}"
        if message is not None:
            result.failures.append(f"{lid}: {message}")
    return result


def _baseline_mse(layer: dict) -> float:
    act = quantizers.calibrate_scale(layer["a"], layer["act_quant"], layer["bits_a"], "per_tensor")
    _, a_q = quantizers.quantize_with_scheme(layer["a"], act)
    weights = quantizers.calibrate_scale(layer["w"], "uniform", layer["bits_w"], "per_channel")
    _, w_bar = quantizers.quantize_with_scheme(layer["w"], weights)
    return oracle.layer_mse(layer["w"], layer["a"], w_bar, a_q)


def check_ablate(manifest_path: str | Path, out_dir: str | Path) -> CheckResult:
    layers = _manifest_layers(Path(manifest_path))
    combos = [name for name, _ in pipeline.ABLATION_GRID]
    result = CheckResult(attempted=len(layers) * len(combos))
    try:
        with open(Path(out_dir) / "ablation.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            header = tuple(reader.fieldnames or ())
            rows = {(r["combination"], r["layer_id"]): r for r in reader}
    except OSError as exc:
        result.failures = [f"ablation.csv unreadable: {exc}"] * result.attempted
        return result
    if header != pipeline.ABLATION_COLUMNS:
        result.failures = [f"ablation.csv header {header}"] * result.attempted
        return result
    for layer in layers:
        lid = layer["layer_id"]
        baseline = _baseline_mse(layer)
        for combo in combos:
            row = rows.get((combo, lid))
            if row is None:
                result.failures.append(f"{combo}/{lid}: row missing")
                continue
            try:
                base, final = float(row["mse_baseline"]), float(row["mse_final"])
                red = float(row["reduction_vs_baseline"])
            except ValueError as exc:
                result.failures.append(f"{combo}/{lid}: {exc}")
                continue
            if not _close(base, baseline):
                result.failures.append(f"{combo}/{lid}: baseline {base!r} != {baseline!r}")
            elif not (final >= 0.0 and _close(1.0 - red, final / base)):
                result.failures.append(f"{combo}/{lid}: final {final!r} reduction {red!r}")
            elif combo == "baseline" and final != base:
                result.failures.append(f"{combo}/{lid}: final {final!r} != baseline")
    return result


CHECKS = {"quantize": check_quantize, "ablate": check_ablate}


def quality(mode: str, out_dir: str | Path) -> dict[str, float]:
    """Means over layers (all-on rows for ablate) of final / baseline MSE and of
    the cumulative reduction, which is one minus that ratio."""
    out_dir = Path(out_dir)
    if mode == "quantize":
        entries = json.loads((out_dir / "report.json").read_text())["layers"]
        pairs = [(e["mse"]["final"] / e["mse"]["baseline"], e["reduction"]["cumulative"])
                 for e in entries if e.get("error") is None]
    else:
        all_on = pipeline.ABLATION_GRID[-1][0]
        with open(out_dir / "ablation.csv", newline="") as fh:
            pairs = [
                (float(r["mse_final"]) / float(r["mse_baseline"]),
                 float(r["reduction_vs_baseline"]))
                for r in csv.DictReader(fh)
                if r["combination"] == all_on
            ]
    if not pairs:
        raise ValueError("no layer has an MSE")
    ratios, reductions = zip(*pairs)
    return {
        "final_mse_ratio": float(np.mean(ratios)),
        "reduction_cumulative": float(np.mean(reductions)),
    }
