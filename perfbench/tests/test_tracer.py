"""Span bookkeeping: self times and the per-module counts."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracer
import workloads
from quantred import synth, weight_quant

PERFBENCH = Path(__file__).resolve().parent.parent


def _subtree_self_sum(spans, selfs, root_id):
    ids = {root_id}
    for span in spans:  # parents always precede their children
        if span["parent"] in ids:
            ids.add(span["id"])
    return sum(selfs[i] for i in ids)


def test_self_times_sum_to_parent_duration_fixed_clock():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.leaf = lambda: None
    mod.mid = lambda: (mod.leaf(), mod.leaf())
    mod.top = lambda: (mod.mid(), mod.leaf())
    for name in ("leaf", "mid", "top"):
        t.wrap(mod, name, name)
    mod.top()

    selfs = tracer.self_times(t.spans)
    top = t.spans[0]
    assert top["name"] == "top" and top["parent"] is None
    assert top["end"] - top["start"] == 9.0
    assert [selfs[s["id"]] for s in t.spans] == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert _subtree_self_sum(t.spans, selfs, 0) == 9.0
    assert _subtree_self_sum(t.spans, selfs, 1) == t.spans[1]["end"] - t.spans[1]["start"]


def test_self_times_sum_to_parent_duration_real_clock():
    t = tracer.Tracer()
    mod = types.SimpleNamespace()
    mod.work = lambda n: sum(range(n))
    mod.outer = lambda: [mod.work(20000) for _ in range(5)] and sum(range(30000))
    t.wrap(mod, "work", "work")
    t.wrap(mod, "outer", "outer")
    mod.outer()

    selfs = tracer.self_times(t.spans)
    root = t.spans[0]
    assert _subtree_self_sum(t.spans, selfs, 0) == pytest.approx(
        root["end"] - root["start"], rel=1e-9
    )
    assert all(value >= 0.0 for value in selfs.values())


def test_traced_child_counts(tmp_path):
    d_out, d_in, n = 6, 12, 40
    spec = synth.SynthSpec(seed=2, dims=((d_out, d_in),), n_samples=n)
    manifest = synth.write_manifest_files(spec, tmp_path / "inputs")
    spans_path = tmp_path / "spans.json"
    result_path = tmp_path / "result.json"
    src = PERFBENCH.parent / "src"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--mode", "quantize",
         "--manifest", str(manifest), "--out", str(tmp_path / "out"),
         "--config", json.dumps(workloads.CONFIG), "--spawn", "0",
         "--result", str(result_path), "--spans", str(spans_path)],
        check=True, env={"PYTHONPATH": str(src), "PATH": ""}, timeout=120,
    )
    spans = json.loads(spans_path.read_text())
    m = tracer.per_module_metrics(spans)
    splits = len(weight_quant.halving_splits(d_in))

    assert m["quantizers.act_calib_calls"] == 1
    assert m["quantizers.act_calib_evals"] == n * d_in * 141
    # base scales, then a recalibration after the activation correction
    assert m["quantizers.weight_calib_calls"] == 2
    assert m["quantizers.weight_calib_rows"] == 2 * d_out
    assert m["weight_quant.refine_calls"] == d_out * splits
    assert m["weight_quant.ridge_solves"] == d_out * (splits - 1)
    # one aqer factor plus one ridge factor per split with a remainder
    assert m["linalg.factor_calls"] == 1 + (splits - 1)
    assert m["act_correct.solve_calls"] == 1
    # weight and calibration read in load_manifest and again in run_manifest
    assert m["tensorfile.read_calls"] == 4
    assert m["tensorfile.write_mb"] > 0
    assert m["pipeline.quantize_layer_calls"] == 1
    assert 0.0 <= m["weight_quant.refine_useful_ratio"] <= 1.0
    assert set(tracer.METRIC_UNITS) == set(m) | {"trace.overhead_s"}
    assert m["weight_quant.layer_s"] >= (
        m["weight_quant.init_s"] + m["weight_quant.refine_s"] + m["weight_quant.ridge_solve_s"]
    )
