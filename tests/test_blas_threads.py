"""Determinism across BLAS thread counts: one layer at 1 and at 2 threads.

BLAS may split a product differently with more threads, so floats can move
in their last bits; the discrete outcome of a run (codes, stop reasons,
flip counts) must not. The thread count is read when BLAS loads, so each
setting runs in its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# Quantizes one layer with all stages on (N = 256 >= D_in = 160, so the
# Gram, aqer and every ridge factor go through BLAS products large enough
# to be threaded) and prints the result with every float as the exact
# decimal json writes for it.
_PROGRAM = """
import json
import numpy as np
from quantred.pipeline import ALL_STAGES, RunConfig, quantize_layer

cfg = RunConfig(stages=frozenset(ALL_STAGES), lambda1=10.0, lambda2=10.0, k=1)
rng = np.random.default_rng(9)
w = rng.normal(0, 0.5, (6, 160))
a_fp = rng.normal(0.3, 1.0, (256, 160))
result = quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
print(json.dumps({
    "codes": result.codes.tolist(),
    "w_bar": result.w_bar.tolist(),
    "mse": result.mse,
    "trace": result.trace,
}))
"""


def _run_with_threads(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    result = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def _assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


def test_one_and_two_blas_threads_agree():
    one, two = _run_with_threads(1), _run_with_threads(2)
    assert one["codes"] == two["codes"]
    _assert_close(one["w_bar"], two["w_bar"])
    assert one["mse"].keys() == two["mse"].keys()
    for stage in one["mse"]:
        _assert_close(one["mse"][stage], two["mse"][stage])
    assert len(one["trace"]) == len(two["trace"])
    discrete = ("iteration", "slice_size", "stop_reason", "flips_committed")
    for rows_one, rows_two in zip(one["trace"], two["trace"]):
        assert len(rows_one) == len(rows_two)
        for a, b in zip(rows_one, rows_two):
            assert [a[f] for f in discrete] == [b[f] for f in discrete]
            for field in ("proxy_before", "proxy_after", "mse"):
                _assert_close(a[field], b[field])
