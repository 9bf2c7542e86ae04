"""The run path imports no scipy, an optional dependency of `synth.gelu` only,
and none of `quantred.oracle`, `quantred.synth`, `quantred.verify` and
`quantred.cli`; the package loads oracle's and synth's names on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package and its CLI, then quantizes one layer with N >= D_in
# and one with N < D_in, all stages on, and prints the scipy modules loaded.
_PROGRAM = """
import json, sys
import numpy as np
import quantred, quantred.cli
from quantred.pipeline import ALL_STAGES, RunConfig, quantize_layer

cfg = RunConfig(stages=frozenset(ALL_STAGES), lambda1=0.1, lambda2=0.1, k=1)
rng = np.random.default_rng(0)
for n, d_in in ((48, 16), (12, 40)):
    quantize_layer(rng.normal(0, 1, (3, d_in)), rng.normal(0, 1, (n, d_in)),
                   "uniform", 4, 4, cfg)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


# The imports of every benchmark child and of the CLI's run path, then the
# oracle and synth names of the package's public API, resolved on first access.
_LAZY_NAMES = """
import json, sys
from quantred import pipeline, tensorfile
off_path = ("quantred.oracle", "quantred.synth", "quantred.verify", "quantred.cli")
loaded = [m for m in off_path if m in sys.modules]
import quantred
names = [quantred.SynthSpec, quantred.generate_layer, quantred.run_chain, quantred.ChainReport,
         quantred.layer_mse, quantred.brute_force_rounding, quantred.BruteForceResult,
         quantred.finite_diff_gradient, quantred.mc_output_error]
from quantred import SynthSpec, layer_mse, oracle, synth
print(json.dumps([
    loaded,
    [m for m in off_path if m in sys.modules],
    names == [synth.SynthSpec, synth.generate_layer, synth.run_chain, synth.ChainReport,
              oracle.layer_mse, oracle.brute_force_rounding, oracle.BruteForceResult,
              oracle.finite_diff_gradient, oracle.mc_output_error],
    SynthSpec is synth.SynthSpec and layer_mse is oracle.layer_mse,
    {"SynthSpec", "layer_mse"} <= set(dir(quantred)),
]))
"""


def _run_program(program):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_run_path_loads_no_scipy():
    assert _run_program(_PROGRAM) == []


def test_run_path_loads_no_oracle_or_synth():
    assert _run_program(_LAZY_NAMES) == [
        [], ["quantred.oracle", "quantred.synth"], True, True, True
    ]


def test_unknown_package_attribute_raises():
    import quantred

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quantred.no_such_name
