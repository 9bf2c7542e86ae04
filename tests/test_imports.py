"""The run path imports no scipy: it is an optional dependency of `synth.gelu` only."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_run_path_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []
