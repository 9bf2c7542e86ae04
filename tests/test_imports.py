"""The import graph: the package root imports nothing, each module imports
alone, and the run path loads no scipy (an optional dependency of
`synth.gelu` only) and none of `quantred.oracle`, `quantred.synth` and
`quantred.verify`, which only tests, `quantred verify` and the benchmark use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quantred.synth import SynthSpec, write_manifest_files

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "quantred").glob("*.py") if p.stem != "__init__")
OFF_RUN_PATH = ["quantred.oracle", "quantred.synth", "quantred.verify"]

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

# Prints the quantred modules a program has loaded.
_LOADED = """
print(json.dumps(sorted(m for m in sys.modules if m.startswith("quantred."))))
"""

# The imports of every benchmark child.
_RUN_PATH = """
import json, sys
from quantred import pipeline, tensorfile
""" + _LOADED

# A `quantred quantize` run on the manifest and output directory in argv.
_QUANTIZE = """
import json, sys
import quantred.cli
quantred.cli.main(["quantize", "--manifest", sys.argv[1], "--out", sys.argv[2]],
                  standalone_mode=False)
""" + _LOADED


def _run_program(program, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", program, *args],
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
    loaded = _run_program(_RUN_PATH)
    assert {"quantred.pipeline", "quantred.tensorfile"} <= set(loaded)
    assert [m for m in OFF_RUN_PATH + ["quantred.cli"] if m in loaded] == []


def test_package_root_imports_no_module():
    assert _run_program("import json, sys, quantred" + _LOADED) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    program = f"import json, sys, quantred.{module}\nprint(json.dumps(quantred.{module}.__name__))"
    assert _run_program(program) == f"quantred.{module}"


def test_quantize_command_loads_no_oracle_synth_or_verify(tmp_path):
    spec = SynthSpec(seed=3, dims=((6, 8), (4, 6)), nonlinearities=("gelu",), n_samples=48)
    manifest = write_manifest_files(spec, tmp_path / "data")
    out = tmp_path / "out"
    loaded = _run_program(_QUANTIZE, str(manifest), str(out))
    assert (out / "report.json").is_file()
    assert "quantred.cli" in loaded
    assert [m for m in OFF_RUN_PATH if m in loaded] == []
