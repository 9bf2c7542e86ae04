"""Every integer setting has one check, applied alike at every entry point.

A bad value is rejected with the same message, "<name> must be an integer
in [lo, hi], got <value>" (or ">= lo" for a setting without a cap), in
the error type of its entry point. A value that passes, a numpy integer
included, is kept as a plain int.
"""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from quantred import weight_quant
from quantred.cli import main
from quantred.pipeline import ConfigError, RunConfig, run_manifest
from quantred.quantizers import UniformParams, calibrate_scale, row_params
from quantred.synth import SynthSpec, write_manifest_files
from quantred.tensorfile import ManifestError, load_manifest
from quantred.weight_quant import LayerMomentCache, quantize_layer_weights

# (value, accepted): each bit width given to every entry point
BIT_WIDTHS = [(1, False), (17, False), (2.5, False), (True, False), (np.int64(4), True)]

X = np.random.default_rng(0).normal(size=(3, 8))


class _ExitOne(Exception):
    """The command line exited 1; the message is its stderr without "error: "."""


@pytest.fixture()
def manifest(tmp_path):
    spec = SynthSpec(seed=3, dims=((4, 6),), n_samples=16)
    return write_manifest_files(spec, tmp_path / "data")


def _run_config(value, manifest, tmp_path):
    return [RunConfig(bits_w=value).bits_w]


def _command_line(value, manifest, tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["quantize", "--manifest", str(manifest), "--out", str(out), "--bits-w", str(value)],
    )
    if result.exit_code == 1:
        raise _ExitOne(result.stderr.removeprefix("error: ").rstrip("\n"))
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    echoed = json.loads((out / "run_config.json").read_text())
    return [report["layers"][0]["bits_w"], echoed["bits_w"]]


def _manifest(value, manifest, tmp_path):
    doc = json.loads(manifest.read_text())
    # a JSON writer stores a numpy integer as the plain number
    doc["layers"][0]["bits_w"] = int(value) if isinstance(value, np.integer) else value
    manifest.write_text(json.dumps(doc))
    return [entry.bits_w for entry in load_manifest(manifest)]


def _calibrate(value, manifest, tmp_path):
    # per tensor
    return [calibrate_scale(X, "uniform", value, "per_tensor").bits]


def _calibrate_scale(value, manifest, tmp_path):
    # per channel: the record's bits, and each row's
    lattice = calibrate_scale(X, "uniform", value, "per_channel")
    return [lattice.bits] + [p.bits for p in row_params(lattice)]


# (entry point, setting name in its message, error type, message prefix)
BIT_ENTRIES = [
    (_run_config, "bits_w", ConfigError, ""),
    (_command_line, "bits_w", _ExitOne, ""),
    (_manifest, "bits_w", ManifestError, "layers[0]."),
    (_calibrate, "bits", ValueError, ""),
    (_calibrate_scale, "bits", ValueError, ""),
]


def _checked_alike(call, accepted, expected, error, message):
    if accepted:
        stored = call()
        assert stored and all(type(v) is int and v == expected for v in stored)
    else:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize(
    ("entry", "value", "accepted"),
    [
        pytest.param(entry, value, accepted, id=f"{entry[0].__name__[1:]}-{value!r}")
        for entry in BIT_ENTRIES
        for value, accepted in BIT_WIDTHS
        # a command line carries text, and has no spelling for a bool
        if not (entry[0] is _command_line and value is True)
    ],
)
def test_bit_width_checked_alike_at_every_entry_point(
    entry, value, accepted, manifest, tmp_path
):
    call, name, error, prefix = entry
    _checked_alike(
        lambda: call(value, manifest, tmp_path),
        accepted,
        value,
        error,
        f"{prefix}{name} must be an integer in [2, 16], got {value!r}",
    )


# (value, accepted): each flip budget k and iteration cap max_iter
COUNTS = [(-1, False), (2.5, False), (True, False), ("1", False), (None, False),
          (np.int64(3), True)]


def _weight_loop(field, value, monkeypatch):
    seen = []
    real = weight_quant.refine_rounding

    def recorded(state, k, max_iter):
        seen.append({"k": k, "max_iter": max_iter}[field])
        return real(state, k, max_iter)

    monkeypatch.setattr(weight_quant, "refine_rounding", recorded)
    rng = np.random.default_rng(1)
    cache = LayerMomentCache(rng.normal(size=(16, 4)))
    lattice = UniformParams(scale=np.full((2, 1), 0.1), zero_point=np.full((2, 1), 8.0), bits=4)
    settings = {"k": 1, "max_iter": 100, field: value}
    quantize_layer_weights(rng.normal(0, 0.3, (2, 4)), lattice, cache, None, **settings)
    return seen


@pytest.mark.parametrize(("value", "accepted"), COUNTS, ids=repr)
@pytest.mark.parametrize("field", ["k", "max_iter"])
@pytest.mark.parametrize("entry", ["RunConfig", "quantize_layer_weights"])
def test_counts_checked_alike_at_every_entry_point(entry, field, value, accepted, monkeypatch):
    if entry == "RunConfig":
        call, error = (lambda: [getattr(RunConfig(**{field: value}), field)]), ConfigError
    else:
        call, error = (lambda: _weight_loop(field, value, monkeypatch)), ValueError
    _checked_alike(call, accepted, value, error, f"{field} must be an integer >= 0, got {value!r}")


def test_run_config_json_from_numpy_integers(manifest, tmp_path):
    # numpy integers are stored as ints, so the echo serializes and the run
    # matches one configured with plain ints byte for byte
    entries = load_manifest(manifest)
    settings = {"k": 2, "max_iter": 50, "bits_w": 3, "bits_a": 5, "jobs": 1}
    plain = run_manifest(entries, RunConfig(**settings), tmp_path / "plain")
    numpy = run_manifest(
        entries,
        RunConfig(**{name: np.int64(v) for name, v in settings.items()}),
        tmp_path / "numpy",
    )
    echoed = json.loads((tmp_path / "numpy" / "run_config.json").read_text())
    assert {name: echoed[name] for name in settings} == settings
    assert all(type(echoed[name]) is int for name in settings)
    for name in ("report.json", "traces.csv", "run_config.json", "layer0_codes.npy"):
        numpy_bytes = (tmp_path / "numpy" / name).read_bytes()
        assert numpy_bytes == (tmp_path / "plain" / name).read_bytes()
    assert numpy.entries == plain.entries
