"""The correctness check accepts a clean run and rejects corrupted artifacts."""

import pytest

import check
import workloads
from quantred import pipeline, synth, tensorfile


@pytest.fixture(scope="module")
def quantize_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("quantize")
    spec = synth.SynthSpec(seed=3, dims=((8, 16), (6, 8)), n_samples=64,
                           nonlinearities=("softmax",))
    manifest = synth.write_manifest_files(spec, root / "inputs")
    cfg = pipeline.RunConfig(**workloads.CONFIG)
    pipeline.run_manifest(tensorfile.load_manifest(manifest), cfg, root / "out")
    return manifest, root / "out"


def test_clean_quantize_run_passes(quantize_run):
    result = check.check_quantize(*quantize_run)
    assert result.attempted == 2
    assert result.failures == []


# offsets from the end of layer0's codes file: low byte of the last code
# (code changes by one), high byte of the last code (code out of range)
@pytest.mark.parametrize("offset_from_end", [4, 1])
def test_flipped_code_byte_fails(quantize_run, tmp_path, offset_from_end):
    manifest, out = quantize_run
    broken = tmp_path / "out"
    broken.mkdir()
    for path in out.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    codes = broken / "layer0_codes.npy"
    raw = bytearray(codes.read_bytes())
    raw[len(raw) - offset_from_end] ^= 0x01 if offset_from_end == 4 else 0x80
    codes.write_bytes(bytes(raw))

    result = check.check_quantize(manifest, broken)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("layer0:")
    assert check.artifact_hashes(broken) != check.artifact_hashes(out)


def test_ablation_check(tmp_path):
    spec = synth.SynthSpec(seed=5, dims=((6, 8), (4, 6)), n_samples=32,
                           nonlinearities=("gelu",))
    manifest = synth.write_manifest_files(spec, tmp_path / "inputs")
    cfg = pipeline.RunConfig(**workloads.CONFIG)
    layers = pipeline.load_layers(tensorfile.load_manifest(manifest), cfg)
    rows = pipeline.run_ablation(layers, cfg)
    csv_path = tmp_path / "ablation.csv"
    pipeline.write_csv(csv_path, rows, pipeline.ABLATION_COLUMNS)

    result = check.check_ablate(manifest, tmp_path)
    assert (result.attempted, result.failures) == (16, [])

    lines = csv_path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[6] = repr(float(cells[6]) * 1.5)  # mse_final of the last row
    csv_path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    result = check.check_ablate(manifest, tmp_path)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("aqer+rounding+ridge/layer1:")
