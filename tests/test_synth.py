"""Synthetic chains: determinism, shape, routing, and end-to-end orderings."""

import sys

import numpy as np
import pytest

from quantred.pipeline import RunConfig
from quantred.synth import (
    ChainReport,
    SynthSpec,
    act_family_for_layer,
    fp_chain,
    gelu,
    generate_layer,
    run_chain,
    softmax_rows,
    write_manifest_files,
)
from quantred.tensorfile import load_manifest, read_tensor


class TestSpecValidation:
    def test_nonlinearity_count_must_bridge_layers(self):
        with pytest.raises(ValueError, match="between consecutive layers"):
            SynthSpec(seed=0, dims=((4, 8), (2, 4)), nonlinearities=("gelu", "gelu"))

    def test_dims_must_chain(self):
        with pytest.raises(ValueError, match="does not"):
            SynthSpec(seed=0, dims=((4, 8), (2, 5)), nonlinearities=("gelu",))

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="nonlinearity"):
            SynthSpec(seed=0, dims=((4, 8), (2, 4)), nonlinearities=("tanh",))
        with pytest.raises(ValueError, match="activation"):
            SynthSpec(seed=0, dims=((4, 8),), activation="laplace")

    def test_empty_and_tiny_specs_rejected(self):
        with pytest.raises(ValueError, match="layer"):
            SynthSpec(seed=0, dims=())
        with pytest.raises(ValueError, match="samples"):
            SynthSpec(seed=0, dims=((4, 8),), n_samples=1)

    @pytest.mark.parametrize("dims", [((3, 0),), ((0, 4),), ((4, 8), (-2, 4))])
    def test_nonpositive_dims_rejected(self, dims):
        # a zero or negative layer dimension fails at the spec, not with a
        # divide-by-zero warning inside generate_layer
        nonlinearities = ("gelu",) * (len(dims) - 1)
        with pytest.raises(ValueError, match=r"^layer dims must be >= 1, got \(\("):
            SynthSpec(seed=0, dims=dims, nonlinearities=nonlinearities)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_seed_checked_at_the_spec(self, seed):
        # not inside numpy when the first layer is generated
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            SynthSpec(seed=seed, dims=((4, 8),))

    @pytest.mark.parametrize("n_samples", [2.5, 4.0, True, -3])
    def test_n_samples_checked_at_the_spec(self, n_samples):
        with pytest.raises(ValueError, match=r"^n_samples must be an integer >= 2, got "):
            SynthSpec(seed=0, dims=((4, 8),), n_samples=n_samples)

    @pytest.mark.parametrize("dims", [((4, 8.0),), ((2.5, 4),), ((4, True),)])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(ValueError, match=r"^layer dims must be >= 1, got \(\(.*integer"):
            SynthSpec(seed=0, dims=dims)

    def test_numpy_integers_generate_the_same_layer(self):
        plain = SynthSpec(seed=7, dims=((4, 8),), n_samples=17)
        numpy_ints = SynthSpec(
            seed=np.int64(7), dims=((np.int32(4), np.int64(8)),), n_samples=np.uint16(17)
        )
        for got, want in zip(generate_layer(numpy_ints, 0), generate_layer(plain, 0)):
            assert got.tobytes() == want.tobytes()


class TestGeneration:
    def test_deterministic_in_seed(self):
        spec = SynthSpec(seed=42, dims=((4, 8),))
        w1, a1 = generate_layer(spec, 0)
        w2, a2 = generate_layer(spec, 0)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(a1, a2)

    def test_different_seeds_differ(self):
        a = generate_layer(SynthSpec(seed=0, dims=((4, 8),)), 0)[1]
        b = generate_layer(SynthSpec(seed=1, dims=((4, 8),)), 0)[1]
        assert not np.array_equal(a, b)

    def test_shapes(self):
        spec = SynthSpec(seed=3, dims=((4, 8),), n_samples=17)
        w, a = generate_layer(spec, 0)
        assert w.shape == (4, 8)
        assert a.shape == (17, 8)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            generate_layer(SynthSpec(seed=0, dims=((4, 8),)), 1)

    def test_channel_means_concentrate(self):
        spec = SynthSpec(
            seed=5,
            dims=((2, 6),),
            n_samples=10_000,
            mean_range=(0.0, 0.0),
            std_range=(1.0, 1.0),
        )
        _, a = generate_layer(spec, 0)
        assert np.abs(a.mean(axis=0)).max() < 0.05
        assert np.abs(a.std(axis=0) - 1.0).max() < 0.05

    def test_mixture_is_bimodal_wider_than_gaussian(self):
        base = dict(seed=6, dims=((2, 4),), n_samples=4096, std_range=(1.0, 1.0))
        g = generate_layer(SynthSpec(activation="gaussian", **base), 0)[1]
        m = generate_layer(SynthSpec(activation="mixture", **base), 0)[1]
        assert m.std() > g.std()


class TestNonlinearities:
    def test_gelu_values(self):
        np.testing.assert_allclose(gelu(np.array([0.0])), [0.0], atol=1e-15)
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-9)
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-9

    def test_gelu_without_scipy_names_the_extra(self, monkeypatch):
        # scipy is the optional `synth` extra; a None entry makes its import fail
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        with pytest.raises(ImportError, match=r"quantred\[synth\]"):
            gelu(np.array([0.0]))

    def test_softmax_rows_sum_to_one_and_nonnegative(self):
        x = np.random.default_rng(0).normal(0, 3, (8, 5))
        s = softmax_rows(x)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(8), atol=1e-12)
        assert (s > 0).all()

    def test_act_family_routing(self):
        spec = SynthSpec(
            seed=0,
            dims=((4, 8), (4, 4), (2, 4)),
            nonlinearities=("softmax", "gelu"),
        )
        assert act_family_for_layer(spec, 0) == "uniform"
        assert act_family_for_layer(spec, 1) == "log_sqrt2"
        assert act_family_for_layer(spec, 2) == "uniform"


class TestFpChain:
    def test_layer_inputs_thread_through_nonlinearity(self):
        spec = SynthSpec(
            seed=7, dims=((6, 8), (4, 6)), nonlinearities=("gelu",), n_samples=32
        )
        weights, inputs, outputs = fp_chain(spec)
        np.testing.assert_array_equal(outputs[0], inputs[0] @ weights[0].T)
        np.testing.assert_array_equal(inputs[1], gelu(outputs[0]))
        np.testing.assert_array_equal(outputs[1], inputs[1] @ weights[1].T)


class TestRunChain:
    def test_report_structure_and_determinism(self):
        spec = SynthSpec(
            seed=11, dims=((8, 12), (6, 8)), nonlinearities=("gelu",), n_samples=64
        )
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        r1 = run_chain(spec, cfg)
        r2 = run_chain(spec, cfg)
        assert isinstance(r1, ChainReport)
        assert set(r1.end_to_end) == {"rtn", "aqer", "wqer", "erq"}
        assert len(r1.per_layer) == 2
        assert r1.signal_power > 0
        for layer_a, layer_b in zip(r1.per_layer, r2.per_layer):
            assert layer_a == layer_b
        assert r1.end_to_end == r2.end_to_end

    def test_identity_chain_nearly_lossless_at_high_bits(self):
        spec = SynthSpec(
            seed=13, dims=((8, 12), (6, 8)), nonlinearities=("identity",), n_samples=128
        )
        cfg = RunConfig(lambda1=1.0, lambda2=1.0, bits_w=14, bits_a=14)
        report = run_chain(spec, cfg)
        for variant, mse in report.end_to_end.items():
            assert mse / report.signal_power < 1e-6, variant

    def test_full_pipeline_beats_plain_rounding_fixed_seed(self):
        spec = SynthSpec(
            seed=17, dims=((16, 24), (12, 16)), nonlinearities=("gelu",), n_samples=256
        )
        report = run_chain(spec, RunConfig(lambda1=10.0, lambda2=10.0))
        assert report.end_to_end["erq"] < report.end_to_end["rtn"]

    @pytest.mark.slow
    def test_variant_ordering_in_the_median(self):
        # over 20 seeds the medians must satisfy erq <= aqer <= rtn and
        # erq <= wqer <= rtn: each half of the pipeline helps, both help most
        dims = ((48, 64), (32, 48))
        cfg = RunConfig(lambda1=10.0, lambda2=10.0)
        results = {v: [] for v in ("rtn", "aqer", "wqer", "erq")}
        for seed in range(20):
            spec = SynthSpec(
                seed=seed, dims=dims, nonlinearities=("gelu",), n_samples=512
            )
            report = run_chain(spec, cfg)
            for variant, mse in report.end_to_end.items():
                results[variant].append(mse)
        med = {v: float(np.median(results[v])) for v in results}
        assert med["erq"] <= med["aqer"] <= med["rtn"]
        assert med["erq"] <= med["wqer"] <= med["rtn"]

    def test_softmax_layer_quantizes_on_log_grid(self):
        spec = SynthSpec(
            seed=19, dims=((6, 8), (4, 6)), nonlinearities=("softmax",), n_samples=64
        )
        cfg = RunConfig(lambda1=1.0, lambda2=1.0)
        report = run_chain(spec, cfg)
        # the post-softmax layer still produces finite, positive errors
        assert all(np.isfinite(v) for v in report.per_layer[1].values())


class TestManifestExport:
    def test_written_manifest_loads_and_matches_spec(self, tmp_path):
        spec = SynthSpec(
            seed=23, dims=((6, 8), (4, 6)), nonlinearities=("softmax",), n_samples=32
        )
        manifest_path = write_manifest_files(spec, tmp_path, bits_w=4, bits_a=8)
        layers = load_manifest(manifest_path)
        assert [e.layer_id for e in layers] == ["layer0", "layer1"]
        assert layers[0].act_quant == "uniform"
        assert layers[1].act_quant == "log_sqrt2"
        assert layers[0].bits_w == 4
        assert layers[0].bits_a == 8
        w0 = read_tensor(layers[0].weight_path)
        c0 = read_tensor(layers[0].calib_path)
        c1 = read_tensor(layers[1].calib_path)
        assert w0.shape == (6, 8)
        assert c0.shape == (32, 8)
        assert c1.shape == (32, 6)
        # post-softmax calibration data is nonnegative as log quantization needs
        assert c1.min() >= 0
        weights, inputs, _ = fp_chain(spec)
        np.testing.assert_allclose(w0, weights[0], atol=1e-7)
        np.testing.assert_allclose(c1, inputs[1], atol=1e-7)
