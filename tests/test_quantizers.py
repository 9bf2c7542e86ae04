"""Quantizer hand cases, fixed points, calibration grid optimality."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred import oracle, quantizers, verify
from quantred.quantizers import (
    ALPHA_GRID,
    FAMILIES,
    SQRT2,
    LogSqrt2Params,
    NonFiniteInputError,
    QuantScheme,
    UniformParams,
    calibrate,
    calibrate_scale,
    calibration_scan,
    dequantize_log_sqrt2,
    dequantize_uniform,
    log_sqrt2_codes,
    quantize_log_sqrt2,
    quantize_uniform,
    quantize_with_scheme,
    uniform_codes,
)


class TestUniformHandCases:
    def test_codes_and_dequant_b2(self):
        p = UniformParams(scale=1.0, zero_point=0, bits=2)
        codes, deq = quantize_uniform([-0.4, 0.6, 2.7, 5.0], p)
        np.testing.assert_array_equal(codes, [0, 1, 3, 3])
        np.testing.assert_array_equal(deq, [0.0, 1.0, 3.0, 3.0])

    def test_half_to_even_rounding(self):
        p = UniformParams(scale=1.0, zero_point=0, bits=3)
        np.testing.assert_array_equal(uniform_codes([0.5, 1.5, 2.5], p), [0, 2, 2])

    def test_zero_point_maps_zero_exactly(self):
        p = UniformParams(scale=0.5, zero_point=3, bits=3)
        codes, deq = quantize_uniform([0.0], p)
        assert codes[0] == 3
        assert deq[0] == 0.0

    def test_negative_saturation(self):
        p = UniformParams(scale=0.5, zero_point=2, bits=3)
        codes = uniform_codes([-10.0, 10.0], p)
        np.testing.assert_array_equal(codes, [0, 7])

    def test_floor_and_ceil_roundings(self):
        p = UniformParams(scale=1.0, zero_point=0, bits=3)
        np.testing.assert_array_equal(uniform_codes([1.2, 2.9], p, "floor"), [1, 2])
        np.testing.assert_array_equal(uniform_codes([1.2, 2.9], p, "ceil"), [2, 3])
        with pytest.raises(ValueError, match="rounding"):
            uniform_codes([1.0], p, "stochastic")

    @pytest.mark.parametrize("x", [1e18, -1e18, 1e300, -1e300])
    @pytest.mark.parametrize("scale", [0.1, 1e-10])
    def test_values_far_outside_clip_before_the_integer_cast(self, x, scale):
        # |x / s| >= 2^63 does not fit int64, and 1e300 / 1e-10 overflows to
        # inf; clipping in float before the cast saturates both like any
        # value outside the lattice, in every rounding mode, with no
        # RuntimeWarning (an error in this suite)
        p = UniformParams(scale=scale, zero_point=3, bits=4)
        want = 15 if x > 0 else 0
        for rounding in ("nearest", "floor", "ceil"):
            assert uniform_codes([x], p, rounding)[0] == want
        codes, deq = quantize_uniform([x], p)
        assert codes[0] == want
        assert deq[0] == scale * (want - 3)
        codes, deq = quantize_with_scheme(
            np.full((2, 3), x), QuantScheme("uniform", "per_channel", 4, (p, p))
        )
        assert (codes == want).all() and (deq == scale * (want - 3)).all()

    @pytest.mark.parametrize("granularity", ["per_tensor", "per_channel"])
    def test_one_buffer_quantization_equals_the_integer_formula(self, granularity):
        # the integer formula clip(int64(rint(x / s)) + z, 0, qmax) and
        # s (codes - z), bit for bit: ties, zeros, both saturations, zero
        # points at 0 and qmax, 2 and 8 bits
        rng = np.random.default_rng(51)
        x = rng.normal(0, 2.0, (6, 400))
        x[:, :50] = np.round(x[:, :50] * 4) / 4  # half-steps: ties to even
        x[:, 50:60] = 0.0
        params = [
            UniformParams(scale=0.25, zero_point=7, bits=4),
            UniformParams(scale=0.25, zero_point=0, bits=4),
            UniformParams(scale=0.5, zero_point=3, bits=2),
            UniformParams(scale=0.013, zero_point=255, bits=8),
            calibrate(x[4], "uniform", 4),
            UniformParams(scale=1.0, zero_point=0, bits=4, degenerate=True),
        ]
        if granularity == "per_tensor":
            params = params[:1]
            x = x.ravel()
        rows = np.atleast_2d(x)
        want_codes = np.empty(rows.shape, dtype=np.int64)
        want_deq = np.empty(rows.shape)
        for i, p in enumerate(params):
            qmax = (1 << p.bits) - 1
            c = np.clip(np.rint(rows[i] / p.scale).astype(np.int64) + p.zero_point, 0, qmax)
            want_codes[i] = c
            want_deq[i] = p.scale * (c - p.zero_point).astype(np.float64)
        scheme = QuantScheme("uniform", granularity, 4, tuple(params))
        codes, deq = quantize_with_scheme(x, scheme)
        np.testing.assert_array_equal(codes, want_codes.reshape(codes.shape))
        assert deq.tobytes() == want_deq.reshape(deq.shape).tobytes()
        assert codes.dtype == np.int64 and deq.dtype == np.float64

    def test_idempotence_on_lattice(self):
        p = UniformParams(scale=0.37, zero_point=5, bits=4)
        codes = np.arange(16)
        deq = dequantize_uniform(codes, p)
        codes2, deq2 = quantize_uniform(deq, p)
        np.testing.assert_array_equal(codes2, codes)
        np.testing.assert_array_equal(deq2, deq)

    @settings(max_examples=100, deadline=None)
    @given(
        bits=st.integers(2, 8),
        scale=st.floats(1e-3, 1e3),
        zero=st.integers(0, 255),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_codes_always_in_range(self, bits, scale, zero, seed):
        qmax = (1 << bits) - 1
        p = UniformParams(scale=scale, zero_point=min(zero, qmax), bits=bits)
        x = np.random.default_rng(seed).normal(0, 10 * scale, 64)
        codes = uniform_codes(x, p)
        assert codes.min() >= 0 and codes.max() <= qmax

    def test_codes_monotone_in_input(self):
        p = UniformParams(scale=0.21, zero_point=7, bits=4)
        x = np.sort(np.random.default_rng(3).normal(0, 2, 200))
        codes = uniform_codes(x, p)
        assert (np.diff(codes) >= 0).all()


class TestLogSqrt2HandCases:
    def test_exact_round_trips(self):
        p = LogSqrt2Params(scale=1.0, bits=4)
        for x, code in ((1.0, 0), (0.5, 2), (2.0 ** -0.5, 1)):
            codes, deq = quantize_log_sqrt2([x], p)
            assert codes[0] == code
            assert deq[0] == x

    def test_odd_code_is_sqrt2_step(self):
        p = LogSqrt2Params(scale=1.0, bits=4)
        assert dequantize_log_sqrt2([1], p)[0] == pytest.approx(1.0 / SQRT2, rel=1e-15)
        assert dequantize_log_sqrt2([3], p)[0] == pytest.approx(0.5 / SQRT2, rel=1e-15)

    def test_zero_clamps_to_smallest_value(self):
        p = LogSqrt2Params(scale=1.0, bits=4)
        codes, deq = quantize_log_sqrt2([0.0], p)
        assert codes[0] == 15
        assert deq[0] == 2.0 ** (-7.5)

    @pytest.mark.parametrize("bits", [12, 16])
    def test_zero_takes_largest_code_at_wide_bits(self, bits):
        # the smallest level, scale * 2^-((2^b - 1) / 2), underflows to zero,
        # while the smallest subnormal, 2^-1074, is level 2148
        p = LogSqrt2Params(scale=1.0, bits=bits)
        codes, deq = quantize_log_sqrt2([0.0, 5e-324], p)
        assert codes.tolist() == [(1 << bits) - 1, 2148]
        assert deq.tolist() == [0.0, 5e-324]

    @pytest.mark.parametrize("bits", range(2, 12))
    def test_codes_match_clamp_to_smallest_level(self, bits):
        # up to 11 bits the smallest level is a nonzero float, and clamping
        # inputs to it before the log gives the same codes
        p = LogSqrt2Params(scale=0.73, bits=bits)
        qmax = (1 << bits) - 1
        edges = p.scale * 2.0 ** (-(np.arange(qmax) + 0.5) / 2.0)
        x = np.concatenate(
            [
                [0.0, 5e-324, 2.2e-308],
                np.geomspace(1e-320, 10.0, 20000),
                dequantize_log_sqrt2(np.arange(qmax + 1), p),
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
            ]
        )
        smallest = p.scale * 2.0 ** (-qmax / 2.0)
        clamped = np.rint(-2.0 * np.log2(np.maximum(x, smallest) / p.scale))
        want = np.clip(clamped.astype(np.int64), 0, qmax)
        np.testing.assert_array_equal(log_sqrt2_codes(x, p), want)

    def test_negative_input_rejected(self):
        p = LogSqrt2Params(scale=1.0, bits=4)
        with pytest.raises(ValueError, match="nonnegative"):
            log_sqrt2_codes([-0.1], p)

    def test_values_above_scale_saturate_at_code_zero(self):
        p = LogSqrt2Params(scale=0.25, bits=4)
        codes, deq = quantize_log_sqrt2([5.0], p)
        assert codes[0] == 0
        assert deq[0] == 0.25

    @pytest.mark.parametrize("bits", [3, 4, 8])
    @pytest.mark.parametrize("scale", [1.0, 0.37, 220.0])
    def test_fixed_point_every_code(self, bits, scale):
        p = LogSqrt2Params(scale=scale, bits=bits)
        codes = np.arange(1 << bits)
        deq = dequantize_log_sqrt2(codes, p)
        codes2, deq2 = quantize_log_sqrt2(deq, p)
        np.testing.assert_array_equal(codes2, codes)
        np.testing.assert_array_equal(deq2, deq)

    def test_even_codes_are_power_of_two_multiples(self):
        p = LogSqrt2Params(scale=3.0, bits=4)
        np.testing.assert_array_equal(
            dequantize_log_sqrt2([0, 2, 4], p), [3.0, 1.5, 0.75]
        )


class TestCalibration:
    def test_grid_has_141_candidates_covering_half_to_1p2(self):
        assert ALPHA_GRID.shape == (141,)
        assert ALPHA_GRID[0] == 0.5
        assert ALPHA_GRID[-1] == 1.2
        assert np.allclose(np.diff(ALPHA_GRID), 0.005)

    def test_uniform_grid_optimality_against_recompute(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.3, 1.7, 4096)
        bits = 4
        p = calibrate(x, "uniform", bits)
        qmax = (1 << bits) - 1
        lo, hi = float(x.min()), float(x.max())
        s_base = (hi - lo) / qmax

        def mse_at(scale):
            z = int(np.clip(np.rint(-lo / scale), 0, qmax))
            _, deq = quantize_uniform(x, UniformParams(scale=scale, zero_point=z, bits=bits))
            return float(np.mean((x - deq) ** 2))

        best = mse_at(p.scale)
        for alpha in ALPHA_GRID:
            assert best <= mse_at(float(alpha * s_base)) + 1e-15

    def test_uniform_ties_choose_larger_scale(self):
        # constant-ish two-point data quantized exactly by many scales
        x = np.array([0.0, 0.0, 1.0, 1.0])
        p = calibrate(x, "uniform", 2)
        candidates = []
        qmax = 3
        s_base = 1.0 / qmax
        for alpha in ALPHA_GRID:
            scale = float(alpha * s_base)
            z = int(np.clip(np.rint(0.0 / scale), 0, qmax))
            _, deq = quantize_uniform(x, UniformParams(scale=scale, zero_point=z, bits=2))
            candidates.append((float(np.mean((x - deq) ** 2)), scale))
        best_mse = min(c[0] for c in candidates)
        largest_tied = max(s for m, s in candidates if m == best_mse)
        assert p.scale == largest_tied

    def test_degenerate_constant_input(self):
        p = calibrate(np.full(10, 4.2), "uniform", 4)
        assert p.degenerate
        assert p.scale == 1.0
        assert p.zero_point == 0

    def test_degenerate_empty_input(self):
        assert calibrate(np.empty(0), "uniform", 4).degenerate
        assert calibrate(np.empty(0), "log_sqrt2", 4).degenerate

    def test_log_sqrt2_degenerate_all_zero(self):
        p = calibrate(np.zeros(8), "log_sqrt2", 4)
        assert p.degenerate

    def test_log_sqrt2_grid_optimality(self):
        rng = np.random.default_rng(5)
        x = rng.exponential(0.1, 2048)
        p = calibrate(x, "log_sqrt2", 4)
        hi = float(x.max())

        def mse_at(scale):
            _, deq = quantize_log_sqrt2(x, LogSqrt2Params(scale=scale, bits=4))
            return float(np.mean((x - deq) ** 2))

        best = mse_at(p.scale)
        for alpha in ALPHA_GRID:
            assert best <= mse_at(float(alpha * hi)) + 1e-15

    def test_lattice_data_recovered_exactly(self):
        # data already on a 4-bit lattice: calibration must reach MSE 0
        true = UniformParams(scale=0.25, zero_point=6, bits=4)
        x = dequantize_uniform(np.random.default_rng(0).integers(0, 16, 512), true)
        p = calibrate(x, "uniform", 4)
        _, deq = quantize_uniform(x, p)
        assert float(np.mean((x - deq) ** 2)) == 0.0

    def test_bits_below_two_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            calibrate(np.arange(4.0), "uniform", 1)


def _grid(x, family, granularity, bits):
    rows = x if granularity == "per_channel" else [x]
    return tuple(oracle.grid_calibrate(row, family, bits) for row in rows)


class TestCalibrationKernel:
    """The sorted prefix-sum kernel chooses what the brute-force grid chooses."""

    @pytest.mark.parametrize("kind", verify.CALIBRATION_KINDS)
    def test_seeded_corpus_matches_grid(self, kind):
        rng = np.random.default_rng([17, verify.CALIBRATION_KINDS.index(kind)])
        for _ in range(25):
            x, family, bits, granularity = verify.calibration_instance(rng, kind, 20_000)
            got = calibrate_scale(x, family, bits, granularity).params
            assert got == _grid(x, family, granularity, bits)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "x",
        [[0.7], [0.0, 0.7], [0.7, 0.2], [0.0, 0.0, 0.0], [0.0, 5e-324], [1e-310, 3e-310]],
    )
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_tiny_inputs_match_grid(self, family, x, bits):
        got = calibrate_scale(np.array(x), family, bits, "per_tensor").params
        assert got == _grid(np.array(x), family, "per_tensor", bits)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_scale_underflow_is_degenerate(self, family):
        # half the range is below the smallest subnormal: every candidate
        # scale would be zero
        p = calibrate_scale(np.array([0.0, 5e-324]), family, 4, "per_tensor").params[0]
        assert p.degenerate
        assert p.scale == 1.0

    def test_values_exactly_on_rounding_edges(self):
        # at 4 bits 1.0 is a half step of alpha = 1.2 (s = 0.08) and 0.3 of
        # alpha = 0.6 (s = 0.04): those candidates cannot place the value
        # by its sorted position, which must not widen the shortlist
        x = np.array([0.0, 0.3, 1.0])
        assert calibrate(x, "uniform", 4) == oracle.grid_calibrate(x, "uniform", 4)
        shortlist, windowed = calibration_scan(x, "uniform", 4)
        assert shortlist.size == 1
        assert windowed

    def test_zero_mse_ties_go_to_the_larger_scale(self):
        # 0 and 1 lie on the 8-bit lattices of alpha = 1.00 (s = 1/255)
        # and alpha = 1.02 (s = 1/250), both exactly in float64
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        p = calibrate(x, "uniform", 8)
        assert p.scale == float(ALPHA_GRID[104] * (1.0 / 255))
        _, deq = quantize_uniform(x, p)
        np.testing.assert_array_equal(deq, x)
        assert {100, 104} <= set(calibration_scan(x, "uniform", 8)[0].tolist())
        assert p == oracle.grid_calibrate(x, "uniform", 8)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e150, 1e150, allow_subnormal=True), min_size=2, max_size=40
        ),
        bits=st.sampled_from([2, 3, 4, 8]),
        family=st.sampled_from(FAMILIES),
    )
    def test_shortlist_nonempty_and_choice_matches_grid(self, values, bits, family):
        x = np.array(values)
        if family == "log_sqrt2":
            x = np.abs(x)
        got = calibrate_scale(x, family, bits, "per_tensor").params
        assert got == _grid(x, family, "per_tensor", bits)
        if not got[0].degenerate:
            assert calibration_scan(x, family, bits)[0].size >= 1

    def test_overflowing_scan_rescores_every_candidate(self):
        x = np.array([-3e160, 1e160, 2e160])
        assert calibration_scan(x, "uniform", 4)[0].size == ALPHA_GRID.size
        with np.errstate(over="ignore"):
            assert calibrate(x, "uniform", 4) == oracle.grid_calibrate(x, "uniform", 4)

    def test_verify_suite_catches_a_kernel_fault(self, monkeypatch):
        # scores reversed along the candidate axis of every row block make a
        # wrong candidate the lone shortlist entry, so nothing is re-scored
        # and the shipped calibration drifts from the grid
        real = quantizers._candidate_sse

        def reversed_scores(*args):
            sse, unplaced, windowed = real(*args)
            return sse[:, ::-1], unplaced[:, ::-1], windowed

        monkeypatch.setattr(quantizers, "_candidate_sse", reversed_scores)
        result = verify.suite_calibration(seed=0, instances=16)
        assert not result.passed
        assert result.metrics["mismatches"] > 0


def _mixed_rows(rng, d, n, bits):
    """d rows of n values cycling through Gaussian rows at scales 1e-6 to 1e6,
    rows on a lattice, rows half a step off one (on the rounding edges of
    the candidate at alpha = 1), constant rows and all-zero rows."""
    qmax = (1 << bits) - 1
    rows = []
    for i in range(d):
        kind = i % 5
        if kind == 0:
            rows.append(rng.normal(0.0, 10.0 ** (i % 13 - 6), n))
            continue
        if kind == 3:
            rows.append(np.full(n, rng.normal()))
            continue
        if kind == 4:
            rows.append(np.zeros(n))
            continue
        p = UniformParams(
            scale=float(rng.uniform(0.01, 1.0)),
            zero_point=int(rng.integers(0, qmax + 1)),
            bits=bits,
        )
        # codes 0 and qmax pin the range to qmax steps
        codes = np.concatenate([[0, qmax], rng.integers(0, qmax + 1, n - 2)])
        row = dequantize_uniform(rng.permutation(codes), p)
        rows.append(row + 0.5 * p.scale if kind == 2 else row)
    return np.array(rows).reshape(d, n)


class TestRowBlocks:
    """Per-channel calibration scans blocks of rows; no row sees another."""

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_every_row_matches_the_grid_and_its_own_calibration(self, bits):
        height = quantizers._block_height(bits)
        rng = np.random.default_rng([23, bits])
        windowed = 0
        for d in sorted({1, height - 1, height, height + 1, 3 * height + 2} - {0}):
            x = _mixed_rows(rng, d, 24, bits)
            got = calibrate_scale(x, "uniform", bits, "per_channel").params
            assert got == _grid(x, "uniform", "per_channel", bits)
            alone = tuple(
                calibrate_scale(row[None, :], "uniform", bits, "per_channel").params[0]
                for row in x
            )
            assert got == alone
            windowed += sum(
                calibration_scan(row, "uniform", bits)[1]
                for row, p in zip(x, got)
                if not p.degenerate
            )
        # the half-step rows send some blocks through the upper edge search
        assert windowed > 0

    def test_block_heights(self):
        assert [quantizers._block_height(b) for b in (2, 3, 4, 8, 16)] == [14, 7, 3, 1, 1]

    def test_rows_without_values_are_degenerate(self):
        params = calibrate_scale(np.zeros((5, 0)), "uniform", 4, "per_channel").params
        assert len(params) == 5
        assert all(p == UniformParams(1.0, 0, 4, degenerate=True) for p in params)

    @pytest.mark.parametrize(
        "shape, bits, limit_mib",
        [((64, 256), 4, 1.25), ((1536, 384), 4, 1.25), ((64, 256), 8, 4.0)],
    )
    def test_peak_memory_does_not_grow_with_rows(self, shape, bits, limit_mib):
        # the scan holds one block of (rows, 141, 2^b) arrays, not one per
        # row of the matrix: a whole-matrix sort of 1536 x 384 alone is 4.5 MiB
        w = np.random.default_rng(31).normal(0.0, 0.05, shape)
        tracemalloc.start()
        try:
            calibrate_scale(w, "uniform", bits, "per_channel")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_per_tensor_names_first_bad_index(self, bad, family):
        x = np.abs(np.random.default_rng(0).normal(size=(4, 5)))
        x[2, 3] = bad
        x[3, 0] = bad
        with pytest.raises(NonFiniteInputError, match=r"at index \(2, 3\)") as info:
            calibrate_scale(x, family, 4, "per_tensor")
        assert info.value.index == (2, 3)
        assert info.value.row is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_per_channel_names_row_and_column(self, bad):
        w = np.random.default_rng(1).normal(size=(3, 6))
        w[1, 4] = bad
        with pytest.raises(NonFiniteInputError, match="at row 1, column 4") as info:
            calibrate_scale(w, "uniform", 4, "per_channel")
        assert info.value.row == 1
        assert info.value.index == (1, 4)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_is_a_value_error_from_either_calibrator(self, family):
        with pytest.raises(ValueError, match="non-finite value nan at index \\(1,\\)"):
            calibrate(np.array([0.5, np.nan, 0.2]), family, 4)


class TestSchemes:
    def test_per_channel_calibrates_rows_independently(self):
        rng = np.random.default_rng(2)
        w = np.vstack([rng.normal(0, 0.1, 32), rng.normal(0, 5.0, 32)])
        scheme = calibrate_scale(w, "uniform", 4, "per_channel")
        assert len(scheme.params) == 2
        assert scheme.params[0].scale < scheme.params[1].scale
        row0_alone = calibrate(w[0], "uniform", 4)
        assert scheme.params[0] == row0_alone

    def test_per_tensor_single_params(self):
        a = np.random.default_rng(3).normal(0, 1, (16, 8))
        scheme = calibrate_scale(a, "uniform", 4, "per_tensor")
        assert len(scheme.params) == 1
        codes, deq = quantize_with_scheme(a, scheme)
        assert codes.shape == a.shape
        assert deq.shape == a.shape

    def test_log_sqrt2_per_channel_rejected(self):
        with pytest.raises(ValueError, match="per tensor"):
            QuantScheme(
                family="log_sqrt2",
                granularity="per_channel",
                bits=4,
                params=(LogSqrt2Params(scale=1.0, bits=4),),
            )

    def test_per_channel_shape_mismatch_rejected(self):
        w = np.zeros((3, 8))
        scheme = calibrate_scale(w, "uniform", 4, "per_channel")
        with pytest.raises(ValueError, match="channels"):
            quantize_with_scheme(np.zeros((4, 8)), scheme)

    def test_per_channel_quantization_matches_row_by_row(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0, 1, (5, 16))
        scheme = calibrate_scale(w, "uniform", 4, "per_channel")
        # then rows at 2 and 8 bits, a row five times past its lattice (clipped
        # at both ends) and an all-zero row on degenerate params
        mixed_w = np.vstack([w, w[0], w[1], 5.0 * w[2], np.zeros(16)])
        mixed = QuantScheme(
            family="uniform",
            granularity="per_channel",
            bits=4,
            params=scheme.params
            + (
                calibrate(w[0], "uniform", 2),
                calibrate(w[1], "uniform", 8),
                scheme.params[2],
                calibrate(np.zeros(16), "uniform", 4),
            ),
        )
        for x, s in ((w, scheme), (mixed_w, mixed)):
            codes, deq = quantize_with_scheme(x, s)
            for i, p in enumerate(s.params):
                c, d = quantize_uniform(x[i], p)
                np.testing.assert_array_equal(codes[i], c)
                np.testing.assert_array_equal(deq[i].view(np.int64), d.view(np.int64))
        assert {0, 15} <= set(codes[7].tolist())
        assert mixed.params[8].degenerate and (codes[8] == 0).all()
