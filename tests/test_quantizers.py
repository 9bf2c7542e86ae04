"""Quantizer hand cases, fixed points, calibration grid optimality."""

import math
import re
import tracemalloc
from collections import Counter

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
    UniformParams,
    calibrate_scale,
    calibration_scan,
    dequantize_log_sqrt2,
    dequantize_uniform,
    log_sqrt2_codes,
    quantize,
    quantize_log_sqrt2,
    quantize_uniform,
    quantize_with_scheme,
    row_params,
    uniform_codes,
)


def _stack(params):
    """Scalar uniform params as a record of (d, 1) columns.

    Calibration's records hold one bit width; rows at mixed widths take a
    (d, 1) bits column, which `quantize` broadcasts like the other fields.
    """
    bits = np.array([[p.bits] for p in params])
    return UniformParams(
        scale=np.array([[p.scale] for p in params]),
        zero_point=np.array([[p.zero_point] for p in params], dtype=np.float64),
        bits=int(bits[0, 0]) if (bits == bits[0, 0]).all() else bits,
        degenerate=np.array([[p.degenerate] for p in params]),
    )


def _calibrated_rows(x, family, bits, granularity):
    """calibrate_scale's lattice as scalar params, one per row (one per tensor)."""
    got = calibrate_scale(x, family, bits, granularity)
    return tuple(row_params(got)) if granularity == "per_channel" else (got,)


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
        codes, deq = quantize_with_scheme(np.full((2, 3), x), _stack([p, p]))
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
            calibrate_scale(x[4], "uniform", 4, "per_tensor"),
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
        lattice = params[0] if granularity == "per_tensor" else _stack(params)
        codes, deq = quantize_with_scheme(x, lattice)
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
        p = calibrate_scale(x, "uniform", bits, "per_tensor")
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
        p = calibrate_scale(x, "uniform", 2, "per_tensor")
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
        p = calibrate_scale(np.full(10, 4.2), "uniform", 4, "per_tensor")
        assert p.degenerate
        assert p.scale == 1.0
        assert p.zero_point == 0

    def test_degenerate_empty_input(self):
        assert calibrate_scale(np.empty(0), "uniform", 4, "per_tensor").degenerate
        assert calibrate_scale(np.empty(0), "log_sqrt2", 4, "per_tensor").degenerate

    def test_log_sqrt2_degenerate_all_zero(self):
        p = calibrate_scale(np.zeros(8), "log_sqrt2", 4, "per_tensor")
        assert p.degenerate

    def test_log_sqrt2_grid_optimality(self):
        rng = np.random.default_rng(5)
        x = rng.exponential(0.1, 2048)
        p = calibrate_scale(x, "log_sqrt2", 4, "per_tensor")
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
        p = calibrate_scale(x, "uniform", 4, "per_tensor")
        _, deq = quantize_uniform(x, p)
        assert float(np.mean((x - deq) ** 2)) == 0.0

    def test_bits_below_two_rejected(self):
        with pytest.raises(ValueError, match=r"^bits must be an integer in \[2, 16\], got 1$"):
            calibrate_scale(np.arange(4.0), "uniform", 1, "per_tensor")

    @pytest.mark.parametrize("bits", [1, 17, 40, 64, 2.5, True, "4"])
    def test_bad_bit_widths_rejected_before_any_work(self, bits):
        # 17 is past MAX_BITS, 2.5 used to fail inside on `<<`, 40 asked for
        # terabytes and 64 for more than numpy can index
        x = np.random.default_rng(0).normal(size=(3, 8))
        calls = (
            lambda: calibrate_scale(x, "uniform", bits, "per_tensor"),
            lambda: calibrate_scale(np.abs(x), "log_sqrt2", bits, "per_tensor"),
            lambda: calibrate_scale(x, "uniform", bits, "per_tensor"),
            lambda: calibrate_scale(x, "uniform", bits, "per_channel"),
        )
        for call in calls:
            message = f"^bits must be an integer in \\[2, 16\\], got {re.escape(repr(bits))}$"
            with pytest.raises(ValueError, match=message):
                call()

    def test_numpy_integer_bit_width_accepted(self):
        x = np.random.default_rng(0).normal(size=40)
        got = calibrate_scale(x, "uniform", np.int64(4), "per_tensor")
        assert got == calibrate_scale(x, "uniform", 4, "per_tensor")

    @pytest.mark.parametrize(
        "family, bits, bad",
        [
            ("bogus", 1, None),
            ("uniform", 1, None),
            ("uniform", 2.5, None),
            ("uniform", True, None),
            ("uniform", 17, None),
            ("uniform", 4, np.nan),
            ("log_sqrt2", 4, np.nan),
            ("log_sqrt2", 4, -1.0),
        ],
        ids=["family", "bits-1", "bits-2.5", "bits-True", "bits-17", "nan", "log-nan", "negative"],
    )
    def test_both_entries_reject_a_bad_input_alike(self, family, bits, bad):
        # the scan's view checks its input as per-tensor calibration does:
        # the same checks in the same order, so the same type and message
        x = np.abs(np.random.default_rng(0).normal(size=(3, 8)))
        if bad is not None:
            x[1, 2] = bad
        errors = []
        for call in (
            lambda: calibration_scan(x, family, bits),
            lambda: calibrate_scale(x, family, bits, "per_tensor"),
        ):
            with pytest.raises(ValueError) as info:
                call()
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]


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
            got = _calibrated_rows(x, family, bits, granularity)
            assert got == _grid(x, family, granularity, bits)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "x",
        [[0.7], [0.0, 0.7], [0.7, 0.2], [0.0, 0.0, 0.0], [0.0, 5e-324], [1e-310, 3e-310]],
    )
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_tiny_inputs_match_grid(self, family, x, bits):
        got = _calibrated_rows(np.array(x), family, bits, "per_tensor")
        assert got == _grid(np.array(x), family, "per_tensor", bits)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_scale_underflow_is_degenerate(self, family):
        # half the range is below the smallest subnormal: every candidate
        # scale would be zero
        p = calibrate_scale(np.array([0.0, 5e-324]), family, 4, "per_tensor")
        assert p.degenerate
        assert p.scale == 1.0

    def test_values_exactly_on_rounding_edges(self):
        # at 4 bits 1.0 is a half step of alpha = 1.2 (s = 0.08) and 0.3 of
        # alpha = 0.6 (s = 0.04): those candidates cannot place the value
        # by its sorted position, which must not widen the shortlist
        x = np.array([0.0, 0.3, 1.0])
        got = calibrate_scale(x, "uniform", 4, "per_tensor")
        assert got == oracle.grid_calibrate(x, "uniform", 4)
        shortlist, windowed = calibration_scan(x, "uniform", 4)
        assert shortlist.size == 1
        assert windowed

    def test_zero_mse_ties_go_to_the_larger_scale(self):
        # 0 and 1 lie on the 8-bit lattices of alpha = 1.00 (s = 1/255)
        # and alpha = 1.02 (s = 1/250), both exactly in float64
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        p = calibrate_scale(x, "uniform", 8, "per_tensor")
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
        got = _calibrated_rows(x, family, bits, "per_tensor")
        assert got == _grid(x, family, "per_tensor", bits)
        if not got[0].degenerate:
            assert calibration_scan(x, family, bits)[0].size >= 1

    @pytest.mark.parametrize(
        "values, family, message",
        [
            ([], "uniform", "needs at least one value, got an empty array"),
            ([], "log_sqrt2", "needs at least one value, got an empty array"),
            ([0.7, 0.7, 0.7], "uniform", r"degenerate uniform input \(constant values"),
            ([0.0, 0.0], "log_sqrt2", r"degenerate log_sqrt2 input \(every value zero"),
            ([0.0, 5e-324], "uniform", "degenerate uniform input"),
            ([1.0, np.nan], "uniform", r"non-finite value nan at index \(1,\)"),
            ([np.inf, 1.0], "log_sqrt2", r"non-finite value inf at index \(0,\)"),
            ([0.5, -1.0], "log_sqrt2", "log_sqrt2 calibration requires nonnegative inputs"),
            ([0.5, 1.0], "bogus", "unknown family 'bogus'"),
        ],
    )
    def test_scan_checks_its_input(self, values, family, message):
        # as calibrate_scale checks per-tensor input; empty and degenerate
        # input, which calibration never scans, are named
        for view in (quantizers.calibration_scan, quantizers.scan_bound_use):
            with pytest.raises(ValueError, match=message):
                view(np.array(values), family, 4)

    @pytest.mark.parametrize("bits", [1, 17, 4.0, True])
    def test_scan_checks_the_bit_width(self, bits):
        with pytest.raises(ValueError, match="bits must be an integer in"):
            calibration_scan(np.array([0.0, 1.0]), "uniform", bits)

    def test_overflowing_scan_rescores_every_candidate(self):
        x = np.array([-3e160, 1e160, 2e160])
        assert calibration_scan(x, "uniform", 4)[0].size == ALPHA_GRID.size
        with np.errstate(over="ignore"):
            got = calibrate_scale(x, "uniform", 4, "per_tensor")
            assert got == oracle.grid_calibrate(x, "uniform", 4)

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

    def test_verify_suite_catches_a_slack_too_tight(self, monkeypatch):
        # a slack a million times too small may still shortlist the right
        # candidate; the suite's bound use must see it
        real = quantizers._scan_scores

        def tight(*args):
            sse, slack, windowed = real(*args)
            return sse, slack * 1e-6, windowed

        monkeypatch.setattr(quantizers, "_scan_scores", tight)
        result = verify.suite_calibration(seed=0, instances=16)
        assert not result.passed
        assert result.metrics["max_bound_use"] >= 1.0


def _sequential_last_minimum(mse):
    # oracle.grid_calibrate's loop over one row of candidate MSEs
    best, best_mse = None, None
    for c, value in enumerate(mse):
        if best_mse is None or value <= best_mse:
            best, best_mse = c, value
    return best


def _grid_quiet(row, family, bits):
    # the oracle overflows where the values do; calibration must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        return oracle.grid_calibrate(row, family, bits)


class TestDirectScoring:
    """Rows of at most direct_cutoff(bits) values are scored under every candidate."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.integers(2, 8),
        d=st.integers(1, 12),
        length=st.sampled_from(["one", "two", "below", "at", "above"]),
        exponent=st.sampled_from([-300, -6, 0, 6, 150, 160]),
    )
    def test_direct_rows_match_the_grid_and_their_own_calibration(
        self, seed, bits, d, length, exponent
    ):
        # Gaussian, lattice, half-step (tied at the alpha = 1 candidate),
        # constant and all-zero rows, scaled up to 1e160 where squared
        # errors overflow to inf; rows below, at and just past the cutoff
        cutoff = quantizers.direct_cutoff(bits)
        n = {"one": 1, "two": 2, "below": cutoff - 1, "at": cutoff, "above": cutoff + 1}[length]
        rng = np.random.default_rng(seed)
        x = _mixed_rows(rng, d, max(n, 2), bits)[:, :n] * 10.0**exponent
        got = _calibrated_rows(x, "uniform", bits, "per_channel")
        assert got == tuple(_grid_quiet(row, "uniform", bits) for row in x)
        assert got == tuple(calibrate_scale(row, "uniform", bits, "per_tensor") for row in x)
        for row in np.abs(x):
            got = calibrate_scale(row, "log_sqrt2", bits, "per_tensor")
            assert got == _grid_quiet(row, "log_sqrt2", bits)

    @pytest.mark.parametrize("top", [1e308, 1.7e308])
    @pytest.mark.parametrize("n", [3, 200], ids=["direct", "scanned"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_near_the_float_range_keep_the_grid_choice(self, family, n, top):
        # candidate scales, the scan's edges and levels, and squared errors
        # overflow without a warning; from -top, max - min itself does, so
        # every uniform candidate scale is inf and every MSE NaN, which the
        # oracle's sequential <= resolves to candidate 0
        x = np.full(n, 0.5)
        x[-1] = top
        assert calibrate_scale(x, family, 4, "per_tensor") == _grid_quiet(x, family, 4)
        if family == "uniform":
            x[0] = -top
            got = calibrate_scale(x, family, 4, "per_tensor")
            assert got == _grid_quiet(x, family, 4)
            assert got.scale == math.inf
            assert got == _calibrated_rows(x[None, :], family, 4, "per_channel")[0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([0.0, 1.0, 2.0, 2.5, math.inf, math.nan]),
                min_size=1,
                max_size=7,
            ),
            min_size=1,
            max_size=4,
        ).map(lambda rows: [row + [1.0] * (7 - len(row)) for row in rows])
    )
    def test_last_minimum_is_the_oracle_sequential_choice(self, rows):
        # ties go to the later candidate, inf ties too; a NaN never wins and,
        # first in its row, is never replaced
        mse = np.array(rows)
        want = [_sequential_last_minimum(row) for row in rows]
        assert quantizers._last_minimum(mse).tolist() == want

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_only_rows_past_the_cutoff_are_scanned(self, monkeypatch, bits):
        calls = []
        real = quantizers._shortlists

        def counted(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(quantizers, "_shortlists", counted)
        rng = np.random.default_rng(bits)
        cutoff = quantizers.direct_cutoff(bits)
        calibrate_scale(rng.normal(size=(16, cutoff)), "uniform", bits, "per_channel")
        calibrate_scale(rng.normal(size=cutoff), "uniform", bits, "per_tensor")
        assert calls == []
        calibrate_scale(rng.normal(size=(16, cutoff + 1)), "uniform", bits, "per_channel")
        assert sum(calls) == 16

    @pytest.mark.parametrize("past_cutoff", [0, 8], ids=["direct", "scanned"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_dead_rows_are_never_scored(self, monkeypatch, bits, past_cutoff):
        # constant and all-zero rows are degenerate before any scoring: an
        # all-zero row would tie on every candidate and be re-scored exactly
        n = quantizers.direct_cutoff(bits) + past_cutoff
        seen = []

        def recording(real):
            def recorded(rows, grid):
                # the scan's sorted rows end with +inf
                seen.extend(np.sort(rows[:, :n], axis=1))
                return real(rows, grid)

            return recorded

        for name in ("_shortlists", "_exact_mse"):
            monkeypatch.setattr(quantizers, name, recording(getattr(quantizers, name)))
        rng = np.random.default_rng([37, bits])
        kinds = "GCZZCZGGCZGZCCZZZZG"
        x = np.array(
            [
                rng.normal(size=n) if kind == "G" else np.full(n, rng.normal() * (kind == "C"))
                for kind in kinds
            ]
        )
        params = _calibrated_rows(x, "uniform", bits, "per_channel")
        assert [p.degenerate for p in params] == [kind != "G" for kind in kinds]
        live = {row.tobytes() for row, kind in zip(np.sort(x, axis=1), kinds) if kind == "G"}
        assert {row.tobytes() for row in seen} == live
        seen.clear()
        calibrate_scale(np.full(n, 0.3), "uniform", bits, "per_tensor")
        calibrate_scale(np.zeros(n), "log_sqrt2", bits, "per_tensor")
        assert seen == []

    def test_blocks_without_a_live_row_are_skipped(self, monkeypatch):
        # a 64 x 1024 8-bit weight, scored one row per block, with 56
        # all-zero rows: only the 8 blocks that hold a live row are scored
        calls = Counter()

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in ("_shortlists", "_exact_mse"):
            monkeypatch.setattr(quantizers, name, counting(name, getattr(quantizers, name)))
        assert quantizers._block_height(8, 1024) == 1
        rng = np.random.default_rng(56)
        x = np.zeros((64, 1024))
        x[::8] = rng.normal(size=(8, 1024))
        params = _calibrated_rows(x, "uniform", 8, "per_channel")
        assert sum(calls.values()) == 8
        assert params == _grid(x, "uniform", "per_channel", 8)

    def test_verify_suite_catches_an_evaluator_fault(self, monkeypatch):
        # candidates scored in reversed order: rows scored directly take the
        # wrong candidate, and the suite must see it
        real = quantizers._exact_mse
        monkeypatch.setattr(
            quantizers, "_exact_mse", lambda rows, grid: real(rows, grid)[:, ::-1]
        )
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
    """Per-channel calibration runs blocks of rows; no row sees another."""

    @pytest.mark.parametrize("past_cutoff", [8, 0], ids=["scanned", "direct"])
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_every_row_matches_the_grid_and_its_own_calibration(self, bits, past_cutoff):
        n = quantizers.direct_cutoff(bits) + past_cutoff
        height = quantizers._block_height(bits, n)
        rng = np.random.default_rng([23, bits])
        windowed = 0
        for d in sorted({1, height - 1, height, height + 1, 3 * height + 2} - {0}):
            x = _mixed_rows(rng, d, n, bits)
            got = _calibrated_rows(x, "uniform", bits, "per_channel")
            assert got == _grid(x, "uniform", "per_channel", bits)
            alone = tuple(
                _calibrated_rows(row[None, :], "uniform", bits, "per_channel")[0]
                for row in x
            )
            assert got == alone
            windowed += sum(
                calibration_scan(row, "uniform", bits)[1]
                for row, p in zip(x, got)
                if not p.degenerate
            )
        if past_cutoff:
            # the half-step rows put values in edge windows, which sends
            # some blocks through the upper edge search
            assert windowed > 0

    def test_block_heights(self):
        # scanned rows: as many (141, 2^b) float64 arrays as fit 64 KiB
        assert [
            quantizers._block_height(b, quantizers.direct_cutoff(b) + 1) for b in (2, 3, 4, 8, 16)
        ] == [14, 7, 3, 1, 1]
        # rows scored directly: as many (141, n) float64 arrays as fit 256 KiB
        assert [quantizers._block_height(4, n) for n in (1, 16, 24, 64)] == [232, 14, 9, 3]
        assert [quantizers.direct_cutoff(b) for b in (2, 4, 8)] == [16, 64, 1024]
        # past 8 bits, at the measured direct-versus-scan crossover
        assert [quantizers.direct_cutoff(b) for b in (9, 12, 16)] == [
            32 << 9, 32 << 12, 32 << 16
        ]

    def test_rows_without_values_are_degenerate(self):
        params = _calibrated_rows(np.zeros((5, 0)), "uniform", 4, "per_channel")
        assert len(params) == 5
        assert all(p == UniformParams(1.0, 0, 4, degenerate=True) for p in params)

    @pytest.mark.parametrize(
        "shape, bits, limit_mib",
        [
            # scanned rows
            ((64, 256), 4, 1.25),
            ((1536, 384), 4, 1.25),
            ((64, 2048), 8, 4.0),
            # rows scored directly
            ((64, 24), 4, 1.25),
            ((1536, 64), 4, 1.25),
            ((256, 16), 2, 1.25),
            ((64, 1024), 8, 1.25),
        ],
    )
    def test_peak_memory_does_not_grow_with_rows(self, shape, bits, limit_mib):
        # the scan holds one block of (rows, 141, 2^b) arrays and the direct
        # path one chunk of (rows, k, n) errors, not one per row of the
        # matrix: a whole-matrix sort of 1536 x 384 alone is 4.5 MiB
        w = np.random.default_rng(31).normal(0.0, 0.05, shape)
        tracemalloc.start()
        try:
            calibrate_scale(w, "uniform", bits, "per_channel")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    @pytest.mark.slow
    @pytest.mark.parametrize("past_cutoff", [0, 1], ids=["direct", "scanned"])
    def test_16_bit_peak_memory_stays_linear_in_the_values(self, past_cutoff):
        # at 16 bits one candidate's scan arrays hold 2^16 doubles (512 KiB);
        # scanning all 141 candidates at once peaked at 570 MiB on 2^18 + 1
        # values, and scanning them in chunks stays near the direct path
        n = quantizers.direct_cutoff(16) + past_cutoff
        x = np.random.default_rng(11).normal(size=n)
        tracemalloc.start()
        try:
            got = calibrate_scale(x, "uniform", 16, "per_tensor")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes
        assert got == oracle.grid_calibrate(x, "uniform", 16)

    @pytest.mark.parametrize("bits", [9, 10, 12])
    def test_rows_scanned_in_candidate_chunks_match_the_grid(self, bits):
        # past 8 bits a row scans its candidates in several chunks, the last
        # one short; lattice and half-step rows put values in edge windows
        n = quantizers.direct_cutoff(bits) + 3
        x = _mixed_rows(np.random.default_rng([29, bits]), 4, n, bits)
        got = _calibrated_rows(x, "uniform", bits, "per_channel")
        assert got == _grid(x, "uniform", "per_channel", bits)


class TestScanBound:
    """The scan's SSE stays within its slack of n times the exact MSE."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("bits", [2, 3, 4, 8, 10])
    def test_every_candidate_is_within_its_slack(self, bits, family):
        # the shortlists keep the oracle's choice only while this holds;
        # at 10 bits the scan takes its candidates in chunks, and lattice and
        # half-step rows put values in edge windows
        n = quantizers.direct_cutoff(bits) + (8 if bits <= 8 else 3)
        x = _mixed_rows(np.random.default_rng([41, bits]), 10 if bits <= 8 else 5, n, bits)
        if family == "log_sqrt2":
            x = np.abs(x)
        xs = quantizers._sorted_rows(x)
        live, grid = quantizers._candidate_grid(xs[:, 0], xs[:, n - 1], family, bits)
        x, xs = x[live], xs[live]
        sse, slack, windowed = quantizers._scan_scores(xs, grid)
        exact = n * quantizers._exact_mse(x, grid)
        assert np.isfinite(sse).all() and np.isfinite(slack).all()
        assert (np.abs(sse - exact) <= slack).all()
        if family == "uniform":
            assert windowed.any()


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
            calibrate_scale(np.array([0.5, np.nan, 0.2]), family, 4, "per_tensor")


class TestSchemes:
    def test_per_channel_calibrates_rows_independently(self):
        rng = np.random.default_rng(2)
        w = np.vstack([rng.normal(0, 0.1, 32), rng.normal(0, 5.0, 32)])
        lattice = calibrate_scale(w, "uniform", 4, "per_channel")
        assert lattice.scale.shape == lattice.zero_point.shape == lattice.degenerate.shape
        assert lattice.scale.shape == (2, 1) and type(lattice.bits) is int
        assert lattice.zero_point.dtype == np.float64
        rows = row_params(lattice)
        assert len(rows) == 2
        assert rows[0].scale < rows[1].scale
        row0_alone = calibrate_scale(w[0], "uniform", 4, "per_tensor")
        assert rows[0] == row0_alone

    def test_per_tensor_single_params(self):
        a = np.random.default_rng(3).normal(0, 1, (16, 8))
        params = calibrate_scale(a, "uniform", 4, "per_tensor")
        assert isinstance(params, UniformParams) and np.ndim(params.scale) == 0
        codes, deq = quantize_with_scheme(a, params)
        assert codes.shape == a.shape
        assert deq.shape == a.shape

    def test_values_only_route_matches_quantize(self):
        # codes=False forms no codes and returns the same values, bit for
        # bit: per tensor for both families and per channel, with values far
        # outside the lattice and an all-zero degenerate row
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 1.0, (16, 8))
        a[0, :3] = [1e300, -1e300, 1e18]
        w = np.vstack([rng.normal(0, 1, (4, 8)), np.zeros(8)])
        cases = [
            (a, calibrate_scale(a[1:], "uniform", 4, "per_tensor")),
            (np.abs(a), calibrate_scale(np.abs(a[1:]), "log_sqrt2", 3, "per_tensor")),
            (5.0 * w, calibrate_scale(w, "uniform", 4, "per_channel")),
        ]
        for x, params in cases:
            codes, want = quantize_with_scheme(x, params)
            none, got = quantize_with_scheme(x, params, codes=False)
            assert none is None
            assert got.tobytes() == want.tobytes()
            assert codes.shape == got.shape
        # the broadcast forms: a record of mixed rows at mixed widths, the
        # per-channel record at each width, and each family's candidate grid
        # against a (rows, 1, n) block, whose candidate c of row i quantizes
        # as its scalar params do
        mixed = _mixed_rows(rng, 10, 8, 4)
        widths = [2, 3, 4, 8, 16]
        lattice = _stack(
            [calibrate_scale(row, "uniform", b, "per_tensor") for row, b in zip(mixed, widths * 2)]
        )
        forms = [(5.0 * mixed, lattice)] + [
            (5.0 * mixed, calibrate_scale(mixed, "uniform", b, "per_channel")) for b in widths
        ]
        grids = []
        for family, rows in (("uniform", mixed[:3]), ("log_sqrt2", np.abs(mixed[:3]))):
            live, grid = quantizers._candidate_grid(rows.min(axis=1), rows.max(axis=1), family, 3)
            assert live.all() and grid.scale.shape == (3, ALPHA_GRID.size, 1)
            assert isinstance(grid, LogSqrt2Params) == (family == "log_sqrt2")
            grids.append((rows[:, None, :], grid))
        for x, p in forms + grids:
            codes, want = quantize(x, p)
            none, got = quantize(x, p, codes=False)
            assert none is None
            assert got.tobytes() == want.tobytes()
            assert codes.shape == got.shape
        for x, grid in grids:
            _, values = quantize(x, grid, codes=False)
            for i, c in np.ndindex(values.shape[:2]):
                scale = float(grid.scale[i, c, 0])
                if isinstance(grid, LogSqrt2Params):
                    p = LogSqrt2Params(scale, 3)
                else:
                    p = UniformParams(scale, int(grid.zero_point[i, c, 0]), 3)
                assert values[i, c].tobytes() == quantize(x[i, 0], p)[1].tobytes()

    def test_log_sqrt2_per_channel_rejected(self):
        with pytest.raises(ValueError, match="per_channel calibration is uniform only"):
            calibrate_scale(np.ones((2, 4)), "log_sqrt2", 4, "per_channel")

    def test_per_channel_shape_mismatch_rejected(self):
        w = np.zeros((3, 8))
        lattice = calibrate_scale(w, "uniform", 4, "per_channel")
        for x in (np.zeros((4, 8)), np.zeros(8), np.zeros((3, 8, 1))):
            with pytest.raises(ValueError, match="channels"):
                quantize_with_scheme(x, lattice)

    def test_per_channel_quantization_matches_row_by_row(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0, 1, (5, 16))
        lattice = calibrate_scale(w, "uniform", 4, "per_channel")
        rows = row_params(lattice)
        # then rows at 2 and 8 bits, a row five times past its lattice (clipped
        # at both ends) and an all-zero row on degenerate params
        mixed_w = np.vstack([w, w[0], w[1], 5.0 * w[2], np.zeros(16)])
        mixed_rows = rows + [
            calibrate_scale(w[0], "uniform", 2, "per_tensor"),
            calibrate_scale(w[1], "uniform", 8, "per_tensor"),
            rows[2],
            calibrate_scale(np.zeros(16), "uniform", 4, "per_tensor"),
        ]
        for x, s, params in ((w, lattice, rows), (mixed_w, _stack(mixed_rows), mixed_rows)):
            codes, deq = quantize_with_scheme(x, s)
            for i, p in enumerate(params):
                c, d = quantize_uniform(x[i], p)
                np.testing.assert_array_equal(codes[i], c)
                np.testing.assert_array_equal(deq[i].view(np.int64), d.view(np.int64))
        assert {0, 15} <= set(codes[7].tolist())
        assert mixed_rows[8].degenerate and (codes[8] == 0).all()

    def test_row_params_unstacks_each_family(self):
        # a per-tensor record is one row of (1, 1) columns; row_params gives
        # what per-tensor calibration returns, field types included
        x = np.abs(np.random.default_rng(4).normal(size=(3, 40)))
        for family in FAMILIES:
            record = quantizers._calibrate_rows(x[:1], family, 4)
            (got,) = row_params(record)
            want = calibrate_scale(x[0], family, 4, "per_tensor")
            assert got == want and type(got) is type(want)
            assert type(got.scale) is float and type(got.degenerate) is bool
        got = row_params(calibrate_scale(x, "uniform", 4, "per_channel"))
        assert all(type(p.zero_point) is int for p in got)
