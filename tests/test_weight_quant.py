"""Progressive weight quantization: proxy, flips, splits, ridge remainder."""

import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred import act_correct, moments, pipeline, weight_quant
from quantred.linalg import SingularSystemError, solve_spd, spd_factor
from quantred.moments import InsufficientSamplesError, accumulate_moments
from quantred.oracle import brute_force_rounding, single_flip_proxies
from quantred.quantizers import (
    NonFiniteInputError,
    UniformParams,
    calibrate_scale,
    dequantize_uniform,
    quantize_uniform,
)
from quantred.verify import (
    suite_gradient_checks,
    suite_proxy_fidelity,
    suite_ridge_optimality,
)
from quantred.weight_quant import (
    LayerMomentCache,
    RemainderRidge,
    RoundingState,
    halving_splits,
    init_rounding,
    proxy_gradient,
    proxy_value,
    quantize_layer_weights,
    refine_rounding,
)


def _stack(params):
    """Scalar uniform params as a record of (d, 1) columns.

    Calibration's records hold one bit width; rows at mixed widths take a
    (d, 1) bits column, which the lattice arithmetic broadcasts like the
    other fields.
    """
    bits = np.array([p.bits for p in params], dtype=np.int64)[:, None]
    return UniformParams(
        scale=np.array([p.scale for p in params], dtype=np.float64)[:, None],
        zero_point=np.array([p.zero_point for p in params], dtype=np.float64)[:, None],
        bits=int(bits[0, 0]) if bits.size and (bits == bits[0, 0]).all() else bits,
    )


def _ridge(cache, lambda2):
    """The remainder ridge of a cache at lambda2; None is no ridge."""
    return None if lambda2 is None else RemainderRidge(cache, lambda2)


def _update(ridge, lo, mid, delta_s):
    """The ridge-optimal remainder update dW_r* of split (lo, mid) for one committed error."""
    return ridge.updates(lo, mid, delta_s[None])[0]


def _row_solve(ridge, lo, mid, delta_s):
    # reference: the remainder solve of one row, -dW_r*, from its own
    # matrix-vector products: E[x_r x_s^T] delta_s, or X_s delta_s / N and
    # the mapping X_r^T z in sample space
    to_rhs, factor, from_samples = ridge._remainder[(lo, mid)]
    if from_samples is None:
        return solve_spd(factor, to_rhs @ delta_s)
    return from_samples @ solve_spd(factor, to_rhs @ delta_s / ridge.cache.n_samples)


def _scaled_updates(monkeypatch, scale_of):
    # patches RemainderRidge.updates to scale each split's updates by
    # scale_of(ridge, mid), honouring `out` as the loop passes it
    real = RemainderRidge.updates

    def faulty(self, lo, mid, deltas, out=None):
        update = scale_of(self, mid) * real(self, lo, mid, deltas)
        if out is None:
            return update
        out[...] = update
        return out

    monkeypatch.setattr(RemainderRidge, "updates", faulty)


def _psd(rng, dim):
    a = rng.normal(0, 1, (dim, dim))
    return a @ a.T / dim + 0.05 * np.eye(dim)


def _reference_select(delta, grad, k, flippable):
    # reference selection: eligible indices, stable sort by -|g|, then sort
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    idx = np.flatnonzero((grad * delta >= 0.0) & flippable)
    if idx.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-np.abs(grad[idx]), kind="stable")
    return np.sort(idx[order[:k]])


def _reference_refine(state, k, max_iter):
    # reference refinement loop: rebuilds the candidate arrays from the
    # current sides every iteration and applies the sign check and the
    # flippable mask explicitly; returns (delta, up_mask, committed,
    # stop_reason, flips_committed)
    matrix = state.proxy_matrix
    diag = np.diagonal(matrix)
    delta = state.delta.copy()
    up_mask = state.up_mask.copy()
    grad = proxy_gradient(delta, matrix)
    committed = [proxy_value(delta, matrix)]
    stop_reason = "max_iter"
    flips_committed = 0
    for _ in range(max_iter):
        other = np.where(up_mask, state.delta_down, state.delta_up)
        step = other - delta
        downhill = step * grad + step * step * diag < 0.0
        flips = _reference_select(delta, grad, k, state.flippable & downhill)
        if flips.size == 0:
            stop_reason = "no_eligible"
            break
        t = step[flips]
        m_cols = matrix[:, flips]
        change = float(t @ grad[flips] + t @ (m_cols[flips] @ t))
        if change > 0.0:
            stop_reason = "uphill"
            break
        delta[flips] = other[flips]
        up_mask[flips] = ~up_mask[flips]
        grad += 2.0 * (m_cols @ t)
        committed.append(committed[-1] + change)
        flips_committed += flips.size
    return delta, up_mask, committed, stop_reason, flips_committed


def _proxy_matrix(rng, dim):
    # mean-dominated like a layer's proxy (many flips); exactly symmetric
    mu = 1.0 + 0.3 * rng.normal(0, 1, dim)
    m = np.outer(mu, mu) + _psd(rng, dim)
    return 0.5 * (m + m.T)


def _reference_instances():
    """Seeded refinement instances: slices of 1-64 columns, k in 1-3.

    Weights cover the whole lattice and beyond it (clip-saturated, not
    flippable) and include values one ulp off a lattice point. The last
    instance is an exact tie: equal weights under a permutation-symmetric
    matrix give every coordinate the same |gradient|.
    """
    rng = np.random.default_rng(2024)
    for dim in range(1, 65):
        for k in (1, 2, 3):
            scale = float(rng.uniform(0.05, 0.3))
            params = UniformParams(scale=scale, zero_point=7, bits=4)
            w = scale * (rng.uniform(-3.0, 18.0, dim) - 7)
            on_lattice = rng.random(dim) < 0.15
            levels = scale * (rng.integers(0, 16, dim) - 7).astype(np.float64)
            nudged = np.nextafter(levels, np.where(rng.random(dim) < 0.5, -1.0, 1.0))
            w = np.where(on_lattice, nudged, w)
            yield k, init_rounding(w, params, _proxy_matrix(rng, dim))
    params = UniformParams(scale=1.0, zero_point=0, bits=4)
    matrix = 0.9 * np.ones((6, 6)) + 0.1 * np.eye(6)
    for k in (1, 2, 3):
        yield k, init_rounding(np.full(6, 0.6), params, matrix)


def _edge_states():
    """States at the edges of the eligibility test, and production-shaped blocks.

    - t_j g_j exactly equal to -t_j^2 M_jj (change exactly 0, so not
      eligible) at the largest |g_j|, beside a smaller eligible flip;
    - g_j = 0 at a flippable coordinate, by exact cancellation, beside an
      eligible flip (g_j = -0 is not built: the gradient matvec returned +0
      in every probe);
    - a zero diagonal entry: a Gram block of a batch with an all-zero input
      column, whose flippable coordinate has g_j = 0 and no curvature;
    - a 1024-column block of a thin batch (N = 128), the `moments.gram` of
      its slice, and a 64-column block that is a view of a Gram, both as
      `LayerMomentCache` hands them to the weight loop.
    """
    unit = UniformParams(scale=1.0, zero_point=8, bits=4)
    tie = np.array(
        [[2.25, 0.25, 0.5, 0.25], [0.25, 0.5, -0.5, 0.0],
         [0.5, -0.5, 2.25, -0.25], [0.25, 0.0, -0.25, 1.0]]
    )
    yield init_rounding(np.array([-0.375, -4.625, -2.375, -2.375]), unit, tie)
    cancel = np.array([[0.25, -0.5, 0.0], [-0.5, 1.5, -0.5], [0.0, -0.5, 0.5]])
    yield init_rounding(np.array([-0.625, 0.625, -1.375]), unit, cancel)
    rng = np.random.default_rng(2025)
    params = UniformParams(scale=0.1, zero_point=7, bits=4)
    batch = rng.normal(1.0, 1.0, (64, 12))
    batch[:, 5] = 0.0
    w = 0.1 * (rng.integers(1, 14, 6) + rng.uniform(0.3, 0.45, 6) - 7)
    yield init_rounding(w, params, LayerMomentCache(batch).block(slice(0, 6)))
    thin = LayerMomentCache(rng.normal(0.5, 1.0, (128, 2048)))
    w = 0.1 * (rng.integers(1, 14, 1024) + rng.uniform(0.2, 0.8, 1024) - 7)
    yield init_rounding(w, params, thin.block(slice(0, 1024)))
    tall = LayerMomentCache(rng.normal(0.5, 1.0, (512, 256)))
    w = 0.1 * (rng.integers(1, 14, 64) + rng.uniform(0.2, 0.8, 64) - 7)
    yield init_rounding(w, params, tall.block(slice(128, 192)))


class TestProxy:
    def test_identity_matrix_gives_squared_norm(self):
        delta = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
        assert proxy_value(delta, np.eye(6)) == pytest.approx(
            float(delta @ delta), abs=1e-14
        )

    def test_mean_plus_covariance_decomposition(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(0, 1, 5)
        sigma = _psd(rng, 5)
        delta = rng.normal(0, 0.2, 5)
        expected = float(np.dot(mu, delta) ** 2 + delta @ sigma @ delta)
        assert proxy_value(delta, np.outer(mu, mu) + sigma) == pytest.approx(
            expected, rel=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for dim in (2, 5, 9):
            m = _psd(rng, dim)
            delta = rng.normal(0, 0.5, dim)
            grad = proxy_gradient(delta, m)
            eps = 1e-6
            for j in range(dim):
                bump = np.zeros(dim)
                bump[j] = eps
                fd = (proxy_value(delta + bump, m) - proxy_value(delta - bump, m)) / (
                    2 * eps
                )
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(1, 10), seed=st.integers(0, 10_000))
    def test_psd_proxy_nonnegative(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = _psd(rng, dim)
        assert proxy_value(rng.normal(0, 1, dim), m) >= 0.0


class TestRefinement:
    def test_one_dimensional_slice_keeps_nearest(self):
        params = UniformParams(scale=1.0, zero_point=0, bits=4)
        state = init_rounding(np.array([0.6]), params, np.array([[2.0]]))
        refined, committed = refine_rounding(state, 1, 100)
        np.testing.assert_array_equal(refined.delta, state.delta)
        assert committed == [pytest.approx(0.32)]  # 2 * 0.4^2

    def test_two_dimensional_correlated_flip(self):
        # equal weights 0.6 on a unit lattice: nearest rounds both up
        # (delta 0.4 each); strong positive correlation makes flipping one
        # coordinate down cheaper than keeping both on the same side.
        params = UniformParams(scale=1.0, zero_point=0, bits=4)
        matrix = np.array([[1.0, 0.9], [0.9, 1.0]])
        state = init_rounding(np.array([0.6, 0.6]), params, matrix)
        np.testing.assert_allclose(state.delta, [0.4, 0.4])
        np.testing.assert_allclose(state.delta_down, [-0.6, -0.6])
        refined, committed = refine_rounding(state, 1, 100)
        np.testing.assert_allclose(refined.delta, [-0.6, 0.4], atol=1e-14)
        assert committed == [pytest.approx(0.608), pytest.approx(0.088)]
        np.testing.assert_array_equal(refined.codes, [0, 1])

    def test_codes_are_the_chosen_candidates(self):
        # a block with clipped entries (both candidates one code) and every
        # side choice: the codes are the floor or ceil code that up_mask
        # picks, as int64, for the block and for each of its row views
        rng = np.random.default_rng(12)
        lattice = _stack([UniformParams(0.25, 3, 3), UniformParams(0.1, 0, 2)])
        w = rng.normal(0.0, 0.6, (2, 40))
        state = init_rounding(w, lattice, np.eye(40))
        assert not state.flippable.all()
        for up_mask in (state.up_mask, ~state.up_mask, rng.random((2, 40)) < 0.5):
            chosen = state._replace(up_mask=up_mask)
            want = np.where(up_mask, state.code_down + state.flippable, state.code_down)
            assert chosen.codes.dtype == np.int64
            np.testing.assert_array_equal(chosen.codes, want)
            for row, row_want in zip(chosen.rows(), want):
                np.testing.assert_array_equal(row.codes, row_want)

    def test_uphill_top_gradient_flip_is_skipped(self):
        # nearest rounds both up (delta 0.4 each, proxy 0.8). Coordinate 0 has
        # the larger |gradient| (2.8 vs 1.2), but its self-term makes its flip
        # uphill (+0.2); flipping coordinate 1 instead lowers the proxy to 0.6,
        # the exhaustive optimum, after which no single flip helps.
        params = UniformParams(scale=1.0, zero_point=0, bits=4)
        matrix = np.array([[3.0, 0.5], [0.5, 1.0]])
        state = init_rounding(np.array([0.6, 0.6]), params, matrix)
        refined, committed = refine_rounding(state, 1, 100)
        assert committed == [pytest.approx(0.8), pytest.approx(0.6)]
        np.testing.assert_array_equal(refined.codes, [1, 0])
        assert committed[-1] == pytest.approx(
            brute_force_rounding(state.delta_down, state.delta_up, matrix).best_proxy
        )

    @staticmethod
    def _many_flip_instance(rng, dim=40):
        # nearest rounds every weight down by 0.3-0.45 steps against a shared
        # mean, so refinement commits many flips before it stops
        scale = 0.1
        params = UniformParams(scale=scale, zero_point=7, bits=4)
        w = scale * (rng.integers(1, 14, dim) + rng.uniform(0.3, 0.45, dim) - 7)
        mu = 1.0 + 0.1 * rng.normal(0, 1, dim)
        return w, params, init_rounding(w, params, np.outer(mu, mu) + _psd(rng, dim))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_committed_values_match_direct_proxy(self, k):
        # the loop updates gradient and proxy incrementally; every committed
        # value must still be the proxy of the rounding it belongs to
        _, _, state = self._many_flip_instance(np.random.default_rng(10 + k))
        _, committed = refine_rounding(state, k, 100)
        assert len(committed) > 5
        for steps in range(len(committed)):
            partial, prefix = refine_rounding(state, k, steps)
            assert prefix == committed[: steps + 1]
            direct = proxy_value(partial.delta, state.proxy_matrix)
            assert abs(prefix[-1] - direct) <= 1e-12 * direct

    def test_max_iter_can_stop_short_of_a_single_flip_optimum(self):
        # k = 1 ends at a single-flip optimum only when it stops before the
        # cap: capped at m iterations it returns at most m + 1 values and
        # may leave a flip that lowers the proxy; m = 0 keeps nearest rounding
        w, params, state = self._many_flip_instance(np.random.default_rng(11))
        for m in range(5):
            capped, committed = refine_rounding(state, 1, m)
            assert len(committed) <= m + 1
            flipped = single_flip_proxies(
                capped.delta,
                state.delta_down,
                state.delta_up,
                state.flippable,
                state.proxy_matrix,
            )
            assert flipped.min() < committed[-1]
        unchanged, _ = refine_rounding(state, 1, 0)
        np.testing.assert_array_equal(unchanged.codes, quantize_uniform(w, params)[0])

    def test_matches_reference_loop_bit_for_bit(self):
        # the incremental loop must choose and commit exactly what the loop
        # that rebuilds its arrays every iteration does; the wide
        # mean-dominated slices commit up to hundreds of flips, so they also
        # stop at the iteration cap, as wide layer slices do; an empty slice
        # stops with nothing eligible, or at a zero cap; k = 0 picks nothing,
        # and a k above the slice width may pick every eligible coordinate
        grid = list(_reference_instances())
        instances = [(k, 100, state) for k, state in grid]
        for dim in (256, 1024):
            _, _, state = self._many_flip_instance(np.random.default_rng(dim), dim)
            instances += [(k, m, state) for k in (0, 1, 2, 3, 4) for m in (0, 1, 5, 100)]
        instances += [(state.delta.size + 2, 100, state) for _, state in grid[::7]]
        params = UniformParams(scale=1.0, zero_point=0, bits=4)
        empty = init_rounding(np.zeros(0), params, np.zeros((0, 0)))
        instances += [(1, 100, empty), (2, 100, empty)]
        instances += [(k, 0, empty) for k in (0, 1, 4)]
        instances += [(k, 100, state) for state in _edge_states() for k in (1, 2, 3)]
        stops = Counter()
        for k, max_iter, state in instances:
            refined, committed = refine_rounding(state, k, max_iter)
            delta, up_mask, ref_committed, stop_reason, flips = _reference_refine(
                state, k, max_iter
            )
            np.testing.assert_array_equal(refined.delta.view(np.int64), delta.view(np.int64))
            np.testing.assert_array_equal(refined.up_mask, up_mask)
            assert committed == ref_committed
            assert (refined.stop_reason, refined.flips_committed) == (stop_reason, flips)
            stops[k, stop_reason] += 1
        assert len(instances) == 64 * 3 + 3 + 2 * 5 * 4 + 28 + 2 + 3 + 5 * 3
        # at k = 1: six stops at caps of 0-5, the 1024-column slice at 100
        # and the empty slice at cap 0; every edge state runs out of flips
        assert stops[1, "max_iter"] == 8 and stops[1, "no_eligible"] == 72
        assert stops[2, "uphill"] > 0
        # k = 0 stops at once: at the cap when it is 0, else with nothing chosen
        assert stops[0, "max_iter"] == 3 and stops[0, "no_eligible"] == 6
        assert stops[4, "max_iter"] > 0

    def test_reference_grid_exercises_saturation_and_ties(self):
        instances = list(_reference_instances())
        assert any(not s.flippable.all() for _, s in instances)
        *_, (_, tie) = instances
        refined, committed = refine_rounding(tie, 3, 100)
        # all six start up with one shared |gradient|; the lowest indices flip
        np.testing.assert_array_equal(refined.up_mask, [False] * 3 + [True] * 3)
        assert len(committed) == 2

    def test_edge_states_hit_their_edges(self):
        # each edge state has, at its start, the case it is named for
        changes, zero_grads, zero_diags, widths, views = [], [], [], [], []
        for state in _edge_states():
            matrix = state.proxy_matrix
            grad = proxy_gradient(state.delta, matrix)
            step = np.where(state.up_mask, state.delta_down, state.delta_up) - state.delta
            change = step * grad + step * step * np.diagonal(matrix)
            top = int(np.argmax(np.abs(grad)))
            changes.append(change[top] == 0.0 and (change < 0.0).any())
            zero_grads.append(((grad == 0.0) & state.flippable).any())
            zero_diags.append((np.diagonal(matrix) == 0.0).any())
            widths.append(state.up_mask.size)
            views.append(matrix.base is not None)
        assert changes[0] and not changes[1]
        assert zero_grads[1] and zero_grads[2]
        assert zero_diags == [False, False, True, False, False]
        assert widths[3:] == [1024, 64] and views[3:] == [False, True]

    def test_proxy_before_is_the_proxy_of_nearest_rounding(self):
        for k, state in _reference_instances():
            _, committed = refine_rounding(state, k, 100)
            assert committed[0] == proxy_value(state.delta, state.proxy_matrix)

    def test_max_iter_cap_is_reported(self):
        _, _, state = self._many_flip_instance(np.random.default_rng(11))
        capped, committed = refine_rounding(state, 1, 2)
        assert capped.stop_reason == "max_iter"
        assert capped.flips_committed == len(committed) - 1 == 2

    def test_natural_stop_at_k1_reports_no_eligible(self):
        _, _, state = self._many_flip_instance(np.random.default_rng(11))
        refined, committed = refine_rounding(state, 1, 1000)
        assert refined.stop_reason == "no_eligible"
        assert refined.flips_committed == len(committed) - 1 > 5
        # flips_committed counts flipped coordinates, not steps
        refined, committed = refine_rounding(state, 3, 1000)
        assert refined.flips_committed > len(committed) - 1

    def test_joint_uphill_step_is_reported(self):
        # nearest rounds both up (proxy 0.624); either flip alone lowers the
        # proxy to 0.064, but k = 2 tries both together, which raises it to 1.404
        params = UniformParams(scale=1.0, zero_point=0, bits=4)
        matrix = np.array([[1.0, 0.95], [0.95, 1.0]])
        state = init_rounding(np.array([0.6, 0.6]), params, matrix)
        refined, committed = refine_rounding(state, 2, 100)
        assert refined.stop_reason == "uphill"
        assert refined.flips_committed == 0 and len(committed) == 1
        assert refine_rounding(state, 1, 100)[0].stop_reason == "no_eligible"

    def test_non_integral_k_rejected(self):
        # a float budget would otherwise round up to the next whole pick count
        params = UniformParams(scale=1.0, zero_point=0, bits=4)
        state = init_rounding(np.array([0.6, 0.6]), params, np.eye(2))
        with pytest.raises(TypeError):
            refine_rounding(state, 1.5, 100)

    def test_unrefined_state_reports_off(self):
        params = UniformParams(scale=1.0, zero_point=0, bits=4)
        state = init_rounding(np.array([0.6, 0.2]), params, np.eye(2))
        assert (state.stop_reason, state.flips_committed) == ("off", 0)

    def test_zero_iterations_returns_start(self):
        rng = np.random.default_rng(2)
        params = UniformParams(scale=0.2, zero_point=4, bits=4)
        state = init_rounding(rng.normal(0, 0.5, 6), params, _psd(rng, 6))
        refined, committed = refine_rounding(state, 1, 0)
        np.testing.assert_array_equal(refined.delta, state.delta)
        assert len(committed) == 1

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 12), k=st.integers(1, 4), seed=st.integers(0, 10_000))
    def test_committed_sequence_never_increases(self, dim, k, seed):
        rng = np.random.default_rng(seed)
        scale = float(rng.uniform(0.05, 0.3))
        params = UniformParams(scale=scale, zero_point=7, bits=4)
        w = scale * (rng.uniform(-0.5, 15.5, dim) - 7)
        state = init_rounding(w, params, _psd(rng, dim))
        _, committed = refine_rounding(state, k, 100)
        assert all(b <= a + 1e-15 for a, b in zip(committed, committed[1:]))
        assert committed[-1] <= committed[0] + 1e-15

    def test_candidates_bracket_weight_within_one_step(self):
        rng = np.random.default_rng(3)
        params = UniformParams(scale=0.1, zero_point=8, bits=4)
        w = 0.1 * (rng.uniform(0.5, 14.5, 10) - 8)  # interior of the lattice
        state = init_rounding(w, params, np.eye(10))
        assert (state.delta_down <= 1e-15).all()
        assert (state.delta_up >= -1e-15).all()
        np.testing.assert_allclose(
            state.delta_up - state.delta_down, np.full(10, 0.1), atol=1e-12
        )
        assert state.flippable.all()

    def test_clipped_coordinates_not_flippable(self):
        params = UniformParams(scale=0.1, zero_point=0, bits=2)
        state = init_rounding(np.array([5.0, -3.0, 0.15]), params, np.eye(3))
        # 5.0 and -3.0 clip to a single code; 0.15 sits between codes 1 and 2
        np.testing.assert_array_equal(state.flippable, [False, False, True])


class TestSplits:
    def test_halving_splits_dim16(self):
        assert halving_splits(16) == [(0, 8), (8, 12), (12, 14), (14, 15), (15, 16)]

    def test_halving_splits_small_dims(self):
        assert halving_splits(1) == [(0, 1)]
        assert halving_splits(2) == [(0, 1), (1, 2)]
        assert halving_splits(3) == [(0, 2), (2, 3)]

    def test_invalid_dim(self):
        with pytest.raises(ValueError, match=">= 1"):
            halving_splits(0)

    @settings(max_examples=50, deadline=None)
    @given(dim=st.integers(1, 512))
    def test_splits_tile_every_column_once(self, dim):
        splits = halving_splits(dim)
        covered = []
        for lo, mid in splits:
            assert lo < mid <= dim
            covered.extend(range(lo, mid))
        assert covered == list(range(dim))
        # each step takes ceil(remaining / 2)
        for lo, mid in splits:
            assert mid - lo == (dim - lo + 1) // 2


class TestRemainderCorrection:
    def test_scalar_hand_case(self):
        # raw2 = [[1, .8], [.8, 1]], lambda2 = 1: dr = -0.8 * 0.5 / (1 + 1)
        batch = np.array([[1.0, 1.4], [1.0, 0.2], [-1.0, -1.4], [-1.0, -0.2]])
        cache = LayerMomentCache(batch)
        np.testing.assert_allclose(cache.moments, [[1.0, 0.8], [0.8, 1.0]], atol=1e-15)
        np.testing.assert_allclose(
            _update(RemainderRidge(cache, 1.0), 0, 1, np.array([0.5])),
            [-0.2],
            atol=1e-14,
        )

    def test_zero_committed_error_gives_zero_update(self):
        rng = np.random.default_rng(4)
        ridge = RemainderRidge(LayerMomentCache(rng.normal(0.2, 1.0, (64, 5))), 0.5)
        for lo, mid in ridge.cache.splits[:-1]:
            np.testing.assert_array_equal(
                _update(ridge, lo, mid, np.zeros(mid - lo)), np.zeros(ridge.cache.dim - mid)
            )

    def test_minimizes_joint_error_objective(self):
        # objective: [ds, dr] raw2 [ds, dr]^T + lambda2 ||dr||^2, dr free,
        # with raw2 restricted to the split's columns lo:
        rng = np.random.default_rng(6)
        lam = 0.5
        cache = LayerMomentCache(rng.normal(0.3, 1.0, (200, 7)))
        ridge = RemainderRidge(cache, lam)
        for lo, mid in cache.splits[:-1]:
            raw2 = cache.moments[lo:, lo:]
            width = cache.dim - mid
            delta_s = rng.normal(0, 0.1, mid - lo)
            dr = _update(ridge, lo, mid, delta_s)

            def objective(dr_val):
                full = np.concatenate([delta_s, dr_val])
                return float(full @ raw2 @ full + lam * dr_val @ dr_val)

            base = objective(dr)
            eps = 1e-6
            for j in range(width):
                bump = np.zeros(width)
                bump[j] = eps
                fd = (objective(dr + bump) - objective(dr - bump)) / (2 * eps)
                assert abs(fd) < 1e-6 * (1 + base)
            for _ in range(50):
                assert objective(dr + rng.normal(0, 0.01, width)) >= base - 1e-12


def _trace_mses(cache, errs):
    # reference only: E[(e x)^2] = e E[x x^T] e^T for each row e of errs, from
    # one full product, with the batch itself when the cache holds no Gram
    if cache.moments is not None:
        return np.einsum("ij,ij->i", errs @ cache.moments, errs)
    outputs = errs @ cache.batch.T
    return np.einsum("ij,ij->i", outputs, outputs) / cache.n_samples


def _rel_close(got, want, tol=1e-12):
    return abs(got - want) <= tol * abs(want)


def _reference_channel(w_row, params, cache, ridge, cfg):
    # reference channel loop: the trace MSE of each split from its own
    # matrix-vector product with E[x x^T]
    raw2 = cache.moments
    current = w_row.copy()
    codes = np.zeros(w_row.size, dtype=np.int64)
    err = np.zeros(w_row.size)
    rows = []
    for lo, mid in cache.splits:
        state = init_rounding(current[lo:mid], params, cache.block(slice(lo, mid)))
        proxy_before = proxy_after = proxy_value(state.delta, state.proxy_matrix)
        if cfg["k"] > 0:
            state, committed = refine_rounding(state, cfg["k"], cfg["max_iter"])
            proxy_after = committed[-1]
        codes[lo:mid] = state.codes
        err[lo:mid] = dequantize_uniform(codes[lo:mid], params) - w_row[lo:mid]
        if ridge is not None and mid < w_row.size:
            current[mid:] -= _row_solve(ridge, lo, mid, state.delta)
        err[mid:] = current[mid:] - w_row[mid:]
        rows.append((proxy_before, proxy_after, float(err @ (raw2 @ err))))
    return codes, rows


def _slice_start(step, gradient, curvature, delta):
    # reference: refinement's first scoring pass and start proxy over one
    # slice, as refinement formed them per call: t g, plus t^2 M_jj, that
    # sum's sign copied onto g, and delta g / 2 from one dot product
    score = np.copysign(gradient, step * gradient + curvature)
    return score, 0.5 * float(delta.dot(gradient))


def _inline_codes(w_slice, params, rounding):
    # reference: rounding(w / s) + z clipped to the lattice, as int64, in
    # inline arithmetic that shares no helper with init_rounding
    qmax = (1 << params.bits) - 1
    t = rounding(w_slice / params.scale) + params.zero_point
    return np.clip(t, 0, qmax).astype(np.int64)


def _inline_values(codes, params):
    # reference: s (q - z)
    return params.scale * (codes - params.zero_point).astype(np.float64)


def _per_row_init_rounding(w_slice, params, proxy_matrix):
    # per-row candidates from their definitions: floor and ceil codes and
    # their errors, in inline arithmetic (_inline_codes), and refinement's
    # start from its definitions: the chosen candidate, the other minus
    # the chosen, step^2 M_jj, the slice's gradient 2 M delta, the first
    # scoring pass and delta g / 2; only the stored fields, so the derived
    # ones are read off these
    code_down = _inline_codes(w_slice, params, np.floor)
    code_up = _inline_codes(w_slice, params, np.ceil)
    delta_down = _inline_values(code_down, params) - w_slice
    delta_up = _inline_values(code_up, params) - w_slice
    up_mask = _inline_codes(w_slice, params, np.rint) == code_up
    delta = np.where(up_mask, delta_up, delta_down)
    step = np.where(up_mask, delta_down, delta_up) - delta
    curvature = step * step * proxy_matrix.diagonal()
    gradient = proxy_gradient(delta, proxy_matrix)
    score, proxy = _slice_start(step, gradient, curvature, delta)
    return RoundingState(
        delta_down=delta_down,
        delta_up=delta_up,
        up_mask=up_mask,
        code_down=code_down,
        flippable=code_down != code_up,
        step=step,
        curvature=curvature,
        gradient=gradient,
        score=score,
        proxy=proxy,
        proxy_matrix=proxy_matrix,
    )


def _per_row_reference(w, channel_params, cache, ridge, cfg):
    # reference only: the channel-outer loop (one channel through all its
    # splits, then the next), trace MSEs from one product of each channel's
    # (splits, D) error block
    codes_out, w_bar_out, trace = [], [], []
    for w_row, params in zip(w, channel_params):
        current = w_row.copy()
        codes = np.zeros(w_row.size, dtype=np.int64)
        w_bar = np.zeros(w_row.size)
        err = np.zeros(w_row.size)
        errs = np.empty((len(cache.splits), w_row.size))
        rows = []
        for iteration, (lo, mid) in enumerate(cache.splits):
            matrix = cache.block(slice(lo, mid))
            state = _per_row_init_rounding(current[lo:mid], params, matrix)
            if cfg["k"] > 0:
                state, committed = refine_rounding(state, cfg["k"], cfg["max_iter"])
                before, after = committed[0], committed[-1]
            else:
                before = after = proxy_value(state.delta, state.proxy_matrix)
            codes[lo:mid] = state.codes
            w_bar[lo:mid] = dequantize_uniform(codes[lo:mid], params)
            err[lo:mid] = w_bar[lo:mid] - w_row[lo:mid]
            if ridge is not None and mid < w_row.size:
                current[mid:] -= _row_solve(ridge, lo, mid, state.delta)
            err[mid:] = current[mid:] - w_row[mid:]
            errs[iteration] = err
            rows.append(
                dict(
                    iteration=iteration,
                    slice_size=mid - lo,
                    proxy_before=before,
                    proxy_after=after,
                    mse=None,
                    stop_reason=state.stop_reason,
                    flips_committed=state.flips_committed,
                )
            )
        for row, mse in zip(rows, _trace_mses(cache, errs)):
            row["mse"] = float(mse)
        codes_out.append(codes)
        w_bar_out.append(w_bar)
        trace.append(rows)
    return np.array(codes_out), np.array(w_bar_out), trace


def _per_row_loop(w, channel_params, cache, ridge, k, max_iter):
    # reference: the split-outer weight loop with every start and every
    # remainder solve formed per (row, split): each row's first scoring pass
    # and delta g / 2 from its own slice of the block (_slice_start), and
    # its remainder update from its own matrix-vector products (_row_solve);
    # the trace MSEs from the running product, as the loop forms them
    d_out, dim = w.shape
    current = w.copy()
    codes = np.zeros((d_out, dim), dtype=np.int64)
    outputs = 0.0
    trace = [[] for _ in range(d_out)]
    lattice = _stack(channel_params)
    for iteration, (lo, mid) in enumerate(cache.splits):
        block = init_rounding(current[:, lo:mid], lattice, cache.block(slice(lo, mid)))
        end = dim if ridge is not None else mid
        change = np.empty((d_out, end - lo))
        for i, (row, params) in enumerate(zip(block.rows(), channel_params, strict=True)):
            score, proxy = _slice_start(row.step, row.gradient, row.curvature, row.delta)
            state = row._replace(score=score, proxy=proxy)
            committed = [proxy]
            if k > 0:
                state, committed = refine_rounding(state, k, max_iter)
            codes[i, lo:mid] = state.codes
            quantized = dequantize_uniform(codes[i, lo:mid], params)
            change[i, : mid - lo] = quantized - current[i, lo:mid]
            current[i, lo:mid] = quantized
            if end > mid:
                change[i, mid - lo :] = -_row_solve(ridge, lo, mid, state.delta)
            trace[i].append(dict(
                iteration=iteration, slice_size=mid - lo, proxy_before=committed[0],
                proxy_after=committed[-1], mse=None, stop_reason=state.stop_reason,
                flips_committed=state.flips_committed,
            ))
        current[:, mid:end] += change[:, mid - lo :]
        outputs += cache.output_change(change, lo, end)
        for rows, mse in zip(trace, cache.row_mses(outputs, current, w).tolist()):
            rows[-1]["mse"] = mse
    return codes, current, trace


# the stored elementwise arrays of a state
_STATE_ARRAYS = (
    "delta_down", "delta_up", "up_mask", "code_down", "flippable", "step", "curvature"
)
# the block arrays refinement reads: the elementwise start, the gradient and
# the first scoring pass
_START_ARRAYS = (*_STATE_ARRAYS, "gradient", "score")
# the arrays a state derives from its stored ones on read
_DERIVED_ARRAYS = ("delta", "codes")


def _assert_row_refines_as_slice(row, one):
    # a row view of a block state against its slice's own 1-D state: the
    # elementwise start byte for byte, the gradient (a row of one block
    # product against a matrix-vector product) and the proxies to rounding
    for field in (*_STATE_ARRAYS, *_DERIVED_ARRAYS):
        assert getattr(row, field).tobytes() == getattr(one, field).tobytes(), field
    _assert_gradient_close(row.gradient, one.gradient)
    assert row.proxy_matrix is one.proxy_matrix
    for k in (0, 1, 2, 3):
        got, got_committed = refine_rounding(row, k, 100)
        want, want_committed = refine_rounding(one, k, 100)
        assert len(got_committed) == len(want_committed)
        for a, b in zip(got_committed, want_committed):
            assert _rel_close(a, b), (a, b)
        np.testing.assert_array_equal(got.up_mask, want.up_mask)
        assert (got.stop_reason, got.flips_committed) == (
            want.stop_reason, want.flips_committed
        )
        for field in ("delta", "step"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def _assert_same_bytes(got, want, field):
    assert got.dtype == want.dtype and got.shape == want.shape, field
    assert got.tobytes() == want.tobytes(), field


def _assert_gradient_close(got, want, tol=1e-13):
    # relative to the row's largest entry: a near-zero entry sums terms that cancel
    assert np.abs(got - want).max(initial=0.0) <= tol * np.abs(want).max(initial=0.0)


def _mixed_rows(rng, d_in):
    # five rows on different lattices: two calibrated rows (4 and 3 bits),
    # a row far outside its lattice so most entries clip at 0 or qmax, a
    # row of exact half-step ties (and zeros) off a zero zero point, where
    # half-to-even decides, and an all-zero degenerate row
    w = np.zeros((5, d_in))
    w[0] = rng.normal(0, 0.5, d_in)
    w[1] = rng.normal(0.2, 0.1, d_in)
    w[2] = rng.normal(0, 3.0, d_in)
    w[3] = 0.25 * (rng.integers(0, 15, d_in) - 4.5)
    w[3, ::3] = 0.0
    params = (
        calibrate_scale(w[0], "uniform", 4, "per_tensor"),
        calibrate_scale(w[1], "uniform", 3, "per_tensor"),
        UniformParams(scale=0.05, zero_point=7, bits=4),
        UniformParams(scale=0.25, zero_point=5, bits=4),
        calibrate_scale(w[4], "uniform", 4, "per_tensor"),
    )
    assert params[4].degenerate
    return w, params


class TestChannelQuantization:
    @staticmethod
    def _setup(rng, d_out, d_in, n=64):
        w = rng.normal(0, 0.5, (d_out, d_in))
        a_q = rng.normal(0.1, 1.0, (n, d_in))
        params = tuple(calibrate_scale(w[i], "uniform", 4, "per_tensor") for i in range(d_out))
        return w, params, a_q

    @pytest.mark.parametrize("d_in", [1, 2, 7, 33])
    @pytest.mark.parametrize("rounding", [True, False])
    @pytest.mark.parametrize("ridge", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_trace_matches_per_split_reference(self, d_in, rounding, ridge, k):
        rng = np.random.default_rng(100 + d_in)
        w, params, a_q = self._setup(rng, 3, d_in, n=48)
        # the rounding stage off runs the loop at k = 0, as LayerRun.result does
        cfg = dict(k=k if rounding else 0, max_iter=100)
        cache = LayerMomentCache(a_q)
        remainder = _ridge(cache, 0.5 if ridge else None)
        for i in range(3):
            got = quantize_layer_weights(
                w[i : i + 1], _stack(params[i : i + 1]), cache, remainder, **cfg
            )
            trace = got.trace[0]
            codes, rows = _reference_channel(w[i], params[i], cache, remainder, cfg)
            np.testing.assert_array_equal(got.codes[0], codes)
            assert len(trace) == len(rows)
            for row, (before, after, mse) in zip(trace, rows):
                assert tuple(row) == weight_quant.TRACE_FIELDS
                assert _rel_close(row["proxy_before"], before)
                assert _rel_close(row["proxy_after"], after)
                assert _rel_close(row["mse"], mse)
                if rounding and k > 0:
                    assert row["stop_reason"] in ("no_eligible", "uphill", "max_iter")
                else:
                    assert (row["stop_reason"], row["flips_committed"]) == ("off", 0)

    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("ridge", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_layer_matches_per_row_reference(self, n, ridge, k):
        # N = 6 < D_in = 16 (sample-space systems) and N = 64 > D_in; the
        # whole 5-row layer and each row alone (d_out = 1)
        rng = np.random.default_rng(40 + n + k)
        w, params = _mixed_rows(rng, 16)
        a_q = rng.normal(0.2, 1.0, (n, 16))
        cfg = dict(k=k, max_iter=100)
        cache = LayerMomentCache(a_q)
        remainder = _ridge(cache, 0.5 if ridge else None)
        want_codes, want_w_bar, want_trace = _per_row_reference(
            w, params, cache, remainder, cfg
        )
        assert (want_codes == 0).any() and (want_codes == 15).any()
        runs = [
            (slice(0, 5), quantize_layer_weights(w, _stack(params), cache, remainder, **cfg))
        ]
        for i in range(5):
            one = quantize_layer_weights(
                w[i : i + 1], _stack(params[i : i + 1]), cache, remainder, **cfg
            )
            runs.append((slice(i, i + 1), one))
        for rows, got in runs:
            np.testing.assert_array_equal(got.codes, want_codes[rows])
            np.testing.assert_array_equal(got.w_bar, want_w_bar[rows])
            for got_rows, want_rows in zip(got.trace, want_trace[rows], strict=True):
                assert len(got_rows) == len(want_rows)
                for a, b in zip(got_rows, want_rows):
                    assert tuple(a) == weight_quant.TRACE_FIELDS
                    for field in weight_quant.TRACE_FIELDS:
                        if field in ("proxy_before", "proxy_after", "mse"):
                            assert _rel_close(a[field], b[field]), field
                        else:
                            assert a[field] == b[field], field

    @pytest.mark.parametrize("n,d_in", [(300, 256), (64, 256), (128, 2048), (2056, 2048)])
    def test_running_trace_product_matches_full_products(self, n, d_in):
        # the loop's running output-error product (one update per split)
        # against the full product of each split's whole error row
        # (_trace_mses, through the per-row reference): N above and below
        # D_in, ridge on and off, k = 0, 1 and 3; D_in = 2048 runs 12 splits,
        # where the running sum has the most updates to drift over
        rng = np.random.default_rng(7 * n + d_in)
        w = rng.normal(0, 0.5, (3, d_in))
        params = tuple(calibrate_scale(row, "uniform", 4, "per_tensor") for row in w)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, d_in)))
        assert len(cache.splits) == (12 if d_in == 2048 else 9)
        for lambda2 in (0.5, None):
            remainder = _ridge(cache, lambda2)
            for k in (0, 1, 3):
                cfg = dict(k=k, max_iter=100)
                got = quantize_layer_weights(w, _stack(params), cache, remainder, **cfg)
                want_codes, want_w_bar, want_trace = _per_row_reference(
                    w, params, cache, remainder, cfg
                )
                np.testing.assert_array_equal(got.codes, want_codes)
                np.testing.assert_array_equal(got.w_bar, want_w_bar)
                for got_rows, want_rows in zip(got.trace, want_trace, strict=True):
                    for a, b in zip(got_rows, want_rows, strict=True):
                        assert _rel_close(a["mse"], b["mse"]), (k, lambda2, a, b)

    @pytest.mark.parametrize("n,d_in", [(6, 16), (64, 16), (128, 2048)])
    def test_block_gradient_rows_match_slice_gradients(self, n, d_in):
        # every split's block start: the gradient is proxy_gradient of the
        # block's delta, one product, and its row i is the matrix-vector
        # gradient of row i's delta to 1e-13 of the row's largest entry
        rng = np.random.default_rng(n + d_in)
        w, params = _mixed_rows(rng, d_in)
        lattice = _stack(params)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, d_in)))
        for lo, mid in cache.splits:
            matrix = cache.block(slice(lo, mid))
            block = init_rounding(w[:, lo:mid], lattice, matrix)
            assert block.gradient.shape == block.delta.shape
            assert block.gradient.tobytes() == proxy_gradient(block.delta, matrix).tobytes()
            for got, delta in zip(block.gradient, block.delta, strict=True):
                _assert_gradient_close(got, proxy_gradient(delta, matrix))

    @pytest.mark.parametrize("d_in", [9, 64])
    def test_init_rounding_matches_per_row_candidates(self, d_in):
        # a slice, each row view of a block on (d, 1) lattice columns, and each
        # row of the block's own arrays: the stored fields equal the per-row
        # reference, and the derived ones (with the ceil codes, code_down +
        # flippable) quantize_uniform and the inline ceil codes, byte for
        # byte and dtype for dtype; rows clipped at both ends, on lattice
        # points, one ulp off them and at half-step ties, plus a zero
        # degenerate row
        rng = np.random.default_rng(41 + d_in)
        w, params = _mixed_rows(rng, d_in)
        unit = UniformParams(scale=0.1, zero_point=7, bits=4)
        on = dequantize_uniform(rng.integers(0, 16, d_in), unit)
        w = np.vstack([w, on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])
        params = (*params, unit, unit, unit)
        matrix = _psd(rng, d_in)
        block = init_rounding(w, _stack(params), matrix)
        assert (block.codes == 0).any() and (block.codes == 15).any()
        # a lattice point has one candidate unless its quotient rounds off it
        assert block.flippable[-3].sum() < min(block.flippable[-2].sum(), block.flippable[-1].sum())
        for i, (view, row, p) in enumerate(zip(block.rows(), w, params, strict=True)):
            ref = _per_row_init_rounding(row, p, matrix)
            nearest, values = quantize_uniform(row, p)
            ceil = _inline_codes(row, p, np.ceil)
            want = {
                "delta": values - row,
                "codes": nearest,
                "flippable": _inline_codes(row, p, np.floor) != ceil,
            }
            for got in (init_rounding(row, p, matrix), view, ref):
                for field in _STATE_ARRAYS:
                    _assert_same_bytes(getattr(got, field), getattr(ref, field), field)
                for field, value in want.items():
                    _assert_same_bytes(getattr(got, field), value, field)
                _assert_same_bytes(got.code_down + got.flippable, ceil, "ceil codes")
            for field, value in want.items():
                _assert_same_bytes(getattr(block, field)[i], value, field)
            _assert_same_bytes((block.code_down + block.flippable)[i], ceil, "ceil codes")
            assert view.proxy_matrix is block.proxy_matrix is matrix

    @pytest.mark.parametrize("n,d_in", [(6, 16), (64, 16), (128, 2048), (300, 256)])
    def test_block_start_rows_are_their_slices_first_pass(self, n, d_in):
        # every split's block, on blocks that view a Gram (strided) and
        # blocks formed from a thin batch: each row's score and proxy equal
        # the first scoring pass and delta g / 2 over the row's own slice of
        # the block, bit for bit; a row's own 1-D init_rounding equals the
        # per-row reference's start, bit for bit, score and proxy included
        rng = np.random.default_rng(7 * n + d_in)
        w, params = _mixed_rows(rng, d_in)
        lattice = _stack(params)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, d_in)))
        for lo, mid in cache.splits:
            matrix = cache.block(slice(lo, mid))
            block = init_rounding(w[:, lo:mid], lattice, matrix)
            assert block.score.shape == block.gradient.shape and block.proxy.shape == (5,)
            for row, w_row, p in zip(block.rows(), w[:, lo:mid], params, strict=True):
                score, proxy = _slice_start(row.step, row.gradient, row.curvature, row.delta)
                _assert_same_bytes(row.score, score, "score")
                assert row.proxy == proxy
                one = init_rounding(w_row, p, matrix)
                ref = _per_row_init_rounding(w_row, p, matrix)
                for field in ("gradient", "score"):
                    _assert_same_bytes(getattr(one, field), getattr(ref, field), field)
                assert one.proxy == ref.proxy

    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("ridge", [True, False])
    @pytest.mark.parametrize("max_iter", [0, 1, 100])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_layer_equals_per_row_loop(self, n, ridge, max_iter, k):
        # the block starts and the per-split remainder updates against the
        # loop that forms both per (row, split): codes, w_bar and the whole
        # trace equal, proxies and MSEs bit for bit; N = 6 < D_in = 16
        # (sample-space remainders) and N = 64
        rng = np.random.default_rng(170 + n + k)
        w, params = _mixed_rows(rng, 16)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, 16)))
        remainder = _ridge(cache, 0.5 if ridge else None)
        got = quantize_layer_weights(w, _stack(params), cache, remainder, k=k, max_iter=max_iter)
        codes, w_bar, trace = _per_row_loop(w, params, cache, remainder, k, max_iter)
        _assert_same_bytes(got.codes, codes, "codes")
        _assert_same_bytes(got.w_bar, w_bar, "w_bar")
        assert list(map(list, got.trace)) == trace
        if k == 0 or max_iter == 0:
            assert all(row["flips_committed"] == 0 for rows in trace for row in rows)

    @pytest.mark.parametrize("n,d_in", [(128, 2048), (300, 256)])
    def test_wide_layer_equals_per_row_loop(self, n, d_in):
        # the benchmark's widest layer shape (sample-space remainders up to
        # 1024 columns) and a Gram-path layer, ridge on, k = 1 and 2
        rng = np.random.default_rng(n + d_in)
        w = rng.normal(0, 0.5, (4, d_in))
        params = tuple(calibrate_scale(row, "uniform", 4, "per_tensor") for row in w)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, d_in)))
        ridge = RemainderRidge(cache, 0.5)
        for k in (1, 2):
            got = quantize_layer_weights(w, _stack(params), cache, ridge, k=k, max_iter=100)
            codes, w_bar, trace = _per_row_loop(w, params, cache, ridge, k, 100)
            _assert_same_bytes(got.codes, codes, "codes")
            _assert_same_bytes(got.w_bar, w_bar, "w_bar")
            assert list(map(list, got.trace)) == trace

    def test_refinement_reads_a_read_only_start_the_same_twice(self):
        # refinement only reads its start: with every array of a block set
        # read-only, refining each row twice gives equal results, at every
        # k and cap; a capped refinement resumed from the state it returned
        # continues the sequence the uncapped one commits, so the returned
        # score and proxy are those of the returned choice
        rng = np.random.default_rng(31)
        w, params = _mixed_rows(rng, 40)
        w = np.vstack([w, [TestRefinement._many_flip_instance(rng)[0] for _ in range(3)]])
        params = (*params, *[UniformParams(scale=0.1, zero_point=7, bits=4)] * 3)
        block = init_rounding(w, _stack(params), _proxy_matrix(rng, 40))
        for field in _START_ARRAYS + ("proxy",):
            getattr(block, field).flags.writeable = False
        resumed = 0
        for row in block.rows():
            for k in (0, 1, 2, 3):
                for max_iter in (0, 1, 5, 100):
                    first, first_committed = refine_rounding(row, k, max_iter)
                    again, again_committed = refine_rounding(row, k, max_iter)
                    assert first_committed == again_committed
                    for field in ("up_mask", "step", "gradient", "score"):
                        _assert_same_bytes(getattr(again, field), getattr(first, field), field)
                    assert (first.proxy, first.stop_reason, first.flips_committed) == (
                        again.proxy, again.stop_reason, again.flips_committed
                    )
                _, whole = refine_rounding(row, k, 100)
                capped, head = refine_rounding(row, k, 2)
                _, tail = refine_rounding(capped, k, 98)
                assert head[:-1] + tail == whole
                resumed += len(tail) > 1
        assert resumed > 0

    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("k", [0, 1])
    def test_candidates_built_once_per_split(self, monkeypatch, n, k):
        # one init_rounding call per split covers every row, looked up at
        # the module attribute a tracer wraps; N = 6 < D_in = 16 and N = 64
        rng = np.random.default_rng(60 + n + k)
        w, params, a_q = self._setup(rng, 5, 16, n=n)
        real = weight_quant.init_rounding
        shapes = []

        def counted(w_block, lattice, matrix):
            shapes.append(np.shape(w_block))
            return real(w_block, lattice, matrix)

        monkeypatch.setattr(weight_quant, "init_rounding", counted)
        cache = LayerMomentCache(a_q)
        quantize_layer_weights(
            w, _stack(params), cache, RemainderRidge(cache, 0.5), k=k, max_iter=100
        )
        splits = halving_splits(16)
        assert len(shapes) == len(splits)
        assert shapes == [(5, mid - lo) for lo, mid in splits]

    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_remainder_solves_read_the_chosen_errors(self, monkeypatch, n, k):
        # the loop takes a split's committed errors off its change (the
        # dequantized slice minus its values before): every row of the
        # errors that a split's remainder updates read is the `delta` of its
        # row's choice byte for byte, the refined state's for k > 0 and the
        # block's nearest start for k = 0, clipped, tied and zero rows
        # included; N = 6 < D_in = 16 and N = 64
        rng = np.random.default_rng(150 + n + k)
        w, params = _mixed_rows(rng, 16)
        real_init, real_refine = weight_quant.init_rounding, weight_quant.refine_rounding
        real_updates = RemainderRidge.updates
        chosen, solved = [], []

        def init(w_block, lattice, matrix):
            block = real_init(w_block, lattice, matrix)
            if k == 0:
                chosen.extend(block.delta)
            return block

        def refine(state, k, max_iter):
            refined, committed = real_refine(state, k, max_iter)
            chosen.append(refined.delta)
            return refined, committed

        def updates(self, lo, mid, deltas, out=None):
            solved.extend((mid - lo, np.array(delta_s)) for delta_s in deltas)
            return real_updates(self, lo, mid, deltas, out)

        monkeypatch.setattr(weight_quant, "init_rounding", init)
        monkeypatch.setattr(weight_quant, "refine_rounding", refine)
        monkeypatch.setattr(RemainderRidge, "updates", updates)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, 16)))
        quantize_layer_weights(
            w, _stack(params), cache, RemainderRidge(cache, 0.5), k=k, max_iter=100
        )
        # every split but the last is solved, for all five rows
        widths = [mid - lo for lo, mid in cache.splits]
        assert [width for width, _ in solved] == [x for x in widths[:-1] for _ in range(5)]
        assert len(chosen) == 5 * len(widths)
        for (_, got), want in zip(solved, chosen):
            _assert_same_bytes(got, want, "delta")

    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("ridge", [True, False])
    def test_block_rows_refine_as_their_slices(self, monkeypatch, n, ridge):
        # every block the loop builds (ridge on and off, N = 6 < D_in = 16
        # and N = 64): each row view's start is its slice's init_rounding
        # start byte for byte, zero signs included, and refining it at
        # k = 0..3 gives the slice's sides, proxies, stop reason and flips
        rng = np.random.default_rng(90 + n)
        w, params = _mixed_rows(rng, 16)
        real = weight_quant.init_rounding
        blocks = []

        def recorded(w_block, lattice, matrix):
            block = real(w_block, lattice, matrix)
            blocks.append((np.array(w_block), matrix, block))
            return block

        monkeypatch.setattr(weight_quant, "init_rounding", recorded)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, 16)))
        quantize_layer_weights(
            w, _stack(params), cache, _ridge(cache, 0.5 if ridge else None), k=1, max_iter=100
        )
        assert len(blocks) == len(halving_splits(16))
        for w_block, matrix, block in blocks:
            for row, w_row, p in zip(block.rows(), w_block, params, strict=True):
                _assert_row_refines_as_slice(row, real(w_row, p, matrix))

    @pytest.mark.parametrize("n", [6, 64])
    @pytest.mark.parametrize("ridge", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_refinement_never_writes_into_the_block_start(self, monkeypatch, k, ridge, n):
        # refinement reads a block's start through row views and copies only
        # what it changes, its gradient included before the rank-1 updates:
        # after refining every row of a block, and after a whole loop (N = 6
        # < D_in = 16 and N = 64, ridge on and off), every block's arrays
        # hold what init_rounding built, byte for byte
        rng = np.random.default_rng(130 + n + k)
        w, params = _mixed_rows(rng, 16)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, 16)))
        lo, mid = cache.splits[0]
        block = init_rounding(w[:, lo:mid], _stack(params), cache.block(slice(lo, mid)))
        start = {field: getattr(block, field).copy() for field in _START_ARRAYS}
        flips = 0
        for row in block.rows():
            for field in _START_ARRAYS:
                assert np.shares_memory(getattr(row, field), getattr(block, field)), field
            flips += refine_rounding(row, k, 100)[0].flips_committed
        assert (flips > 0) == (k > 0)
        for field in _START_ARRAYS:
            assert getattr(block, field).tobytes() == start[field].tobytes(), field

        real = weight_quant.init_rounding
        built = []

        def recorded(w_block, lattice, matrix):
            block = real(w_block, lattice, matrix)
            built.append((block, {f: getattr(block, f).copy() for f in _START_ARRAYS}))
            return block

        monkeypatch.setattr(weight_quant, "init_rounding", recorded)
        result = quantize_layer_weights(
            w, _stack(params), cache, _ridge(cache, 0.5 if ridge else None), k=k, max_iter=100
        )
        flips = sum(row["flips_committed"] for rows in result.trace for row in rows)
        assert (flips > 0) == (k > 0)
        assert len(built) == len(cache.splits)
        for block, start in built:
            for field in _START_ARRAYS:
                assert getattr(block, field).tobytes() == start[field].tobytes(), field

    @pytest.mark.parametrize("width", [0, 1, 6])
    def test_tied_and_empty_block_rows_refine_as_their_slices(self, width):
        # equal weights under a permutation-symmetric matrix tie every
        # |gradient|; a zero-width block has rows with nothing to flip
        unit = UniformParams(scale=1.0, zero_point=0, bits=4)
        matrix = 0.9 * np.ones((width, width)) + 0.1 * np.eye(width)
        w = np.full((3, width), 0.6)
        w[1] = -0.6  # clipped at code 0: nothing to flip
        block = init_rounding(w, _stack([unit] * 3), matrix)
        for row, w_row in zip(block.rows(), w, strict=True):
            _assert_row_refines_as_slice(row, init_rounding(w_row, unit, matrix))

    def test_empty_weight_matrix_rejected(self):
        rng = np.random.default_rng(42)
        a_q = rng.normal(0, 1, (16, 4))
        cache = LayerMomentCache(a_q)
        with pytest.raises(ValueError, match=r"shape \(0, 4\) is empty"):
            quantize_layer_weights(np.zeros((0, 4)), _stack(()), cache, None, k=1, max_iter=100)
        with pytest.raises(ValueError, match=r"shape \(0, 4\) is empty"):
            pipeline.quantize_layer(
                np.zeros((0, 4)), a_q, "uniform", 4, 4, pipeline.RunConfig()
            )
        with pytest.raises(ValueError, match=r"shape \(3, 0\) is empty"):
            quantize_layer_weights(np.zeros((3, 0)), _stack(()), cache, None, k=1, max_iter=100)

    def test_single_column_is_nearest_rounding(self):
        rng = np.random.default_rng(7)
        w, params, a_q = self._setup(rng, 3, 1)
        cfg = dict(k=1, max_iter=100)
        cache = LayerMomentCache(a_q)
        result = quantize_layer_weights(w, _stack(params), cache, RemainderRidge(cache, 1.0), **cfg)
        for i in range(3):
            codes, deq = quantize_uniform(w[i], params[i])
            np.testing.assert_array_equal(result.codes[i], codes)
            np.testing.assert_array_equal(result.w_bar[i], deq)
            assert len(result.trace[i]) == 1

    def test_zero_row_maps_to_zero_point_codes(self):
        rng = np.random.default_rng(8)
        _, _, a_q = self._setup(rng, 1, 6)
        w = np.zeros((1, 6))
        params = (UniformParams(scale=0.3, zero_point=5, bits=4),)
        cache = LayerMomentCache(a_q)
        ridge = RemainderRidge(cache, 1.0)
        result = quantize_layer_weights(w, _stack(params), cache, ridge, k=1, max_iter=100)
        np.testing.assert_array_equal(result.codes[0], np.full(6, 5))
        np.testing.assert_array_equal(result.w_bar[0], np.zeros(6))

    def test_duplicate_rows_produce_identical_results(self):
        rng = np.random.default_rng(9)
        row = rng.normal(0, 0.5, 10)
        w = np.vstack([row, row])
        a_q = rng.normal(0, 1, (64, 10))
        p = calibrate_scale(row, "uniform", 4, "per_tensor")
        cache = LayerMomentCache(a_q)
        ridge = RemainderRidge(cache, 1.0)
        result = quantize_layer_weights(w, _stack((p, p)), cache, ridge, k=1, max_iter=100)
        np.testing.assert_array_equal(result.codes[0], result.codes[1])
        np.testing.assert_array_equal(result.w_bar[0], result.w_bar[1])

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        w, params, a_q = self._setup(rng, 5, 8)
        cfg = dict(k=1, max_iter=100)
        cache = LayerMomentCache(a_q)
        ridge = RemainderRidge(cache, 1.0)
        base = quantize_layer_weights(w, _stack(params), cache, ridge, **cfg)
        perm = rng.permutation(5)
        permuted = quantize_layer_weights(
            w[perm], _stack(tuple(params[i] for i in perm)), cache, ridge, **cfg
        )
        np.testing.assert_array_equal(permuted.codes, base.codes[perm])
        np.testing.assert_array_equal(permuted.w_bar, base.w_bar[perm])

    def test_trace_mse_matches_empirical_batch_error(self):
        rng = np.random.default_rng(12)
        w, params, a_q = self._setup(rng, 4, 9, n=128)
        cfg = dict(k=1, max_iter=100)
        cache = LayerMomentCache(a_q)
        result = quantize_layer_weights(w, _stack(params), cache, RemainderRidge(cache, 1.0), **cfg)
        for i, rows in enumerate(result.trace):
            err_vec = (result.w_bar[i] - w[i]) @ a_q.T
            empirical = float(np.mean(err_vec**2))
            assert rows[-1]["mse"] == pytest.approx(empirical, rel=1e-9)

    def test_refinement_never_worse_than_nearest_per_slice(self):
        rng = np.random.default_rng(13)
        w, params, a_q = self._setup(rng, 6, 12, n=96)
        cache = LayerMomentCache(a_q)
        result = quantize_layer_weights(
            w, _stack(params), cache, RemainderRidge(cache, 1.0), k=1, max_iter=100
        )
        for rows in result.trace:
            for row in rows:
                assert row["proxy_after"] <= row["proxy_before"] + 1e-15

    def test_ridge_disabled_leaves_remainder_untouched(self):
        rng = np.random.default_rng(15)
        w, params, a_q = self._setup(rng, 3, 8)
        cfg = dict(k=0, max_iter=100)
        result = quantize_layer_weights(w, _stack(params), LayerMomentCache(a_q), None, **cfg)
        # with both stages off this is plain nearest rounding on the lattice
        for i in range(3):
            codes, deq = quantize_uniform(w[i], params[i])
            np.testing.assert_array_equal(result.codes[i], codes)
            np.testing.assert_array_equal(result.w_bar[i], deq)

    @pytest.mark.parametrize("n", [6, 64])
    def test_no_ridge_switches_the_ridge_off(self, n):
        # no ridge is the one switch: quantize_layer_weights skips the
        # remainder update, and matches the per-row reference without it
        rng = np.random.default_rng(19 + n)
        w, params, a_q = self._setup(rng, 3, 8, n=n)
        cfg = dict(k=1, max_iter=100)
        cache = LayerMomentCache(a_q)
        got = quantize_layer_weights(w, _stack(params), cache, None, **cfg)
        want_codes, want_w_bar, _ = _per_row_reference(w, params, cache, None, cfg)
        np.testing.assert_array_equal(got.codes, want_codes)
        np.testing.assert_array_equal(got.w_bar, want_w_bar)
        ridged = quantize_layer_weights(w, _stack(params), cache, RemainderRidge(cache, 0.5), **cfg)
        assert got.trace != ridged.trace

    def test_ridge_of_another_cache_rejected(self):
        rng = np.random.default_rng(22)
        w, params, a_q = self._setup(rng, 3, 8)
        other = RemainderRidge(LayerMomentCache(a_q), 0.5)
        with pytest.raises(ValueError, match="another moment cache"):
            quantize_layer_weights(
                w, _stack(params), LayerMomentCache(a_q), other, k=1, max_iter=100
            )

    def test_ridge_reduces_final_error_on_correlated_batch(self):
        rng = np.random.default_rng(16)
        base = rng.normal(0, 1, (256, 4))
        mix = rng.normal(0, 0.3, (4, 16))
        a_q = base @ mix + rng.normal(0, 0.05, (256, 16))
        w = rng.normal(0, 0.5, (6, 16))
        params = tuple(calibrate_scale(w[i], "uniform", 4, "per_tensor") for i in range(6))
        cfg = dict(k=0, max_iter=100)
        cache = LayerMomentCache(a_q)
        on = quantize_layer_weights(w, _stack(params), cache, RemainderRidge(cache, 1.0), **cfg)
        off = quantize_layer_weights(w, _stack(params), cache, None, **cfg)

        def total_mse(res):
            return float(np.mean(((res.w_bar - w) @ a_q.T) ** 2))

        assert total_mse(on) < total_mse(off)

    def test_row_dim_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        cache = LayerMomentCache(rng.normal(0, 1, (32, 8)))
        with pytest.raises(ValueError, match="dim"):
            quantize_layer_weights(
                np.zeros((1, 5)),
                _stack((UniformParams(scale=1.0, zero_point=0, bits=4),)),
                cache,
                RemainderRidge(cache, 1.0),
                k=1, max_iter=100,
            )

    def test_layer_validation_errors(self):
        rng = np.random.default_rng(18)
        cache = LayerMomentCache(rng.normal(0, 1, (16, 4)))
        p = UniformParams(scale=1.0, zero_point=0, bits=4)
        with pytest.raises(ValueError, match="2-D"):
            quantize_layer_weights(np.zeros(4), _stack((p,)), cache, None, k=1, max_iter=100)
        with pytest.raises(ValueError, match="per output channel"):
            quantize_layer_weights(
                np.zeros((2, 4)), _stack((p,)), cache, None, k=1, max_iter=100
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ridge", [False, True])
    def test_non_finite_weight_rejected_with_row_and_column(self, monkeypatch, bad, ridge):
        # a NaN weight once came back as code INT64_MIN with only a cast
        # warning; now the first bad weight is named, before any work
        def unreachable(*args):
            raise AssertionError("work started")

        rng = np.random.default_rng(19)
        cache = LayerMomentCache(rng.normal(0, 1, (16, 6)))
        remainder = RemainderRidge(cache, 1.0) if ridge else None
        monkeypatch.setattr(weight_quant, "init_rounding", unreachable)
        w = rng.normal(0, 0.3, (3, 6))
        w[1, 4] = bad
        w[2, 0] = bad
        lattice = _stack([UniformParams(scale=0.1, zero_point=8, bits=4)] * 3)
        with pytest.raises(NonFiniteInputError, match="at row 1, column 4") as info:
            quantize_layer_weights(w, lattice, cache, remainder, k=1, max_iter=100)
        assert info.value.row == 1 and info.value.index == (1, 4)

    def test_config_validation(self):
        # lambda2 lives in the remainder ridge, which checks it as RunConfig
        # does: a bool, a string or None is not a strength
        cache = LayerMomentCache(np.random.default_rng(0).normal(0, 1, (16, 4)))
        for lam in (-0.1, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError, match="lambda2 must be finite"):
                RemainderRidge(cache, lam)
        for lam in (True, False, "1", [1.0], None):
            with pytest.raises(ValueError, match="lambda2 must be an int or float, got"):
                RemainderRidge(cache, lam)
        assert not hasattr(cache, "lambda2")

    @pytest.mark.parametrize(
        "field,value",
        [("k", -1), ("k", 1.5), ("k", 2.0), ("k", True), ("k", "1"), ("max_iter", -5),
         ("max_iter", 100.0), ("max_iter", False), ("max_iter", None)],
    )
    def test_non_integer_counts_rejected_before_any_work(self, monkeypatch, field, value):
        # a float k or max_iter would otherwise pass, the first split's block
        # would be built, and refinement would fail with a bare TypeError
        def unreachable(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(weight_quant, "init_rounding", unreachable)
        cache = LayerMomentCache(np.random.default_rng(0).normal(0, 1, (16, 4)))
        p = UniformParams(scale=1.0, zero_point=0, bits=4)
        settings = {"k": 1, "max_iter": 100, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 0, got "):
            quantize_layer_weights(np.zeros((1, 4)), _stack((p,)), cache, None, **settings)


class TestMomentCache:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(16, 6), (4, 10)], ids=["gram", "thin"])
    def test_non_finite_batch_rejected(self, bad, shape):
        # with or without a Gram, a NaN or Inf in the batch builds no cache
        # (it once gave one, and codes, with matmul warnings)
        batch = np.random.default_rng(21).normal(size=shape)
        batch[3, 2] = bad
        batch[3, 5] = bad
        with pytest.raises(NonFiniteInputError, match=r"at index \(3, 2\)") as info:
            LayerMomentCache(batch)
        assert info.value.row is None

    def test_proxy_matrix_is_mean_outer_plus_covariance(self):
        # E[x_s x_s^T] = mu_s mu_s^T + Sigma_s with the 1/N covariance: the
        # proxy is the expected output error over the batch
        rng = np.random.default_rng(20)
        a_q = rng.normal(0.5, 1.2, (100, 8))
        cache = LayerMomentCache(a_q)
        mu = a_q.mean(axis=0)
        sigma = np.cov(a_q.T, ddof=0)
        for lo, mid in cache.splits:
            expected = np.outer(mu[lo:mid], mu[lo:mid]) + sigma[lo:mid, lo:mid]
            np.testing.assert_allclose(cache.block(slice(lo, mid)), expected, atol=1e-12)

    @pytest.mark.parametrize("n,d_in", [(300, 256), (64, 256), (6, 24)])
    def test_running_output_product_reads_the_full_product_mses(self, n, d_in):
        # one change per split over columns lo:D, added as the loop adds it
        # onto a start of 0.0, against one full product of the accumulated
        # error (_trace_mses), with a Gram and without one
        rng = np.random.default_rng(n + d_in)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (n, d_in)))
        w = rng.normal(0, 0.5, (3, d_in))
        current = w.copy()
        outputs = 0.0
        for lo, _ in cache.splits:
            change = rng.normal(0, 0.05, (3, d_in - lo))
            current[:, lo:] += change
            outputs += cache.output_change(change, lo, d_in)
            assert outputs.shape == (3, d_in if n >= d_in else n)
            mses = cache.row_mses(outputs, current, w)
            for got, want in zip(mses, _trace_mses(cache, current - w), strict=True):
                assert _rel_close(got, want), (got, want)

    def test_solver_only_for_nonfinal_splits(self):
        rng = np.random.default_rng(21)
        ridge = RemainderRidge(LayerMomentCache(rng.normal(0, 1, (64, 8))), 1.0)
        *head, last = ridge.cache.splits
        for lo, mid in head:
            update = ridge.updates(lo, mid, np.ones((3, mid - lo)))
            assert update.shape == (3, 8 - mid)
        with pytest.raises(KeyError):
            ridge.updates(last[0], last[1], np.ones((3, last[1] - last[0])))

    def test_verify_ridge_suite_checks_the_ridge(self, monkeypatch):
        # the verify suite must run the update a quantization run uses, so a
        # 1% error injected into it fails the suite
        assert suite_ridge_optimality(splits=5).passed
        _scaled_updates(monkeypatch, lambda ridge, mid: 1.01)
        assert not suite_ridge_optimality(splits=5).passed

    @pytest.mark.parametrize("thin", [False, True])
    def test_verify_proxy_suite_checks_both_proxy_forms(self, monkeypatch, thin):
        # a 1% error in the proxy blocks of one regime (sliced moments, or
        # centred batch slices when N < D) fails the suite
        assert suite_proxy_fidelity().passed
        real = LayerMomentCache.block

        def faulty(self, cols):
            scale = 1.01 if (self.moments is None) == thin else 1.0
            return scale * real(self, cols)

        monkeypatch.setattr(LayerMomentCache, "block", faulty)
        assert not suite_proxy_fidelity().passed

    def test_refinement_starts_from_the_checked_gradient(self, monkeypatch):
        # verify's gradient suite checks proxy_gradient; init_rounding builds
        # refinement's start gradient with it, so a fault there reaches both
        rng = np.random.default_rng(8)
        args = (
            rng.normal(0, 1, 6),
            calibrate_scale(rng.normal(0, 1, 6), "uniform", 4, "per_tensor"),
            _proxy_matrix(rng, 6),
        )
        _, committed = refine_rounding(init_rounding(*args), 1, 100)
        monkeypatch.setattr(
            weight_quant, "proxy_gradient", lambda delta, m: 1.01 * proxy_gradient(delta, m)
        )
        _, faulty = refine_rounding(init_rounding(*args), 1, 100)
        assert faulty[0] != committed[0]
        assert not suite_gradient_checks().passed

    def test_verify_gradient_suite_checks_the_block_form(self, monkeypatch):
        # a 1% error in the (d, D) block form alone, the one the weight loop
        # builds its start from, fails the suite
        assert suite_gradient_checks().passed

        def faulty(delta, matrix):
            scale = 1.01 if np.ndim(delta) == 2 else 1.0
            return scale * proxy_gradient(delta, matrix)

        monkeypatch.setattr(weight_quant, "proxy_gradient", faulty)
        assert not suite_gradient_checks().passed

    @pytest.mark.parametrize("field", ["score", "proxy"])
    def test_verify_gradient_suite_checks_the_block_start(self, monkeypatch, field):
        # a block's stored start one ulp off in one row, the rest of it
        # untouched, is counted by the suite and fails it
        suite = suite_gradient_checks()
        assert suite.passed and suite.metrics["start_row_mismatches"] == 0
        real = weight_quant.init_rounding

        def faulty(w, params, matrix):
            state = real(w, params, matrix)
            if np.ndim(w) < 2:
                return state
            value = getattr(state, field).copy()
            value[-1] = np.nextafter(value[-1], np.inf)
            return state._replace(**{field: value})

        monkeypatch.setattr(weight_quant, "init_rounding", faulty)
        suite = suite_gradient_checks()
        assert not suite.passed and suite.metrics["start_row_mismatches"] == 5

    def test_verify_ridge_suite_reaches_ill_conditioned_systems(self):
        # the near-collinear draws at lambda2 = 1e-2 and 1e-4 factor systems
        # with condition numbers above 1e5 and still meet the FD bound
        for seed in range(3):
            suite = suite_ridge_optimality(seed=seed, splits=5)
            assert suite.passed
            assert suite.metrics["max_system_cond"] > 1e5
            assert suite.metrics["fd_max_rel"] < 1e-6

    def test_run_and_verify_share_the_ridge_solver(self, monkeypatch):
        # the loop and the verify suite both take each split's updates from
        # RemainderRidge.updates, so a 1% error injected into it reaches a
        # quantization run and fails the verify suite alike
        rng = np.random.default_rng(22)
        w = rng.normal(0, 0.5, (3, 24))
        params = [calibrate_scale(row, "uniform", 4, "per_tensor") for row in w]
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (64, 24)))
        ridge = RemainderRidge(cache, 0.5)
        want = quantize_layer_weights(w, _stack(params), cache, ridge, k=1, max_iter=100)
        _scaled_updates(monkeypatch, lambda ridge, mid: 1.01)
        got = quantize_layer_weights(w, _stack(params), cache, ridge, k=1, max_iter=100)
        assert got.trace != want.trace  # the remainders, and so the trace MSEs, moved
        assert not suite_ridge_optimality(splits=5).passed

    def test_verify_ridge_suite_checks_the_sample_space_form(self, monkeypatch):
        # the same fault confined to remainders wider than the batch (the
        # N x N sample-space systems) must fail the suite too
        suite = suite_ridge_optimality(splits=5)
        assert suite.passed and suite.metrics["sample_space_splits"] > 0
        _scaled_updates(
            monkeypatch,
            lambda ridge, mid: 1.01 if ridge.cache.n_samples < ridge.cache.dim - mid else 1.0,
        )
        assert not suite_ridge_optimality(splits=5).passed


def _eager_proxy_blocks(a_q):
    # reference: every split's block built up front, sliced from the D x D
    # Gram X^T X / N when N >= D, and X_s^T X_s / N from strided slices
    # otherwise
    n, dim = a_q.shape
    gram = a_q.T @ a_q / n if n >= dim else None
    blocks = {}
    for lo, mid in halving_splits(dim):
        if gram is not None:
            blocks[(lo, mid)] = gram[lo:mid, lo:mid]
        else:
            x_s = a_q[:, lo:mid]
            blocks[(lo, mid)] = x_s.T @ x_s / n
    return blocks


class TestProxyBlocks:
    # (N, D_in): N >= D_in views the Gram, N < D_in forms blocks from batch
    # slices
    FULL_SHAPES = [(2, 1), (40, 40), (64, 40), (200, 150)]
    THIN_SHAPES = [(2, 9), (12, 40), (23, 24), (12, 150)]

    @pytest.mark.parametrize("n,d_in", FULL_SHAPES)
    def test_full_width_blocks_equal_eager_reference_exactly(self, n, d_in):
        a_q = np.random.default_rng(n + d_in).normal(0.4, 1.0, (n, d_in))
        cache = LayerMomentCache(a_q)
        want = _eager_proxy_blocks(a_q)
        assert cache.moments is not None
        for lo, mid in cache.splits:
            np.testing.assert_array_equal(cache.block(slice(lo, mid)), want[(lo, mid)])

    @pytest.mark.parametrize("n,d_in", THIN_SHAPES)
    def test_thin_blocks_match_eager_reference(self, n, d_in):
        # the slice is copied contiguous here and strided in the reference,
        # which can send a product down another BLAS path: 1e-15 relative
        a_q = np.random.default_rng(n + d_in).normal(0.4, 1.0, (n, d_in))
        cache = LayerMomentCache(a_q)
        want = _eager_proxy_blocks(a_q)
        assert cache.moments is None
        for lo, mid in cache.splits:
            got = cache.block(slice(lo, mid))
            np.testing.assert_array_equal(got, got.T)
            ref = want[(lo, mid)]
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [12, 64])
    def test_block_serves_ranges_that_are_not_splits(self, n):
        # the whole row, a range off the split grid and a split's remainder
        # (the row's tail): the Gram's own view when N >= D, and the `gram`
        # of the batch slice when N < D
        a_q = np.random.default_rng(n).normal(0, 1, (n, 40))
        cache = LayerMomentCache(a_q)
        assert cache.splits[:2] == [(0, 20), (20, 30)]
        for cols in (slice(0, 40), slice(1, 21), slice(30, None)):
            got = cache.block(cols)
            if n >= 40:
                assert got.base is cache.moments
                np.testing.assert_array_equal(got, cache.moments[cols, cols])
            else:
                assert cache.moments is None
                np.testing.assert_array_equal(got, moments.gram(a_q[:, cols]))

    @pytest.mark.parametrize("n", [12, 64])
    @pytest.mark.parametrize("ridge", [True, False])
    @pytest.mark.parametrize("k", [0, 1])
    def test_one_block_alive(self, monkeypatch, n, ridge, k):
        # each request must find every earlier block freed: the weight loop
        # holds one proxy block at a time, and none once it returns
        real = LayerMomentCache.block
        refs = []

        def tracked(self, cols):
            alive = [i for i, ref in enumerate(refs) if ref() is not None]
            assert not alive, f"blocks of splits {alive} alive at split {len(refs)}"
            block = real(self, cols)
            refs.append(weakref.ref(block))
            return block

        rng = np.random.default_rng(70 + n)
        w = rng.normal(0, 0.5, (3, 40))
        a_q = rng.normal(0.2, 1.0, (n, 40))
        params = tuple(calibrate_scale(row, "uniform", 4, "per_tensor") for row in w)
        cache = LayerMomentCache(a_q)
        remainder = _ridge(cache, 0.5 if ridge else None)
        # the ridge's systems read blocks too: track the loop's requests only
        monkeypatch.setattr(LayerMomentCache, "block", tracked)
        quantize_layer_weights(w, _stack(params), cache, remainder, k=k, max_iter=100)
        assert len(refs) == len(halving_splits(40))
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("k", [0, 1])
    def test_layer_peak_memory_is_about_one_block(self, k):
        # 4 x 1024 layer, N = 64: the largest block (512^2 doubles) is 2 MiB
        # and the batch 0.5 MiB; holding every block plus the temporaries of
        # the largest peaked at 4.5 MiB, one block at a time at 2.9 MiB
        rng = np.random.default_rng(80)
        w = rng.normal(0, 0.5, (4, 1024))
        a_q = rng.normal(0.2, 1.0, (64, 1024))
        params = tuple(calibrate_scale(row, "uniform", 4, "per_tensor") for row in w)
        largest = max(mid - lo for lo, mid in halving_splits(1024)) ** 2 * 8
        tracemalloc.start()
        try:
            cache = LayerMomentCache(a_q)
            ridge = RemainderRidge(cache, 1e4)
            quantize_layer_weights(w, _stack(params), cache, ridge, k=k, max_iter=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * largest + a_q.nbytes

    @pytest.mark.parametrize("k", [0, 1])
    def test_gram_path_loop_stores_each_choice_once(self, k):
        # 96 x 768 layer, N = 1024 (the Gram path, cache and ridge built
        # before the call): a split's block with two candidate slots and one
        # int64 copy, its committed errors read off the split's change,
        # peaked at 3.84 (k = 0) and 3.87 MiB (k = 1); a third (nearest)
        # slot, a second int64 copy and per-row error lists that kept them
        # alive peaked at 4.51 and 4.66 MiB
        rng = np.random.default_rng(81)
        w = rng.normal(0, 0.5, (96, 768))
        params = tuple(calibrate_scale(row, "uniform", 4, "per_tensor") for row in w)
        cache = LayerMomentCache(rng.normal(0.2, 1.0, (1024, 768)))
        ridge = RemainderRidge(cache, 10.0)
        tracemalloc.start()
        try:
            quantize_layer_weights(w, _stack(params), cache, ridge, k=k, max_iter=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.2 * 2**20


class _FullWidthCache:
    # reference: the D x D Gram and full-width remainder factors for any
    # batch size, the cache's and the ridge's own arithmetic when N >= D;
    # it serves as its own ridge
    def __init__(self, a_q, lambda2):
        self.cache = self
        self.moments = gram = accumulate_moments(a_q)
        self.dim = a_q.shape[1]
        self.splits = halving_splits(self.dim)
        self.lambda2 = lambda2
        self._remainder = {}
        for lo, mid in self.splits:
            if lambda2 is not None and mid < self.dim:
                factor = spd_factor(gram[mid:, mid:] + lambda2 * np.eye(self.dim - mid))
                self._remainder[(lo, mid)] = (gram[lo:mid, mid:], factor)

    def block(self, cols):
        return self.moments[cols, cols]

    def updates(self, lo, mid, deltas, out=None):
        # one solve and one negation per row, as RemainderRidge.updates
        e_sr, factor = self._remainder[(lo, mid)]
        if out is None:
            out = np.empty((len(deltas), e_sr.shape[1]))
        for row, delta_s in zip(out, deltas, strict=True):
            np.negative(solve_spd(factor, e_sr.T @ delta_s), out=row)
        return out

    # the cache's running trace product, which reads only the Gram here
    output_change = LayerMomentCache.output_change
    row_mses = LayerMomentCache.row_mses


# (N, D_in) with N < D_in: two samples, N equal to a halving split's
# remainder width (16 -> 8 and 4; 24 -> 12 and 6), and N = D_in - 1
THIN_SHAPES = [(2, 9), (2, 16), (8, 16), (4, 16), (15, 16), (6, 24), (12, 24), (23, 24)]


def _rel(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


class TestThinBatch:
    @staticmethod
    def _batch(n, d_in):
        rng = np.random.default_rng(1000 * n + d_in)
        return rng, rng.normal(0.3, 1.0, (n, d_in))

    def test_forms_no_full_width_moments(self):
        _, a_q = self._batch(4, 16)
        cache = LayerMomentCache(a_q)
        assert cache.moments is None
        assert LayerMomentCache(a_q[:, :4]).moments is not None

    @pytest.mark.parametrize("n,d_in", THIN_SHAPES)
    def test_blocks_match_full_width_reference(self, n, d_in):
        rng, a_q = self._batch(n, d_in)
        cache = LayerMomentCache(a_q)
        ridge = RemainderRidge(cache, 0.5)
        ref = _FullWidthCache(a_q, 0.5)
        for lo, mid in cache.splits:
            got, want = cache.block(slice(lo, mid)), ref.block(slice(lo, mid))
            np.testing.assert_array_equal(got, got.T)
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
            if mid < d_in:
                delta_s = rng.normal(0, 0.1, (1, mid - lo))
                got = ridge.updates(lo, mid, delta_s)
                want = ref.updates(lo, mid, delta_s)
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        errs = rng.normal(0, 0.1, (3, d_in))
        for got, want in zip(_trace_mses(cache, errs), _trace_mses(ref, errs)):
            assert _rel(got, want) <= 1e-11

    @pytest.mark.parametrize("rounding", [True, False])
    @pytest.mark.parametrize("ridge", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_channels_match_full_width_reference(self, rounding, ridge, k):
        cfg = dict(k=k if rounding else 0, max_iter=100)
        lambda2 = 0.5 if ridge else None
        for n, d_in in THIN_SHAPES:
            rng, a_q = self._batch(n, d_in)
            w = rng.normal(0, 0.5, (4, d_in))
            cache = LayerMomentCache(a_q)
            remainder = _ridge(cache, lambda2)
            ref = _FullWidthCache(a_q, lambda2)
            ref_ridge = ref if ridge else None
            for row in w:
                params = (calibrate_scale(row, "uniform", 4, "per_tensor"),)
                got = quantize_layer_weights(row[None], _stack(params), cache, remainder, **cfg)
                want = quantize_layer_weights(row[None], _stack(params), ref, ref_ridge, **cfg)
                np.testing.assert_array_equal(got.codes, want.codes)
                for a, b in zip(got.trace[0], want.trace[0], strict=True):
                    assert (a["stop_reason"], a["flips_committed"]) == (
                        b["stop_reason"],
                        b["flips_committed"],
                    )
                    for field in ("proxy_before", "proxy_after", "mse"):
                        assert _rel(a[field], b[field]) <= 1e-11

    def test_singular_without_regularization(self):
        # N < D_r: the D_r x D_r remainder system has rank <= N, so
        # lambda2 = 0 is singular even where the N x N form would factor
        _, a_q = self._batch(3, 10)
        with pytest.raises(SingularSystemError, match="regularization"):
            RemainderRidge(LayerMomentCache(a_q), 0.0)
        # remainders no wider than the batch still factor without ridge
        RemainderRidge(LayerMomentCache(a_q[:, :6]), 0.0)

    @staticmethod
    def _count_wrap_points(monkeypatch):
        # the benchmark tracer wraps these module attributes by name
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, attr in (
            (weight_quant, "accumulate_moments"),
            (weight_quant, "spd_factor"),
            (weight_quant, "solve_spd"),
            (weight_quant, "refine_rounding"),
            (act_correct, "spd_factor"),
            # every D x D Gram, whichever module asks accumulate_moments for it
            (moments, "gram"),
        ):
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        return calls

    @pytest.mark.parametrize("n", [12, 64], ids=["n_lt_d", "n_ge_d"])
    @pytest.mark.parametrize(
        "entry", ["quantize", "quantize_aqer", "ablation", "lambda_sweep"]
    )
    def test_one_gram_per_layer_run(self, monkeypatch, entry, n):
        # aqer and the weight loop share one moment cache: a LayerRun forms
        # the Gram of its batch once, through weight_quant.accumulate_moments,
        # however many stages, combinations or ridge strengths it serves, and
        # a batch thinner than the layer forms none
        calls = self._count_wrap_points(monkeypatch)
        d_in = 40
        rng = np.random.default_rng(9)
        w = rng.normal(0, 0.5, (3, d_in))
        a_fp = rng.normal(0.2, 1.0, (n, d_in))
        cfg = pipeline.RunConfig(lambda1=1.0, lambda2=1.0)
        layers = [("l0", w, a_fp, "uniform", 4, 4)]
        if entry == "quantize":
            pipeline.quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
        elif entry == "quantize_aqer":
            aqer = cfg.replace(stages=frozenset({"aqer"}))
            pipeline.quantize_layer(w, a_fp, "uniform", 4, 4, aqer)
        elif entry == "ablation":
            pipeline.run_ablation(layers, cfg)
        else:
            pipeline.run_sweep("lambda", [1.0, 10.0, 1.0], layers, cfg)
        grams = 1 if n >= d_in else 0
        assert calls["weight_quant.accumulate_moments"] == grams
        assert calls["moments.gram"] == grams
        # one aqer factor per lambda1, one set of ridge factors per lambda2
        strengths = 3 if entry == "lambda_sweep" else 1
        ridges = 0 if entry == "quantize_aqer" else strengths
        assert calls["act_correct.spd_factor"] == strengths
        assert calls["weight_quant.spd_factor"] == ridges * (len(halving_splits(d_in)) - 1)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_tracer_wrap_points_and_counts(self, monkeypatch, k):
        # one aqer factor, one ridge factor per split with a remainder, one
        # ridge solve per channel and non-final split, and one refinement
        # per channel and split when k >= 1
        calls = self._count_wrap_points(monkeypatch)
        d_out, d_in, n = 3, 40, 12
        rng = np.random.default_rng(5)
        w = rng.normal(0, 0.5, (d_out, d_in))
        a_fp = rng.normal(0.2, 1.0, (n, d_in))
        cfg = pipeline.RunConfig(lambda1=1.0, lambda2=1.0, k=k)
        pipeline.quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
        splits = len(halving_splits(d_in))
        expected = {
            "act_correct.spd_factor": 1,
            "weight_quant.spd_factor": splits - 1,
            "weight_quant.solve_spd": d_out * (splits - 1),
        }
        if k > 0:
            expected["weight_quant.refine_rounding"] = d_out * splits
        assert calls == expected

    @pytest.mark.parametrize("n", [12, 64])
    def test_ridge_off_factors_no_remainder(self, monkeypatch, n):
        # without the ridge stage no remainder system is built, in either
        # regime; the moments a full-width cache needs are still accumulated
        calls = self._count_wrap_points(monkeypatch)
        rng = np.random.default_rng(6)
        w = rng.normal(0, 0.5, (3, 40))
        a_fp = rng.normal(0.2, 1.0, (n, 40))
        cfg = pipeline.RunConfig(
            lambda1=1.0, lambda2=1.0, stages=frozenset({"aqer", "wqer_rounding"})
        )
        pipeline.quantize_layer(w, a_fp, "uniform", 4, 4, cfg)
        expected = {
            "act_correct.spd_factor": 1,
            "weight_quant.refine_rounding": 3 * len(halving_splits(40)),
        }
        if n >= 40:
            expected["weight_quant.accumulate_moments"] = 1
            expected["moments.gram"] = 1
        assert calls == expected

    def test_ridge_off_ignores_unregularized_remainder(self):
        # 3 samples, remainders up to 4 columns wide: with lambda2 = 0 those
        # systems are singular, but a run without the ridge never builds them
        rng = np.random.default_rng(7)
        w = rng.normal(0, 1, (2, 8))
        a_fp = rng.normal(0, 1, (3, 8))
        stages = frozenset({"aqer", "wqer_rounding"})
        got = pipeline.quantize_layer(
            w, a_fp, "uniform", 4, 4,
            pipeline.RunConfig(lambda1=1.0, lambda2=0.0, stages=stages),
        )
        want = pipeline.quantize_layer(
            w, a_fp, "uniform", 4, 4,
            pipeline.RunConfig(lambda1=1.0, lambda2=10.0, stages=stages),
        )
        np.testing.assert_array_equal(got.codes, want.codes)
        with pytest.raises(SingularSystemError):
            RemainderRidge(LayerMomentCache(a_fp), 0.0)

    @pytest.mark.parametrize("shape", [(1, 8), (1, 1), (0, 3)])
    def test_fewer_than_two_samples_rejected(self, shape):
        # a batch of fewer than two samples is rejected at the boundary, as
        # accumulate_moments rejects it
        with pytest.raises(InsufficientSamplesError):
            LayerMomentCache(np.ones(shape))


def _reference_remainder_solver(a_q, lo, mid, lambda2):
    # reference: the remainder solve from its unnormalized sample-space
    # system X_r X_r^T + N lambda2 I on the raw X_s delta_s when N < D_r, and
    # from the strided products X_r^T X_r / N and X_r^T X_s / N otherwise
    n = a_q.shape[0]
    x_s, x_r = a_q[:, lo:mid], a_q[:, mid:]
    width = x_r.shape[1]
    if n < width:
        factor = spd_factor(x_r @ x_r.T + n * lambda2 * np.eye(n))
        return lambda delta_s: x_r.T @ solve_spd(factor, x_s @ delta_s)
    factor = spd_factor(x_r.T @ x_r / n + lambda2 * np.eye(width))
    return lambda delta_s: solve_spd(factor, x_r.T @ x_s / n @ delta_s)


class TestRidgeSystem:
    @pytest.mark.parametrize("n,d_in", THIN_SHAPES + [(128, 2048)])
    @pytest.mark.parametrize("lambda2", [0.5, 10.0])
    def test_solver_matches_reference_forms(self, n, d_in, lambda2):
        # 32 rows of a layer per split, against the remainder forms above
        rng = np.random.default_rng(3 * n + d_in)
        a_q = rng.normal(0.3, 1.0, (n, d_in))
        ridge = RemainderRidge(LayerMomentCache(a_q), lambda2)
        for lo, mid in ridge.cache.splits[:-1]:
            ref = _reference_remainder_solver(a_q, lo, mid, lambda2)
            deltas = rng.normal(0, 0.1, (32, mid - lo))
            for got, delta_s in zip(ridge.updates(lo, mid, deltas), deltas, strict=True):
                want = -ref(delta_s)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n,d_in", THIN_SHAPES + [(128, 2048), (64, 40), (300, 256)])
    def test_updates_equal_per_row_solves(self, n, d_in):
        # a split's updates, from stacked products, against each row's own
        # solve (_row_solve), bit for bit, in both spaces, for blocks of 1
        # and 32 rows and into a strided `out` as the loop passes it
        rng = np.random.default_rng(5 * n + d_in)
        ridge = RemainderRidge(LayerMomentCache(rng.normal(0.3, 1.0, (n, d_in))), 0.5)
        spaces = set()
        for lo, mid in ridge.cache.splits[:-1]:
            spaces.add(ridge._remainder[(lo, mid)][2] is None)
            deltas = rng.normal(0, 0.1, (32, mid - lo))
            want = np.array([-_row_solve(ridge, lo, mid, delta_s) for delta_s in deltas])
            _assert_same_bytes(ridge.updates(lo, mid, deltas), want, "updates")
            _assert_same_bytes(ridge.updates(lo, mid, deltas[3:4]), want[3:4], "one row")
            change = np.zeros((32, d_in - lo))
            got = ridge.updates(lo, mid, deltas, out=change[:, mid - lo :])
            assert np.shares_memory(got, change)
            _assert_same_bytes(change[:, mid - lo :].copy(), want, "out")
        # sample space where a remainder is wider than the batch; the widest is D_in // 2
        assert spaces == ({True, False} if n < d_in // 2 else {True})

    def test_space_is_the_smaller_one(self):
        rng = np.random.default_rng(24)
        for n, d_in in ((12, 40), (64, 40)):
            cache = LayerMomentCache(rng.normal(0.3, 1.0, (n, d_in)))
            for cols in (slice(None), slice(20, 40), slice(30, 40)):
                width = len(range(d_in)[cols])
                system, sample_space = cache.ridge_system(cols, 0.5)
                assert sample_space == (n < width)
                assert system.shape == ((n, n) if sample_space else (width, width))

    def test_input_space_block_is_the_proxy_block(self):
        # one block for the proxy and the ridge, from the Gram or the batch
        rng = np.random.default_rng(25)
        for n in (12, 64):
            cache = LayerMomentCache(rng.normal(0.3, 1.0, (n, 40)))
            for lo, mid in cache.splits:
                if mid - lo <= n:
                    system, sample_space = cache.ridge_system(slice(lo, mid), 0.5)
                    assert not sample_space
                    np.testing.assert_array_equal(
                        system, cache.block(slice(lo, mid)) + 0.5 * np.eye(mid - lo)
                    )

    def test_unregularized_system_wider_than_the_batch_is_singular(self):
        # a D x D moment matrix of N < D samples has rank <= N, so lambda = 0
        # is refused for aqer and a remainder, before any factor; at N = D
        # (and for narrower remainders) the system still factors
        rng = np.random.default_rng(26)
        w = rng.normal(0, 1, (3, 100))
        a_fp = rng.normal(0.2, 1.0, (10, 100))
        cache = LayerMomentCache(a_fp + rng.normal(0, 0.05, a_fp.shape))
        with pytest.raises(SingularSystemError, match="regularization"):
            act_correct.solve_activation_correction(w, a_fp, cache, 0.0)
        with pytest.raises(SingularSystemError, match="regularization"):
            RemainderRidge(cache, 0.0)
        with pytest.raises(SingularSystemError, match="regularization"):
            cache.ridge_system(slice(50, 100), 0)
        act_correct.solve_activation_correction(w, a_fp, cache, 1e-3)
        RemainderRidge(cache, 1e-3)
        a_fp = rng.normal(0.2, 1.0, (100, 100))
        square = LayerMomentCache(a_fp + rng.normal(0, 0.05, a_fp.shape))
        act_correct.solve_activation_correction(w, a_fp, square, 0.0)
        RemainderRidge(square, 0.0)
        # the first remainder is exactly as wide as the batch
        RemainderRidge(LayerMomentCache(square.batch[:50]), 0.0)

    def test_thin_batch_factors_attributed_per_stage(self, monkeypatch):
        # N < D_in: aqer factors its N x N system once through
        # act_correct.spd_factor, and each remainder its system once through
        # weight_quant.spd_factor, N x N where wider than the batch
        d_out, d_in, n = 3, 40, 12
        sizes = {"act_correct": [], "weight_quant": []}
        for module in (act_correct, weight_quant):
            real = module.spd_factor

            def recording(matrix, real=real, name=module.__name__.rsplit(".", 1)[1]):
                sizes[name].append(matrix.shape[0])
                return real(matrix)

            monkeypatch.setattr(module, "spd_factor", recording)
        rng = np.random.default_rng(27)
        w = rng.normal(0, 0.5, (d_out, d_in))
        a_fp = rng.normal(0.2, 1.0, (n, d_in))
        pipeline.quantize_layer(
            w, a_fp, "uniform", 4, 4, pipeline.RunConfig(lambda1=1.0, lambda2=1.0)
        )
        assert sizes["act_correct"] == [n]
        widths = [d_in - mid for _, mid in halving_splits(d_in)[:-1]]
        assert sizes["weight_quant"] == [min(n, width) for width in widths]
        assert n in sizes["weight_quant"] and min(widths) < n

    @pytest.mark.parametrize("n", [8, 64])
    def test_fault_in_the_system_reaches_aqer_the_loop_and_verify(self, monkeypatch, n):
        # a 1% error injected into the one ridge system moves aqer's update
        # and the weight loop's remainders, and fails both verify suites
        rng = np.random.default_rng(28)
        w = rng.normal(0, 0.5, (3, 24))
        params = [calibrate_scale(row, "uniform", 4, "per_tensor") for row in w]
        a_fp = rng.normal(0.2, 1.0, (n, 24))
        a_q = a_fp + rng.normal(0, 0.05, a_fp.shape)

        def run():
            cache = LayerMomentCache(a_q)
            update = act_correct.solve_activation_correction(w, a_fp, cache, 0.5)
            ridge = RemainderRidge(cache, 0.5)
            remainders = [
                ridge.updates(lo, mid, np.ones((1, mid - lo))) for lo, mid in cache.splits[:-1]
            ]
            weights = quantize_layer_weights(w, _stack(params), cache, ridge, k=1, max_iter=100)
            return update, remainders, weights.trace

        assert suite_gradient_checks().passed and suite_ridge_optimality(splits=5).passed
        want_update, want_remainders, want_trace = run()
        real = LayerMomentCache.ridge_system

        def faulty(self, cols, strength):
            system, sample_space = real(self, cols, strength)
            return 1.01 * system, sample_space

        monkeypatch.setattr(LayerMomentCache, "ridge_system", faulty)
        got_update, got_remainders, got_trace = run()
        assert np.abs(got_update - want_update).max() > 1e-6 * np.abs(want_update).max()
        for got, want in zip(got_remainders, want_remainders):
            assert np.abs(got - want).max() > 1e-6 * np.abs(want).max()
        assert got_trace != want_trace
        assert not suite_gradient_checks().passed
        assert not suite_ridge_optimality(splits=5).passed
