"""Streaming moment accumulation: hand cases, merge laws, error cross-moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred.moments import (
    InsufficientSamplesError,
    MomentAccumulator,
    accumulate_moments,
    error_cross_moment,
)


class TestHandCases:
    def test_two_row_hand_case(self):
        m = accumulate_moments(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(m.mu, [0.0, 0.0])
        np.testing.assert_array_equal(m.sigma, [[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(m.raw2, [[1.0, 0.0], [0.0, 0.0]])
        assert m.n == 2

    def test_error_cross_moment_hand_case(self):
        a_fp = np.array([[1.0, 2.0]])
        a_q = np.array([[1.5, 1.0]])
        # (a_q - a_fp)^T a_q / N with dx = [0.5, -1.0]
        np.testing.assert_allclose(
            error_cross_moment(a_fp, a_q), [[0.75, 0.5], [-1.5, -1.0]]
        )

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            accumulate_moments(np.ones((1, 3)))
        with pytest.raises(InsufficientSamplesError):
            MomentAccumulator(2).finalize()


class TestNumericalAgreement:
    def test_streaming_matches_two_pass(self):
        rng = np.random.default_rng(7)
        batch = rng.normal(0.4, 1.5, (513, 9))  # odd count crosses chunk edges
        m = accumulate_moments(batch, chunk=64)
        np.testing.assert_allclose(m.mu, batch.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(m.sigma, np.cov(batch.T, ddof=1), atol=1e-10)
        np.testing.assert_allclose(m.raw2, batch.T @ batch / len(batch), atol=1e-10)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(2, 1, (100, 4)), rng.normal(-1, 3, (57, 4))
        acc1 = MomentAccumulator(4)
        acc1.update(a)
        acc2 = MomentAccumulator(4)
        acc2.update(b)
        acc1.merge(acc2)
        merged = acc1.finalize()
        direct = accumulate_moments(np.vstack([a, b]))
        np.testing.assert_allclose(merged.mu, direct.mu, atol=1e-12)
        np.testing.assert_allclose(merged.sigma, direct.sigma, atol=1e-12)
        np.testing.assert_allclose(merged.raw2, direct.raw2, atol=1e-12)

    def test_row_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        batch = rng.normal(0, 1, (64, 5))
        m1 = accumulate_moments(batch)
        m2 = accumulate_moments(batch[rng.permutation(64)])
        np.testing.assert_allclose(m1.mu, m2.mu, atol=1e-12)
        np.testing.assert_allclose(m1.sigma, m2.sigma, atol=1e-12)

    def test_raw2_identity(self):
        rng = np.random.default_rng(10)
        batch = rng.normal(1, 2, (40, 3))
        m = accumulate_moments(batch)
        recon = m.sigma * (m.n - 1) / m.n + np.outer(m.mu, m.mu)
        np.testing.assert_allclose(m.raw2, recon, atol=1e-12)

    def test_generator_input(self):
        rng = np.random.default_rng(11)
        batch = rng.normal(0, 1, (30, 4))
        m_stream = accumulate_moments(iter(batch), chunk=7)
        m_batch = accumulate_moments(batch)
        np.testing.assert_allclose(m_stream.mu, m_batch.mu, atol=1e-12)
        np.testing.assert_allclose(m_stream.raw2, m_batch.raw2, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 80),
        dim=st.integers(1, 6),
        chunk=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    def test_chunk_size_never_changes_result(self, n, dim, chunk, seed):
        batch = np.random.default_rng(seed).normal(0, 1, (n, dim))
        m1 = accumulate_moments(batch, chunk=chunk)
        m2 = accumulate_moments(batch, chunk=max(n, 1))
        np.testing.assert_allclose(m1.mu, m2.mu, atol=1e-10)
        np.testing.assert_allclose(m1.sigma, m2.sigma, atol=1e-10)


class TestOutputs:
    def test_finalized_arrays_read_only(self):
        m = accumulate_moments(np.random.default_rng(0).normal(0, 1, (8, 2)))
        for arr in (m.mu, m.sigma, m.raw2):
            with pytest.raises(ValueError):
                arr[0] = 99.0  # type: ignore[index]

    def test_sigma_and_raw2_symmetric(self):
        m = accumulate_moments(np.random.default_rng(1).normal(0, 1, (200, 12)))
        np.testing.assert_array_equal(m.sigma, m.sigma.T)
        np.testing.assert_array_equal(m.raw2, m.raw2.T)


class TestErrorCrossMoment:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            error_cross_moment(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_zero_error_gives_zero_matrix(self):
        a = np.random.default_rng(2).normal(0, 1, (16, 3))
        np.testing.assert_array_equal(error_cross_moment(a, a), np.zeros((3, 3)))

    def test_matches_loop_computation(self):
        rng = np.random.default_rng(13)
        a_fp = rng.normal(0, 1, (20, 4))
        a_q = a_fp + rng.normal(0, 0.1, (20, 4))
        expected = np.zeros((4, 4))
        for i in range(20):
            expected += np.outer(a_q[i] - a_fp[i], a_q[i])
        expected /= 20
        np.testing.assert_allclose(error_cross_moment(a_fp, a_q), expected, atol=1e-12)
