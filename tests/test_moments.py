"""One-pass moment accumulation: hand cases, agreement with numpy, symmetry."""

import numpy as np
import pytest

from quantred.moments import InsufficientSamplesError, accumulate_moments, add_outer


class TestHandCases:
    def test_two_row_hand_case(self):
        m = accumulate_moments(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(m.mu, [0.0, 0.0])
        np.testing.assert_array_equal(m.sigma, [[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(m.raw2, [[1.0, 0.0], [0.0, 0.0]])
        assert m.n == 2

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            accumulate_moments(np.ones((1, 3)))
        with pytest.raises(InsufficientSamplesError):
            accumulate_moments(np.ones((0, 3)))

    def test_rejects_non_matrix_batch(self):
        with pytest.raises(ValueError, match="2-D"):
            accumulate_moments(np.ones(4))


class TestNumericalAgreement:
    def test_one_pass_matches_numpy(self):
        rng = np.random.default_rng(7)
        batch = rng.normal(0.4, 1.5, (513, 9))
        m = accumulate_moments(batch)
        np.testing.assert_allclose(m.mu, np.mean(batch, axis=0), atol=1e-10)
        np.testing.assert_allclose(m.sigma, np.cov(batch.T, ddof=1), atol=1e-10)
        np.testing.assert_allclose(m.raw2, batch.T @ batch / len(batch), atol=1e-10)

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

    @pytest.mark.parametrize("n,dim", [(1000, 37), (129, 200), (7, 300)])
    def test_exactly_symmetric_without_symmetrizing(self, n, dim):
        # the moments are returned as computed, so every memory layout of
        # the batch must produce exactly symmetric matrices by itself
        rng = np.random.default_rng(dim)
        batch = rng.normal(0.5, 2.0, (n, dim))
        for layout in (
            batch,
            np.asfortranarray(batch),
            np.asfortranarray(batch)[:, ::-1],
            batch[::2, 1::2],
        ):
            m = accumulate_moments(layout)
            assert np.array_equal(m.sigma, m.sigma.T)
            assert np.array_equal(m.raw2, m.raw2.T)

    @pytest.mark.parametrize(
        "n,dim", [(50, 1), (300, 63), (300, 64), (300, 65), (400, 200)]
    )
    def test_raw2_equals_eager_formula_exactly(self, n, dim):
        # raw2 is the co-moment scaled and given mu mu^T in place, a chunk
        # of rows at a time: each entry is the sum the eager form computes
        batch = np.random.default_rng(dim).normal(0.5, 2.0, (n, dim))
        m = accumulate_moments(batch)
        centred = batch - batch.mean(axis=0)
        m2 = centred.T @ centred
        np.testing.assert_array_equal(m.sigma, m2 / (n - 1))
        np.testing.assert_array_equal(m.raw2, m2 / n + np.outer(m.mu, m.mu))


class TestAddOuter:
    @pytest.mark.parametrize("dim", [0, 1, 63, 64, 65, 130])
    def test_equals_outer_sum_exactly(self, dim):
        rng = np.random.default_rng(dim)
        base = rng.normal(0, 1, (dim, dim))
        vec = rng.normal(0, 1, dim)
        got = base.copy()
        assert add_outer(got, vec) is got
        np.testing.assert_array_equal(got, base + np.outer(vec, vec))
