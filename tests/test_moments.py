"""The 1/N Gram E[x x^T]: hand cases, agreement with numpy, exact symmetry."""

import numpy as np
import pytest

from quantred.moments import InsufficientSamplesError, accumulate_moments, gram
from quantred.weight_quant import LayerMomentCache

# (N, D): N >= D reduces the cache to the D x D Gram, N < D builds its
# blocks from batch slices; the strided layout halves both
SYMMETRY_SHAPES = [(1000, 37), (400, 150), (129, 200), (7, 300)]


def _layouts(batch):
    """C, F, F column-reversed and strided views of one batch."""
    return (
        batch,
        np.asfortranarray(batch),
        np.asfortranarray(batch)[:, ::-1],
        batch[::2, 1::2],
    )


class TestHandCases:
    def test_two_row_hand_case(self):
        m = accumulate_moments(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(m, [[1.0, 0.0], [0.0, 0.0]])

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
        np.testing.assert_allclose(m, batch.T @ batch / len(batch), atol=1e-10)

    def test_row_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        batch = rng.normal(0, 1, (64, 5))
        m1 = accumulate_moments(batch)
        m2 = accumulate_moments(batch[rng.permutation(64)])
        np.testing.assert_allclose(m1, m2, atol=1e-12)

    def test_raw2_identity(self):
        # E[x x^T] = mu mu^T + Sigma with the 1/N covariance: the proxy
        # delta E[x x^T] delta^T is the expected output error of delta
        rng = np.random.default_rng(10)
        batch = rng.normal(1, 2, (40, 3))
        mu = batch.mean(axis=0)
        recon = np.outer(mu, mu) + np.cov(batch.T, ddof=0)
        np.testing.assert_allclose(accumulate_moments(batch), recon, atol=1e-12)


class TestOutputs:
    def test_finalized_arrays_read_only(self):
        m = accumulate_moments(np.random.default_rng(0).normal(0, 1, (8, 2)))
        with pytest.raises(ValueError):
            m[0] = 99.0

    @pytest.mark.parametrize("n,dim", SYMMETRY_SHAPES)
    def test_exactly_symmetric_without_symmetrizing(self, n, dim):
        # the Gram is returned as computed, so every memory layout of the
        # batch must produce an exactly symmetric matrix by itself
        batch = np.random.default_rng(dim).normal(0.5, 2.0, (n, dim))
        for layout in _layouts(batch):
            m = accumulate_moments(layout)
            assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("n,dim", SYMMETRY_SHAPES)
    def test_cache_blocks_exactly_symmetric(self, n, dim):
        # refinement reads the rows of a proxy block as its columns, so every
        # block of either regime must be exactly symmetric for every layout
        batch = np.random.default_rng(dim).normal(0.5, 2.0, (n, dim))
        for layout in _layouts(batch):
            cache = LayerMomentCache(layout)
            assert (cache.moments is None) == (layout.shape[0] < layout.shape[1])
            for lo, mid in cache.splits:
                block = cache.block(slice(lo, mid))
                assert np.array_equal(block, block.T)

    @pytest.mark.parametrize(
        "n,dim", [(50, 1), (300, 63), (300, 64), (300, 65), (400, 200)]
    )
    def test_raw2_equals_eager_formula_exactly(self, n, dim):
        # the Gram is one product scaled in place: each entry is the value
        # the eager X^T X / N computes
        batch = np.random.default_rng(dim).normal(0.5, 2.0, (n, dim))
        np.testing.assert_array_equal(accumulate_moments(batch), batch.T @ batch / n)


class TestGram:
    @pytest.mark.parametrize("layout", range(4))
    def test_layout_matches_contiguous_copy_exactly(self, layout):
        # every layout is reduced through the same C-contiguous product, so
        # its Gram is bit-identical to the Gram of its contiguous copy
        batch = np.random.default_rng(layout).normal(0.5, 2.0, (130, 70))
        view = _layouts(batch)[layout]
        np.testing.assert_array_equal(gram(view), gram(np.ascontiguousarray(view)))

    def test_casts_to_float64(self):
        batch = np.arange(-12, 12, dtype=np.int32).reshape(8, 3)
        got = gram(batch)
        assert got.dtype == np.float64
        wide = batch.astype(np.float64)
        np.testing.assert_array_equal(got, wide.T @ wide / 8)
        narrow = np.random.default_rng(3).normal(0, 1, (50, 6)).astype(np.float32)
        assert gram(narrow).dtype == np.float64

    def test_leaves_batch_untouched(self):
        # the scale is applied in place to the product, never to the batch
        batch = np.random.default_rng(4).normal(0, 1, (40, 40))
        before = batch.copy()
        got = gram(batch)
        np.testing.assert_array_equal(batch, before)
        assert not np.shares_memory(got, batch)
        assert got.flags.writeable
