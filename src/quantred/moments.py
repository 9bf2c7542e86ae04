"""The second moment E[x x^T] of a calibration batch, its 1/N Gram.

One normalization serves every consumer: the rounding proxy's expected
output error E[(delta x)^2] = delta E[x x^T] delta^T, which with the 1/N
estimator is exactly the mean squared error over the batch; the trace MSE
of `weight_quant`; and every ridge system, aqer's and the remainder's,
which `weight_quant.LayerMomentCache.ridge_system` builds in either space
with the same 1/N (X X^T / N in sample space). The Gram is returned as
computed, never symmetrized, and is exactly symmetric: the product X^T X
of a C-contiguous batch is a symmetric rank-k update. Other layouts
(Fortran-ordered, column-reversed or strided batches) are copied to C
order first, since a product over them need not round symmetrically.

`weight_quant.LayerMomentCache` reduces a batch with at least as many
samples N as columns D to this Gram (`accumulate_moments`), once per
layer: aqer, the proxy blocks (views of it), the remainder ridge and the
trace MSE all read that one matrix. For a thinner batch it accumulates no
D x D Gram, whose rank of at most N would cost more than the batch
itself: each block, of the proxy or of a ridge system no wider than N,
is the `gram` of its batch slice instead, and wider systems are solved
in sample space.
"""

from __future__ import annotations

import numpy as np


class InsufficientSamplesError(Exception):
    """A batch has fewer than two samples."""


def gram(batch: np.ndarray) -> np.ndarray:
    """X^T X / N of an (N, D) batch X, from a C-contiguous float64 copy if needed."""
    batch = np.ascontiguousarray(batch, dtype=np.float64)
    product = batch.T @ batch
    product /= batch.shape[0]
    return product


def accumulate_moments(batch: np.ndarray) -> np.ndarray:
    """The read-only D x D Gram E[x x^T] of an (N, D) batch, N >= 2."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {batch.shape}")
    n = batch.shape[0]
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    moments = gram(batch)
    moments.setflags(write=False)
    return moments
