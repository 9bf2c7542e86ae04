"""First and second moments of a calibration batch in one centred pass.

Keeps both normalizations in play: `sigma` is the unbiased covariance
(1/(N-1) centered sum) used by the rounding proxy, while `raw2` is the
uncentered 1/N second moment E[x x^T]. The identity
raw2 == sigma * (N-1)/N + mu mu^T holds by construction, and both matrices
are exactly symmetric: the co-moment is the centred C^T C product (a
symmetric rank-k update) and mu mu^T an outer product of a vector with
itself. Two D x D matrices are allocated besides the batch: the centred
batch is freed after the product, `raw2` is the co-moment scaled in place,
and `add_outer` adds mu mu^T to it a few rows at a time.

`weight_quant.LayerMomentCache` copies a split's proxy block out of `sigma`
(plus mu_s mu_s^T, through `add_outer`) when that split runs, for a batch
with at least as many samples N as columns D. For a thinner batch it
accumulates nothing here: D x D moments of rank at most N would cost more
than the batch itself, so it forms each block from the centred batch slice
instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# rows of mu mu^T formed per step of add_outer: bounds its temporary to
# _OUTER_ROWS x D values, next to a D x D target
_OUTER_ROWS = 64


class InsufficientSamplesError(Exception):
    """A batch has fewer than two samples."""


@dataclass(frozen=True)
class MomentSet:
    mu: np.ndarray
    sigma: np.ndarray
    raw2: np.ndarray
    n: int


def add_outer(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """matrix += vec vec^T in place; each entry gets the product np.outer forms."""
    for start in range(0, vec.size, _OUTER_ROWS):
        rows = vec[start : start + _OUTER_ROWS]
        matrix[start : start + rows.size] += rows[:, None] * vec
    return matrix


def accumulate_moments(batch: np.ndarray) -> MomentSet:
    """mu, sigma and raw2 of an (N, D) batch from one centred C^T C product."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {batch.shape}")
    n = batch.shape[0]
    if n < 2:
        raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
    mu = batch.mean(axis=0)
    centred = batch - mu
    m2 = centred.T @ centred
    del centred
    sigma = m2 / (n - 1)
    m2 /= n
    raw2 = add_outer(m2, mu)
    for a in (mu, sigma, raw2):
        a.setflags(write=False)
    return MomentSet(mu=mu, sigma=sigma, raw2=raw2, n=n)
