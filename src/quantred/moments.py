"""First and second moments of a calibration batch in one centred pass.

Keeps both normalizations in play: `sigma` is the unbiased covariance
(1/(N-1) centered sum) used by the rounding proxy, while `raw2` is the
uncentered 1/N second moment E[x x^T]. The identity
raw2 == sigma * (N-1)/N + mu mu^T holds by construction, and both matrices
are exactly symmetric: the co-moment is the centred C^T C product (a
symmetric rank-k update) and mu mu^T an outer product of a vector with
itself. `weight_quant.LayerMomentCache` slices its split-specific blocks
from these matrices when the batch has at least as many samples N as
columns D. For a thinner batch it accumulates nothing here: D x D moments
of rank at most N would cost more than the batch itself, so it forms each
block from the batch slices instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InsufficientSamplesError(Exception):
    """A batch has fewer than two samples."""


@dataclass(frozen=True)
class MomentSet:
    mu: np.ndarray
    sigma: np.ndarray
    raw2: np.ndarray
    n: int


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
    sigma = m2 / (n - 1)
    raw2 = m2 / n + np.outer(mu, mu)
    for a in (mu, sigma, raw2):
        a.setflags(write=False)
    return MomentSet(mu=mu, sigma=sigma, raw2=raw2, n=n)
