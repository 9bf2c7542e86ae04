"""Streaming first/second moment estimation over activation batches.

Keeps both normalizations in play: `sigma` is the unbiased covariance
(1/(N-1) centered sum) used by the rounding proxy, while `raw2` is the
uncentered 1/N second moment E[x x^T]. Split-specific blocks are sliced
from the finished matrices by `weight_quant.LayerMomentCache`, never
re-summed from data. The identity raw2 == sigma * (N-1)/N + mu mu^T holds by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


class InsufficientSamplesError(Exception):
    """Fewer than two samples were accumulated."""


@dataclass(frozen=True)
class MomentSet:
    mu: np.ndarray
    sigma: np.ndarray
    raw2: np.ndarray
    n: int


class MomentAccumulator:
    """Single-pass accumulator; mergeable so shards combine associatively.

    Internally tracks the running mean and centered co-moment matrix and
    merges chunks with the pairwise update, which keeps the accumulation
    stable for long streams.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self._n = 0
        self._mean = np.zeros(self.dim, dtype=np.float64)
        self._m2 = np.zeros((self.dim, self.dim), dtype=np.float64)

    @property
    def count(self) -> int:
        return self._n

    def update(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != self.dim:
            raise ValueError(f"expected rows of dim {self.dim}, got {rows.shape}")
        m = rows.shape[0]
        if m == 0:
            return
        mean_c = rows.mean(axis=0)
        centered = rows - mean_c
        m2_c = centered.T @ centered
        self._merge_parts(m, mean_c, m2_c)

    def merge(self, other: "MomentAccumulator") -> None:
        if other.dim != self.dim:
            raise ValueError("cannot merge accumulators of different dims")
        self._merge_parts(other._n, other._mean, other._m2)

    def _merge_parts(self, n2: int, mean2: np.ndarray, m2_2: np.ndarray) -> None:
        if n2 == 0:
            return
        n1 = self._n
        n = n1 + n2
        if n1 == 0:
            self._mean = mean2.copy()
            self._m2 = m2_2.copy()
        else:
            delta = mean2 - self._mean
            self._m2 = self._m2 + m2_2 + np.outer(delta, delta) * (n1 * n2 / n)
            self._mean = self._mean + delta * (n2 / n)
        self._n = n

    def finalize(self) -> MomentSet:
        if self._n < 2:
            raise InsufficientSamplesError(
                f"need at least 2 samples, accumulated {self._n}"
            )
        n = self._n
        mu = self._mean.copy()
        m2 = 0.5 * (self._m2 + self._m2.T)
        sigma = m2 / (n - 1)
        raw2 = m2 / n + np.outer(mu, mu)
        raw2 = 0.5 * (raw2 + raw2.T)
        for a in (mu, sigma, raw2):
            a.setflags(write=False)
        return MomentSet(mu=mu, sigma=sigma, raw2=raw2, n=n)


def accumulate_moments(
    rows: np.ndarray | Iterable[np.ndarray], dim: int | None = None, chunk: int = 1024
) -> MomentSet:
    """Accumulate a batch or a row stream in one pass and finalize."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {rows.shape}")
        acc = MomentAccumulator(rows.shape[1])
        for start in range(0, rows.shape[0], chunk):
            acc.update(rows[start : start + chunk])
        return acc.finalize()
    acc = None
    buffer: list[np.ndarray] = []
    for row in rows:
        row = np.asarray(row, dtype=np.float64).ravel()
        if acc is None:
            acc = MomentAccumulator(dim if dim is not None else row.size)
        buffer.append(row)
        if len(buffer) >= chunk:
            acc.update(np.asarray(buffer))
            buffer.clear()
    if acc is None:
        if dim is None:
            raise InsufficientSamplesError("empty stream and no dim given")
        acc = MomentAccumulator(dim)
    if buffer:
        acc.update(np.asarray(buffer))
    return acc.finalize()


def error_cross_moment(a_fp: np.ndarray, a_q: np.ndarray) -> np.ndarray:
    """E[dx xbar^T] as a 1/N sum over a paired (full-precision, quantized) batch."""
    a_fp = np.asarray(a_fp, dtype=np.float64)
    a_q = np.asarray(a_q, dtype=np.float64)
    if a_fp.shape != a_q.shape or a_fp.ndim != 2:
        raise ValueError("paired batches must share an (N, D) shape")
    n = a_fp.shape[0]
    if n < 1:
        raise InsufficientSamplesError("paired batch is empty")
    return (a_q - a_fp).T @ a_q / n
