"""Memory banks for target features and their predictions, with exact
cosine-KNN retrieval.

Bank row i always corresponds to target sample i. The score bank is a plain
(M, C) array of stored probability rows. When a capacity fraction below 1 is
configured, arrays keep their full size and each feature-bank row carries a
write stamp that grows with every write; a row is searchable exactly when
its stamp is among the `capacity` largest. So the least recently written
row is evicted first, and rewriting a live row refreshes it.

`knn` is an exact blocked scan: queries are taken in blocks of about
`_BLOCK_ENTRIES` distances (256 KB of float64, so a block's distance matrix
stays in cache), each with one GEMM against the searchable rows. The K-th
smallest minimum of max(`_GROUPS`, 4K) column groups (at most N) bounds each
row's K-th distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import Model, forward
from .numerics import check_distribution_rows

# Distances per query block in `knn`: the block has max(1, this // N) rows.
_BLOCK_ENTRIES = 32768
# Column groups per row for `knn`'s bound, raised to 4K and capped at N.
_GROUPS = 64


@dataclass
class FeatureBank:
    normalized: np.ndarray  # (M, d) unit rows; zero rows stay zero
    valid: np.ndarray  # (M,) bool: stamp among the `capacity` largest
    capacity: int
    stamps: np.ndarray  # (M,) int64, distinct; larger means written later

    @classmethod
    def from_rows(cls, rows: np.ndarray, capacity: int) -> "FeatureBank":
        """Bank whose rows were written in index order, so the last
        `capacity` rows are the searchable ones."""
        m = rows.shape[0]
        stamps = np.arange(m, dtype=np.int64)
        return cls(
            normalized=_unit_rows(rows),
            valid=stamps >= m - capacity,
            capacity=capacity,
            stamps=stamps,
        )

    @property
    def size(self) -> int:
        return self.normalized.shape[0]


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows divided by their Euclidean norms; zero rows stay zero."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms == 0.0, 1.0, norms)[:, None]


def init_banks(
    model: Model, target_inputs, capacity_fraction: float = 1.0
) -> tuple[FeatureBank, np.ndarray]:
    """Populate the feature bank and the (M, C) score bank with one full
    forward pass, dataset order."""
    inputs = np.asarray(target_inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise InvalidInputError("target set must be a nonempty 2-D batch")
    if not (0.0 < capacity_fraction <= 1.0):
        raise InvalidInputError("capacity fraction must be in (0, 1]")
    features, _, probs = forward(model, inputs)
    capacity = max(1, math.ceil(capacity_fraction * inputs.shape[0]))
    return FeatureBank.from_rows(features, capacity), probs.copy()


def update_banks(fbank: FeatureBank, score_bank: np.ndarray, indices, features, probs) -> None:
    """Overwrite the addressed rows; duplicates apply in order (last wins)."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    feats = np.asarray(features, dtype=np.float64)
    prob_rows = np.asarray(probs, dtype=np.float64)
    if idx.size == 0:
        return
    if idx.min() < 0 or idx.max() >= fbank.size:
        raise InvalidInputError("bank index out of range")
    if feats.shape != (idx.size, fbank.normalized.shape[1]):
        raise InvalidInputError("feature rows shape mismatch")
    if prob_rows.shape != (idx.size, score_bank.shape[1]):
        raise InvalidInputError("probability rows shape mismatch")
    if not np.all(np.isfinite(feats)):
        raise InvalidInputError("feature rows contain non-finite entries")
    check_distribution_rows(prob_rows, "probability")

    # Fancy assignment leaves repeated indices unspecified, so keep each
    # index's last occurrence explicitly.
    reversed_unique, reversed_pos = np.unique(idx[::-1], return_index=True)
    last = idx.size - 1 - reversed_pos
    fbank.normalized[reversed_unique] = _unit_rows(feats[last])
    score_bank[reversed_unique] = prob_rows[last]
    fbank.stamps[reversed_unique] = fbank.stamps.max() + 1 + last
    evicted = fbank.size - fbank.capacity
    fbank.valid[:] = fbank.stamps >= np.partition(fbank.stamps, evicted)[evicted]


def knn(fbank: FeatureBank, query_indices, k: int) -> np.ndarray:
    """(B, K) indices of each query's K nearest searchable rows by cosine
    distance (1 - cosine similarity) on the normalized copies, ordered by
    (distance, index); the query's own row is excluded.

    The searchable rows are gathered once, as a contiguous (d, N)
    transpose. The queries are then scanned in blocks of
    max(1, _BLOCK_ENTRIES // N) rows; a block never holds more than about
    _BLOCK_ENTRIES distances, so no (B, N) matrix is built. Per block: one
    GEMM; the minima of min(N, max(_GROUPS, 4K)) contiguous column groups,
    whose K-th smallest bounds the K-th distance from above (K distinct
    groups each hold an entry at or below it); and one lexsort by (query,
    distance, index) of only the entries at or below that bound.
    """
    queries = np.asarray(query_indices, dtype=np.int64).ravel()
    if queries.size and (queries.min() < 0 or queries.max() >= fbank.size):
        raise InvalidInputError("query index out of range")
    if k < 1:
        raise InvalidInputError("K must be >= 1")
    rows = np.flatnonzero(fbank.valid)
    self_valid = fbank.valid[queries]
    candidates = rows.size - self_valid
    if queries.size and k > candidates.min():
        raise InvalidInputError(f"K={k} exceeds the {candidates.min()} searchable rows")

    n = rows.size
    searchable_t = np.ascontiguousarray(fbank.normalized[rows].T)
    self_pos = np.searchsorted(rows, queries)
    block = max(1, _BLOCK_ENTRIES // max(n, 1))
    groups = min(n, max(_GROUPS, 4 * k))
    starts = np.arange(groups) * n // max(groups, 1)  # groups <= n: none empty
    out = np.empty((queries.size, k), dtype=np.int64)
    for start in range(0, queries.size, block):
        stop = min(start + block, queries.size)
        dist = fbank.normalized[queries[start:stop]] @ searchable_t
        np.subtract(1.0, dist, out=dist)
        live = np.flatnonzero(self_valid[start:stop])
        dist[live, self_pos[start + live]] = np.inf
        group_min = np.minimum.reduceat(dist, starts, axis=1)
        bound = np.partition(group_min, k - 1, axis=1)[:, k - 1]
        near = np.flatnonzero(dist <= bound[:, None])
        query, col = np.divmod(near, n)
        order = np.lexsort((col, dist.ravel()[near], query))
        # Every query has at least k survivors; its first k follow the
        # survivors of the queries before it.
        first = np.searchsorted(query, np.arange(stop - start))
        picks = order[first[:, None] + np.arange(k)]
        out[start:stop] = rows[col[picks]]
    return out
