"""Memory banks for target features and their predictions, with exact
cosine-KNN retrieval.

Bank row i always corresponds to target sample i. The score bank is a plain
(M, C) array of stored probability rows. When a capacity fraction below 1 is
configured, arrays keep their full size and each feature-bank row carries a
write stamp that grows with every write; a row is searchable exactly when
its stamp is among the `capacity` largest. So the least recently written
row is evicted first, and rewriting a live row refreshes it.

The searchable rows are also kept compacted in a persistent (d, capacity)
slot matrix, with slot-to-row and row-to-slot maps that `update_banks`
keeps current. `knn` scans the slots exactly, one GEMM per block of about
`_BLOCK_ENTRIES` dot products; the K-th largest maximum of max(`_GROUPS`,
4K) column groups (at most N) bounds each K-th distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .model import Model, forward
from .numerics import check_distribution_rows

# Dot products per query block in `knn`: the block has max(1, this // N) rows.
_BLOCK_ENTRIES = 2**19
# Column groups per row for `knn`'s bound, raised to 4K and capped at N.
_GROUPS = 64


@dataclass
class FeatureBank:
    normalized: np.ndarray  # (M, d) unit rows; zero rows stay zero
    valid: np.ndarray  # (M,) bool: stamp among the `capacity` largest
    capacity: int
    stamps: np.ndarray  # (M,) int64, distinct; larger means written later
    slots: np.ndarray = field(init=False, repr=False)  # (d, capacity) searchable rows
    slot_rows: np.ndarray = field(init=False, repr=False)  # row in each slot
    row_slots: np.ndarray = field(init=False, repr=False)  # slot of each row, or -1

    def __post_init__(self) -> None:
        self.slot_rows = np.flatnonzero(self.valid)
        self.row_slots = np.full(self.size, -1, dtype=np.int64)
        self.row_slots[self.slot_rows] = np.arange(self.slot_rows.size)
        self.slots = np.ascontiguousarray(self.normalized[self.slot_rows].T)

    @classmethod
    def from_rows(cls, rows: np.ndarray, capacity: int) -> "FeatureBank":
        """Bank whose rows were written in index order, so the last
        `capacity` rows, 1 to M of them, are the searchable ones."""
        m = rows.shape[0]
        if not 1 <= capacity <= m:
            raise InvalidInputError(f"capacity {capacity} outside [1, {m}]")
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
    features, probs, _ = forward(model, inputs)
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
    # Only written rows can become searchable; they take the freed slots.
    live = reversed_unique[fbank.valid[reversed_unique]]
    entered = live[fbank.row_slots[live] < 0]
    freed = np.flatnonzero(~fbank.valid[fbank.slot_rows])
    if entered.size != freed.size or np.count_nonzero(fbank.valid) != fbank.slot_rows.size:
        fbank.__post_init__()  # built with other searchable rows than the stamps give
        return
    fbank.row_slots[fbank.slot_rows[freed]] = -1
    fbank.row_slots[entered] = freed
    fbank.slot_rows[freed] = entered
    fbank.slots[:, fbank.row_slots[live]] = fbank.normalized[live].T


def knn(fbank: FeatureBank, query_indices, k: int) -> np.ndarray:
    """(B, K) indices of each query's K nearest searchable rows by cosine
    distance (1 - cosine similarity) on the normalized copies, ordered by
    (distance, index); the query's own row is excluded.

    Per block of max(1, _BLOCK_ENTRIES // N) queries: one GEMM of dot
    products with the (d, N) slot matrix, each query's own slot set to
    -inf; the maxima of min(N, max(_GROUPS, 4K)) contiguous column groups,
    whose K-th largest b bounds the K-th distance by fl(1 - b) (rounding is
    monotone, and K groups each hold an entry at or below it); and one
    lexsort by (query, distance, row index) of the survivors,
    dot >= fl(b - 4e-16), the only entries whose distances are formed.

    Every entry at distance <= fl(1 - b) survives: if dot < b, then
    fl(1 - dot) = fl(1 - b) = y by monotonicity, so b - dot is at most the
    width of y's rounding interval (|dot| < 2 for unit rows). For y < 2 that
    is <= 2^-52, and fl(b - 4e-16) <= b - 4e-16 + 2^-53 < b - 2^-52. For
    y >= 2, b <= -1 + 2^-53: if b <= -1 the width is <= 2^-51 and floats
    near b are 2^-52 apart, so fl(b - 4e-16) = b - 2^-51; if
    b = -1 + 2^-53, then y = 2, dot >= -1 - 2^-52 = fl(b - 4e-16).
    """
    queries = np.asarray(query_indices, dtype=np.int64).ravel()
    if queries.size and (queries.min() < 0 or queries.max() >= fbank.size):
        raise InvalidInputError("query index out of range")
    if k < 1:
        raise InvalidInputError("K must be >= 1")
    n = fbank.slot_rows.size
    self_slot = fbank.row_slots[queries]
    candidates = n - (self_slot >= 0)
    if queries.size and k > candidates.min():
        raise InvalidInputError(f"K={k} exceeds the {candidates.min()} searchable rows")

    block = max(1, _BLOCK_ENTRIES // max(n, 1))
    groups = min(n, max(_GROUPS, 4 * k))
    starts = np.arange(groups) * n // max(groups, 1)  # groups <= n: none empty
    out = np.empty((queries.size, k), dtype=np.int64)
    for start in range(0, queries.size, block):
        stop = min(start + block, queries.size)
        dot = fbank.normalized[queries[start:stop]] @ fbank.slots
        live = np.flatnonzero(self_slot[start:stop] >= 0)
        dot[live, self_slot[start + live]] = -np.inf
        group_max = np.maximum.reduceat(dot, starts, axis=1)
        bound = np.partition(group_max, groups - k, axis=1)[:, groups - k]
        near = np.flatnonzero(dot >= (bound - 4e-16)[:, None])
        query, col = np.divmod(near, n)
        rows = fbank.slot_rows[col]
        order = np.lexsort((rows, 1.0 - dot.ravel()[near], query))
        # Every query has at least k survivors; its first k follow the
        # survivors of the queries before it.
        first = np.searchsorted(query, np.arange(stop - start))
        out[start:stop] = rows[order[first[:, None] + np.arange(k)]]
    return out
