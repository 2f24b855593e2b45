"""Memory banks for target features and their predictions, with exact
cosine-KNN retrieval.

Bank row i always corresponds to target sample i. The score bank is a plain
(M, C) array of stored probability rows. The feature bank keeps every row
and a write stamp per row that grows with every write. Its searchable rows
are compacted in a persistent (d, capacity) slot matrix, with slot-to-row
and row-to-slot maps; a row is searchable exactly when it holds a slot.
`update_banks` gives the slots to the `capacity` most recently written
rows, so the least recently written row is evicted first, and rewriting a
live row refreshes it. `knn` scans the slots exactly, one GEMM per block of
about `_BLOCK_ENTRIES` dot products; the K-th largest maximum of
max(`_GROUPS`, 4K) column groups (at most N) bounds each K-th distance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .model import Model, forward
from .numerics import check_distribution_rows

# Dot products per query block in `knn`: the block has max(1, this // N) rows.
_BLOCK_ENTRIES = 2**19
# Column groups per row for `knn`'s bound, raised to 4K and capped at N.
_GROUPS = 64


class FeatureBank:
    """Feature bank whose rows were written in index order, so the last
    `capacity` rows, 1 to M of them, hold the slots in ascending order."""

    def __init__(self, rows, capacity: int):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise InvalidInputError("bank rows must be a nonempty 2-D array")
        if not np.all(np.isfinite(rows)):
            raise InvalidInputError("bank rows contain non-finite entries")
        m = rows.shape[0]
        if not isinstance(capacity, (int, np.integer)) or not 1 <= capacity <= m:
            raise InvalidInputError(f"capacity {capacity} outside [1, {m}]")
        self.normalized = _unit_rows(rows)  # (M, d) unit rows; zero rows stay zero
        self.stamps = np.arange(m, dtype=np.int64)  # distinct; larger means written later
        self.slot_rows = np.arange(m - capacity, m)  # row in each slot
        self.row_slots = np.full(m, -1, dtype=np.int64)  # slot of each row, or -1
        self.row_slots[self.slot_rows] = np.arange(capacity)
        self.slots = np.ascontiguousarray(self.normalized[self.slot_rows].T)  # (d, capacity)

    @property
    def valid(self) -> np.ndarray:  # (M,) bool: the rows that hold a slot
        return self.row_slots >= 0

    @property
    def capacity(self) -> int:
        return self.slot_rows.size

    @property
    def size(self) -> int:
        return self.normalized.shape[0]


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows divided by their Euclidean norms; zero rows stay zero."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms == 0.0, 1.0, norms)[:, None]


def _indices(values, name: str, size: int) -> np.ndarray:
    """Flat int64 row indices in [0, size); an empty list passes whatever its dtype."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidInputError(f"{name} indices must be integers")
    idx = arr.astype(np.int64, copy=False).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise InvalidInputError(f"{name} index out of range")
    return idx


def init_banks(
    model: Model, target_inputs, capacity_fraction: float = 1.0
) -> tuple[FeatureBank, np.ndarray]:
    """Populate the feature bank and the (M, C) score bank with one full
    forward pass, dataset order."""
    if not (0.0 < capacity_fraction <= 1.0):
        raise InvalidInputError("capacity fraction must be in (0, 1]")
    features, probs, _ = forward(model, target_inputs)
    capacity = max(1, math.ceil(capacity_fraction * features.shape[0]))
    return FeatureBank(features, capacity), probs.copy()


def update_banks(fbank: FeatureBank, score_bank: np.ndarray, indices, features, probs) -> None:
    """Overwrite the addressed rows; duplicates apply in order (last wins)."""
    idx = _indices(indices, "bank", fbank.size)
    feats = np.asarray(features, dtype=np.float64)
    prob_rows = np.asarray(probs, dtype=np.float64)
    if idx.size == 0:
        return
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
    # The newest row always holds a slot, so its stamp is the slotted maximum.
    fbank.stamps[reversed_unique] = fbank.stamps[fbank.slot_rows].max() + 1 + last
    # Every unslotted row is older than every slotted one, so only written
    # rows can enter: of the slotted rows and the written outsiders, the
    # `capacity` newest keep or take a slot, newcomers in the freed slots.
    outside = reversed_unique[fbank.row_slots[reversed_unique] < 0]
    stamps = fbank.stamps[np.concatenate([fbank.slot_rows, outside])]
    keep = stamps >= np.partition(stamps, outside.size)[outside.size]
    freed = np.flatnonzero(~keep[: fbank.capacity])
    entered = outside[keep[fbank.capacity :]]
    fbank.row_slots[fbank.slot_rows[freed]] = -1
    fbank.row_slots[entered] = freed
    fbank.slot_rows[freed] = entered
    live = reversed_unique[fbank.row_slots[reversed_unique] >= 0]
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
    queries = _indices(query_indices, "query", fbank.size)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidInputError(f"K must be an integer >= 1, got {k!r}")
    n = fbank.slot_rows.size
    self_slot = fbank.row_slots[queries]
    candidates = n - (self_slot >= 0)
    if queries.size and k > candidates.min():
        raise InvalidInputError(f"K={k} exceeds the {candidates.min()} searchable rows")

    block = max(1, _BLOCK_ENTRIES // n)
    groups = min(n, max(_GROUPS, 4 * k))
    starts = np.arange(groups) * n // groups  # 1 <= groups <= n: none empty
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
