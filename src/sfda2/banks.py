"""Memory banks for target features and their predictions, with exact
cosine-KNN retrieval.

Bank row i always corresponds to target sample i. The score bank is a plain
(M, C) array of stored probability rows. The feature bank keeps every row
as a float64 unit row and a write stamp per row that grows with every
write. Its searchable rows are compacted, rounded to float32, in a
persistent (d, capacity) slot matrix, with slot-to-row and row-to-slot
maps; a row is searchable exactly when it holds a slot. `update_banks`
gives the slots to the `capacity` most recently written rows, so the least
recently written row is evicted first, and rewriting a live row refreshes
it. `knn` screens the slots in float32, one GEMM per block of about
`_BLOCK_ENTRIES` dot products: the K-th largest maximum of max(`_GROUPS`,
4K) column groups (at most N) bounds each K-th distance, and an entry
survives within a margin of `_SLACK` (d + 2) float32 units of it. Only the
survivors are ranked, by float64 distances formed per pair from the unit
rows.
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
# `knn`'s float32 screen keeps the dots within _SLACK * (d + 2) * 2^-24 of
# the bound; the proof in its docstring needs a little more than
# 2 + 1 / (d + 2).
_SLACK = 4


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
        self.slots = np.ascontiguousarray(self.normalized[self.slot_rows].T, dtype=np.float32)  # (d, capacity)

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
    """Rows divided by their Euclidean norms; zero rows stay zero. A row is
    first scaled by the power of two that puts its largest |entry| in
    [0.5, 1), so its squared norm, in [0.25, d), neither overflows nor
    underflows."""
    rows = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1][:, None])
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
    (distance, index); the query's own row is excluded. A distance is
    fl(1 - dot), the float64 dot of the two unit rows formed per pair, so the
    result depends neither on the block size nor on the slot order.

    Per block of max(1, _BLOCK_ENTRIES // N) queries, a float32 screen: one
    GEMM of the query rows, rounded to float32, with the (d, N) slot matrix,
    each query's own slot set to -inf; the maxima of min(N, max(_GROUPS, 4K))
    contiguous column groups, whose K-th largest is b; and the survivors,
    dot32 >= fl32(b - m) with m = _SLACK (d + 2) 2^-24. Only the survivors'
    distances are formed, and one lexsort by (query, distance, row index)
    ranks them.

    Every entry at or inside the K-th distance survives, for d < 2^12 and
    stored rows of norm at most 1 + 2^-40 (a row divided by its norm is
    within (d + 3) 2^-53 of unit length, as `_unit_rows` scales it so that
    its squared norm lies in [0.25, d); zero rows stay zero). Let u = 2^-24
    and, for two stored rows, D be their exact dot, D64 the float64 and D32
    the float32 one.
    - Rounding both rows to float32 moves D by at most (2u + u^2)(1 + 2^-40)^2,
      and a d-term float32 dot, in any summation order, errs by at most
      gamma_d = du / (1 - du) times the product of the rounded norms
      (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1);
      float32 underflow adds at most 2d 2^-149. So
      |D32 - D| <= e32 := (d + 2) u (1 + 2^-9), and likewise
      |D64 - D| <= e64 := 2^-40.
    - b is finite: only a group holding nothing but the query's own slot
      has maximum -inf, and K is below the group count when the query holds
      a slot. K groups hold an entry with D32 >= b, none the query's own, so
      K candidates have D64 >= a := b - e32 - e64, and the K-th distance is
      at most y = fl(1 - a), since rounding is monotone.
    - An entry t at or inside it has fl(1 - D64_t) <= y. If D64_t < a, then
      fl(1 - D64_t) >= y too, so 1 - D64_t and 1 - a both round to y; as
      |y| < 4 they lie within 2^-51 of each other. Either way
      D64_t >= a - 2^-51, so D32_t >= b - 2 e32 - 2 e64 - 2^-51.
    - |b - m| < 2, so the float32 subtraction errs by at most u, and
      fl32(b - m) <= b - m + u. With _SLACK = 4, m - u exceeds
      2 e32 + 2 e64 + 2^-51 = 2 (d + 2) u (1 + 2^-9) + 2^-39 + 2^-51 by
      about (2d + 3) u, so t survives.
    """
    queries = _indices(query_indices, "query", fbank.size)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidInputError(f"K must be an integer >= 1, got {k!r}")
    d, n = fbank.slots.shape
    self_slot = fbank.row_slots[queries]
    candidates = n - (self_slot >= 0)
    if queries.size and k > candidates.min():
        raise InvalidInputError(f"K={k} exceeds the {candidates.min()} searchable rows")

    block = max(1, _BLOCK_ENTRIES // n)
    groups = min(n, max(_GROUPS, 4 * k))
    starts = np.arange(groups) * n // groups  # 1 <= groups <= n: none empty
    margin = np.float32(_SLACK * (d + 2) * 2.0**-24)
    out = np.empty((queries.size, k), dtype=np.int64)
    for start in range(0, queries.size, block):
        stop = min(start + block, queries.size)
        block_rows = fbank.normalized[queries[start:stop]]
        dot = block_rows.astype(np.float32) @ fbank.slots
        live = np.flatnonzero(self_slot[start:stop] >= 0)
        dot[live, self_slot[start + live]] = -np.inf
        group_max = np.maximum.reduceat(dot, starts, axis=1)
        bound = np.partition(group_max, groups - k, axis=1)[:, groups - k]
        near = np.flatnonzero(dot >= (bound - margin)[:, None])
        query, col = np.divmod(near, n)
        rows = fbank.slot_rows[col]
        pair_dot = np.einsum("ij,ij->i", block_rows[query], fbank.normalized[rows])
        order = np.lexsort((rows, 1.0 - pair_dot, query))
        # Every query has at least k survivors; its first k follow the
        # survivors of the queries before it.
        first = np.searchsorted(query, np.arange(stop - start))
        out[start:stop] = rows[order[first[:, None] + np.arange(k)]]
    return out
