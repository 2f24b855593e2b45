import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import sfda2.banks
from sfda2.banks import _GROUPS, FeatureBank, init_banks, knn, update_banks
from sfda2.errors import InvalidInputError
from sfda2.model import Layer, Model


def passthrough_model(dim, n_classes=2):
    """Features equal the inputs, so bank contents are directly controlled."""
    return Model(
        layers=[Layer(np.eye(dim), np.zeros(dim), "identity")],
        clf_weights=np.eye(n_classes, dim),
        clf_bias=np.zeros(n_classes),
    )


def banks_from_rows(rows, **kwargs):
    rows = np.asarray(rows, dtype=np.float64)
    return init_banks(passthrough_model(rows.shape[1]), rows, **kwargs)


def distances(fbank, query, indices):
    """Cosine distances from the query row to the given bank rows."""
    return 1.0 - fbank.normalized[indices] @ fbank.normalized[query]


class TestInitBanks:
    def test_single_sample(self):
        fbank, scores = banks_from_rows([[1.0, 2.0]])
        assert fbank.size == 1
        assert scores.shape == (1, 2)

    def test_zero_model_scores_uniform(self):
        model = Model(
            layers=[Layer(np.zeros((3, 2)), np.zeros(3), "identity")],
            clf_weights=np.zeros((4, 3)),
            clf_bias=np.zeros(4),
        )
        _, scores = init_banks(model, np.random.default_rng(0).standard_normal((6, 2)))
        assert_allclose(scores, np.full((6, 4), 0.25), atol=1e-15)

    def test_normalized_rows_unit_norm(self):
        rows = np.random.default_rng(1).standard_normal((40, 5))
        fbank, _ = banks_from_rows(rows)
        assert_allclose(np.linalg.norm(fbank.normalized, axis=1), np.ones(40), atol=1e-9)

    def test_zero_feature_row_flagged(self):
        fbank, _ = banks_from_rows([[0.0, 0.0], [1.0, 0.0]])
        assert_array_equal(fbank.normalized[0], np.zeros(2))
        assert_array_equal(fbank.normalized[1], [1.0, 0.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            init_banks(passthrough_model(2), np.zeros((0, 2)))


class TestFeatureBankConstructor:
    def test_array_like_rows(self):
        fbank = FeatureBank([[3.0, 4.0], [0.0, 2.0]], 1)
        assert_allclose(fbank.normalized, [[0.6, 0.8], [0.0, 1.0]])
        assert fbank.valid.tolist() == [False, True] and fbank.capacity == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            (np.ones(3), "nonempty 2-D"),
            (np.ones((2, 2, 2)), "nonempty 2-D"),
            (np.zeros((0, 2)), "nonempty 2-D"),
            ([[1.0, 0.0], [np.nan, 1.0]], "non-finite"),
            ([[1.0, 0.0], [0.0, -np.inf]], "non-finite"),
        ],
        ids=["1-d", "3-d", "no-rows", "nan", "inf"],
    )
    def test_bad_rows_rejected(self, rows, message):
        with pytest.raises(InvalidInputError, match=message):
            FeatureBank(rows, 1)

    def test_finite_rows_whose_norm_overflows_build(self):
        # A diverged forward pass gives such rows; they become zero rows.
        with np.errstate(over="ignore"):
            fbank = FeatureBank([[1e200, 1e200], [1.0, 0.0], [0.0, 1.0]], 3)
        assert_array_equal(fbank.normalized[0], [0.0, 0.0])
        assert_array_equal(knn(fbank, [1], 2), [[0, 2]])


class TestUpdateBanks:
    def test_empty_index_list_is_noop(self):
        fbank, scores = banks_from_rows([[1.0, 0.0], [0.0, 1.0]])
        normalized, probs = fbank.normalized.copy(), scores.copy()
        update_banks(fbank, scores, [], np.zeros((0, 2)), np.zeros((0, 2)))
        assert_array_equal(fbank.normalized, normalized)
        assert_array_equal(scores, probs)

    def test_read_your_write(self):
        rows = np.random.default_rng(2).standard_normal((5, 3))
        fbank, scores = banks_from_rows(rows)
        untouched = fbank.normalized[0].copy()
        new_feat = np.array([[3.0, 4.0, 0.0]])
        new_prob = np.array([[0.25, 0.75]])
        update_banks(fbank, scores, [3], new_feat, new_prob)
        assert_allclose(fbank.normalized[3], [0.6, 0.8, 0.0], atol=1e-9)
        assert_array_equal(scores[3], new_prob[0])
        # other rows untouched
        assert_array_equal(fbank.normalized[0], untouched)

    def test_duplicate_index_last_write_wins(self):
        fbank, scores = banks_from_rows([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        feats = np.array([[5.0, 0.0], [0.0, 7.0]])
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        update_banks(fbank, scores, [2, 2], feats, probs)
        assert_array_equal(fbank.normalized[2], [0.0, 1.0])
        assert_array_equal(scores[2], [0.0, 1.0])

    def test_out_of_range_index_rejected(self):
        fbank, scores = banks_from_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            update_banks(fbank, scores, [2], np.ones((1, 2)), np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize(
        "indices", [[1.7], np.array([1.0]), [True]], ids=["fraction", "integral-float", "bool"]
    )
    def test_non_integer_indices_rejected_before_any_write(self, indices):
        fbank, scores = banks_from_rows([[1.0, 0.0], [0.0, 1.0]])
        normalized, stamps = fbank.normalized.copy(), fbank.stamps.copy()
        with pytest.raises(InvalidInputError, match="bank indices must be integers"):
            update_banks(fbank, scores, indices, np.ones((1, 2)), np.array([[0.5, 0.5]]))
        assert_array_equal(fbank.normalized, normalized)
        assert_array_equal(fbank.stamps, stamps)

    def test_invalid_distribution_rejected(self):
        fbank, scores = banks_from_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            update_banks(fbank, scores, [0], np.ones((1, 2)), np.array([[0.9, 0.3]]))

    @pytest.mark.parametrize(
        "feats, probs, message",
        [
            ([[1.0, 0.0]], [[np.nan, 0.5]], "probability rows are not valid distributions"),
            ([[np.nan, 0.0]], [[0.5, 0.5]], "feature rows contain non-finite entries"),
            ([[np.inf, 0.0]], [[0.5, 0.5]], "feature rows contain non-finite entries"),
        ],
        ids=["nan-probability", "nan-feature", "inf-feature"],
    )
    def test_non_finite_rows_rejected_before_any_write(self, feats, probs, message):
        fbank, scores = banks_from_rows([[1.0, 0.0], [0.0, 1.0]])
        normalized, stored, stamps = fbank.normalized.copy(), scores.copy(), fbank.stamps.copy()
        with pytest.raises(InvalidInputError, match=message):
            update_banks(fbank, scores, [0], np.array(feats), np.array(probs))
        assert_array_equal(fbank.normalized, normalized)
        assert_array_equal(scores, stored)
        assert_array_equal(fbank.stamps, stamps)


class TestKnn:
    def test_duplicate_direction_is_nearest(self):
        fbank, _ = banks_from_rows([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = knn(fbank, [0], 1)[0]
        assert_array_equal(res, [1])
        assert_allclose(distances(fbank, 0, res), [0.0], atol=1e-12)

    def test_orthogonal_and_antipodal_distances(self):
        fbank, _ = banks_from_rows([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        res = knn(fbank, [0], 2)[0]
        assert_array_equal(res, [1, 2])
        assert_allclose(distances(fbank, 0, res), [1.0, 2.0], atol=1e-12)

    def test_k_too_large_rejected(self):
        fbank, _ = banks_from_rows([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            knn(fbank, [0], 3)

    def test_self_never_included_and_size_k(self):
        rows = np.random.default_rng(3).standard_normal((30, 4))
        fbank, _ = banks_from_rows(rows)
        for q in range(0, 30, 7):
            for k in (1, 4, 9):
                res = knn(fbank, [q], k)[0]
                assert res.shape == (k,)
                assert q not in res
                assert np.all(np.diff(distances(fbank, q, res)) >= 0)

    def test_matches_exhaustive_oracle(self):
        rows = np.random.default_rng(4).standard_normal((80, 6))
        rows[11] = rows[40]  # plant an exact tie pair
        rows[55] = 2.5 * rows[7]
        fbank, _ = banks_from_rows(rows)
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        for q in (0, 7, 11, 40, 55, 79):
            dists = [
                (1.0 - float(unit[j] @ unit[q]), j) for j in range(80) if j != q
            ]
            expect = [j for _, j in sorted(dists)[:5]]
            res = knn(fbank, [q], 5)[0]
            assert list(res) == expect

    def test_invariant_to_positive_rescaling(self):
        rows = np.random.default_rng(5).standard_normal((20, 3))
        fbank, scores = banks_from_rows(rows)
        before = knn(fbank, [4], 6)[0]
        before_dist = distances(fbank, 4, before)
        update_banks(fbank, scores, [9], 17.0 * rows[9:10], scores[9:10])
        after = knn(fbank, [4], 6)[0]
        assert_array_equal(before, after)
        assert_allclose(distances(fbank, 4, after), before_dist, atol=1e-12)

    def test_far_update_leaves_answers_unchanged(self):
        # two tight clusters; rewriting one cluster cannot disturb queries
        # answered entirely inside the other
        rng = np.random.default_rng(6)
        a = np.array([10.0, 0.0, 0.0]) + 0.01 * rng.standard_normal((8, 3))
        b = np.array([0.0, 10.0, 0.0]) + 0.01 * rng.standard_normal((8, 3))
        fbank, scores = banks_from_rows(np.vstack([a, b]))
        before = knn(fbank, [2], 5)[0]
        before_dist = distances(fbank, 2, before)
        assert np.all(before < 8)
        newb = np.array([0.0, 0.0, 10.0]) + 0.01 * rng.standard_normal((8, 3))
        update_banks(
            fbank, scores, list(range(8, 16)), newb, scores[8:16].copy()
        )
        after = knn(fbank, [2], 5)[0]
        assert_array_equal(before, after)
        assert_allclose(distances(fbank, 2, after), before_dist, atol=1e-12)

    def test_deterministic_including_tie_order(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        fbank, _ = banks_from_rows(rows)
        first = knn(fbank, [0], 3)[0]
        second = knn(fbank, [0], 3)[0]
        assert_array_equal(first, [1, 2, 3])  # tie broken by index
        assert_array_equal(first, second)


def lexsort_reference(fbank, q, k):
    """One query by a full-bank two-key sort: the form `knn` replaced."""
    dist = 1.0 - fbank.normalized @ fbank.normalized[q]
    dist[q] = np.inf
    dist[~fbank.valid] = np.inf
    return np.lexsort((np.arange(fbank.size), dist))[:k]


def scan_oracle(fbank, q, k):
    """Exhaustive scan of the searchable rows, ranked by (distance, index)."""
    ranked = sorted(
        (1.0 - float(np.dot(fbank.normalized[j], fbank.normalized[q])), int(j))
        for j in np.flatnonzero(fbank.valid)
        if j != q
    )
    return [j for _, j in ranked[:k]]


def assert_matches_references(fbank, queries, k):
    got = knn(fbank, queries, k)
    assert got.shape == (len(queries), k)
    for row, q in enumerate(queries):
        assert_array_equal(got[row], lexsort_reference(fbank, q, k), err_msg=f"query {q}")
        assert got[row].tolist() == scan_oracle(fbank, q, k), f"query {q}"


def axis_rows(axes, dim=4):
    """Signed unit axis vectors: every cosine distance between them is
    exactly 0, 1 or 2, whatever the summation order, so ties are exact."""
    rows = np.zeros((len(axes), dim))
    for i, a in enumerate(axes):
        rows[i, abs(a) - 1] = np.sign(a)
    return rows


class TestKnnBatch:
    def test_stamp_written_half_capacity_bank(self):
        rng = np.random.default_rng(7)
        fbank, scores = banks_from_rows(rng.standard_normal((40, 5)), capacity_fraction=0.5)
        for _ in range(6):
            idx = rng.integers(0, 40, size=9)
            update_banks(fbank, scores, idx, rng.standard_normal((9, 5)), np.full((9, 2), 0.5))
            assert not fbank.valid.all() and fbank.valid.any()
            for k in (1, 3, 7):
                assert_matches_references(fbank, np.arange(40), k)

    def test_duplicate_rows_tie_at_kth_boundary(self):
        axes = [1, 2, 2, 1, 2, 3, 2, 1, -1, 2]
        fbank, _ = banks_from_rows(axis_rows(axes))
        # from row 0: rows 3 and 7 at distance 0, six rows tied at 1
        assert_array_equal(knn(fbank, [0], 4)[0], [3, 7, 1, 2])
        for k in range(1, 10):
            assert_matches_references(fbank, np.arange(10), k)

    def test_wide_tie_keeps_index_order(self):
        # 50 duplicates straddle the K-th distance; only a stable sort of the
        # candidates keeps them in index order
        rng = np.random.default_rng(8)
        axes = rng.permutation([2] * 50 + [1] * 8 + [-1] * 6)
        fbank, _ = banks_from_rows(axis_rows(axes))
        queries = np.flatnonzero(axes == 1)
        got = knn(fbank, queries, 30)
        for row, q in enumerate(queries):
            same = [j for j in np.flatnonzero(axes == 1) if j != q]
            assert got[row].tolist() == same + np.flatnonzero(axes == 2)[: 30 - len(same)].tolist()
        assert_matches_references(fbank, queries, 30)

    def test_query_row_valid_and_evicted(self):
        rng = np.random.default_rng(9)
        fbank, _ = banks_from_rows(rng.standard_normal((20, 3)), capacity_fraction=0.5)
        evicted, live = 3, 15
        assert not fbank.valid[evicted] and fbank.valid[live]
        got = knn(fbank, [live, evicted], 9)
        assert live not in got[0]
        assert np.all(fbank.valid[got])
        assert_matches_references(fbank, [live, evicted], 9)

    def test_k_equal_to_searchable_rows(self):
        rng = np.random.default_rng(10)
        fbank, _ = banks_from_rows(rng.standard_normal((20, 3)), capacity_fraction=0.5)
        evicted, live = 0, 19
        # an evicted query may rank every searchable row, a live one all but itself
        assert sorted(knn(fbank, [evicted], 10)[0]) == list(range(10, 20))
        assert sorted(knn(fbank, [live], 9)[0]) == list(range(10, 19))
        assert_matches_references(fbank, [live], 9)
        assert_matches_references(fbank, [evicted], 10)
        with pytest.raises(InvalidInputError, match="exceeds the 9 searchable rows"):
            knn(fbank, [evicted, live], 10)

    def test_batch_rows_equal_single_queries(self):
        rng = np.random.default_rng(11)
        fbank, _ = banks_from_rows(rng.standard_normal((30, 4)))
        queries = [5, 0, 5, 29]
        got = knn(fbank, queries, 4)
        for row, q in enumerate(queries):
            assert_array_equal(got[row], knn(fbank, [q], 4)[0])
        assert knn(fbank, [], 4).shape == (0, 4)

    def test_non_integer_queries_and_k_rejected(self):
        fbank, _ = banks_from_rows(np.eye(3))
        with pytest.raises(InvalidInputError, match="query indices must be integers"):
            knn(fbank, [0.9], 1)
        with pytest.raises(InvalidInputError, match="K must be an integer >= 1, got 1.5"):
            knn(fbank, [0], 1.5)
        # any integer dtype is fine
        assert knn(fbank, np.array([2], dtype=np.uint8), np.int64(1)).tolist() == [[0]]

    def test_query_out_of_range_rejected(self):
        fbank, _ = banks_from_rows(np.eye(3))
        with pytest.raises(InvalidInputError):
            knn(fbank, [0, 3], 1)
        with pytest.raises(InvalidInputError):
            knn(fbank, [-1], 1)


def block_rows(fbank):
    """Queries per block that `knn` takes for this bank."""
    return max(1, sfda2.banks._BLOCK_ENTRIES // int(fbank.valid.sum()))


class TestKnnBlocks:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # Blocks of 32768 dot products split these banks' batches into
        # several blocks of a few dozen queries.
        monkeypatch.setattr(sfda2.banks, "_BLOCK_ENTRIES", 32768)

    def test_batch_sizes_around_the_block(self):
        rng = np.random.default_rng(12)
        fbank, _ = banks_from_rows(rng.standard_normal((1200, 4)), capacity_fraction=0.5)
        block = block_rows(fbank)
        assert block == 54  # 600 searchable rows
        for size in (0, 1, block - 1, block, block + 1, 64, 65):
            queries = rng.integers(0, 1200, size=size)
            assert knn(fbank, queries, 5).shape == (size, 5)
            assert_matches_references(fbank, queries, 5)

    def test_wide_tie_inside_a_later_block(self):
        # 3000 searchable rows make blocks of 10 queries. From an axis-1 row,
        # the other axis-1 rows are at distance 0, the 50 axis-2 rows tie at
        # distance 1 across the K-th distance, and the rest are at 2.
        rng = np.random.default_rng(13)
        axes = rng.permutation([1] * 8 + [2] * 50 + [-1] * 2942)
        fbank, _ = banks_from_rows(axis_rows(axes))
        assert block_rows(fbank) == 10
        tied = np.flatnonzero(axes == 1)
        filler = np.flatnonzero(axes == -1)[:23]
        queries = np.concatenate([filler, tied])  # tied queries in blocks 3 and 4
        got = knn(fbank, queries, 30)
        for row, q in zip(got[23:], tied):
            same = [j for j in tied if j != q]
            assert row.tolist() == same + np.flatnonzero(axes == 2)[: 30 - len(same)].tolist()
        assert_matches_references(fbank, queries[20:], 30)

    @pytest.mark.parametrize("live_at_edges", [True, False])
    def test_own_row_at_block_edges(self, live_at_edges):
        rng = np.random.default_rng(14)
        fbank, scores = banks_from_rows(rng.standard_normal((2000, 3)), capacity_fraction=0.5)
        update_banks(fbank, scores, rng.integers(0, 2000, 300), rng.standard_normal((300, 3)),
                     np.full((300, 2), 0.5))
        block = block_rows(fbank)
        assert block == 32  # 1000 searchable rows
        live, evicted = np.flatnonzero(fbank.valid), np.flatnonzero(~fbank.valid)
        edge_rows, other_rows = (live, evicted) if live_at_edges else (evicted, live)
        queries = rng.choice(other_rows, size=3 * block - 1)
        edges = [0, block - 1, block, 2 * block - 1, 2 * block, 3 * block - 2]
        queries[edges] = rng.choice(edge_rows, size=len(edges), replace=False)
        got = knn(fbank, queries, 6)
        for row, q in zip(got, queries):
            assert q not in row
        assert np.all(fbank.valid[got])
        assert_matches_references(fbank, queries, 6)


class TestKnnBlockSizeIndependent:
    @pytest.mark.parametrize("bank", ["random", "axis-rows"])
    @pytest.mark.parametrize("k", [7, 300])
    def test_same_neighbours_for_every_block_size(self, monkeypatch, bank, k):
        # 2000 searchable rows and 300 queries: one query per block, the
        # default's several blocks, and all queries in one block. On axis rows
        # about 250 rows share each direction, so ties at distance 0 fill
        # K = 7 and ties at distance 1 straddle K = 300.
        rng = np.random.default_rng(31)
        if bank == "random":
            rows = rng.standard_normal((4000, 6))
        else:
            rows = axis_rows(rng.choice([1, -1, 2, -2, 3, -3, 4, -4], size=4000))
        fbank, scores = banks_from_rows(rows, capacity_fraction=0.5)
        update_banks(fbank, scores, rng.integers(0, 4000, 500), rows[rng.integers(0, 4000, 500)],
                     np.full((500, 2), 0.5))
        queries = rng.integers(0, 4000, size=300)
        n = int(fbank.valid.sum())
        results = {}
        for entries in (1, sfda2.banks._BLOCK_ENTRIES, queries.size * n):
            monkeypatch.setattr(sfda2.banks, "_BLOCK_ENTRIES", entries)
            results[block_rows(fbank)] = knn(fbank, queries, k)
        blocks = sorted(results)  # queries per block
        assert blocks[0] == 1 and 1 < blocks[1] < queries.size == blocks[2]
        for got in results.values():
            assert_array_equal(got, results[1])
        for row in range(0, queries.size, 37):
            assert_array_equal(results[1][row], lexsort_reference(fbank, queries[row], k))


def group_starts(n, k):
    """First searchable position of each column group behind `knn`'s bound."""
    groups = min(n, max(_GROUPS, 4 * k))
    return np.arange(groups) * n // groups


def group_of(n, k, positions):
    return np.searchsorted(group_starts(n, k), positions, side="right") - 1


class TestKnnGroupBound:
    def test_several_nearest_in_one_group(self):
        # 2000 rows in 64 groups of 31-32. Rows 100-103 and 1500 are the
        # query's five nearest; the first four share one group, so the K-th
        # group minimum lies above the K-th distance and extra entries survive.
        rng = np.random.default_rng(20)
        rows = rng.standard_normal((2000, 3))
        rows[:, 0] = np.abs(rows[:, 0]) * -1.0 - 0.5  # every row points away from +x
        q = 7
        rows[q] = [1.0, 0.0, 0.0]
        for j, tilt in zip((100, 101, 102, 103, 1500), (0.01, 0.02, 0.03, 0.04, 0.05)):
            rows[j] = [1.0, tilt, 0.0]
        fbank, _ = banks_from_rows(rows)
        nearest = scan_oracle(fbank, q, 5)
        assert nearest == [100, 101, 102, 103, 1500]
        groups = group_of(2000, 5, nearest)
        assert len(set(groups.tolist())) < len(nearest)  # two of the K share a group
        assert_matches_references(fbank, [q], 5)
        assert_matches_references(fbank, rng.integers(0, 2000, size=40), 5)

    def test_size_not_a_multiple_of_the_groups(self):
        rng = np.random.default_rng(21)
        fbank, scores = banks_from_rows(rng.standard_normal((2074, 4)), capacity_fraction=0.5)
        update_banks(fbank, scores, rng.integers(0, 2074, 200), rng.standard_normal((200, 4)),
                     np.full((200, 2), 0.5))
        n = int(fbank.valid.sum())
        assert n == 1037 and n % _GROUPS != 0
        assert len(set(np.diff(np.append(group_starts(n, 5), n)).tolist())) == 2
        for k in (1, 5, 17):
            assert_matches_references(fbank, rng.integers(0, 2074, size=50), k)

    def test_integer_ties_straddle_a_group_boundary(self):
        # From an axis-1 query, the four axis-2 rows tie at distance exactly
        # 1 and sit two on each side of a group start; every other row is
        # at distance 2. K = 3 must take the first three by index.
        n = 200
        start = int(group_starts(n, 3)[10])
        axes = np.full(n, -1)
        axes[0] = 1
        tied = [start - 2, start - 1, start, start + 1]
        axes[tied] = 2
        fbank, _ = banks_from_rows(axis_rows(axes))
        assert group_of(n, 3, tied).tolist() == [9, 9, 10, 10]
        assert knn(fbank, [0], 3)[0].tolist() == tied[:3]
        for k in (1, 2, 3, 4, 5):
            assert_matches_references(fbank, [0] + tied, k)

    def test_rounded_distance_tie_below_the_bound(self):
        # From the query (row 0), rows 1 and 2 have dots one float apart,
        # `below` < b, but the same rounded distance 1 - dot, so row 1 comes
        # first by index. b is the K = 1 bound on the dots; only the widened
        # survivor threshold keeps row 1.
        b = 0.2999999999999999
        below = np.nextafter(b, 0.0)
        rows = np.array([[1.0, 0.0], [below, np.sqrt(1.0 - below**2)], [b, np.sqrt(1.0 - b**2)],
                         [0.0, 1.0], [-1.0, 0.0]])
        fbank, _ = banks_from_rows(rows)
        assert fbank.normalized.tobytes() == rows.tobytes()
        assert below < b and 1.0 - below == 1.0 - b
        assert knn(fbank, [0], 1).tolist() == [[1]]
        for k in (1, 2, 3):
            assert_matches_references(fbank, [0, 1, 2], k)

    def test_own_row_alone_in_its_group(self):
        # 100 searchable rows in 64 groups: sizes 1 and 2. A query whose
        # group holds only its own row sees that group's minimum at inf.
        rng = np.random.default_rng(22)
        fbank, _ = banks_from_rows(rng.standard_normal((100, 3)))
        sizes = np.diff(np.append(group_starts(100, 5), 100))
        alone = group_starts(100, 5)[sizes == 1]
        assert alone.size > 0
        assert_matches_references(fbank, alone, 5)

    def test_k_above_the_group_count(self):
        # K above _GROUPS: 4K groups, capped at N = 300 (one row each).
        rng = np.random.default_rng(23)
        fbank, _ = banks_from_rows(rng.standard_normal((300, 4)))
        assert group_starts(300, 100).size == 300
        assert_matches_references(fbank, rng.integers(0, 300, size=20), 100)

    @pytest.mark.parametrize("k", [1, 5, 64, 70])
    def test_bank_of_k_plus_one_rows(self, k):
        # Every row is its own group. The query's own group minimum is inf,
        # so the K-th group minimum is the largest other distance and every
        # entry survives.
        rng = np.random.default_rng(24 + k)
        fbank, _ = banks_from_rows(rng.standard_normal((k + 1, 3)))
        got = knn(fbank, np.arange(k + 1), k)
        for q, row in enumerate(got):
            assert sorted(row.tolist()) == [j for j in range(k + 1) if j != q]
        assert_matches_references(fbank, np.arange(k + 1), k)

    @pytest.mark.parametrize("k", [64, 100])
    def test_large_k_on_a_half_capacity_bank(self, k):
        # 2250 searchable rows in 4K groups: the bound stays near the K-th
        # distance, and queries whose own row was evicted are covered too.
        rng = np.random.default_rng(25)
        fbank, _ = banks_from_rows(rng.standard_normal((4500, 8)), capacity_fraction=0.5)
        assert group_starts(int(fbank.valid.sum()), k).size == 4 * k
        queries = rng.integers(0, 4500, size=30)
        assert not fbank.valid[queries].all() and fbank.valid[queries].any()
        got = knn(fbank, queries, k)
        for row, q in enumerate(queries):
            assert_array_equal(got[row], lexsort_reference(fbank, q, k), err_msg=f"query {q}")

    def test_empty_queries_on_tiny_and_empty_banks(self):
        fbank, _ = banks_from_rows(np.array([[1.0, 2.0]]))
        assert knn(fbank, [], 1).shape == (0, 1)
        assert knn(fbank, np.array([], dtype=np.int64), 3).shape == (0, 3)
        # One searchable row, row 2: it is the only candidate of the other
        # rows and leaves none for itself.
        tiny = FeatureBank(np.eye(3), 1)
        assert knn(tiny, [], 2).shape == (0, 2)
        assert knn(tiny, [0, 1], 1).tolist() == [[2], [2]]
        with pytest.raises(InvalidInputError, match="exceeds the 0 searchable rows"):
            knn(tiny, [2], 1)


def pair_reference(fbank, q, k):
    """One query by `knn`'s own distance, 1 - dot with the dot of the two
    unit rows formed per pair, over every searchable row but the query's."""
    rows = np.flatnonzero(fbank.valid & (np.arange(fbank.size) != q))
    dots = np.einsum("ij,ij->i", fbank.normalized[np.full(rows.size, q)], fbank.normalized[rows])
    return rows[np.lexsort((rows, 1.0 - dots))[:k]]


def rounding_tie(fbank, q, k, tol=2.0**-40):
    """Whether two of the query's k + 1 nearest rows, not both zero, lie
    within `tol` in distance. There the references, which form their dots in
    other summation orders than `knn` (the full-bank GEMV even differs
    between two copies of a row), may order them apart from it and from each
    other."""
    rows = np.flatnonzero(fbank.valid & (np.arange(fbank.size) != q))
    dist = 1.0 - fbank.normalized[rows] @ fbank.normalized[q]
    order = np.lexsort((rows, dist))[: k + 1]
    zero = ~fbank.normalized[rows[order]].any(axis=1)
    return bool((np.diff(dist[order]) <= tol)[~(zero[1:] & zero[:-1])].any())


@st.composite
def near_tie_banks(draw):
    """(bank, K): d in 2..32 and K in 1..8, random rows, some replaced by
    another row times a power of two (the same unit row), by zeros, or by
    another row with each entry moved by a relative 2^-e, e in 25..34, below
    float32 resolution. The last `capacity` rows are searchable."""
    d = draw(st.integers(2, 32))
    k = draw(st.integers(1, 8))
    m = draw(st.integers(k + 2, 40))
    capacity = draw(st.integers(k + 1, m))
    kinds = draw(st.lists(st.sampled_from(["fresh", "copy", "zero", "near"]), min_size=m, max_size=m))
    exponent = draw(st.integers(25, 34))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, d))
    for i, kind in enumerate(kinds[1:], start=1):
        j = int(rng.integers(0, i))
        if kind == "copy":
            rows[i] = rows[j] * 2.0 ** int(rng.integers(-3, 4))
        elif kind == "zero":
            rows[i] = 0.0
        elif kind == "near":
            rows[i] = rows[j] * (1.0 + rng.choice([-1.0, 1.0], d) * 2.0**-exponent)
    return FeatureBank(rows, capacity), k


class TestKnnFloat32Screen:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(near_tie_banks())
    def test_matches_the_references_on_near_tie_banks(self, bank_and_k):
        fbank, k = bank_and_k
        queries = np.arange(fbank.size)
        got = knn(fbank, queries, k)
        for q in queries:
            assert_array_equal(got[q], pair_reference(fbank, q, k), err_msg=f"query {q}")
        # Where two rows tie to within rounding, the references' own
        # summation orders decide; elsewhere all three agree.
        exact = [q for q in queries if not rounding_tie(fbank, q, k)]
        assume(exact)
        assert_matches_references(fbank, exact, k)

    @staticmethod
    def near_tie_bank(seed):
        """A query (row 0), its antipode, and 40 rows that are copies of one
        row moved by a relative 2^-26 per entry: their dots with the query
        differ by less than the float32 dot's rounding."""
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(8)
        near = base * (1.0 + rng.choice([-1.0, 1.0], (40, 8)) * 2.0**-26)
        query = rng.standard_normal(8)
        return FeatureBank(np.vstack([query, -query, near]), 42)

    def test_zero_margin_misses_a_true_neighbour(self, monkeypatch):
        # Each of the 42 columns is its own group, so with K = 1 the bound is
        # the largest float32 dot; without a margin only the entries at it
        # survive, and the float64 nearest is often not among them.
        banks = [self.near_tie_bank(seed) for seed in range(20)]
        for fbank in banks:
            assert_array_equal(knn(fbank, [0], 1)[0], pair_reference(fbank, 0, 1))
            assert_matches_references(fbank, [0], 1)
        monkeypatch.setattr(sfda2.banks, "_SLACK", 0)
        missed = [
            fbank for fbank in banks if knn(fbank, [0], 1)[0].tolist() != pair_reference(fbank, 0, 1).tolist()
        ]
        assert missed, "a zero margin kept every true nearest neighbour"
        for fbank in missed:
            assert knn(fbank, [0], 1)[0].tolist() != scan_oracle(fbank, 0, 1)


def update_banks_row_loop(fbank, score_bank, indices, features, probs):
    """Per-row form of `update_banks` on the rows, scores and stamps: rows are
    written in order, so the last of repeated indices wins. Norms are taken as
    in the `FeatureBank` constructor. Returns the searchable mask, the rows
    whose stamps are among the `capacity` largest."""
    first_stamp = fbank.stamps.max() + 1
    for pos, i in enumerate(indices):
        row = features[pos]
        norm = np.linalg.norm(row[None, :], axis=1)[0]
        fbank.normalized[i] = row / norm if norm != 0.0 else row
        score_bank[i] = probs[pos]
        fbank.stamps[i] = first_stamp + pos
    evicted = fbank.size - fbank.capacity
    return fbank.stamps >= np.partition(fbank.stamps, evicted)[evicted]


class TestUpdateBanksMatchesRowLoop:
    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    def test_bitwise_equal_with_duplicates_and_zero_rows(self, fraction):
        rng = np.random.default_rng(15)
        rows = rng.standard_normal((50, 6))
        fbank, _ = banks_from_rows(rows, capacity_fraction=fraction)
        ref_bank, _ = banks_from_rows(rows, capacity_fraction=fraction)
        scores, ref_scores = np.zeros((50, 3)), np.zeros((50, 3))
        for call in range(30):
            batch = int(rng.integers(1, 40))
            idx = rng.integers(0, 50, size=batch)  # repeats are common
            feats = rng.standard_normal((batch, 6)) * rng.uniform(1e-3, 1e3, (batch, 1))
            feats[rng.random(batch) < 0.2] = 0.0
            if call % 5 == 0:
                feats[0] = [-0.0, 0.0, -0.0, 0.0, 0.0, -0.0]
            probs = rng.dirichlet(np.ones(3), size=batch)
            update_banks(fbank, scores, idx, feats, probs)
            ref_valid = update_banks_row_loop(ref_bank, ref_scores, idx, feats, probs)
            for got, want in (
                (fbank.normalized, ref_bank.normalized),
                (scores, ref_scores),
                (fbank.stamps, ref_bank.stamps),
                (fbank.valid, ref_valid),
            ):
                assert got.tobytes() == want.tobytes(), f"call {call}"


class TestCapacityEviction:
    def test_oldest_rows_evicted_at_init(self):
        fbank, _ = banks_from_rows(np.eye(4), capacity_fraction=0.5)
        assert fbank.capacity == 2
        assert_array_equal(fbank.valid, [False, False, True, True])

    def test_fifo_eviction_on_update(self):
        fbank, scores = banks_from_rows(np.eye(4), capacity_fraction=0.5)
        update_banks(fbank, scores, [0], np.ones((1, 4)), scores[:1].copy())
        # 2 was the least recently written live row
        assert_array_equal(fbank.valid, [True, False, False, True])

    def test_rewrite_refreshes_queue_position(self):
        fbank, scores = banks_from_rows(np.eye(4), capacity_fraction=0.5)
        update_banks(fbank, scores, [2], np.ones((1, 4)), scores[2:3].copy())
        update_banks(fbank, scores, [0], np.ones((1, 4)), scores[:1].copy())
        # rewriting 2 moved it behind 3, so 3 was evicted first
        assert_array_equal(fbank.valid, [True, False, True, False])

    def test_evicted_rows_not_searchable(self):
        fbank, _ = banks_from_rows(np.eye(4), capacity_fraction=0.5)
        assert_array_equal(knn(fbank, [2], 1)[0], [3])
        with pytest.raises(InvalidInputError):
            knn(fbank, [2], 2)

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvalidInputError):
            banks_from_rows(np.eye(3), capacity_fraction=0.0)

    @pytest.mark.parametrize("capacity", [0, -1, 5, 6, 2.5])
    def test_from_rows_capacity_outside_row_count_rejected(self, capacity):
        # Above M, a write would evict searchable rows; at 0 none is searchable.
        with pytest.raises(InvalidInputError, match=rf"capacity {capacity} outside \[1, 4\]"):
            FeatureBank(np.eye(4), capacity)

    @pytest.mark.parametrize("capacity", [1, 4])
    def test_from_rows_capacity_at_the_ends_accepted(self, capacity):
        fbank = FeatureBank(np.eye(4), capacity)
        update_banks(fbank, np.zeros((4, 2)), [0], np.ones((1, 4)), np.full((1, 2), 0.5))
        assert fbank.valid.sum() == capacity and fbank.valid[0]


class ListFifo:
    """Reference model of bank validity: a list of live rows, oldest first.

    A write moves its row to the back of the queue (appending it when it was
    not live), and the front row is evicted while the queue exceeds capacity.
    """

    def __init__(self, m, capacity):
        self.m = m
        self.capacity = capacity
        self.queue = list(range(m))[m - capacity:]

    def write(self, indices):
        for i in indices:
            if self.capacity >= self.m:
                continue
            if i in self.queue:
                self.queue.remove(i)
            self.queue.append(i)
            while len(self.queue) > self.capacity:
                self.queue.pop(0)

    def valid(self):
        mask = np.zeros(self.m, dtype=bool)
        mask[self.queue] = True
        return mask


class TestStampsMatchFifoReference:
    @pytest.mark.parametrize(
        "m, fraction, batch, seed",
        [
            (12, 0.5, 4, 0),  # batches smaller than the capacity
            (12, 0.25, 5, 1),  # capacity 3, smaller than every batch
            (7, 1.0 / 7.0, 3, 2),  # capacity 1
            (10, 1.0, 6, 3),  # capacity = M never evicts
            (30, 0.4, 9, 4),
        ],
    )
    def test_valid_masks_agree_after_every_call(self, m, fraction, batch, seed):
        rng = np.random.default_rng(seed)
        fbank, scores = banks_from_rows(rng.standard_normal((m, 3)), capacity_fraction=fraction)
        fifo = ListFifo(m, fbank.capacity)
        assert_array_equal(fbank.valid, fifo.valid())
        for call in range(40):
            if call % 3 == 0:
                # rewrite rows that are live now, duplicates included
                live = np.flatnonzero(fbank.valid)
                idx = rng.choice(live, size=batch, replace=True)
            else:
                idx = rng.integers(0, m, size=batch)  # may repeat an index
            before = fbank.stamps.copy()
            update_banks(
                fbank, scores, idx, rng.standard_normal((batch, 3)), np.full((batch, 2), 0.5)
            )
            check_stamps(fbank, before, idx)
            fifo.write(idx.tolist())
            assert_array_equal(fbank.valid, fifo.valid(), err_msg=f"call {call}")
            assert fbank.valid.sum() == fbank.capacity


def check_stamps(fbank, before, written):
    """The newest row holds a slot, and only written rows took new stamps."""
    assert fbank.valid[fbank.stamps.argmax()]
    unwritten = np.setdiff1d(np.arange(fbank.size), written)
    assert_array_equal(fbank.stamps[unwritten], before[unwritten])


def check_slot_layout(fbank):
    """The slot matrix holds exactly the rows with the `capacity` largest
    stamps, contiguous, and the slot-to-row and row-to-slot maps are inverse."""
    positions = np.arange(fbank.slot_rows.size)
    assert_array_equal(np.sort(fbank.slot_rows), np.flatnonzero(fbank.valid))
    assert_array_equal(fbank.row_slots[fbank.slot_rows], positions)
    assert_array_equal(np.sort(fbank.slot_rows), np.sort(np.argsort(fbank.stamps)[-positions.size:]))
    assert fbank.slots.flags.c_contiguous
    expected = fbank.normalized[fbank.slot_rows].T.astype(np.float32)
    assert fbank.slots.tobytes() == expected.tobytes(), "stale slot"


def update_leaving_live_slots_stale(fbank, scores, indices, features, probs):
    """Planted defect: a live row that is rewritten keeps its old slot."""
    was_live = fbank.valid[indices]
    before = fbank.slots.copy()
    update_banks(fbank, scores, indices, features, probs)
    stale = fbank.row_slots[indices[was_live & fbank.valid[indices]]]
    fbank.slots[:, stale] = before[:, stale]


def random_writes(update, fraction, seed):
    """Random writes through `update`, each followed by the layout check and a
    comparison of `knn` against the full-bank sort."""
    rng = np.random.default_rng(seed)
    m = 60
    fbank, scores = banks_from_rows(rng.standard_normal((m, 4)), capacity_fraction=fraction)
    check_slot_layout(fbank)
    k = min(3, fbank.capacity - 1)
    for call in range(30):
        if call % 3 == 0:  # rewrite live rows, repeats included
            idx = rng.choice(np.flatnonzero(fbank.valid), size=5)
        elif call % 3 == 1:  # a batch wider than the capacity
            idx = rng.integers(0, m, size=fbank.capacity + 4)
        else:
            idx = rng.integers(0, m, size=int(rng.integers(1, 12)))
        before = fbank.stamps.copy()
        update(fbank, scores, idx, rng.standard_normal((idx.size, 4)), np.full((idx.size, 2), 0.5))
        check_stamps(fbank, before, idx)
        check_slot_layout(fbank)
        queries = rng.integers(0, m, size=12)
        got = knn(fbank, queries, k)
        for row, q in enumerate(queries):
            assert_array_equal(got[row], lexsort_reference(fbank, q, k), err_msg=f"call {call}")


class TestSlotLayout:
    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.8, 1.0])
    def test_invariants_after_every_write(self, fraction):
        random_writes(update_banks, fraction, seed=40)

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 1.0])
    def test_stale_live_slot_caught(self, fraction):
        with pytest.raises(AssertionError, match="stale slot"):
            random_writes(update_leaving_live_slots_stale, fraction, seed=40)

    def test_searchable_set_is_derived_and_read_only(self):
        fbank = FeatureBank(np.eye(4), 2)
        with pytest.raises(AttributeError):
            fbank.valid = np.ones(4, dtype=bool)
        with pytest.raises(AttributeError):
            fbank.capacity = 3
        assert fbank.valid.tolist() == [False, False, True, True] and fbank.capacity == 2
