import importlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sfda2.adapt import AdaptConfig, adapt, pretrain_source
from sfda2.data import default_shift_spec, gen_synthetic
from sfda2.errors import InvalidInputError
from sfda2.losses import fd_loss
from sfda2.stats import ClassStatistics, batch_covariance_oracle, class_moments, update_class_stats
from sfda2.verify import verify_oracles


class TestBatchCovarianceOracle:
    def test_single_row(self):
        mean, cov = batch_covariance_oracle(np.array([[3.0, -1.0, 2.0]]))
        assert_array_equal(mean, [3.0, -1.0, 2.0])
        assert_array_equal(cov, np.zeros((3, 3)))

    def test_symmetric_pair(self):
        mean, cov = batch_covariance_oracle(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert_array_equal(mean, [0.0, 0.0])
        assert_array_equal(cov, np.diag([1.0, 0.0]))

    def test_three_point_hand_instance(self):
        # mean (2/3, 2/3); population covariance worked out from the
        # centered outer products: diag 8/9, off-diagonal -4/9
        mean, cov = batch_covariance_oracle(
            np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        )
        assert_allclose(mean, [2.0 / 3.0, 2.0 / 3.0], atol=1e-15)
        expect = np.array([[8.0, -4.0], [-4.0, 8.0]]) / 9.0
        assert_allclose(cov, expect, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            batch_covariance_oracle(np.zeros((0, 2)))

    def test_population_normalization(self):
        # divide-by-m, not m-1
        rows = np.random.default_rng(0).standard_normal((7, 3))
        _, cov = batch_covariance_oracle(rows)
        assert_allclose(cov, np.cov(rows.T, bias=True), atol=1e-12)


def moment_batches(n=200, seed=12):
    """Random labelled batches: C in 1-6, d in 1-8, B in 2-70, row scales
    1e-3 to 1e3, and for three in four batches a mean offset up to 1e6.
    Yields (rows, labels, C, offset / scale)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        c, d, b = int(rng.integers(1, 7)), int(rng.integers(1, 9)), int(rng.integers(2, 71))
        scale = 10.0 ** rng.uniform(-3, 3)
        offset = 10.0 ** rng.uniform(0, 6) if rng.random() < 0.75 else 0.0
        rows = scale * rng.standard_normal((b, d)) + offset * rng.uniform(-1, 1, d)
        yield rows, rng.integers(0, c, b), c, offset / scale


def uncentred_moments(features, labels, n_classes):
    """Planted defect: covariances as E[xx^T] - mu mu^T, which cancels."""
    counts, means, _ = class_moments(features, labels, n_classes)
    onehot = (labels == np.arange(n_classes)[:, None]).astype(np.float64)
    second = np.einsum("cb,bi,bj->cij", onehot, features, features) / np.maximum(counts, 1)[:, None, None]
    return counts, means, second - means[:, :, None] * means[:, None, :]


def moments_match_oracle(moments, features, labels, rtol=1e-12):
    """Each populated class's mean and covariance lie within rtol of the
    largest entry of `batch_covariance_oracle`'s, and the counts agree."""
    counts, means, covs = moments
    assert_array_equal(counts, np.bincount(labels, minlength=counts.size))
    for c in np.flatnonzero(counts):
        mean, cov = batch_covariance_oracle(features[labels == c])
        if np.abs(means[c] - mean).max() > rtol * np.abs(mean).max():
            return False
        if np.abs(covs[c] - cov).max() > rtol * np.abs(cov).max():
            return False
    return True


class TestClassMoments:
    def test_matches_oracle_on_random_batches(self):
        for rows, labels, c, _ in moment_batches():
            assert moments_match_oracle(class_moments(rows, labels, c), rows, labels)

    def test_planted_uncentred_form_caught_on_offset_batches(self):
        offset = [
            (rows, labels, c)
            for rows, labels, c, ratio in moment_batches()
            if ratio >= 1e3 and np.bincount(labels).max() >= 2
        ]
        assert len(offset) >= 50
        for rows, labels, c in offset:
            assert not moments_match_oracle(uncentred_moments(rows, labels, c), rows, labels)

    def test_empty_class_exact_zeros(self):
        rows = np.array([[1e6, -3.0], [2e6, 5.0], [-7.0, 0.5]])
        counts, means, covs = class_moments(rows, [0, 0, 2], 4)
        assert_array_equal(counts, [2, 0, 1, 0])
        for c in (1, 3):
            assert_array_equal(means[c], np.zeros(2))
            assert_array_equal(covs[c], np.zeros((2, 2)))
        assert_array_equal(covs[2], np.zeros((2, 2)))

    def test_coincident_dyadic_rows_zero_covariance(self):
        row = np.array([0.75, -2.5, 1024.0, 3.0])
        for m in (2, 3, 5, 7):
            rows = np.vstack([np.tile(row, (m, 1)), np.ones((2, 4))])
            _, means, covs = class_moments(rows, [1] * m + [0, 0], 2)
            assert means[1].tobytes() == row.tobytes()
            assert covs[1].tobytes() == np.zeros((4, 4)).tobytes()

    def test_coincident_rows_zero_covariance(self):
        # Not dyadic: the mean of m equal rows need not round back to the row,
        # but each class is shifted by one of its own rows first.
        row = np.random.default_rng(12).standard_normal(8)
        for m in (2, 3, 5, 7):
            rows = np.vstack([np.tile(row, (m, 1)), np.ones((2, 8))])
            _, means, covs = class_moments(rows, [1] * m + [0, 0], 2)
            assert means[1].tobytes() == row.tobytes()
            assert covs[1].tobytes() == np.zeros((8, 8)).tobytes()

    def test_bad_input_rejected(self):
        with pytest.raises(InvalidInputError):
            class_moments(np.ones((3, 2)), [0, 1], 2)
        with pytest.raises(InvalidInputError):
            class_moments(np.ones(3), [0, 1, 1], 2)
        with pytest.raises(InvalidInputError):
            class_moments(np.ones((2, 2)), [0, 2], 2)
        for bad in (np.nan, np.inf, -np.inf):
            rows = np.array([[bad, 1.0], [1.0, 2.0]])
            with pytest.raises(InvalidInputError, match="non-finite"):
                class_moments(rows, [0, 0], 2)
            for part in (1, 2):  # a batch's means, then its covariances
                moments = [m.copy() for m in class_moments(np.ones((2, 2)), [0, 0], 2)]
                moments[part].flat[0] = bad
                with pytest.raises(InvalidInputError, match="non-finite"):
                    update_class_stats(ClassStatistics.empty(2, 2), tuple(moments))


class TestOracleOffTrainingPath:
    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def refuse(features):
            raise RuntimeError("batch_covariance_oracle reached")

        monkeypatch.setattr(importlib.import_module("sfda2.stats"), "batch_covariance_oracle", refuse)

    def test_adapt_never_reaches_oracle(self, no_oracle):
        source, target = gen_synthetic(default_shift_spec(10), 0)
        model = pretrain_source(AdaptConfig(seed=0, epochs=2, lr=0.1), source)
        _, trace = adapt(AdaptConfig(seed=0, epochs=1, batch_size=8), model, target.unlabeled())
        assert trace.iterations

    def test_fd_loss_never_reaches_oracle(self, no_oracle):
        rows = np.random.default_rng(5).standard_normal((9, 3))
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        value, _ = fd_loss(rows, labels, class_moments(rows, labels, 3), np.ones((3, 3)))
        assert value < 0.0

    def test_verify_oracles_still_calls_oracle(self, monkeypatch):
        calls = []

        def counting(features):
            calls.append(len(features))
            return batch_covariance_oracle(features)

        monkeypatch.setattr(importlib.import_module("sfda2.verify"), "batch_covariance_oracle", counting)
        report = verify_oracles()
        assert report.passed
        assert sum(calls) == report.details["streams"] * report.details["samples_per_stream"]


def merge_batch(stats, rows, labels):
    """The adapt loop's step: one batch's moments merged into `stats`."""
    return update_class_stats(stats, class_moments(rows, labels, stats.n_classes))


class TestUpdateClassStats:
    def test_single_sample_single_class(self):
        stats = ClassStatistics.empty(3, 2)
        z = np.array([[1.5, -2.0]])
        out = merge_batch(stats, z, [1])
        assert_array_equal(out.means[1], z[0])
        assert_array_equal(out.covs[1], np.zeros((2, 2)))
        assert out.counts[1] == 1
        # untouched classes stay at the empty state
        assert_array_equal(out.means[0], np.zeros(2))
        assert_array_equal(out.covs[2], np.zeros((2, 2)))
        assert out.counts[0] == 0

    def test_one_batch_equals_oracle(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((25, 4))
        stats = merge_batch(ClassStatistics.empty(2, 4), rows, [0] * 25)
        mean, cov = batch_covariance_oracle(rows)
        assert_allclose(stats.means[0], mean, atol=1e-12)
        assert_allclose(stats.covs[0], cov, atol=1e-12)
        assert stats.counts[0] == 25

    def test_split_batches_match_single_pass(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((60, 3))
        labels = rng.integers(0, 4, size=60)
        whole = merge_batch(ClassStatistics.empty(4, 3), rows, labels)
        split = ClassStatistics.empty(4, 3)
        for lo, hi in ((0, 10), (10, 30), (30, 60)):
            split = merge_batch(split, rows[lo:hi], labels[lo:hi])
        assert_allclose(split.means, whole.means, atol=1e-10)
        assert_allclose(split.covs, whole.covs, atol=1e-10)
        assert_array_equal(split.counts, whole.counts)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(3)
        batches = [
            (rng.standard_normal((m, 2)), rng.integers(0, 3, size=m))
            for m in (5, 12, 8)
        ]
        forward_order = ClassStatistics.empty(3, 2)
        for rows, labels in batches:
            forward_order = merge_batch(forward_order, rows, labels)
        reverse_order = ClassStatistics.empty(3, 2)
        for rows, labels in reversed(batches):
            reverse_order = merge_batch(reverse_order, rows, labels)
        assert_allclose(reverse_order.means, forward_order.means, atol=1e-10)
        assert_allclose(reverse_order.covs, forward_order.covs, atol=1e-10)
        assert_array_equal(reverse_order.counts, forward_order.counts)

    def test_covariances_stay_symmetric(self):
        rng = np.random.default_rng(4)
        stats = ClassStatistics.empty(2, 5)
        for _ in range(10):
            rows = rng.standard_normal((9, 5)) * 3.0 + rng.standard_normal(5)
            stats = merge_batch(stats, rows, rng.integers(0, 2, size=9))
        for c in range(2):
            assert_array_equal(stats.covs[c], stats.covs[c].T)
            assert np.linalg.eigvalsh(stats.covs[c]).min() >= -1e-12

    def test_rank_deficient_stream_stays_psd_up_to_rounding(self):
        # 2,400 merges of 1-6 rows each, of features on a rank-3 subspace
        # of d = 8: with no clamp, no eigenvalue drifts below rounding level.
        rng = np.random.default_rng(31)
        basis = rng.standard_normal((3, 8)) * [[1.0], [1e-3], [1e3]]
        offset = rng.standard_normal(8)
        stats = ClassStatistics.empty(3, 8)
        worst = 0.0
        for _ in range(2400):
            m = int(rng.integers(1, 7))
            rows = rng.standard_normal((m, 3)) @ basis + offset
            stats = merge_batch(stats, rows, rng.integers(0, 3, size=m))
            eigenvalues = np.linalg.eigvalsh(stats.covs)
            worst = min(worst, (eigenvalues[:, 0] / eigenvalues[:, -1].clip(min=1e-300)).min())
        assert worst >= -1e-12
        assert (stats.counts > 0).all()

    def test_input_is_not_mutated(self):
        stats = ClassStatistics.empty(2, 2)
        out = merge_batch(stats, np.ones((3, 2)), [0, 0, 1])
        assert_array_equal(stats.counts, [0, 0])
        assert out is not stats

    def test_label_out_of_range_rejected(self):
        stats = ClassStatistics.empty(2, 2)
        with pytest.raises(InvalidInputError):
            merge_batch(stats, np.ones((1, 2)), [2])
        with pytest.raises(InvalidInputError):
            merge_batch(stats, np.ones((1, 2)), [-1])
        # moments of more or fewer classes than the statistics hold
        for n_classes in (1, 3):
            with pytest.raises(InvalidInputError, match="class count"):
                update_class_stats(stats, class_moments(np.ones((1, 2)), [0], n_classes))

    def test_width_mismatch_rejected(self):
        stats = ClassStatistics.empty(2, 3)
        with pytest.raises(InvalidInputError):
            merge_batch(stats, np.ones((1, 2)), [0])
        counts, means, covs = class_moments(np.ones((1, 3)), [0], 2)
        for bad in ((counts, means[:, :2], covs), (counts, means, covs[:, :2, :2]), (counts, means, covs[:, :, :2])):
            with pytest.raises(InvalidInputError, match="feature width"):
                update_class_stats(stats, bad)

    def test_bad_counts_rejected(self):
        stats = ClassStatistics.empty(2, 2)
        counts, means, covs = class_moments(np.ones((3, 2)), [0, 0, 1], 2)
        for bad_counts in (np.array([-1, 3]), counts.astype(np.float64)):
            with pytest.raises(InvalidInputError, match="counts"):
                update_class_stats(stats, (bad_counts, means, covs))

    def test_empty_constructor_validates(self):
        with pytest.raises(InvalidInputError):
            ClassStatistics.empty(0, 2)
        with pytest.raises(InvalidInputError):
            ClassStatistics.empty(2, 0)


def update_class_by_class(stats, features, labels):
    """The pooled update and its symmetrization applied to each class in
    turn: the reference of the stacked merge. The batch moments come from
    `class_moments`, so only the merge arithmetic is compared."""
    means, covs, counts = stats.means.copy(), stats.covs.copy(), stats.counts.copy()
    _, batch_means, batch_covs = class_moments(features, labels, stats.n_classes)
    for c in np.unique(labels):
        m = int((labels == c).sum())
        mu_batch, cov_batch = batch_means[c], batch_covs[c]
        n = int(counts[c])
        total = n + m
        delta = means[c] - mu_batch
        cov_new = (n * covs[c] + m * cov_batch) / total + (n * m) * np.outer(delta, delta) / total**2
        covs[c] = (cov_new + cov_new.T) / 2.0
        means[c] = (n * means[c] + m * mu_batch) / total
        counts[c] = total
    return means, covs, counts


class TestStackedPsdCheck:
    """The stacked merge against its class-by-class reference. No eigenvalue
    is clamped: a covariance the merge leaves indefinite stays so."""

    def planted(self):
        # Running statistics for 4 classes. Class 2's covariance has an
        # eigenvalue of -0.5 that one small batch cannot lift, and every
        # class carries a slight asymmetry for the update to remove.
        rng = np.random.default_rng(30)
        covs = np.stack([np.eye(3) * (1.0 + c) for c in range(4)])
        covs[2] = np.diag([1.0, -0.5, 2.0])
        covs[:, 0, 1] += 1e-3
        stats = ClassStatistics(
            means=rng.standard_normal((4, 3)), covs=covs, counts=np.array([5, 7, 9, 0])
        )
        rows = rng.standard_normal((12, 3))
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 3, 3])
        return stats, rows, labels

    def test_psd_classes_exactly_symmetrized(self):
        # Every class, class 2 with its negative eigenvalue included, is
        # the pooled merge symmetrized, bit for bit.
        stats, rows, labels = self.planted()
        out = merge_batch(stats, rows, labels)
        means, covs, counts = update_class_by_class(stats, rows, labels)
        assert out.means.tobytes() == means.tobytes()
        assert out.covs.tobytes() == covs.tobytes()
        assert_array_equal(out.counts, counts)
        assert_array_equal(out.covs, out.covs.transpose(0, 2, 1))
        eigenvalues = np.linalg.eigvalsh(out.covs).min(axis=1)
        assert eigenvalues[2] < -0.05
        assert (np.delete(eigenvalues, 2) > 0.0).all()
