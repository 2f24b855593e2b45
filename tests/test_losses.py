import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sfda2.errors import InvalidInputError
from sfda2.losses import (
    _MC_ROWS,
    affinity_weights,
    decay_factor,
    efa_mc_estimate,
    fd_loss,
    ifa_loss,
    ifa_loss_batch,
    lambda_schedule,
    snc_loss,
    snc_loss_batch,
    softmax_vjp,
)
from sfda2.numerics import RngState, check_symmetric, psd_factor, row_softmax, sample_gaussian


def random_psd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T / d


class TestDecayFactor:
    def test_starts_at_one(self):
        for beta in (0.0, 1.0, 5.0):
            assert decay_factor(0, 100, beta) == 1.0

    def test_final_value_beta_five(self):
        assert_allclose(decay_factor(100, 100, 5.0), 11.0**-5, rtol=1e-15)

    def test_beta_zero_is_flat(self):
        assert all(decay_factor(i, 10, 0.0) == 1.0 for i in range(11))

    def test_strictly_decreasing(self):
        vals = [decay_factor(i, 50, 2.0) for i in range(51)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidInputError):
            decay_factor(0, 0, 1.0)
        with pytest.raises(InvalidInputError):
            decay_factor(11, 10, 1.0)
        with pytest.raises(InvalidInputError):
            decay_factor(0, 10, -1.0)


class TestLambdaSchedule:
    def test_endpoints_and_midpoint(self):
        assert lambda_schedule(0, 40, 5.0) == 0.0
        assert lambda_schedule(40, 40, 5.0) == 5.0
        assert lambda_schedule(20, 40, 5.0) == 2.5

    def test_strictly_increasing(self):
        vals = [lambda_schedule(i, 30, 5.0) for i in range(31)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidInputError):
            lambda_schedule(0, 0, 5.0)
        with pytest.raises(InvalidInputError):
            lambda_schedule(-1, 10, 5.0)


class TestSncLoss:
    def test_one_hot_saturation(self):
        p = np.array([1.0, 0.0])
        value, _ = snc_loss(p, np.tile(p, (3, 1)), np.tile(p, (4, 1)), 0, 1.0)
        assert_allclose(value, 2.0, atol=1e-12)  # -2 + 4

    def test_uniform_rows(self):
        p = np.full(4, 0.25)
        value, _ = snc_loss(p, np.tile(p, (2, 1)), np.tile(p, (2, 1)), 0, 1.0)
        assert_allclose(value, -0.375, atol=1e-12)

    def test_orthogonal_clusters(self):
        p = np.array([1.0, 0.0])
        other = np.array([0.0, 1.0])
        value, _ = snc_loss(p, np.tile(other, (2, 1)), p[None, :], 0, 1.0)
        assert_allclose(value, 1.0, atol=1e-12)

    def test_self_pair_uses_live_row(self):
        # the stored batch row at self_index must be ignored in favor of p
        p = np.array([1.0, 0.0])
        stale = np.array([[0.5, 0.5]])
        value, _ = snc_loss(p, np.array([[0.0, 1.0]]), stale, 0, 1.0)
        assert_allclose(value, 1.0, atol=1e-12)  # (p.p)^2, not (p.stale)^2

    def test_value_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c, k, b = rng.integers(2, 6), rng.integers(1, 5), rng.integers(1, 6)
            p = row_softmax(rng.standard_normal((1, c)))[0]
            neighbors = row_softmax(rng.standard_normal((k, c)))
            batch = row_softmax(rng.standard_normal((b, c)))
            decay = float(rng.random())
            value, _ = snc_loss(p, neighbors, batch, int(rng.integers(b)), decay)
            assert -2.0 - 1e-12 <= value <= decay * b + 1e-12

    def test_gradient_along_simplex_directions(self):
        # perturbations must stay on the simplex, so check directional
        # derivatives for zero-sum directions
        rng = np.random.default_rng(1)
        p = row_softmax(rng.standard_normal((1, 5)))[0]
        neighbors = row_softmax(rng.standard_normal((3, 5)))
        batch = row_softmax(rng.standard_normal((4, 5)))
        _, grad = snc_loss(p, neighbors, batch, 2, 0.7)
        h = 1e-6
        for _ in range(6):
            delta = rng.standard_normal(5)
            delta -= delta.mean()
            up, _ = snc_loss(p + h * delta, neighbors, batch, 2, 0.7)
            down, _ = snc_loss(p - h * delta, neighbors, batch, 2, 0.7)
            central = (up - down) / (2 * h)
            assert_allclose(float(grad @ delta), central, rtol=1e-5, atol=1e-8)

    def test_bad_inputs_rejected(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(InvalidInputError):
            snc_loss(p, np.array([[0.2, 0.3, 0.5]]), p[None, :], 0, 1.0)
        with pytest.raises(InvalidInputError):
            snc_loss(p, p[None, :], p[None, :], 1, 1.0)
        with pytest.raises(InvalidInputError):
            snc_loss(p, p[None, :], p[None, :], 0, -0.1)
        with pytest.raises(InvalidInputError):
            snc_loss(np.array([0.9, 0.3]), p[None, :], p[None, :], 0, 1.0)
        # A NaN entry fails the range test like an out-of-range one.
        nan_row = np.full(2, np.nan)
        with pytest.raises(InvalidInputError, match="probs_i rows are not valid"):
            snc_loss(nan_row, p[None, :], np.tile(p, (2, 1)), 0, 1.0)
        with pytest.raises(InvalidInputError, match="neighbor_probs rows are not valid"):
            snc_loss(p, nan_row[None, :], np.tile(p, (2, 1)), 0, 1.0)
        with pytest.raises(InvalidInputError, match="batch_probs rows are not valid"):
            snc_loss(p, p[None, :], np.vstack([p, nan_row]), 0, 1.0)


class TestIfaLoss:
    def test_zero_lambda_is_doubled_cross_entropy_sum(self):
        value, *_ = ifa_loss(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)
        assert_allclose(value, 4 * math.log(2), rtol=1e-12)

    def test_zero_lambda_random_instance(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(4)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        value, *_ = ifa_loss(z, random_psd(rng, 4), w, b, 0.0)
        probs = row_softmax((w @ z + b)[None, :])[0]
        assert_allclose(value, -2.0 * np.log(probs).sum(), rtol=1e-12)

    def test_zero_covariance_matches_zero_lambda(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(3)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        v0, *_ = ifa_loss(z, np.zeros((3, 3)), w, b, 3.7)
        v1, *_ = ifa_loss(z, random_psd(rng, 3), w, b, 0.0)
        assert_allclose(v0, v1, rtol=1e-12)

    def test_antipodal_classifier_hand_instance(self):
        # logits are [0, 0]; the weight difference has squared Mahalanobis
        # norm 4 under the identity, so each class term is -log(1/(1+e^2))
        value, *_ = ifa_loss(
            np.zeros(2),
            np.eye(2),
            np.array([[1.0, 0.0], [-1.0, 0.0]]),
            np.zeros(2),
            1.0,
        )
        assert_allclose(value, 4.0 * math.log(1.0 + math.e**2), rtol=1e-12)

    def test_nondecreasing_in_lambda(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(5)
        cov = random_psd(rng, 5)
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(4)
        vals = [ifa_loss(z, cov, w, b, lam)[0] for lam in np.linspace(0, 5, 11)]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(vals, vals[1:]))

    def test_upper_bounds_monte_carlo(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(2, 9))
            z = rng.standard_normal(d)
            cov = random_psd(rng, d)
            w = rng.standard_normal((c, d))
            b = rng.standard_normal(c)
            lam = float(5.0 * rng.random()) + 1e-3
            value, *_ = ifa_loss(z, cov, w, b, lam)
            mean, stderr = efa_mc_estimate(z, cov, w, b, lam, 20000, RngState(trial))
            assert mean <= value + 3.0 * stderr

    def test_feature_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(4)
        cov = random_psd(rng, 4)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        _, d_feat, _, _ = ifa_loss(z, cov, w, b, 1.7)
        h = 1e-5
        for i in range(4):
            step = np.zeros(4)
            step[i] = h
            up, *_ = ifa_loss(z + step, cov, w, b, 1.7)
            down, *_ = ifa_loss(z - step, cov, w, b, 1.7)
            assert_allclose(d_feat[i], (up - down) / (2 * h), rtol=1e-4, atol=1e-8)

    def test_classifier_gradients_match_directional_differences(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal(4)
        cov = random_psd(rng, 4)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        _, _, d_w, d_b = ifa_loss(z, cov, w, b, 2.3)
        h = 1e-6
        for _ in range(4):
            dw = rng.standard_normal((3, 4))
            up, *_ = ifa_loss(z, cov, w + h * dw, b, 2.3)
            down, *_ = ifa_loss(z, cov, w - h * dw, b, 2.3)
            assert_allclose(float((d_w * dw).sum()), (up - down) / (2 * h), rtol=1e-4, atol=1e-8)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            up, *_ = ifa_loss(z, cov, w, b + step, 2.3)
            down, *_ = ifa_loss(z, cov, w, b - step, 2.3)
            assert_allclose(d_b[i], (up - down) / (2 * h), rtol=1e-4, atol=1e-8)

    def test_bad_inputs_rejected(self):
        z = np.zeros(2)
        w = np.eye(2)
        b = np.zeros(2)
        with pytest.raises(InvalidInputError):
            ifa_loss(z, np.array([[1.0, 0.5], [0.0, 1.0]]), w, b, 1.0)
        with pytest.raises(InvalidInputError):
            ifa_loss(z, np.eye(2), w, b, -1.0)
        with pytest.raises(InvalidInputError):
            ifa_loss(z, np.eye(3), w, b, 1.0)


def batch_instance(seed, n_classes, dim, batch, k):
    rng = np.random.default_rng(seed)
    covs = np.stack([random_psd(rng, dim) for _ in range(n_classes)])
    return dict(
        probs=row_softmax(1.5 * rng.standard_normal((batch, n_classes))),
        neighbors=row_softmax(rng.standard_normal((batch * k, n_classes))).reshape(batch, k, n_classes),
        bank=row_softmax(rng.standard_normal((batch, n_classes))),
        features=rng.standard_normal((batch, dim)),
        labels=rng.integers(0, n_classes, batch),
        covs=covs,
        weights=rng.standard_normal((n_classes, dim)),
        bias=rng.standard_normal(n_classes),
    )


SHAPES = [(3, 8, 64, 5), (10, 16, 32, 5), (4, 3, 2, 1)]


class TestBatchKernels:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_snc_rows_match_per_sample_form(self, shape):
        inst = batch_instance(0, *shape)
        values, grads = snc_loss_batch(inst["probs"], inst["neighbors"], inst["bank"], 0.7)
        for i in range(shape[2]):
            v, g = snc_loss(inst["probs"][i], inst["neighbors"][i], inst["bank"], i, 0.7)
            assert_allclose(values[i], v, rtol=1e-12, atol=1e-14)
            assert_allclose(grads[i], g, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lam", [0.0, 1.3])
    def test_ifa_rows_match_per_sample_form(self, shape, lam):
        inst = batch_instance(1, *shape)
        values, d_feat, d_w, d_b = ifa_loss_batch(
            inst["features"], inst["labels"], inst["covs"], inst["weights"], inst["bias"], lam
        )
        sum_w = np.zeros_like(inst["weights"])
        sum_b = np.zeros_like(inst["bias"])
        for i in range(shape[2]):
            cov = inst["covs"][inst["labels"][i]]
            v, dz, dw, db = ifa_loss(inst["features"][i], cov, inst["weights"], inst["bias"], lam)
            assert_allclose(values[i], v, rtol=1e-12)
            assert_allclose(d_feat[i], dz, rtol=1e-11, atol=1e-12)
            sum_w += dw
            sum_b += db
        assert_allclose(d_w, sum_w, rtol=1e-11, atol=1e-12)
        assert_allclose(d_b, sum_b, rtol=1e-11, atol=1e-12)

    def test_softmax_vjp_rows_independent(self):
        rng = np.random.default_rng(2)
        probs = row_softmax(rng.standard_normal((5, 4)))
        upstream = rng.standard_normal((5, 4))
        batched = softmax_vjp(probs, upstream)
        for i in range(5):
            assert_allclose(batched[i], softmax_vjp(probs[i], upstream[i]), rtol=1e-14, atol=1e-16)

    def test_snc_invalid_rows_rejected(self):
        inst = batch_instance(3, 3, 4, 6, 2)
        bad = inst["neighbors"].copy()
        bad[4, 1] = [0.9, 0.3, 0.0]
        with pytest.raises(InvalidInputError, match="neighbor_probs"):
            snc_loss_batch(inst["probs"], bad, inst["bank"], 1.0)
        with pytest.raises(InvalidInputError):
            snc_loss_batch(inst["probs"], inst["neighbors"][:5], inst["bank"], 1.0)
        with pytest.raises(InvalidInputError):
            snc_loss_batch(inst["probs"], inst["neighbors"], inst["bank"], np.nan)
        uniform = np.full((2, 3), 1.0 / 3.0)
        nan_rows = np.full((2, 3), np.nan)
        with pytest.raises(InvalidInputError, match="probs rows are not valid"):
            snc_loss_batch(nan_rows, uniform[:, None, :], uniform, 1.0)
        with pytest.raises(InvalidInputError, match="neighbor_probs rows are not valid"):
            snc_loss_batch(uniform, nan_rows[:, None, :], uniform, 1.0)
        with pytest.raises(InvalidInputError, match="bank_probs rows are not valid"):
            snc_loss_batch(uniform, uniform[:, None, :], nan_rows, 1.0)

    def test_ifa_bad_covariances_rejected(self):
        inst = batch_instance(4, 3, 4, 6, 2)
        args = (inst["features"], inst["labels"])
        tail = (inst["weights"], inst["bias"], 1.0)
        covs = inst["covs"].copy()
        covs[2, 0, 1] += 1e-3  # asymmetric
        with pytest.raises(InvalidInputError, match="not symmetric"):
            ifa_loss_batch(*args, covs, *tail)
        covs = inst["covs"].copy()
        covs[1, 2, 2] = np.inf
        with pytest.raises(InvalidInputError, match="non-finite"):
            ifa_loss_batch(*args, covs, *tail)
        with pytest.raises(InvalidInputError):
            ifa_loss_batch(*args, inst["covs"][0], *tail)  # one matrix, not one per class
        with pytest.raises(InvalidInputError):
            ifa_loss_batch(inst["features"], np.full(6, 3), inst["covs"], *tail)


class TestEfaMcEstimate:
    def test_zero_lambda_uniform_logits(self):
        mean, stderr = efa_mc_estimate(
            np.zeros(2), np.eye(2), np.zeros((2, 2)), np.zeros(2), 0.0, 100, RngState(0)
        )
        assert_allclose(mean, math.log(2), rtol=1e-12)
        assert stderr == 0.0

    def test_saturated_softmax_near_zero(self):
        mean, _ = efa_mc_estimate(
            np.zeros(2),
            np.eye(2),
            np.zeros((2, 2)),
            np.array([20.0, -20.0]),
            0.0,
            100,
            RngState(1),
        )
        assert abs(mean) < 1e-8

    def test_reproducible_for_equal_seeds(self):
        args = (np.ones(3), np.eye(3), np.random.default_rng(2).standard_normal((2, 3)), np.zeros(2), 1.5, 500)
        first = efa_mc_estimate(*args, RngState(9))
        second = efa_mc_estimate(*args, RngState(9))
        assert first == second

    def test_needs_two_pairs(self):
        with pytest.raises(InvalidInputError):
            efa_mc_estimate(np.zeros(2), np.eye(2), np.eye(2), np.zeros(2), 1.0, 1, RngState(0))

    @pytest.mark.parametrize(
        "weights, bias",
        [(np.ones((2, 4)), np.zeros(2)), (np.ones((2, 3)), np.zeros(3))],
        ids=["weights-wider-than-feature", "bias-longer-than-classes"],
    )
    def test_classifier_shape_rejected(self, weights, bias):
        with pytest.raises(InvalidInputError, match="classifier"):
            efa_mc_estimate(np.zeros(3), np.eye(3), weights, bias, 1.0, 10, RngState(0))


def row_major_efa_mc_estimate(feature, cov, clf_weights, clf_bias, lam, n_pairs, rng):
    """efa_mc_estimate with sample-major (2n, C) logits, the layout the
    class-major form must reproduce."""
    draws = sample_gaussian(feature, lam * check_symmetric(cov, "cov"), 2 * n_pairs, rng)
    probs = row_softmax(draws @ clf_weights.T + clf_bias)
    dots = (probs[:n_pairs] * probs[n_pairs:]).sum(axis=1)
    values = -np.log(dots)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_pairs))


def chunk_boundary_cases():
    rng = np.random.default_rng(1)
    dead = random_psd(rng, 3)
    dead[1] = 0.0
    dead[:, 1] = 0.0
    u = np.array([1.0, 2.0, -1.0])
    return {
        "lambda-zero": (np.array([0.5, -0.0, 2.0]), random_psd(rng, 3), 0.0),
        "negative-zero-mean-dead-coordinate": (np.array([0.5, -0.0, 2.0]), dead, 1.5),
        "rank-one-jitter": (np.array([0.3, -0.2, 1.0]), np.outer(u, u), 2.0),
    }


CHUNK_BOUNDARY_CASES = chunk_boundary_cases()


class TestEfaMcEstimateMatchesRowMajor:
    def instance(self, n_classes, seed, n_pairs=3000):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 7
        return (
            rng.standard_normal(dim),
            random_psd(rng, dim),
            rng.standard_normal((n_classes, dim)),
            rng.standard_normal(n_classes),
            5.0 * rng.random(),
            n_pairs,
        )

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5, 6, 7])
    def test_equal_up_to_seven_classes(self, n_classes):
        for seed in range(3):
            args = self.instance(n_classes, seed)
            expected = row_major_efa_mc_estimate(*args, RngState(seed))
            assert efa_mc_estimate(*args, RngState(seed)) == expected

    @pytest.mark.parametrize("n_classes", [8, 10])
    def test_close_from_eight_classes(self, n_classes):
        for seed in range(3):
            args = self.instance(n_classes, seed)
            expected = row_major_efa_mc_estimate(*args, RngState(seed))
            assert_allclose(efa_mc_estimate(*args, RngState(seed)), expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n_pairs", [_MC_ROWS - 1, _MC_ROWS, _MC_ROWS + 1, 2 * _MC_ROWS + 3])
    def test_streamed_chunks_equal_one_shot(self, n_pairs):
        # The one-shot reference draws all 2n rows at once; the estimate
        # streams each half in _MC_ROWS-row chunks, the last one short or full.
        for n_classes in (2, 5, 7):
            args = self.instance(n_classes, n_classes, n_pairs)
            expected = row_major_efa_mc_estimate(*args, RngState(n_classes))
            assert efa_mc_estimate(*args, RngState(n_classes)) == expected

    @pytest.mark.parametrize("name", sorted(CHUNK_BOUNDARY_CASES))
    def test_chunk_boundary_equals_one_shot(self, name):
        # One pair past a full chunk, so each half streams a full and a 1-row chunk.
        feature, cov, lam = CHUNK_BOUNDARY_CASES[name]
        rng = np.random.default_rng(0)
        args = (feature, cov, rng.standard_normal((3, feature.size)), rng.standard_normal(3), lam, _MC_ROWS + 1)
        expected = row_major_efa_mc_estimate(*args, RngState(0))
        assert efa_mc_estimate(*args, RngState(0)) == expected

    def test_rank_one_case_needs_jitter(self):
        _, cov, lam = CHUNK_BOUNDARY_CASES["rank-one-jitter"]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(lam * cov)

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_covariance_factored_once_per_estimate(self, monkeypatch, lam):
        calls = []
        monkeypatch.setattr("sfda2.numerics.psd_factor", lambda cov: calls.append(cov.shape) or psd_factor(cov))
        args = self.instance(3, 4, 2 * _MC_ROWS + 3)[:4]
        for expected_calls in (1, 2):
            efa_mc_estimate(*args, lam, 2 * _MC_ROWS + 3, RngState(0))
            assert len(calls) == expected_calls


class TestAffinityWeights:
    def test_single_class_one_hot(self):
        probs = np.tile(np.array([1.0, 0.0, 0.0]), (5, 1))
        aff = affinity_weights(probs, [0] * 5)
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0
        assert_allclose(aff, expect, atol=1e-15)

    def test_all_uniform_all_classes(self):
        c = 4
        probs = np.full((8, c), 1.0 / c)
        aff = affinity_weights(probs, [0, 1, 2, 3, 0, 1, 2, 3])
        assert_allclose(aff, np.full((c, c), 1.0 / c), atol=1e-15)

    def test_unpopulated_class_zeroed(self):
        probs = row_softmax(np.random.default_rng(3).standard_normal((6, 3)))
        aff = affinity_weights(probs, [0, 0, 2, 2, 0, 2])
        assert_array_equal(aff[1], np.zeros(3))
        assert_array_equal(aff[:, 1], np.zeros(3))

    def test_symmetric_unit_interval(self):
        rng = np.random.default_rng(4)
        probs = row_softmax(rng.standard_normal((40, 5)))
        aff = affinity_weights(probs, rng.integers(0, 5, size=40))
        assert_allclose(aff, aff.T, atol=1e-15)
        assert aff.min() >= 0.0
        assert aff.max() <= 1.0 + 1e-12

    def test_misaligned_labels_rejected(self):
        probs = np.full((4, 2), 0.5)
        with pytest.raises(InvalidInputError):
            affinity_weights(probs, [0, 1])
        with pytest.raises(InvalidInputError):
            affinity_weights(probs, [0, 1, 0, 2])


def uniform_affinity(c, value=1.0):
    return np.full((c, c), value)


class TestFdLoss:
    def test_identical_covariances_cost_nothing(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 0.0], [7.0, 0.0]])
        value, grad = fd_loss(feats, [0, 0, 1, 1], uniform_affinity(2))
        assert_allclose(value, 0.0, atol=1e-12)
        assert_allclose(grad, np.zeros_like(feats), atol=1e-9)

    def test_orthogonal_covariances_hand_value(self):
        # class covariances diag(1,0) and diag(0,1); both ordered pairs
        # contribute -(1/2) * 0.5 * (1 - 0)
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        value, _ = fd_loss(feats, [0, 0, 1, 1], uniform_affinity(2, 0.5))
        assert_allclose(value, -0.5, atol=1e-12)

    def test_value_is_a_python_float(self):
        feats = np.random.default_rng(7).standard_normal((8, 3))
        labels = [0, 0, 0, 1, 1, 1, 2, 2]
        value, _ = fd_loss(feats, labels, uniform_affinity(3, 0.5))
        assert type(value) is float
        assert value < 0.0

    def test_single_populated_class_is_zero(self):
        feats = np.random.default_rng(5).standard_normal((4, 3))
        value, grad = fd_loss(feats, [1, 1, 1, 1], uniform_affinity(2))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert_array_equal(grad, np.zeros_like(feats))

    def test_no_pairable_class_flags_degenerate(self):
        feats = np.random.default_rng(6).standard_normal((3, 2))
        value, grad = fd_loss(feats, [0, 1, 2], uniform_affinity(3))
        assert value == 0.0
        assert_array_equal(grad, np.zeros_like(feats))

    def test_zero_norm_covariance_pairs_skipped(self):
        # class 1's rows coincide, so its covariance is exactly zero
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 3.0], [3.0, 3.0]])
        value, grad = fd_loss(feats, [0, 0, 1, 1], uniform_affinity(2))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert np.isfinite(grad).all()

    def test_value_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            feats = rng.standard_normal((12, 3))
            labels = rng.integers(0, 3, size=12)
            class_means = row_softmax(rng.standard_normal((3, 3)))
            aff = class_means @ class_means.T
            value, _ = fd_loss(feats, labels, aff)
            off_diag = aff.sum() - np.trace(aff)
            assert -0.5 * off_diag - 1e-12 <= value <= 1e-12

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((7, 3))
        labels = np.array([0, 0, 0, 1, 1, 1, 0])
        aff = uniform_affinity(2, 0.8)
        _, grad = fd_loss(feats, labels, aff)
        h = 1e-5
        for r, c in ((0, 0), (2, 1), (5, 2), (6, 0)):
            step = np.zeros_like(feats)
            step[r, c] = h
            up, _ = fd_loss(feats + step, labels, aff)
            down, _ = fd_loss(feats - step, labels, aff)
            assert_allclose(grad[r, c], (up - down) / (2 * h), rtol=1e-4, atol=1e-8)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            fd_loss(np.zeros((2, 2)), [0, 2], uniform_affinity(2))

    @pytest.mark.parametrize("affinity", [np.ones((2, 1)), np.ones(2)], ids=["2x1", "1-D"])
    def test_non_square_affinity_rejected(self, affinity):
        feats = np.random.default_rng(9).standard_normal((4, 2))
        with pytest.raises(InvalidInputError, match="affinity"):
            fd_loss(feats, [0, 0, 1, 1], affinity)

    def test_non_finite_features_rejected(self):
        feats = np.array([[np.nan, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="non-finite"):
            fd_loss(feats, [0, 0, 1, 1], uniform_affinity(2))


def pairwise_fd_loss(batch_features, batch_pseudo_labels, affinity, both_halves=True):
    """fd_loss as per-class dicts and an ordered class-pair loop, the form the
    class-matrix kernel replaced. both_halves=False drops each pair's (j, i)
    half of the gradient: a planted defect the comparison must catch."""
    feats = np.asarray(batch_features, dtype=np.float64)
    labels = np.asarray(batch_pseudo_labels).ravel()
    grad = np.zeros_like(feats)
    populated = [c for c in np.unique(labels) if (labels == c).sum() >= 2]
    covs, norms = {}, {}
    for c in populated:
        rows = feats[labels == c]
        centered = rows - rows.mean(axis=0)
        covs[c] = centered.T @ centered / rows.shape[0]
        norms[c] = float(np.linalg.norm(covs[c]))
    value = 0.0
    dcov = {c: np.zeros_like(covs[c]) for c in populated}
    for ci in populated:
        for cj in populated:
            if ci == cj or norms[ci] == 0.0 or norms[cj] == 0.0:
                continue
            trace = float((covs[ci] * covs[cj]).sum())
            sim = trace / (norms[ci] * norms[cj])
            weight = affinity[ci, cj]
            value -= 0.5 * weight * (1.0 - sim)
            coef = 0.5 * weight
            dcov[ci] += coef * (covs[cj] / (norms[ci] * norms[cj]) - trace * covs[ci] / (norms[ci] ** 3 * norms[cj]))
            if both_halves:
                dcov[cj] += coef * (covs[ci] / (norms[ci] * norms[cj]) - trace * covs[cj] / (norms[cj] ** 3 * norms[ci]))
    for c in populated:
        member = labels == c
        rows = feats[member]
        grad[member] = (2.0 / rows.shape[0]) * (rows - rows.mean(axis=0)) @ dcov[c]
    return float(value), grad


def fd_term_scale(feats, labels, affinity):
    """Largest gradient entry fd_loss's terms reach before they cancel:
    |grad_r| <= (2/m) |x_r - mu_c| sum_j (|a_cj| + |a_jc|) / |cov_c|. At
    d = 1 every similarity is 1 and the exact gradient is 0, so the two
    forms differ by rounding on this scale."""
    spread = np.abs(affinity).sum(axis=0) + np.abs(affinity).sum(axis=1)
    scale = 0.0
    for c in np.unique(labels):
        rows = feats[labels == c]
        centered = rows - rows.mean(axis=0)
        norm = np.linalg.norm(centered.T @ centered / rows.shape[0])
        if rows.shape[0] >= 2 and norm > 0.0:
            reach = np.linalg.norm(centered, axis=1).max()
            scale = max(scale, 2.0 / rows.shape[0] * reach * spread[c] / norm)
    return scale


def fd_instance(rng):
    """Random batch: C in 1..6, d in 1..8, B in 2..70, features scaled by
    1e-3..1e3, symmetric or asymmetric affinities, and sometimes a class of
    coincident dyadic rows (an exactly zero covariance)."""
    n_classes, dim, batch = int(rng.integers(1, 7)), int(rng.integers(1, 9)), int(rng.integers(2, 71))
    feats = rng.standard_normal((batch, dim)) * 10.0 ** rng.uniform(-3.0, 3.0)
    labels = rng.integers(0, n_classes, size=batch)
    if rng.random() < 0.3:
        member = labels == rng.integers(0, n_classes)
        feats[member] = np.round(feats[member][:1] * 8.0) / 8.0
    affinity = rng.random((n_classes, n_classes))
    if rng.random() < 0.5:
        affinity = affinity @ affinity.T / n_classes
    return feats, labels, affinity


def fd_forms_agree(got, expected, feats, labels, affinity):
    """Value and gradient within 1e-9 relative, with absolute floors at
    1e-12 of the summed affinities and of fd_term_scale."""
    value_floor = 1e-12 * np.abs(affinity).sum()
    grad_floor = 1e-12 * fd_term_scale(feats, labels, affinity)
    return abs(got[0] - expected[0]) <= 1e-9 * abs(expected[0]) + value_floor and bool(
        np.all(np.abs(got[1] - expected[1]) <= 1e-9 * np.abs(expected[1]) + grad_floor)
    )


class TestFdLossMatchesPairwise:
    N_INSTANCES = 1000

    def instances(self):
        rng = np.random.default_rng(2024)
        return [fd_instance(rng) for _ in range(self.N_INSTANCES)]

    def test_agrees_on_random_instances(self):
        seen = {"d=1": 0, "singleton": 0, "zero norm": 0, "asymmetric": 0}
        for feats, labels, affinity in self.instances():
            got = fd_loss(feats, labels, affinity)
            expected = pairwise_fd_loss(feats, labels, affinity)
            assert fd_forms_agree(got, expected, feats, labels, affinity)
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, expected[0])
            counts = np.bincount(labels)
            seen["d=1"] += feats.shape[1] == 1
            seen["singleton"] += bool((counts == 1).any())
            seen["zero norm"] += any(
                (labels == c).sum() >= 2 and np.ptp(feats[labels == c], axis=0).max() == 0.0 for c in np.unique(labels)
            )
            seen["asymmetric"] += not np.array_equal(affinity, affinity.T)
        assert min(seen.values()) >= 50, seen

    def test_planted_half_gradient_caught(self):
        caught = contributing = 0
        for feats, labels, affinity in self.instances():
            got = fd_loss(feats, labels, affinity)
            if feats.shape[1] == 1 or not np.any(got[1]):
                continue
            contributing += 1
            broken = pairwise_fd_loss(feats, labels, affinity, both_halves=False)
            caught += not fd_forms_agree(got, broken, feats, labels, affinity)
        assert contributing >= 500
        assert caught == contributing
