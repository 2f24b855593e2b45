import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from sfda2.errors import InvalidInputError, NumericalError
from sfda2.losses import (
    _MC_REPLICATES,
    _MC_ROWS,
    _halton,
    _fd_value,
    _ifa_loss_batch,
    _ifa_values,
    _snc_loss_batch,
    _snc_values,
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
from sfda2.numerics import (
    RngState,
    _gaussian_lift,
    check_symmetric,
    psd_factor,
    row_logsumexp,
    row_softmax,
    sample_gaussian,
)
from sfda2.stats import class_moments


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

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        for iteration in (0, 5):
            with pytest.raises(InvalidInputError, match="beta must be finite"):
                decay_factor(iteration, 10, beta)


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

    @pytest.mark.parametrize("lambda0", [-5.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_lambda0_rejected(self, lambda0):
        for iteration in (0, 1):
            with pytest.raises(InvalidInputError, match="lambda0 must be finite"):
                lambda_schedule(iteration, 10, lambda0)


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

    def test_zero_rows_rejected(self):
        # K = 0 neighbours once reached NumPy's zero-size reduction error.
        p = np.array([0.5, 0.5])
        with pytest.raises(InvalidInputError, match="neighbor_probs must be one or more rows"):
            snc_loss(p, np.empty((0, 2)), p[None, :], 0, 1.0)
        with pytest.raises(InvalidInputError, match="batch_probs must be one or more rows"):
            snc_loss(p, p[None, :], np.empty((0, 2)), 0, 1.0)
        with pytest.raises(InvalidInputError, match="probs_i must be one or more rows"):
            snc_loss(np.empty(0), p[None, :], p[None, :], 0, 1.0)


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

    def test_zero_lambda_direction_holds(self):
        # At lambda = 0 every augmented pair is the feature itself, and the
        # bound, a sum over all classes, stays above the pair loss.
        rng = np.random.default_rng(8)
        for trial in range(5):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(2, 9))
            z = rng.standard_normal(d)
            cov = random_psd(rng, d)
            w = rng.standard_normal((c, d))
            b = rng.standard_normal(c)
            value, *_ = ifa_loss(z, cov, w, b, 0.0)
            mean, _ = efa_mc_estimate(z, cov, w, b, 0.0, 10000, RngState(trial))
            assert mean <= value

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


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestValueStages:
    """Each core's value stage gives the core's values bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.integers(1, 6),
        st.integers(2, 9),
        st.integers(1, 4),
        st.floats(0.0, 5.0),
    )
    def test_snc_and_ifa(self, seed, n_classes, dim, batch, k, lam):
        inst = batch_instance(seed, n_classes, dim, batch, k)
        snc_args = (inst["probs"], inst["neighbors"], inst["bank"], lam / 2.0)
        assert same_bits(_snc_values(*snc_args)[0], _snc_loss_batch(*snc_args)[0])
        covs = check_symmetric(inst["covs"], "covs")
        ifa_args = (inst["features"], inst["labels"], covs, inst["weights"], inst["bias"], lam)
        assert same_bits(_ifa_values(*ifa_args)[0], _ifa_loss_batch(*ifa_args)[0])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fd(self, seed):
        feats, labels, affinity = fd_instance(np.random.default_rng(seed))
        moments = class_moments(feats, labels, affinity.shape[0])
        assert same_bits(_fd_value(moments[2], affinity)[0], fd_loss(feats, labels, moments, affinity)[0])


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

    def test_repeated_calls_on_one_state_differ(self):
        args = (np.ones(3), np.eye(3), np.random.default_rng(2).standard_normal((2, 3)), np.zeros(2), 1.5, 500)
        rng = RngState(9, (4,))
        first = efa_mc_estimate(*args, rng)
        assert efa_mc_estimate(*args, rng) != first
        assert efa_mc_estimate(*args, RngState(9, (4,))) == first

    def test_one_class_draws_no_shifts(self):
        # One class leaves softmax no noise to see: r = 0, so no shifts are drawn.
        rng, twin = RngState(3), RngState(3)
        assert efa_mc_estimate(np.zeros(3), np.eye(3), np.ones((1, 3)), np.zeros(1), 2.0, 16, rng) == (0.0, 0.0)
        assert_array_equal(rng.generator.standard_normal(4), twin.generator.standard_normal(4))

    def test_pairs_round_down_to_whole_replicates(self):
        args = (np.ones(3), np.eye(3), np.random.default_rng(2).standard_normal((3, 3)), np.zeros(3), 1.5)
        assert efa_mc_estimate(*args, 16 * 40 + 15, RngState(9)) == efa_mc_estimate(*args, 16 * 40, RngState(9))

    def test_underflowed_pair_dots_are_taken_in_log_space(self):
        # lam * cov = 1e4 I: most draws saturate, and a pair saturated on
        # different classes has a dot of exactly 0, whose -log is inf.
        case = (np.zeros(2), np.eye(2), 100.0 * np.eye(2), np.zeros(2), 1e4, 100)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert two_pass_efa_mc_estimate(*case, RngState(0))[0] == np.inf
        got = efa_mc_estimate(*case, RngState(0))
        assert np.all(np.isfinite(got))
        assert_allclose(got, two_pass_efa_mc_estimate(*case, RngState(0), log_space_pair_losses), rtol=1e-13)

    def test_overflowed_exponentials_are_taken_in_log_space(self, monkeypatch):
        # Classes 0 and 1 sit 354 logits above the last one, so on most pairs
        # e^(a + b) or S S' overflows, while no pair's dot underflows.
        weights = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.5], [0.0, 0.0, 0.0]])
        case = (np.zeros(3), np.eye(3), weights, np.array([354.0, 354.0, 0.0]), 4.0, 16 * 100)
        assert np.all(np.isfinite(two_pass_efa_mc_estimate(*case, RngState(0))))
        repaired = []
        monkeypatch.setattr("sfda2.losses.row_logsumexp", lambda x: repaired.append(x.shape[0]) or row_logsumexp(x))
        got = efa_mc_estimate(*case, RngState(0))
        # Three log-sum-exps per repair, over some but not all of the 1600 pairs.
        assert 0 < sum(repaired) / 3 < 1600
        assert_allclose(got, two_pass_efa_mc_estimate(*case, RngState(0), log_space_pair_losses), rtol=1e-13)

    def test_non_finite_repaired_losses_are_a_numerical_error(self):
        # The factor and centre are finite, but a free logit 1e308 z
        # overflows for |z| > 1.8, and its log-space repair is NaN.
        weights = np.array([[1e308, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match="^Monte Carlo logits are non-finite$"):
            efa_mc_estimate(np.zeros(2), np.eye(2), weights, np.zeros(2), 1.0, 16 * 100, RngState(0))

    def test_memory_does_not_grow_with_pairs(self):
        args = (np.ones(4), np.eye(4), np.random.default_rng(3).standard_normal((5, 4)), np.zeros(5), 2.0)
        peaks = []
        for n_pairs in (10_000, 200_000):
            tracemalloc.start()
            try:
                efa_mc_estimate(*args, n_pairs, RngState(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Holding the (n_pairs,) losses would add 8 bytes a pair, 1.5 MB here.
        assert peaks[1] < peaks[0] + 4096

    def test_needs_one_pair_per_replicate(self):
        args = (np.zeros(2), np.eye(2), np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(InvalidInputError, match="n_pairs must be >= 16"):
            efa_mc_estimate(*args, _MC_REPLICATES - 1, RngState(0))
        assert np.isfinite(efa_mc_estimate(*args, _MC_REPLICATES, RngState(0))).all()

    @pytest.mark.parametrize(
        "weights, bias",
        [(np.ones((2, 4)), np.zeros(2)), (np.ones((2, 3)), np.zeros(3)), (np.ones((0, 3)), np.zeros(0))],
        ids=["weights-wider-than-feature", "bias-longer-than-classes", "no-classes"],
    )
    def test_classifier_shape_rejected(self, weights, bias):
        with pytest.raises(InvalidInputError, match="classifier"):
            efa_mc_estimate(np.zeros(3), np.eye(3), weights, bias, 1.0, 16, RngState(0))

    def test_non_finite_logits_are_a_numerical_error(self):
        weights = np.ones((2, 3))
        weights[1, 2] = np.nan
        with pytest.raises(NumericalError, match="^Monte Carlo logits are non-finite$"):
            efa_mc_estimate(np.zeros(3), np.eye(3), weights, np.zeros(2), 1.0, 16, RngState(0))


def radical_inverse(index, base):
    """The Halton coordinate of a point index in one base, digit by digit."""
    value, scale = 0.0, 1.0
    while index:
        index, digit = divmod(index, base)
        scale /= base
        value += digit * scale
    return value


def halton_reference(n_points, dims):
    """The (n_points, dims) Halton points 1, ..., n_points, coordinate j in the
    (j + 1)-th prime base."""
    bases = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:dims]
    return np.array([[radical_inverse(i, b) for b in bases] for i in range(1, n_points + 1)]).reshape(n_points, dims)


def direct_pair_losses(first, second):
    return -np.log((row_softmax(first) * row_softmax(second)).sum(axis=1))


def log_space_pair_losses(first, second):
    """-log(p . q) as the log-sum-exp of the summed log-probabilities."""
    return -row_logsumexp(first - row_logsumexp(first)[:, None] + second - row_logsumexp(second)[:, None])


def two_pass_efa_mc_estimate(feature, cov, clf_weights, clf_bias, lam, n_pairs, rng, pair_losses=direct_pair_losses):
    """efa_mc_estimate holding every pair loss: the (n, 2r) Halton points
    from `halton_reference`, shifted mod 1 by each of the (R, 2r) uniforms
    drawn from `rng`, Box-Muller on the sample-major coordinate pairs into
    two (n, C) logit arrays, then each replicate's two-pass mean and the
    sample stdev of the R means. The factor is M = W lift minus its last
    row, with its first C - 1 rows replaced by R^T of their transpose's QR
    when k > C - 1."""
    mean, lift, _ = _gaussian_lift(feature, lam * check_symmetric(cov, "cov"))
    factor = clf_weights @ lift
    factor = factor - factor[-1]
    n_classes = factor.shape[0]
    if factor.shape[1] > n_classes - 1:
        factor = np.vstack([np.linalg.qr(factor[:-1].T, mode="r").T, np.zeros((1, n_classes - 1))])
    dims = 2 * factor.shape[1]
    shifts = rng.generator.random((_MC_REPLICATES, dims))
    points = halton_reference(n_pairs // _MC_REPLICATES, dims)
    centre = clf_weights @ mean + clf_bias
    means = []
    for shift in shifts:
        uniforms = (points + shift) % 1.0
        radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[:, 0::2]))
        angle = 2.0 * np.pi * uniforms[:, 1::2]
        first = (radius * np.cos(angle)) @ factor.T + centre
        second = (radius * np.sin(angle)) @ factor.T + centre
        means.append(pair_losses(first, second).mean())
    means = np.array(means)
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(_MC_REPLICATES))


def feature_space_efa_mc_estimate(feature, cov, clf_weights, clf_bias, lam, n_pairs, rng):
    """The oracle the logit-space draw replaced: 2n (d,) features from
    `sample_gaussian`, then the softmax of their logits."""
    draws = sample_gaussian(feature, lam * check_symmetric(cov, "cov"), 2 * n_pairs, rng)
    probs = row_softmax(draws @ clf_weights.T + clf_bias)
    values = -np.log((probs[:n_pairs] * probs[n_pairs:]).sum(axis=1))
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
        "rank-one": (np.array([0.3, -0.2, 1.0]), np.outer(u, u), 2.0),
    }


CHUNK_BOUNDARY_CASES = chunk_boundary_cases()


class TestEfaMcEstimateMatchesTwoPass:
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

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5, 6, 7, 8, 10])
    def test_matches_two_pass_reference(self, n_classes):
        for seed in range(3):
            args = self.instance(n_classes, seed)
            expected = two_pass_efa_mc_estimate(*args, RngState(seed))
            assert_allclose(efa_mc_estimate(*args, RngState(seed)), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n_points", [_MC_ROWS - 1, _MC_ROWS, _MC_ROWS + 1, 2 * _MC_ROWS + 3])
    def test_streamed_chunks_match_two_pass(self, n_points):
        # The estimate walks the points in _MC_ROWS-point chunks, the last
        # one short or full, and sums each replicate's losses across them.
        for n_classes in (2, 5, 7):
            args = self.instance(n_classes, n_classes, _MC_REPLICATES * n_points)
            expected = two_pass_efa_mc_estimate(*args, RngState(n_classes))
            assert_allclose(efa_mc_estimate(*args, RngState(n_classes)), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", sorted(CHUNK_BOUNDARY_CASES))
    def test_chunk_boundary_matches_two_pass(self, name):
        # One point past a full chunk, so the estimate sums a full and a 1-point chunk.
        feature, cov, lam = CHUNK_BOUNDARY_CASES[name]
        rng = np.random.default_rng(0)
        n_pairs = _MC_REPLICATES * (_MC_ROWS + 1)
        args = (feature, cov, rng.standard_normal((3, feature.size)), rng.standard_normal(3), lam, n_pairs)
        expected = two_pass_efa_mc_estimate(*args, RngState(0))
        # At lambda = 0 every pair loss is equal and the stderr is rounding noise.
        assert_allclose(efa_mc_estimate(*args, RngState(0)), expected, rtol=1e-13, atol=1e-15)

    def test_rank_one_case_fails_plain_cholesky(self):
        _, cov, lam = CHUNK_BOUNDARY_CASES["rank-one"]
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


def logit_space_cases():
    """(feature, cov, weights, bias, lam) with C classes and k active
    coordinates on either side of C - 1 and at it, a dead coordinate with a
    -0.0 mean, a rank-one covariance that plain Cholesky cannot factor (with
    2 and 3 classes), and lambda = 0. Cases are appended, so earlier ones
    keep their draws."""
    rng = np.random.default_rng(11)

    def classifier(n_classes, dim):
        return 1.5 * rng.standard_normal((n_classes, dim)), rng.standard_normal(n_classes)

    cases = {}
    for name, n_classes, dim in (("C<k", 3, 6), ("C=k", 4, 4), ("C>k", 5, 3)):
        cases[name] = (rng.standard_normal(dim), random_psd(rng, dim), *classifier(n_classes, dim), 2.5)
    for name in ("negative-zero-mean-dead-coordinate", "rank-one", "lambda-zero"):
        feature, cov, lam = CHUNK_BOUNDARY_CASES[name]
        cases[name] = (feature, cov, *classifier(2 if name == "rank-one" else 4, 3), lam)
    cases["C=k+1"] = (rng.standard_normal(3), random_psd(rng, 3), *classifier(4, 3), 2.5)
    feature, cov, lam = CHUNK_BOUNDARY_CASES["rank-one"]
    cases["rank-one-C3"] = (feature, cov, *classifier(3, 3), lam)
    return cases


LOGIT_SPACE_CASES = logit_space_cases()


def classes_and_active(case):
    """C and the number k of coordinates with nonzero variance in lam*cov."""
    feature, cov, weights, bias, lam = case
    return weights.shape[0], int((np.diagonal(lam * cov) != 0.0).sum())


def agree_with_feature_space(case, n_pairs=20000, seed=0):
    """The estimate and the feature-space oracle, on independent streams,
    agree within 4 combined standard errors (plus 1e-12 for lambda = 0,
    where both standard errors are rounding noise)."""
    got = efa_mc_estimate(*case, n_pairs, RngState(seed, (0,)))
    expected = feature_space_efa_mc_estimate(*case, n_pairs, RngState(seed, (1,)))
    return abs(got[0] - expected[0]) <= 4.0 * math.hypot(got[1], expected[1]) + 1e-12


class MatmulRecorder:
    """numpy as `sfda2.losses` sees it, keeping a copy of each `np.matmul`
    result. The estimate's one `np.matmul` call is the GEMM that writes a
    replicate's (2(C - 1), rows) free logits: the first draws' rows, then
    the second draws'."""

    def __init__(self):
        self.results = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        result = np.matmul(*args, **kwargs)
        self.results.append(result.copy())
        return result


class TestEfaMcEstimateLogitSpace:
    @pytest.mark.parametrize("name", sorted(LOGIT_SPACE_CASES))
    def test_agrees_with_feature_space_draws(self, name):
        assert agree_with_feature_space(LOGIT_SPACE_CASES[name])

    def test_cases_cover_both_sides_of_the_class_count(self):
        # The estimate draws min(C - 1, k) normals, so C - 1 is the boundary.
        sides = {}
        for name, case in LOGIT_SPACE_CASES.items():
            n_classes, active = classes_and_active(case)
            sides[name] = np.sign(n_classes - 1 - active)
        assert sides == {
            "C<k": -1,
            "C=k": -1,
            "C=k+1": 0,
            "C>k": 1,
            "negative-zero-mean-dead-coordinate": 1,
            "rank-one": -1,
            "rank-one-C3": -1,
            "lambda-zero": 1,
        }

    @pytest.mark.parametrize("name", ["rank-one", "C<k", "C=k", "C=k+1", "C>k"])
    def test_logit_differences_have_the_feature_space_law(self, monkeypatch, name):
        # Softmax sees a logit vector l only through d = D l = l[:-1] - l[-1].
        # Under feature draws d ~ N(D (W f + b), D W (lam cov) W^T D^T); the
        # drawn logits must give that law whether the factor is cut (C = 2
        # and C - 1 < k), left square (C - 1 = k) or left tall (C - 1 > k).
        # The estimate draws exactly these differences, as its free logits.
        feature, cov, weights, bias, lam = case = LOGIT_SPACE_CASES[name]
        recorder = MatmulRecorder()
        monkeypatch.setattr("sfda2.losses.np", recorder)
        efa_mc_estimate(*case, 20000, RngState(0))
        diffs = np.concatenate([half.T for logits in recorder.results for half in np.split(logits, 2)])
        to_diffs = np.hstack([np.eye(weights.shape[0] - 1), -np.ones((weights.shape[0] - 1, 1))])
        mean = to_diffs @ (weights @ feature + bias)
        covariance = to_diffs @ weights @ (lam * cov) @ weights.T @ to_diffs.T
        n, sd = diffs.shape[0], np.sqrt(np.diagonal(covariance))
        assert n == 40000
        assert np.all(np.abs(diffs.mean(axis=0) - mean) <= 5.0 * sd / np.sqrt(n))
        # Each sample-covariance entry has variance (S_ii S_jj + S_ij^2) / n.
        sample = np.atleast_2d(np.cov(diffs, rowvar=False))
        assert np.all(np.abs(sample - covariance) <= 5.0 * np.sqrt((np.outer(sd, sd) ** 2 + covariance**2) / n))

    @pytest.mark.parametrize("name", ["C<k", "rank-one-C3"])
    def test_planted_untransposed_r_caught(self, monkeypatch, name):
        # For k > C - 1 the shifted factor's first C - 1 rows F become R^T of
        # F^T = QR, whose Gram matrix R^T R is F F^T. The untransposed R has
        # R R^T, which differs once R is at least 2 x 2 (here C - 1 = 2).
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qr(a, mode=mode).T)
        assert not agree_with_feature_space(LOGIT_SPACE_CASES[name])

    @pytest.mark.parametrize("name", ["C<k", "C=k"])
    def test_planted_unshifted_factor_caught(self, monkeypatch, name):
        # For k > C - 1 the planted QR adds M's last row back to the rows it
        # factors: the estimate without its shift, which cuts M's first C - 1
        # rows to C - 1 columns and takes the last logit's noise away. How
        # far that moves the pair loss depends on which class is last, so
        # each class takes the last place in turn; the estimate itself
        # agrees in every order.
        feature, cov, weights, bias, lam = LOGIT_SPACE_CASES[name]
        _, lift, _ = _gaussian_lift(feature, lam * cov)
        orders = [np.roll(np.arange(weights.shape[0]), -last - 1) for last in range(weights.shape[0])]
        cases = [(feature, cov, weights[order], bias[order], lam) for order in orders]
        assert all(map(agree_with_feature_space, cases))
        qr, caught = np.linalg.qr, []
        for case in cases:
            last_row = case[2][-1] @ lift
            monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qr(a + last_row[:, None], mode=mode))
            caught.append(not agree_with_feature_space(case))
        assert any(caught)

    @pytest.mark.parametrize("name", ["C<k", "C=k", "C>k"])
    def test_planted_dropped_lambda_caught(self, monkeypatch, name):
        case = LOGIT_SPACE_CASES[name]
        lift = _gaussian_lift
        monkeypatch.setattr("sfda2.losses._gaussian_lift", lambda mean, cov: lift(mean, cov / case[4]))
        assert not agree_with_feature_space(case)

    @pytest.mark.parametrize("n_pairs", [_MC_REPLICATES, _MC_REPLICATES * (_MC_ROWS + 1)])
    @pytest.mark.parametrize("name", sorted(LOGIT_SPACE_CASES))
    def test_draws_one_shift_per_replicate_and_coordinate(self, name, n_pairs):
        # A pair costs 2 * min(C - 1, k) coordinates; `rng` gives only their
        # R shifts, however many points and chunks there are.
        case = LOGIT_SPACE_CASES[name]
        n_classes, active = classes_and_active(case)
        rng, twin = RngState(5), RngState(5)
        efa_mc_estimate(*case, n_pairs, rng)
        twin.generator.random((_MC_REPLICATES, 2 * min(n_classes - 1, active)))
        assert_array_equal(rng.generator.standard_normal(8), twin.generator.standard_normal(8))


class TestHalton:
    def test_first_points_by_hand(self):
        points = np.empty((2, 4))
        _halton(0, points, np.empty((3, 4)))
        assert_array_equal(points, [[1 / 2, 1 / 4, 3 / 4, 1 / 8], [1 / 3, 2 / 3, 1 / 9, 4 / 9]])

    @pytest.mark.parametrize("first", [0, 5, _MC_ROWS])
    def test_matches_digit_by_digit_reference(self, first):
        points = np.empty((8, 300))
        _halton(first, points, np.empty((3, _MC_ROWS)))
        assert_array_equal(points.T, halton_reference(first + 300, 8)[first:])


def log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def two_class_exact_mean(mean, scale, degree=100):
    """E[-log(softmax(a) . softmax(b))] for two classes whose logit
    differences a, b are independent N(mean, scale^2), by the 2-D
    Gauss-Hermite product rule of `degree` nodes a side."""
    nodes, weights = np.polynomial.hermite.hermgauss(degree)
    x = mean + np.sqrt(2.0) * scale * nodes
    a, b = x[:, None], x[None, :]
    losses = -np.logaddexp(log_sigmoid(a) + log_sigmoid(b), log_sigmoid(-a) + log_sigmoid(-b))
    return float(weights @ losses @ weights / np.pi)


def two_class_instance(seed):
    """A verify-style two-class instance, its lambda set so the logit
    difference has sd in (0, 3], where 100 Gauss-Hermite nodes a side are
    exact to about 1e-10; returns the arguments and the exact mean."""
    g = np.random.default_rng(seed)
    dim = int(g.integers(2, 9))
    feature, a = g.standard_normal(dim), g.standard_normal((dim, dim))
    cov = a @ a.T * (dim / np.trace(a @ a.T))
    weights, bias = g.standard_normal((2, dim)), g.standard_normal(2)
    diff = weights[0] - weights[1]
    scale = 3.0 * (1.0 - g.random())
    lam = scale**2 / float(diff @ cov @ diff)
    mean = float(diff @ feature + bias[0] - bias[1])
    return (feature, cov, weights, bias, lam), two_class_exact_mean(mean, scale)


class OneShiftState:
    """A planted defect: an RngState whose uniforms repeat one row, so every
    replicate gets the same shift."""

    def __init__(self, seed):
        self.generator, self._stream = self, RngState(seed).generator

    def random(self, shape):
        return np.broadcast_to(self._stream.random(shape[1:]), shape).copy()


def coverage_holds(make_rng, n_seeds):
    """Whether the stderr covers the exact mean at its nominal rate over
    two-class instances: |mean - exact| > t * stderr on 2-8.5% of them for
    t = 2.1314 (the t_15 quantile of two-sided 5%), and on at most 1% for
    t = 3.5864 (two-sided 0.27%)."""
    scores = []
    for seed in range(n_seeds):
        case, exact = two_class_instance(seed)
        mean, stderr = efa_mc_estimate(*case, 16 * 256, make_rng(seed))
        scores.append(abs(mean - exact) / stderr if stderr else np.inf)
    scores = np.array(scores)
    return 0.02 <= np.mean(scores > 2.1314) <= 0.085 and np.mean(scores > 3.5864) <= 0.01


class TestEfaMcEstimateCoverage:
    def test_exact_mean_reference_has_converged(self):
        for seed in range(20):
            case, exact = two_class_instance(seed)
            diff = case[2][0] - case[2][1]
            scale = np.sqrt(case[4] * diff @ case[1] @ diff)
            assert abs(two_class_exact_mean(diff @ case[0] + case[3][0] - case[3][1], scale, 150) - exact) < 1e-9

    def test_stderr_covers_the_exact_mean(self):
        # Over these 400 seeds: 20 misses at t = 2.1314 (nominal 20) and none
        # at t = 3.5864 (nominal 1.1).
        assert coverage_holds(RngState, 400)

    def test_planted_shared_shift_caught(self):
        # With one shift the replicates agree exactly, so the stderr is 0.
        assert not coverage_holds(OneShiftState, 40)


def verify_style_instance(seed):
    g = np.random.default_rng(seed)
    n_classes, dim = int(g.integers(2, 6)), int(g.integers(2, 9))
    feature, a = g.standard_normal(dim), g.standard_normal((dim, dim))
    cov = a @ a.T * (dim / np.trace(a @ a.T))
    return feature, cov, g.standard_normal((n_classes, dim)), g.standard_normal(n_classes), 5.0 * (1.0 - g.random())


class TestEfaMcEstimateAgainstPlainMonteCarlo:
    def test_agrees_and_is_sharper_at_equal_pairs(self):
        # The feature-space oracle is plain Monte Carlo on a Philox stream.
        ratios = []
        for seed in range(20):
            case = verify_style_instance(seed)
            got = efa_mc_estimate(*case, 16384, RngState(seed, (0,)))
            plain = feature_space_efa_mc_estimate(*case, 16384, RngState(seed, (1,)))
            assert abs(got[0] - plain[0]) <= 4.0 * math.hypot(got[1], plain[1])
            ratios.append(plain[1] / got[1])
        assert np.median(ratios) >= 2.0


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


def fd(feats, labels, affinity):
    """fd_loss on the batch's own class moments, as `adapt` calls it."""
    return fd_loss(feats, labels, class_moments(feats, labels, len(affinity)), affinity)


class TestFdLoss:
    def test_identical_covariances_cost_nothing(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 0.0], [7.0, 0.0]])
        value, grad = fd(feats, [0, 0, 1, 1], uniform_affinity(2))
        assert_allclose(value, 0.0, atol=1e-12)
        assert_allclose(grad, np.zeros_like(feats), atol=1e-9)

    def test_orthogonal_covariances_hand_value(self):
        # class covariances diag(1,0) and diag(0,1); both ordered pairs
        # contribute -(1/2) * 0.5 * (1 - 0)
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        value, _ = fd(feats, [0, 0, 1, 1], uniform_affinity(2, 0.5))
        assert_allclose(value, -0.5, atol=1e-12)

    def test_value_is_a_python_float(self):
        feats = np.random.default_rng(7).standard_normal((8, 3))
        labels = [0, 0, 0, 1, 1, 1, 2, 2]
        value, _ = fd(feats, labels, uniform_affinity(3, 0.5))
        assert type(value) is float
        assert value < 0.0

    def test_single_populated_class_is_zero(self):
        feats = np.random.default_rng(5).standard_normal((4, 3))
        value, grad = fd(feats, [1, 1, 1, 1], uniform_affinity(2))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert_array_equal(grad, np.zeros_like(feats))

    def test_no_pairable_class_flags_degenerate(self):
        feats = np.random.default_rng(6).standard_normal((3, 2))
        value, grad = fd(feats, [0, 1, 2], uniform_affinity(3))
        assert value == 0.0
        assert_array_equal(grad, np.zeros_like(feats))

    def test_zero_norm_covariance_pairs_skipped(self):
        # class 1's rows coincide, so its covariance is exactly zero
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 3.0], [3.0, 3.0]])
        value, grad = fd(feats, [0, 0, 1, 1], uniform_affinity(2))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert np.isfinite(grad).all()

    @pytest.mark.parametrize("step", [0.0, 1e-4, -1e-4])
    def test_three_equal_rows_stay_out_at_a_step(self, step):
        # Three equal rows (dead ReLUs give them) have an exactly zero
        # covariance at the point and at a finite-difference step that moves
        # them together, so FD and its gradient stay exactly 0 there.
        rng = np.random.default_rng(13)
        row = rng.standard_normal(8) + step * rng.standard_normal(8)
        feats = np.vstack([np.tile(row, (3, 1)), rng.standard_normal((3, 8))])
        value, grad = fd(feats, [0, 0, 0, 1, 1, 1], uniform_affinity(2))
        assert value == 0.0
        assert_array_equal(grad, np.zeros_like(feats))

    def test_value_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            feats = rng.standard_normal((12, 3))
            labels = rng.integers(0, 3, size=12)
            class_means = row_softmax(rng.standard_normal((3, 3)))
            aff = class_means @ class_means.T
            value, _ = fd(feats, labels, aff)
            off_diag = aff.sum() - np.trace(aff)
            assert -0.5 * off_diag - 1e-12 <= value <= 1e-12

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((7, 3))
        labels = np.array([0, 0, 0, 1, 1, 1, 0])
        aff = uniform_affinity(2, 0.8)
        _, grad = fd(feats, labels, aff)
        h = 1e-5
        for r, c in ((0, 0), (2, 1), (5, 2), (6, 0)):
            step = np.zeros_like(feats)
            step[r, c] = h
            up, _ = fd(feats + step, labels, aff)
            down, _ = fd(feats - step, labels, aff)
            assert_allclose(grad[r, c], (up - down) / (2 * h), rtol=1e-4, atol=1e-8)

    def test_label_out_of_range_rejected(self):
        moments = class_moments(np.zeros((2, 2)), [0, 1], 2)
        for labels in ([0, 2], [-1, 1]):
            with pytest.raises(InvalidInputError, match="out of range"):
                fd_loss(np.zeros((2, 2)), labels, moments, uniform_affinity(2))

    @pytest.mark.parametrize("affinity", [np.ones((2, 1)), np.ones(2)], ids=["2x1", "1-D"])
    def test_non_square_affinity_rejected(self, affinity):
        feats = np.random.default_rng(9).standard_normal((4, 2))
        with pytest.raises(InvalidInputError, match="affinity"):
            fd(feats, [0, 0, 1, 1], affinity)

    def test_non_finite_features_rejected(self):
        feats = np.array([[np.nan, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
        moments = class_moments(np.nan_to_num(feats), [0, 0, 1, 1], 2)
        with pytest.raises(InvalidInputError, match="non-finite"):
            fd_loss(feats, [0, 0, 1, 1], moments, uniform_affinity(2))

    def test_non_finite_moments_rejected(self):
        feats = np.random.default_rng(10).standard_normal((4, 2))
        for part in (1, 2):  # the means, then the covariances
            moments = [m.copy() for m in class_moments(feats, [0, 0, 1, 1], 2)]
            moments[part].flat[-1] = np.inf
            with pytest.raises(InvalidInputError, match="non-finite"):
                fd_loss(feats, [0, 0, 1, 1], tuple(moments), uniform_affinity(2))

    @pytest.mark.parametrize(
        "feats, labels, moments, affinity, message",
        [
            (np.array([[np.nan, 1.0], [1.0, 2.0], [0.0, 1.0]]), [0, 1, 2], None, uniform_affinity(3), "non-finite"),
            (np.zeros((3, 2)), [0, 1, 3], None, uniform_affinity(3), "out of range"),
            (np.zeros((3, 2)), [0, 1, 2], None, np.ones((3, 2)), "affinity"),
            (np.zeros((3, 2)), [0, 1], None, uniform_affinity(3), "one label each"),
            (np.zeros(3), [0, 1, 2], None, uniform_affinity(3), "one label each"),
            (np.zeros((3, 2)), [0, 0, 1], None, uniform_affinity(3), "disagree with the pseudo-labels"),
            (np.zeros((3, 2)), [0, 1, 2], (np.zeros((3, 3)), [0, 1, 2], 3), uniform_affinity(3), "feature width"),
            (np.zeros((3, 2)), [0, 1, 2], (np.zeros((3, 2)), [0, 1, 1], 2), uniform_affinity(3), "class count"),
            (np.zeros((3, 2)), [0, 1, 2], (np.zeros((3, 2)), [0, 1, 2], 4), uniform_affinity(3), "class count"),
        ],
        ids=[
            "nan-row", "label-out-of-range", "non-square-affinity", "short-labels", "1-D-features",
            "counts-disagree-with-labels", "moments-too-wide", "moments-of-fewer-classes", "moments-of-more-classes",
        ],
    )
    def test_early_return_batch_still_validated(self, feats, labels, moments, affinity, message):
        # No class has two members, so a valid batch of this kind returns
        # early; `moments` defaults to that valid batch's.
        valid = class_moments(np.zeros((3, 2)), [0, 1, 2], 3)
        assert fd_loss(np.zeros((3, 2)), [0, 1, 2], valid, uniform_affinity(3))[0] == 0.0
        moments = valid if moments is None else class_moments(*moments)
        with pytest.raises(InvalidInputError, match=message):
            fd_loss(feats, labels, moments, affinity)


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
            got = fd(feats, labels, affinity)
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
            got = fd(feats, labels, affinity)
            if feats.shape[1] == 1 or not np.any(got[1]):
                continue
            contributing += 1
            broken = pairwise_fd_loss(feats, labels, affinity, both_halves=False)
            caught += not fd_forms_agree(got, broken, feats, labels, affinity)
        assert contributing >= 500
        assert caught == contributing
