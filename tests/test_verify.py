import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sfda2.errors import InvalidInputError
from sfda2.losses import snc_loss
from sfda2.verify import (
    VerifyReport,
    verify_gradients,
    verify_ifa_bound,
    verify_oracles,
    verify_snc_factorization,
)


def small_oracle_args(**overrides):
    base = dict(
        seed=5,
        streams=2,
        samples_per_stream=200,
        n_classes=4,
        dim=3,
        bank_points=100,
        bank_dim=8,
        n_queries=10,
        ks=(1, 5),
        softmax_trials=50,
    )
    base.update(overrides)
    return base


class TestVerifyReport:
    def test_pass_iff_no_failures(self):
        ok = VerifyReport(suite="s", trials=1, passed=True, worst=0.0)
        bad = VerifyReport(suite="s", trials=1, passed=False, worst=1.0, failures=[{"trial": 0}])
        assert ok.passed == (not ok.failures)
        assert bad.passed == (not bad.failures)

    def test_json_round_trip(self):
        report = verify_gradients(seed=1, n_instances=1)
        decoded = json.loads(report.to_json())
        assert decoded["suite"] == "gradients"
        assert decoded["passed"] is True
        assert decoded["trials"] == 1


class TestVerifyIfaBound:
    def test_small_run_passes(self):
        report = verify_ifa_bound(trials=10, n_pairs=10000, seed=3)
        assert report.passed
        assert report.failures == []
        assert report.worst >= 0.0
        assert report.trials == 10

    def test_zero_lambda_direction_holds(self):
        report = verify_ifa_bound(trials=5, n_pairs=10000, seed=4, lambda_override=0.0)
        assert report.passed
        assert report.worst >= 0.0

    def test_negative_control_detected(self):
        report = verify_ifa_bound(trials=40, n_pairs=10000, seed=3, negative_control=True)
        assert not report.passed
        assert len(report.failures) >= 1
        # failing instances are serialized for replay
        record = report.failures[0]
        for key in ("trial", "lambda", "bound", "mc_mean", "feature", "cov"):
            assert key in record

    def test_deterministic_per_seed(self):
        a = verify_ifa_bound(trials=5, n_pairs=10000, seed=11)
        b = verify_ifa_bound(trials=5, n_pairs=10000, seed=11)
        assert a.to_json() == b.to_json()

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            verify_ifa_bound(trials=0)
        with pytest.raises(InvalidInputError):
            verify_ifa_bound(trials=1, n_pairs=5000)


class TestVerifySncFactorization:
    def test_two_point_hand_instance(self):
        # mutual pair with identical one-hot predictions: each term cancels
        p = np.array([1.0, 0.0])
        batch = np.tile(p, (2, 1))
        total = sum(snc_loss(batch[i], batch[1 - i][None, :], batch, i, 1.0)[0] for i in range(2))
        assert_allclose(total, 0.0, atol=1e-12)

    def test_two_orthogonal_pairs_hand_instance(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        partner = [1, 0, 3, 2]
        total = sum(
            snc_loss(probs[i], probs[partner[i]][None, :], probs, i, 1.0)[0]
            for i in range(4)
        )
        assert_allclose(total, 0.0, atol=1e-12)

    def test_random_instances_match(self):
        report = verify_snc_factorization(n_points=30, k=3, trials=5, seed=2)
        assert report.passed
        assert report.worst <= 1e-8

    def test_negative_control_detected(self):
        report = verify_snc_factorization(n_points=12, k=3, trials=2, seed=2, negative_control=True)
        assert not report.passed
        assert report.failures

    def test_deterministic_per_seed(self):
        a = verify_snc_factorization(n_points=12, k=3, trials=3, seed=9)
        b = verify_snc_factorization(n_points=12, k=3, trials=3, seed=9)
        assert a.to_json() == b.to_json()

    def test_unplantable_size_rejected(self):
        with pytest.raises(InvalidInputError):
            verify_snc_factorization(n_points=5, k=3, trials=1)
        with pytest.raises(InvalidInputError):
            verify_snc_factorization(n_points=4, k=4, trials=1)


class TestVerifyGradients:
    def test_small_run_passes(self):
        report = verify_gradients(seed=1, n_instances=5)
        assert report.passed
        assert report.worst < 1e-4
        assert report.details["constant_control_error"] == 0.0
        assert report.details["quadratic_control_error"] < 1e-9

    def test_negative_control_detected(self):
        report = verify_gradients(seed=1, n_instances=3, negative_control=True)
        assert not report.passed
        checks = {f["check"] for f in report.failures}
        assert checks & {"snc", "ifa", "fd", "composite"}

    def test_batched_kernels_match_reference_and_control_fails(self):
        report = verify_gradients(seed=2, n_instances=1)
        assert report.details["max_error_per_check"]["batched"] < 1e-10
        control = verify_gradients(seed=2, n_instances=1, negative_control=True)
        batched = [f for f in control.failures if f["check"] == "batched-vs-reference"]
        assert len(batched) == 3  # every batched instance catches the misalignment

    def test_deterministic_per_seed(self):
        a = verify_gradients(seed=6, n_instances=2)
        b = verify_gradients(seed=6, n_instances=2)
        assert a.to_json() == b.to_json()

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            verify_gradients(n_instances=0)


class TestVerifyOracles:
    def test_small_run_passes(self):
        report = verify_oracles(**small_oracle_args())
        assert report.passed
        assert report.details["stats_max_error"] < 1e-9
        assert report.details["knn_mismatches"] == 0
        assert report.details["softmax_max_error"] <= 1e-12

    def test_negative_control_detected(self):
        report = verify_oracles(**small_oracle_args(), negative_control=True)
        assert not report.passed
        parts = {f["part"] for f in report.failures}
        assert "class-stats" in parts
        assert "knn" in parts
        assert parts & {"log-softmax", "log-softmax-extreme"}

    def test_deterministic_per_seed(self):
        a = verify_oracles(**small_oracle_args())
        b = verify_oracles(**small_oracle_args())
        assert a.to_json() == b.to_json()

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            verify_oracles(streams=0)
