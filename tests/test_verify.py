import importlib
import json
import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sfda2.errors import InvalidInputError, NumericalError
from sfda2.banks import knn
from sfda2.losses import efa_mc_estimate, ifa_loss, snc_loss, snc_loss_batch
from sfda2.numerics import RngState
from sfda2.verify import (
    VerifyReport,
    _finish,
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


def serial_ifa_bound(trials, n_pairs, seed, negative_control=False, lambda_override=None):
    """verify_ifa_bound as one loop over the trials in order: the form the
    pooled suite must reproduce byte for byte."""
    failures = []
    worst_slack = np.inf
    for t, trial_rng in enumerate(RngState(seed).split(trials)):
        param_rng, mc_rng = trial_rng.split(2)
        g = param_rng.generator
        n_classes = int(g.integers(2, 6))
        dim = int(g.integers(2, 9))
        feature = g.standard_normal(dim)
        a = g.standard_normal((dim, dim))
        cov = a @ a.T
        cov *= dim / np.trace(cov)
        weights = g.standard_normal((n_classes, dim))
        bias = g.standard_normal(n_classes)
        lam = 5.0 * (1.0 - g.random()) if lambda_override is None else float(lambda_override)
        bound = ifa_loss(feature, -cov if negative_control else cov, weights, bias, lam)[0]
        mc_mean, mc_stderr = efa_mc_estimate(feature, cov, weights, bias, lam, n_pairs, mc_rng)
        slack = bound + 3.0 * mc_stderr - mc_mean
        worst_slack = min(worst_slack, slack)
        if slack < 0.0:
            failures.append(
                {
                    "trial": t,
                    "n_classes": n_classes,
                    "dim": dim,
                    "lambda": lam,
                    "bound": bound,
                    "mc_mean": mc_mean,
                    "mc_stderr": mc_stderr,
                    "slack": slack,
                    "feature": feature.tolist(),
                    "cov": cov.tolist(),
                    "clf_weights": weights.tolist(),
                    "clf_bias": bias.tolist(),
                }
            )
    details = {
        "n_pairs": n_pairs,
        "seed": seed,
        "negative_control": negative_control,
        "lambda_override": lambda_override,
    }
    return _finish("ifa-bound", trials, worst_slack, failures, details)


IFA_POOL_CASES = [
    dict(trials=9, n_pairs=10000, seed=3),
    dict(trials=24, n_pairs=10000, seed=3, negative_control=True),
    dict(trials=5, n_pairs=10000, seed=4, lambda_override=0.0),
]


class TestVerifyIfaBoundPool:
    @pytest.mark.parametrize("case", IFA_POOL_CASES, ids=["plain", "control", "lambda0"])
    def test_report_equals_serial_loop(self, case):
        report = verify_ifa_bound(**case)
        assert report.to_json() == serial_ifa_bound(**case).to_json()
        if case.get("negative_control"):
            assert len(report.failures) >= 2  # so their order is checked too

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
    def test_report_equal_on_one_cpu(self):
        case = IFA_POOL_CASES[1]
        saved = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(saved)})
            assert len(os.sched_getaffinity(0)) == 1
            pinned = verify_ifa_bound(**case)
        finally:
            os.sched_setaffinity(0, saved)
        assert pinned.to_json() == verify_ifa_bound(**case).to_json()

    def test_first_failing_trial_in_order_propagates(self, monkeypatch):
        # Trial 2 fails late and trial 5 at once; the report must raise
        # trial 2's error whichever finishes first.
        module = importlib.import_module("sfda2.verify")

        def failing(*args):
            trial = args[-1].spawn_key[0]
            if trial == 2:
                time.sleep(0.2)
            if trial in (2, 5):
                raise NumericalError(f"trial {trial} failed")
            return efa_mc_estimate(*args)

        monkeypatch.setattr(module, "efa_mc_estimate", failing)
        with pytest.raises(NumericalError, match=r"^trial 2 failed$"):
            verify_ifa_bound(trials=8, n_pairs=10000, seed=3)


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

    def test_preconditions(self):
        # Any k-NN graph serves, so sizes without a symmetric k-NN graph run.
        for n_points, k in ((5, 3), (2, 1)):
            report = verify_snc_factorization(n_points=n_points, k=k, trials=3, seed=4)
            assert report.passed
            assert report.worst <= 1e-12
        with pytest.raises(InvalidInputError):
            verify_snc_factorization(n_points=4, k=4, trials=1)
        with pytest.raises(InvalidInputError):
            verify_snc_factorization(n_points=4, k=0, trials=1)
        with pytest.raises(InvalidInputError):
            verify_snc_factorization(n_points=1, k=1, trials=1)
        with pytest.raises(InvalidInputError):
            verify_snc_factorization(n_points=4, k=2, trials=0)

    def test_asymmetric_graphs_checked(self, monkeypatch):
        graphs = []

        def recording_knn(bank, queries, k):
            neighbors = knn(bank, queries, k)
            adjacency = np.zeros((bank.size, bank.size))
            adjacency[np.arange(bank.size)[:, None], neighbors] = 1.0
            graphs.append(adjacency)
            return neighbors

        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "knn", recording_knn)
        report = verify_snc_factorization(n_points=30, k=3, trials=5, seed=2)
        assert report.passed
        assert len(graphs) == 5
        assert any(not np.array_equal(a, a.T) for a in graphs)

    def test_checks_the_batch_kernel(self, monkeypatch):
        def shifted_snc_loss_batch(*args):
            values, grads = snc_loss_batch(*args)
            return values + 1e-6, grads

        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "snc_loss_batch", shifted_snc_loss_batch)
        report = verify_snc_factorization(n_points=12, k=3, trials=2, seed=2)
        assert not report.passed
        assert len(report.failures) == 2


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
