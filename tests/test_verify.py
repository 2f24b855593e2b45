import importlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sfda2.errors import InvalidInputError, NumericalError
from sfda2.banks import knn
from sfda2.losses import _MC_REPLICATES, efa_mc_estimate, fd_loss, snc_loss, snc_loss_batch
from sfda2.model import forward, init_model
from sfda2.stats import ClassStatistics, _class_moments, class_moments, update_class_stats
from sfda2.verify import (
    _IFA_QUANTILE,
    _planted_doubled_correction,
    VerifyReport,
    verify_gradients,
    verify_ifa_bound,
    verify_oracles,
    verify_snc_factorization,
)


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

    def test_details_state_the_pass_rule(self):
        details = verify_ifa_bound(trials=2, n_pairs=10000, seed=3).details
        assert (details["n_pairs"], details["replicates"], details["quantile"]) == (10000, 16, 3.5864)

    def test_quantile_is_t_at_three_sigma(self):
        # mc_mean <= bound + q * stderr with a t_{R-1} stderr fails a correct
        # bound as often as the 3-sigma rule on a normal error.
        stats = pytest.importorskip("scipy.stats")
        assert _MC_REPLICATES == 16
        expected = stats.t.ppf(stats.norm.cdf(3.0), _MC_REPLICATES - 1)
        assert abs(_IFA_QUANTILE - expected) < 5e-5

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            verify_ifa_bound(trials=0)
        with pytest.raises(InvalidInputError):
            verify_ifa_bound(trials=1, n_pairs=5000)

    def test_first_failing_trial_in_order_propagates(self, monkeypatch):
        # Trials 2 and 5 fail; the suite must raise trial 2's error.
        module = importlib.import_module("sfda2.verify")

        def failing(*args):
            trial = args[-1].spawn_key[0]
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
        report = verify_snc_factorization(trials=5, seed=2)
        assert report.passed
        assert report.worst <= 1e-8

    def test_negative_control_detected(self):
        report = verify_snc_factorization(trials=2, seed=2, negative_control=True)
        assert not report.passed
        assert report.failures

    def test_deterministic_per_seed(self):
        a = verify_snc_factorization(trials=3, seed=9)
        b = verify_snc_factorization(trials=3, seed=9)
        assert a.to_json() == b.to_json()

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            verify_snc_factorization(trials=0)

    @pytest.mark.parametrize("n_points, k", [(5, 3), (2, 1)])
    def test_any_knn_graph_serves(self, n_points, k, monkeypatch):
        # Sizes without a symmetric k-NN graph still satisfy the identity.
        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "_SNC_POINTS", n_points)
        monkeypatch.setattr(module, "_SNC_K", k)
        report = verify_snc_factorization(trials=3, seed=4)
        assert report.passed
        assert report.worst <= 1e-12
        assert (report.details["n_points"], report.details["k"]) == (n_points, k)

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
        report = verify_snc_factorization(trials=5, seed=2)
        assert report.passed
        assert len(graphs) == 5
        assert any(not np.array_equal(a, a.T) for a in graphs)

    def test_checks_the_batch_kernel(self, monkeypatch):
        def shifted_snc_loss_batch(*args):
            values, grads = snc_loss_batch(*args)
            return values + 1e-6, grads

        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "snc_loss_batch", shifted_snc_loss_batch)
        report = verify_snc_factorization(trials=2, seed=2)
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

    def test_one_forward_per_perturbed_point(self, monkeypatch):
        # Per instance: one forward pass at the base point, then one at each
        # of the 2P perturbed points, each shared by all four checks.
        module = importlib.import_module("sfda2.verify")
        counts = []  # [parameter count, forward passes] per model, in creation order

        def counting_init_model(*args):
            model = init_model(*args)
            counts.append([model.params.size, 0])
            return model

        def counting_forward(model, inputs):
            counts[-1][1] += 1
            return forward(model, inputs)

        monkeypatch.setattr(module, "init_model", counting_init_model)
        monkeypatch.setattr(module, "forward", counting_forward)
        assert verify_gradients(n_instances=2).passed
        assert len(counts) == 3
        assert counts[0][1] == 0  # the calibration model runs no forward pass
        assert [passes for _, passes in counts[1:]] == [1 + 2 * size for size, _ in counts[1:]]

    def test_perturbed_points_take_moments_only_where_fd_is_live(self, monkeypatch):
        # FD is zero unless two classes have >= 2 members, and an instance's
        # labels are fixed: its 2P perturbed points take the class moments
        # all or none.
        module = importlib.import_module("sfda2.verify")
        counts = []  # [parameter count, FD live, moment calls] per model

        def counting_init_model(*args):
            model = init_model(*args)
            counts.append([model.params.size, None, 0])
            return model

        def counting_moments(feats, labels, n_classes):
            counts[-1][1] = np.count_nonzero(np.bincount(labels, minlength=n_classes) >= 2) >= 2
            counts[-1][2] += 1
            return _class_moments(feats, labels, n_classes)

        monkeypatch.setattr(module, "init_model", counting_init_model)
        monkeypatch.setattr(module, "_class_moments", counting_moments)
        assert verify_gradients().passed
        calls = [moments for _, _, moments in counts[1:]]
        assert [2 * size for size, live, _ in counts[1:] if live] == [n for n in calls if n]
        assert calls.count(0) == 14

    def test_fd_defect_reported_under_fd_only(self, monkeypatch):
        # Only the dispersal check's analytic gradient is scaled (the
        # composite goes through adapt's fd_loss), so a mix-up in the order
        # of the stacked outputs would move or spread the failures.
        def scaled_fd_loss(*args):
            value, grad = fd_loss(*args)
            return value, 1.01 * grad

        clean = verify_gradients()
        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "fd_loss", scaled_fd_loss)
        report = verify_gradients()
        assert clean.passed and not report.passed
        assert {f["check"] for f in report.failures} == {"fd"}
        for check in ("snc", "ifa", "composite", "batched"):
            assert report.details["max_error_per_check"][check] == clean.details["max_error_per_check"][check]


class TestVerifyOracles:
    def test_default_run_passes(self):
        report = verify_oracles(seed=5)
        assert report.passed
        assert report.details["stats_max_error"] < 1e-9
        assert report.details["knn_mismatches"] == 0
        assert report.details["softmax_max_error"] <= 1e-12
        assert report.trials == 10 + 50 * 3 + 200 + 4

    def test_negative_control_detected(self):
        report = verify_oracles(seed=5, negative_control=True)
        assert not report.passed
        parts = {f["part"] for f in report.failures}
        assert "class-stats" in parts
        assert "knn" in parts
        assert parts & {"log-softmax", "log-softmax-extreme"}

    def test_planted_moments_double_the_merge_correction(self):
        # Classes 0-1 are in both batches, 2 only in the first, 3 only in
        # the second and 4 in neither: the planted moments add one more
        # n*m/(n+m)^2 (mu - mu')(mu - mu')^T where n, m >= 1, and nothing else.
        g = np.random.default_rng(3)
        first, second = (g.standard_normal((size, 4)) + 5.0 * g.standard_normal(4) for size in (7, 6))
        stats = update_class_stats(ClassStatistics.empty(5, 4), class_moments(first, [0, 1, 2, 0, 1, 2, 2], 5))
        moments = class_moments(second, [0, 1, 3, 1, 0, 3], 5)
        true = update_class_stats(stats, moments)
        planted = update_class_stats(stats, _planted_doubled_correction(stats, moments))
        n, m = stats.counts[:, None, None], moments[0][:, None, None]
        delta = (stats.means - moments[1])[:, :, None]
        extra = n * m / np.maximum(n + m, 1) ** 2 * (delta * delta.transpose(0, 2, 1))
        assert np.abs(extra[:2]).min() > 0.0 and not extra[2:].any()
        assert_allclose(planted.covs - true.covs, extra, rtol=1e-12, atol=0)
        assert np.array_equal(planted.means, true.means)
        assert np.array_equal(planted.counts, true.counts)

    def test_deterministic_per_seed(self):
        a = verify_oracles(seed=5)
        b = verify_oracles(seed=5)
        assert a.to_json() == b.to_json()

    def test_size_bounds_admitted(self, monkeypatch):
        # Every bank point a query and the largest k (the bank less the query).
        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "_STREAMS", 2)
        monkeypatch.setattr(module, "_BANK_POINTS", 100)
        monkeypatch.setattr(module, "_BANK_QUERIES", 100)
        monkeypatch.setattr(module, "_BANK_KS", (99,))
        monkeypatch.setattr(module, "_SOFTMAX_TRIALS", 0)
        report = verify_oracles(seed=5)
        assert report.passed
        assert report.trials == 2 + 100 + 0 + 4

    def test_classes_absent_from_a_stream_have_no_count(self, monkeypatch):
        # Three samples over ten classes leave most classes empty, which
        # the streaming statistics must report with a zero count.
        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "_STREAMS", 2)
        monkeypatch.setattr(module, "_STREAM_SAMPLES", 3)
        report = verify_oracles(seed=5)
        assert report.passed
        assert report.details["stats_max_error"] < 1e-9
        control = verify_oracles(seed=5, negative_control=True)
        assert "class-stats" in {f["part"] for f in control.failures}

    def test_tied_distances_ranked_by_index(self, monkeypatch):
        # In one dimension every normalized bank row is +1 or -1, so each
        # query ties with about half the bank: the search must order the
        # ties by index, as the exhaustive scan does.
        module = importlib.import_module("sfda2.verify")
        monkeypatch.setattr(module, "_BANK_DIM", 1)
        report = verify_oracles(seed=5)
        assert report.passed
        assert report.details["knn_mismatches"] == 0
