import importlib
import re
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sfda2.adapt import (
    AdaptConfig,
    adapt,
    batch_objective,
    evaluate,
    iterations_per_epoch,
    metrics_from_confusion,
    pretrain_source,
    validate_config,
)
from sfda2.data import Dataset, ShiftSpec, default_shift_spec, gen_synthetic
from sfda2.errors import InvalidInputError, NumericalError
from sfda2.losses import fd_loss
from sfda2.model import Layer, Model, forward, init_model
from sfda2.numerics import RngState
from sfda2.stats import ClassStatistics, class_moments, update_class_stats

# The package exports the `adapt` function under the submodule's name.
adapt_module = importlib.import_module("sfda2.adapt")
stats_module = importlib.import_module("sfda2.stats")


def blob_pair(n=100, seed=0, gap=3.0):
    spec = ShiftSpec(
        means=np.array([[gap, 0.0], [-gap, 0.0]]),
        covariances=np.tile(np.eye(2), (2, 1, 1)),
        source_counts=np.array([n, n]),
        target_counts=np.array([n, n]),
        angle_degrees=0.0,
        translation=np.zeros(2),
        noise_scale=0.0,
    )
    return gen_synthetic(spec, seed)


def toy_target(samples_per_class=20, seed=0):
    _, target = gen_synthetic(default_shift_spec(samples_per_class), seed)
    return target


class TestMetrics:
    def test_perfect_predictions(self):
        m = metrics_from_confusion(np.diag([5, 3, 7]))
        assert m.accuracy == 1.0
        assert m.per_class_mean == 1.0
        assert m.harmonic_mean == 1.0
        assert m.macro_f1 == 1.0

    def test_dead_class_zeroes_harmonic(self):
        m = metrics_from_confusion(np.array([[4, 0], [3, 0]]))
        assert m.harmonic_mean == 0.0
        assert m.accuracy == 4.0 / 7.0

    def test_hand_confusion(self):
        # class 0: 4/4 correct, class 1: 2/4 correct
        m = metrics_from_confusion(np.array([[4, 0], [2, 2]]))
        assert_allclose(m.accuracy, 0.75, atol=1e-15)
        assert_allclose(m.per_class_mean, 0.75, atol=1e-15)
        assert_allclose(m.harmonic_mean, 2.0 / 3.0, rtol=1e-15)
        # per-class F1: 0.8 and 2/3
        assert_allclose(m.macro_f1, 11.0 / 15.0, rtol=1e-14)

    def test_absent_class_excluded_and_flagged(self):
        cm = np.array([[3, 1, 0], [0, 4, 0], [0, 0, 0]])
        m = metrics_from_confusion(cm)
        assert m.present_classes == [0, 1]
        assert m.absent_classes == [2]
        assert m.per_class_accuracy.shape == (2,)
        assert_allclose(m.per_class_mean, (0.75 + 1.0) / 2, atol=1e-15)

    def test_empty_confusion_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics_from_confusion(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_count_rejected(self, bad):
        cm = np.array([[4.0, 0.0], [2.0, 2.0]])
        cm[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="finite and >= 0"):
                metrics_from_confusion(cm)

    def test_evaluate_on_passthrough_model(self):
        model = Model(
            layers=[Layer(np.eye(2), np.zeros(2), "identity")],
            clf_weights=np.eye(2),
            clf_bias=np.zeros(2),
        )
        data = Dataset(
            inputs=np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 1.0], [1.0, 3.0]]),
            labels=np.array([0, 1, 0, 0]),
            n_classes=2,
        )
        m = evaluate(model, data)
        assert_allclose(m.accuracy, 0.75, atol=1e-15)  # sample 3 misread as class 1

    def test_evaluate_requires_labels(self):
        model = init_model(2, (4,), 3, 2, RngState(0))
        data = Dataset(inputs=np.zeros((3, 2)), labels=None, n_classes=2)
        with pytest.raises(InvalidInputError):
            evaluate(model, data)

    def test_evaluate_rejects_empty_dataset(self):
        # Once NumPy's bare "zero-size array" ValueError from labels.min().
        model = init_model(2, (4,), 3, 2, RngState(0))
        data = Dataset(inputs=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64), n_classes=2)
        with pytest.raises(InvalidInputError, match="^evaluate requires at least one labeled sample$"):
            evaluate(model, data)


class TestPretrainSource:
    def test_separable_blobs_learned(self):
        source, _ = blob_pair(n=100, seed=1)
        config = AdaptConfig(seed=1, epochs=20, lr=0.1)
        model = pretrain_source(config, source)
        assert evaluate(model, source).accuracy >= 0.95

    def test_zero_epochs_returns_initialization(self):
        source, _ = blob_pair(n=20, seed=2)
        config = AdaptConfig(seed=3, epochs=15)
        config.epochs = 0
        model = pretrain_source(config, source)
        init_rng, _ = RngState(3).split(2)
        reference = init_model(source.dim, (16,), 8, source.n_classes, init_rng)
        assert_array_equal(model.params, reference.params)

    def test_deterministic_per_seed(self):
        source, _ = blob_pair(n=30, seed=4)
        config = AdaptConfig(seed=5, epochs=3)
        first = pretrain_source(config, source)
        second = pretrain_source(config, source)
        assert_array_equal(first.params, second.params)

    def test_divergence_names_epoch_and_iteration(self):
        # README-sized benchmark source; lr 50 overflows the forward pass
        source, _ = gen_synthetic(default_shift_spec(), 0)
        config = AdaptConfig(seed=0, epochs=15, lr=50.0)
        with pytest.raises(NumericalError, match=r"at epoch 0, iteration \d+: "):
            pretrain_source(config, source)

    def test_divergence_raises_without_numpy_warnings(self):
        # The guard reports the overflow; NumPy must not warn about it first
        source, _ = gen_synthetic(default_shift_spec(), 0)
        config = AdaptConfig(seed=0, epochs=15, lr=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=r"at epoch 0, iteration \d+: "):
                pretrain_source(config, source)

    def test_empty_source_rejected(self):
        empty = Dataset(inputs=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64), n_classes=2)
        with pytest.raises(InvalidInputError, match="^pretraining requires at least one labeled sample$"):
            pretrain_source(AdaptConfig(), empty)

    def test_bad_source_rejected(self):
        source, _ = blob_pair(n=10, seed=6)
        with pytest.raises(InvalidInputError):
            pretrain_source(AdaptConfig(), source.unlabeled())
        broken = Dataset(inputs=source.inputs, labels=source.labels, n_classes=1)
        with pytest.raises(InvalidInputError):
            pretrain_source(AdaptConfig(), broken)


class TestIterationsPerEpoch:
    def test_partial_batch_rule(self):
        assert iterations_per_epoch(10, 4) == 3  # trailing 2 kept
        assert iterations_per_epoch(9, 4) == 2  # trailing 1 dropped
        assert iterations_per_epoch(8, 4) == 2
        assert iterations_per_epoch(5, 4) == 1
        assert iterations_per_epoch(64, 64) == 1


class TestValidateConfig:
    def test_field_bounds(self):
        validate_config(AdaptConfig())
        for bad in (
            AdaptConfig(k=0),
            AdaptConfig(alpha1=-1.0),
            AdaptConfig(alpha2=-0.1),
            AdaptConfig(beta=-1.0),
            AdaptConfig(lambda0=-1.0),
            AdaptConfig(lr=-0.1),
            AdaptConfig(momentum=1.0),
            AdaptConfig(batch_size=1),
            AdaptConfig(epochs=0),
            AdaptConfig(bank_fraction=0.0),
        ):
            with pytest.raises(InvalidInputError):
                validate_config(bad)

    @pytest.mark.parametrize("seed", [True, False])
    def test_boolean_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="^seed must be a non-negative integer"):
            validate_config(AdaptConfig(seed=seed))

    @pytest.mark.parametrize("name", ["alpha1", "alpha2", "beta", "lambda0", "lr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_names_the_field(self, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
            validate_config(AdaptConfig(**{name: value}))

    def test_pretrain_rejects_non_finite_lr(self):
        source, _ = blob_pair(n=10, seed=6)
        with pytest.raises(InvalidInputError, match="^lr must be finite"):
            pretrain_source(AdaptConfig(lr=float("nan")), source)

    def test_pretrain_rejects_momentum_one(self):
        source, _ = blob_pair(n=10, seed=6)
        with pytest.raises(InvalidInputError, match=r"^momentum must lie in \[0, 1\)$"):
            pretrain_source(AdaptConfig(momentum=1.0), source)


class TestAdapt:
    def pretrained(self, seed=0):
        source, target = gen_synthetic(default_shift_spec(20), seed)
        model = pretrain_source(AdaptConfig(seed=seed, epochs=10, lr=0.1), source)
        return model, target

    def test_objective_reduces_to_snc_when_weights_zero(self):
        model, target = self.pretrained()
        config = AdaptConfig(seed=1, epochs=2, batch_size=16, alpha1=0.0, alpha2=0.0)
        _, trace = adapt(config, model, target.unlabeled())
        assert trace.iterations
        for step in trace.iterations:
            assert step.ifa == 0.0
            assert step.fd == 0.0
            assert step.total == step.snc

    def test_alpha1_zero_merges_no_class_statistics(self, monkeypatch):
        # The IFA term is the only reader of the merged covariances. The
        # wrapper replays the merges the loop made before it skipped them and
        # checks that every step's objective and gradient stay the same.
        model, target = self.pretrained()
        merges, replayed = [], [ClassStatistics.empty(model.n_classes, model.feature_dim)]

        def counting(*args):
            merges.append(args)
            return update_class_stats(*args)

        def replaying(*args):
            breakdown, grads = batch_objective(*args)
            replayed[0] = update_class_stats(replayed[0], args[6])
            again, again_grads = batch_objective(*args[:7], replayed[0].covs, *args[8:])
            assert again == breakdown
            assert_array_equal(again_grads.params, grads.params)
            return breakdown, grads

        monkeypatch.setattr(adapt_module, "update_class_stats", counting)
        monkeypatch.setattr(adapt_module, "batch_objective", replaying)
        _, trace = adapt(AdaptConfig(seed=4, epochs=2, batch_size=16, alpha1=0.0), model, target.unlabeled())
        assert merges == [] and len(trace.iterations) > 1
        assert np.any(replayed[0].covs != 0.0)

    def test_zero_lr_single_iteration_keeps_parameters(self):
        model, target = self.pretrained()
        config = AdaptConfig(seed=2, epochs=1, batch_size=64, lr=0.0)
        adapted, trace = adapt(config, model, target.unlabeled())
        assert len(trace.iterations) == 1
        assert_array_equal(model.params, adapted.params)

    def test_caller_model_left_untouched(self):
        model, target = self.pretrained()
        before = model.params.tobytes()
        config = AdaptConfig(seed=2, epochs=1, batch_size=16, lr=0.05, momentum=0.9)
        adapted, _ = adapt(config, model, target.unlabeled())
        assert model.params.tobytes() == before
        assert not np.shares_memory(adapted.params, model.params)
        assert adapted.params.tobytes() != before

    def test_reproducible_per_seed(self):
        model, target = self.pretrained()
        config = AdaptConfig(seed=3, epochs=2, batch_size=16)
        first_model, first_trace = adapt(config, model, target.unlabeled())
        second_model, second_trace = adapt(config, model, target.unlabeled())
        assert_array_equal(first_model.params, second_model.params)
        for s1, s2 in zip(first_trace.iterations, second_trace.iterations):
            assert s1 == s2

    def test_trace_accounting_identity(self):
        model, target = self.pretrained()
        config = AdaptConfig(seed=4, epochs=2, batch_size=16)
        _, trace = adapt(config, model, target.unlabeled())
        for step in trace.iterations:
            claimed = step.snc + config.alpha1 * step.ifa + config.alpha2 * step.fd
            assert abs(step.total - claimed) <= 1e-12

    def test_one_moments_pass_and_one_forward_per_iteration(self, monkeypatch):
        # Wraps every import site of forward and the moments kernel (the
        # loop calls its unchecked core): a second extractor pass (say,
        # inside grad_params) or a second moments computation (say, inside
        # fd_loss) would raise the counts.
        model, target = self.pretrained()
        forwards, received = [], {"update_class_stats": [], "fd_loss": []}
        kernels = {"sfda2.adapt": "_class_moments", "sfda2.losses": "class_moments"}
        moments = {site: [] for site in kernels}  # per call site

        def counting_forward(fn):
            def wrapper(*args):
                forwards.append(len(args[1]))
                return fn(*args)

            return wrapper

        def recording_moments(site):
            kernel = getattr(stats_module, kernels[site])

            def wrapper(*args):
                moments[site].append(kernel(*args))
                return moments[site][-1]

            return wrapper

        def receiving(name, fn, position):
            def wrapper(*args):
                received[name].append(args[position])
                return fn(*args)

            return wrapper

        for name in ("sfda2.model", "sfda2.adapt", "sfda2.banks"):
            module = importlib.import_module(name)
            monkeypatch.setattr(module, "forward", counting_forward(module.forward))
        for name, kernel in kernels.items():
            monkeypatch.setattr(importlib.import_module(name), kernel, recording_moments(name))
        monkeypatch.setattr(adapt_module, "update_class_stats", receiving("update_class_stats", update_class_stats, 1))
        monkeypatch.setattr(adapt_module, "fd_loss", receiving("fd_loss", fd_loss, 2))

        config = AdaptConfig(seed=4, epochs=2, batch_size=16)
        _, trace = adapt(config, model, target.unlabeled())
        iterations = len(trace.iterations)
        batches = [min(16, target.size - start) for start in range(0, target.size, 16)]
        assert iterations == 2 * len(batches) and min(batches) >= 2
        # init_banks' full pass, then one batch pass per iteration
        assert forwards == [target.size] + batches * 2
        assert len(moments["sfda2.adapt"]) == iterations
        assert len(moments["sfda2.losses"]) == config.epochs  # affinity_weights
        for name, args in received.items():
            assert len(args) == iterations
            assert all(got is sent for got, sent in zip(args, moments["sfda2.adapt"])), name

    def test_each_loop_array_is_checked_once(self, monkeypatch):
        # Counts the checks at every import site over a 1-epoch run. Per
        # iteration the loop's design has one probability check (the bank
        # write), one batch check (fd_loss) and two moment checks
        # (update_class_stats and fd_loss), and no covariance check;
        # affinity_weights checks the score bank once per epoch. Nothing
        # runs an eigensolve on the class covariances.
        model, target = self.pretrained()
        checks = ("check_distribution_rows", "check_symmetric", "_checked_batch", "_checked_moments")
        calls = dict.fromkeys(checks + ("eigvalsh", "eigh"), 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "sfda2":
                for name in checks:
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        _, trace = adapt(AdaptConfig(seed=4, epochs=1, batch_size=16), model, target.unlabeled())
        n = len(trace.iterations)
        assert n > 1
        assert calls == {
            "check_distribution_rows": n,
            "check_symmetric": 0,
            "_checked_batch": n + 1,
            "_checked_moments": 2 * n,
            "eigvalsh": 0,
            "eigh": 0,
        }

    def test_negative_seed_rejected_before_the_banks(self, monkeypatch):
        model, target = self.pretrained()
        built = []
        monkeypatch.setattr(adapt_module, "init_banks", lambda *args: built.append(args))
        with pytest.raises(InvalidInputError, match="^seed must be a non-negative integer, got -1$"):
            adapt(AdaptConfig(seed=-1), model, target.unlabeled())
        assert built == []

    def test_schedule_endpoints(self):
        model, target = self.pretrained()
        config = AdaptConfig(seed=5, epochs=2, batch_size=16)
        _, trace = adapt(config, model, target.unlabeled())
        first, last = trace.iterations[0], trace.iterations[-1]
        assert first.decay == 1.0
        assert first.lam == 0.0
        assert_allclose(last.decay, 11.0**-config.beta, rtol=1e-15)
        assert last.lam == config.lambda0

    def test_epoch_metrics_recorded_with_eval_data(self):
        model, target = self.pretrained()
        config = AdaptConfig(seed=6, epochs=2, batch_size=16)
        _, trace = adapt(config, model, target.unlabeled(), eval_data=target)
        assert len(trace.epoch_metrics) == 2
        for em in trace.epoch_metrics:
            assert 0.0 <= em.accuracy <= 1.0

    def test_labeled_target_rejected(self):
        model, target = self.pretrained()
        with pytest.raises(InvalidInputError, match="unlabeled"):
            adapt(AdaptConfig(), model, target)

    def test_too_few_samples_for_k_rejected(self):
        model, target = self.pretrained()
        tiny = Dataset(inputs=target.inputs[:5], labels=None, n_classes=3)
        with pytest.raises(InvalidInputError):
            adapt(AdaptConfig(k=5), model, tiny)

    def test_undersized_bank_rejected_before_training(self):
        model, target = self.pretrained()  # M = 60; capacity ceil(0.05 * 60) = 3
        config = AdaptConfig(k=5, bank_fraction=0.05)
        with pytest.raises(InvalidInputError, match="bank_fraction=0.05") as err:
            adapt(config, model, target.unlabeled())
        assert "capacity of 3 rows" in str(err.value)
        assert "k=5" in str(err.value)

    def test_width_mismatch_rejected(self):
        model, _ = self.pretrained()
        wrong = Dataset(inputs=np.zeros((40, 3)), labels=None, n_classes=3)
        with pytest.raises(InvalidInputError):
            adapt(AdaptConfig(), model, wrong)

    def test_non_finite_objective_message_shows_plain_floats(self, monkeypatch):
        real_snc = adapt_module._snc_loss_batch

        def infinite_snc(*args):
            values, dprobs = real_snc(*args)
            return np.full_like(values, np.inf), dprobs

        monkeypatch.setattr(adapt_module, "_snc_loss_batch", infinite_snc)
        model, target = self.pretrained()
        with pytest.raises(NumericalError) as info:
            adapt(AdaptConfig(seed=0, epochs=1), model, target.unlabeled())
        message = str(info.value)
        assert "np.float64" not in message
        assert re.fullmatch(
            r"non-finite objective at epoch 0, iteration 0: snc=inf ifa=\S+ "
            r"fd=-?\d\.\d+(e-\d+)? decay=1\.0 lambda=0\.0",
            message,
        ), message

    def test_loss_evaluation_error_names_epoch_and_iteration(self, monkeypatch):
        def failing_fd(*args):
            raise InvalidInputError("planted")

        monkeypatch.setattr(adapt_module, "fd_loss", failing_fd)
        model, target = self.pretrained()
        with pytest.raises(NumericalError) as info:
            adapt(AdaptConfig(seed=0, epochs=1), model, target.unlabeled())
        assert str(info.value) == "non-finite loss evaluation at epoch 0, iteration 0: planted"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_overflowed_class_covariance_rejected_by_the_ifa_term(self, lam):
        # No eigensolve checks the merged covariances; an overflowed one
        # reaches the IFA term, whose softmax rejects it, and the loop
        # reports that as a NumericalError.
        model, target = self.pretrained()
        x = target.inputs[:8]
        features, probs, acts = forward(model, x)
        labels = np.argmax(probs, axis=1)
        moments = class_moments(features, labels, model.n_classes)
        covs = np.zeros((model.n_classes, model.feature_dim, model.feature_dim))
        covs[labels[0]] = np.inf
        neighbors = np.repeat(probs[:, None, :], 2, axis=1)
        affinity = np.eye(model.n_classes)
        args = (model, acts, probs, neighbors, probs, labels, moments, covs, affinity, 1.0, lam)
        with pytest.raises(InvalidInputError, match="non-finite"):
            batch_objective(*args, 1e-4, 10.0)
        breakdown, _ = batch_objective(*args, 0.0, 10.0)  # alpha1 = 0 never reads them
        assert np.isfinite(breakdown.total) and breakdown.ifa == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_numerical_error(self):
        model, target = self.pretrained()
        config = AdaptConfig(seed=7, epochs=5, batch_size=16, lr=1e8)
        with pytest.raises(NumericalError, match="iteration"):
            adapt(config, model, target.unlabeled())

    @pytest.mark.parametrize("seed", range(5))
    def test_target_with_one_repeated_class_row_adapts(self, seed):
        # Every class-2 row of the README's target is one repeated row, so
        # class 2's batch covariance is exactly zero and FD must leave it out
        # at every step, or its scale-invariant term blows the features up.
        source, target = gen_synthetic(default_shift_spec(), seed)
        model = pretrain_source(AdaptConfig(seed=seed, epochs=15, lr=0.1), source)
        inputs = target.inputs.copy()
        member = target.labels == 2
        inputs[member] = inputs[member][0]
        config = AdaptConfig(seed=seed, lr=0.0075, momentum=0.0, epochs=25)
        adapted, _ = adapt(config, model, Dataset(inputs, None, None))
        assert evaluate(adapted, target).accuracy > 0.5
