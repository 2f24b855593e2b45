"""Source pretraining, the adaptation loop, and evaluation metrics.

The adaptation objective per batch is the mean neighborhood-consistency
loss plus `alpha1` times the mean feature-alignment loss plus `alpha2`
times the dispersal loss. Mini-batch gradients are assembled analytically
and applied with momentum SGD.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .banks import init_banks, knn, update_banks
from .errors import InvalidInputError, NumericalError
from .losses import (
    LossBreakdown,
    _ifa_loss_batch,
    _snc_loss_batch,
    affinity_weights,
    decay_factor,
    fd_loss,
    lambda_schedule,
    softmax_vjp,
)
from .model import (
    Model,
    forward,
    grad_params,
    init_model,
    init_optimizer,
    sgd_step,
    validate_model,
)
from .numerics import RngState
from .stats import ClassStatistics, _class_moments, update_class_stats


@dataclass
class AdaptConfig:
    """Hyperparameters for adaptation (and the shared optimizer settings)."""

    k: int = 5
    alpha1: float = 1e-4
    alpha2: float = 10.0
    beta: float = 5.0
    lambda0: float = 5.0
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 15
    seed: int = 0
    bank_fraction: float = 1.0


def validate_config(config: AdaptConfig) -> None:
    if config.k < 1:
        raise InvalidInputError("k must be >= 1")
    for name in ("alpha1", "alpha2", "beta", "lambda0", "lr"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value >= 0):
            raise InvalidInputError(f"{name} must be finite and >= 0, got {value!r}")
    if not 0.0 <= config.momentum < 1.0:
        raise InvalidInputError("momentum must lie in [0, 1)")
    if config.batch_size < 2:
        raise InvalidInputError("batch_size must be >= 2")
    if config.epochs < 1:
        raise InvalidInputError("epochs must be >= 1")
    if not 0.0 < config.bank_fraction <= 1.0:
        raise InvalidInputError("bank_fraction must lie in (0, 1]")
    if isinstance(config.seed, bool) or not isinstance(config.seed, (int, np.integer)) or config.seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {config.seed!r}")


@dataclass
class EvalMetrics:
    accuracy: float
    per_class_accuracy: np.ndarray  # aligned with present_classes
    per_class_mean: float
    harmonic_mean: float
    macro_f1: float
    present_classes: list[int]
    absent_classes: list[int]

    def to_dict(self) -> dict:
        return {**asdict(self), "per_class_accuracy": [float(v) for v in self.per_class_accuracy]}


@dataclass
class MetricsTrace:
    """Per-iteration loss breakdowns plus optional per-epoch eval metrics."""

    iterations: list[LossBreakdown] = field(default_factory=list)
    epoch_metrics: list[EvalMetrics] = field(default_factory=list)


def metrics_from_confusion(confusion: np.ndarray) -> EvalMetrics:
    """Metrics from a confusion matrix with rows = true class, cols = predicted.

    Classes with no true samples are excluded from the per-class aggregates
    and reported in `absent_classes`.
    """
    cm = np.asarray(confusion, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] == 0:
        raise InvalidInputError("confusion matrix must be square and nonempty")
    if not (cm.min() >= 0 and cm.max() < np.inf):  # negated, so NaN fails too
        raise InvalidInputError("confusion matrix counts must be finite and >= 0")
    total = cm.sum()
    if total <= 0:
        raise InvalidInputError("confusion matrix must contain at least one sample")

    row_sums = cm.sum(axis=1)
    present = [c for c in range(cm.shape[0]) if row_sums[c] > 0]
    absent = [c for c in range(cm.shape[0]) if row_sums[c] == 0]

    accuracy = float(np.trace(cm) / total)
    recalls = np.array([cm[c, c] / row_sums[c] for c in present])
    per_class_mean = float(recalls.mean())
    if np.any(recalls == 0.0):
        harmonic = 0.0
    else:
        harmonic = float(len(present) / np.sum(1.0 / recalls))

    f1s = []
    col_sums = cm.sum(axis=0)
    for idx, c in enumerate(present):
        recall = recalls[idx]
        precision = cm[c, c] / col_sums[c] if col_sums[c] > 0 else 0.0
        f1s.append(0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall))

    return EvalMetrics(
        accuracy=accuracy,
        per_class_accuracy=recalls,
        per_class_mean=per_class_mean,
        harmonic_mean=harmonic,
        macro_f1=float(np.mean(f1s)),
        present_classes=present,
        absent_classes=absent,
    )


def evaluate(model: Model, dataset) -> EvalMetrics:
    """Accuracy, per-class accuracy, their arithmetic and harmonic means,
    and macro-F1 of the model's argmax predictions on a labeled dataset."""
    validate_model(model)
    if dataset.labels is None:
        raise InvalidInputError("evaluate requires a labeled dataset")
    labels = np.asarray(dataset.labels, dtype=np.int64)
    if labels.size == 0:
        raise InvalidInputError("evaluate requires at least one labeled sample")
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise InvalidInputError("labels out of range for the model's classes")
    _, probs, _ = forward(model, dataset.inputs)
    preds = np.argmax(probs, axis=1)
    cm = np.zeros((model.n_classes, model.n_classes), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return metrics_from_confusion(cm)


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, order.size, batch_size):
        yield order[start : start + batch_size]


def _guarded_forward(model: Model, x: np.ndarray, epoch: int, iteration: int):
    """Forward pass of a training step. Diverged parameters overflow it
    before any loss can go non-finite, so there its input errors are
    numerical failures, reported with the step's position. NumPy's overflow
    warnings are silenced here, since the guard reports the failure."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return forward(model, x)
    except InvalidInputError as exc:
        raise NumericalError(
            f"non-finite forward pass at epoch {epoch}, iteration {iteration}: {exc}"
        ) from exc


def pretrain_source(
    config: AdaptConfig,
    source,
    hidden_dims: tuple[int, ...] = (16,),
    feature_dim: int = 8,
) -> Model:
    """Supervised pretraining on the labeled source domain (cross-entropy,
    momentum SGD). Returns the trained model; the caller keeps the config.
    Raises NumericalError naming the epoch and iteration if the forward
    pass stops being finite."""
    if source.labels is None:
        raise InvalidInputError("pretraining requires labels")
    if source.n_classes is None or source.n_classes < 2:
        raise InvalidInputError("source dataset must declare >= 2 classes")
    labels = np.asarray(source.labels, dtype=np.int64)
    if labels.size == 0:
        raise InvalidInputError("pretraining requires at least one labeled sample")
    if labels.min() < 0 or labels.max() >= source.n_classes:
        raise InvalidInputError("source labels out of range")
    if config.batch_size < 1 or config.epochs < 0:
        raise InvalidInputError("invalid pretraining schedule")

    init_rng, order_rng = RngState(config.seed).split(2)
    model = init_model(source.dim, hidden_dims, feature_dim, source.n_classes, init_rng)
    opt = init_optimizer(model, config.momentum, config.lr)
    m = source.size
    t = 0
    for epoch in range(config.epochs):
        perm = order_rng.generator.permutation(m)
        for batch in _batches(perm, config.batch_size):
            x = source.inputs[batch]
            y = labels[batch]
            _, probs, acts = _guarded_forward(model, x, epoch, t)
            dlogits = probs.copy()
            dlogits[np.arange(batch.size), y] -= 1.0
            dlogits /= batch.size
            grads = grad_params(model, acts, dlogits, np.zeros((batch.size, model.feature_dim)))
            sgd_step(model, grads, opt)
            t += 1
    return model


def batch_objective(
    model: Model,
    acts: list[np.ndarray],
    probs: np.ndarray,
    neighbor_probs: np.ndarray,
    bank_batch_probs: np.ndarray,
    batch_pseudo_labels: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray, np.ndarray],
    class_covs: np.ndarray,
    affinity: np.ndarray,
    decay: float,
    lam: float,
    alpha1: float,
    alpha2: float,
) -> tuple[LossBreakdown, Model]:
    """One batch's loss breakdown and full parameter gradient.

    `probs` and `acts` are `forward`'s output for the batch (features are
    acts[-1]). `neighbor_probs` is the (B, K, C) stack of each sample's
    neighbor rows and `bank_batch_probs[i]` the stored score-bank row for
    batch sample i; only row i's self term is differentiated through the
    live network. `moments` is the batch's `class_moments`, for FD, and
    `class_covs` the (C, d, d) class covariances of the alignment term.
    Feature-alignment and dispersal terms are skipped (reported as 0) when
    their weight is exactly 0.

    The SNC and IFA terms run unchecked, so the arrays must be the kind
    `adapt` builds: float64 probability rows, int64 labels and exactly
    symmetric covariances. `fd_loss` checks its own arguments.
    """
    features = acts[-1]
    b = features.shape[0]
    if b < 2:
        raise InvalidInputError("batch must contain at least 2 samples")
    labels = np.asarray(batch_pseudo_labels, dtype=np.int64)

    snc_values, dprobs = _snc_loss_batch(probs, neighbor_probs, bank_batch_probs, decay)
    dlogits = softmax_vjp(probs, dprobs) / b
    dfeatures = np.zeros((b, model.feature_dim))
    clf_w_extra = np.zeros_like(model.clf_weights)
    clf_b_extra = np.zeros_like(model.clf_bias)

    ifa_mean = 0.0
    if alpha1 != 0.0:
        ifa_values, dz, dw, db = _ifa_loss_batch(
            features, labels, class_covs, model.clf_weights, model.clf_bias, lam
        )
        ifa_mean = float(ifa_values.sum()) / b
        dfeatures += (alpha1 / b) * dz
        clf_w_extra += (alpha1 / b) * dw
        clf_b_extra += (alpha1 / b) * db

    fd_value = 0.0
    if alpha2 != 0.0:
        fd_value, fd_grad = fd_loss(features, labels, moments, affinity)
        dfeatures += alpha2 * fd_grad

    snc_mean = float(snc_values.sum()) / b
    total = snc_mean + alpha1 * ifa_mean + alpha2 * fd_value
    grads = grad_params(model, acts, dlogits, dfeatures)
    grads.clf_weights += clf_w_extra
    grads.clf_bias += clf_b_extra
    breakdown = LossBreakdown(
        snc=snc_mean, ifa=ifa_mean, fd=fd_value, total=total, decay=decay, lam=lam
    )
    return breakdown, grads


def iterations_per_epoch(n_samples: int, batch_size: int) -> int:
    """Full batches plus the trailing partial batch when it has >= 2 samples."""
    full, rem = divmod(n_samples, batch_size)
    return full + (1 if rem >= 2 else 0)


def adapt(
    config: AdaptConfig,
    model: Model,
    target,
    eval_data=None,
) -> tuple[Model, MetricsTrace]:
    """Label-free adaptation of a pretrained model to the target domain.
    Trains and returns a copy; `model` itself is not changed.

    `target` must be the unlabeled view; pass `eval_data` (labeled, for
    diagnostics only) to record per-epoch metrics. Raises NumericalError
    with iteration diagnostics if the objective stops being finite.

    Each array the loop builds is checked once, at the first public call
    that receives it. Per iteration: `update_banks` checks the batch's
    features and probability rows (one `check_distribution_rows`),
    `update_class_stats` and `fd_loss` the moments (two `_checked_moments`,
    one at alpha1 = 0) and `fd_loss` the batch (one `_checked_batch`). The
    moments and the SNC and IFA terms run unchecked, so no covariance goes
    through `check_symmetric`. `affinity_weights` checks the score bank once
    per epoch. Nothing checks the merged class covariances: one that
    overflows reaches the IFA term, whose softmax rejects it, and the loop
    reports a NumericalError. The IFA term is their only reader, so with
    alpha1 = 0 nothing merges them.
    """
    validate_config(config)
    validate_model(model)
    if target.labels is not None:
        raise InvalidInputError("adapt consumes the unlabeled view; call .unlabeled() first")
    if target.n_classes is not None and target.n_classes != model.n_classes:
        raise InvalidInputError("target class count disagrees with the model")
    if target.dim != model.input_dim:
        raise InvalidInputError("target width disagrees with the model")
    m = target.size

    per_epoch = iterations_per_epoch(m, config.batch_size)
    if per_epoch == 0:
        raise InvalidInputError("no usable batches (every batch has < 2 samples)")
    total_iters = config.epochs * per_epoch
    # Schedules are pinned at both ends: first iteration sees decay 1 and
    # lambda 0, the last sees the terminal values.
    denom = max(total_iters - 1, 1)

    # A diverged model can overflow this forward pass; its check reports that.
    with np.errstate(over="ignore", invalid="ignore"):
        fbank, score_bank = init_banks(model, target.inputs, config.bank_fraction)
    if fbank.capacity < config.k + 1:
        raise InvalidInputError(
            f"bank_fraction={config.bank_fraction!r} leaves a bank capacity of "
            f"{fbank.capacity} rows; k={config.k} needs at least k+1={config.k + 1}"
        )
    stats = ClassStatistics.empty(model.n_classes, model.feature_dim)
    order_rng = RngState(config.seed)
    trace = MetricsTrace()

    t = 0
    current = model.with_params(model.params.copy())
    opt = init_optimizer(current, config.momentum, config.lr)
    for epoch in range(config.epochs):
        bank_labels = np.argmax(score_bank, axis=1)
        affinity = affinity_weights(score_bank, bank_labels)
        perm = order_rng.generator.permutation(m)
        for batch in _batches(perm, config.batch_size):
            if batch.size < 2:
                continue
            x = target.inputs[batch]
            features, probs, acts = _guarded_forward(current, x, epoch, t)
            decay = decay_factor(t, denom, config.beta)
            lam = lambda_schedule(t, denom, config.lambda0)
            try:
                # Diverged parameters overflow inside the bank write, the
                # class statistics and the loss kernels; the checks below
                # report that, so NumPy's warnings are silenced.
                with np.errstate(over="ignore", invalid="ignore"):
                    update_banks(fbank, score_bank, batch, features, probs)
                    neighbor_probs = score_bank[knn(fbank, batch, config.k)]
                    labels = np.argmax(probs, axis=1)
                    moments = _class_moments(features, labels, model.n_classes)
                    if config.alpha1 != 0.0:
                        stats = update_class_stats(stats, moments)
                    breakdown, grads = batch_objective(
                        current,
                        acts,
                        probs,
                        neighbor_probs,
                        score_bank[batch],
                        labels,
                        moments,
                        stats.covs,
                        affinity,
                        decay,
                        lam,
                        config.alpha1,
                        config.alpha2,
                    )
            except InvalidInputError as exc:
                # Every argument was produced by this loop, so a precondition
                # trip here means diverged parameters or statistics overflowed.
                raise NumericalError(
                    f"non-finite loss evaluation at epoch {epoch}, iteration {t}: {exc}"
                ) from exc
            if not np.isfinite(breakdown.total):
                raise NumericalError(
                    f"non-finite objective at epoch {epoch}, iteration {t}: "
                    f"snc={breakdown.snc!r} ifa={breakdown.ifa!r} fd={breakdown.fd!r} "
                    f"decay={decay!r} lambda={lam!r}"
                )
            sgd_step(current, grads, opt)
            trace.iterations.append(breakdown)
            t += 1
        if eval_data is not None:
            trace.epoch_metrics.append(evaluate(current, eval_data))
    return current, trace
