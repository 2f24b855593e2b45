"""Property-verification suites for the implemented mathematics.

Four suites: the feature-alignment upper bound against its Monte Carlo
oracle, the full-batch neighborhood-loss factorization identity, analytic
gradients against central finite differences, and the streaming-estimator
oracles (class statistics, neighbor search, the row kernels' log-softmax
identity).

Every suite is deterministic for a given seed and returns a VerifyReport.
`negative_control=True` plants a known-wrong variant of the checked
formula; a sensitive suite must then report failures. The suites take
only what `sfda2 verify` can set; their other sizes are module constants,
and each report's details record the main ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .adapt import batch_objective
from .banks import FeatureBank, knn
from .data import dumps_json
from .errors import InvalidInputError
from .losses import (
    _MC_REPLICATES,
    _fd_live,
    _fd_value,
    _ifa_values,
    _snc_values,
    efa_mc_estimate,
    fd_loss,
    ifa_loss,
    ifa_loss_batch,
    snc_loss,
    snc_loss_batch,
    softmax_vjp,
)
from .model import finite_diff_errors, forward, grad_params, init_model
from .numerics import RngState, row_logsumexp, row_softmax
from .stats import ClassStatistics, _class_moments, batch_covariance_oracle, class_moments, update_class_stats


@dataclass
class VerifyReport:
    suite: str
    trials: int
    passed: bool
    worst: float | None
    failures: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return dumps_json(self.to_dict())


def _finish(suite: str, trials: int, worst, failures: list[dict], details: dict) -> VerifyReport:
    return VerifyReport(
        suite=suite,
        trials=trials,
        passed=not failures,
        worst=None if worst is None else float(worst),
        failures=failures,
        details=details,
    )


# ---------------------------------------------------------------- bound


# Pass rule of `ifa-bound`: mc_mean <= bound + _IFA_QUANTILE * stderr. The
# oracle's stderr has _MC_REPLICATES - 1 = 15 degrees of freedom, and this is
# the t_15 quantile at Phi(3), so a correct bound fails a trial as rarely as a
# 3-sigma rule on a normal error would (0.13%).
_IFA_QUANTILE = 3.5864


def verify_ifa_bound(
    trials: int = 100,
    n_pairs: int = 65536,
    seed: int = 7,
    negative_control: bool = False,
) -> VerifyReport:
    """Closed-form alignment loss must upper-bound its Monte Carlo oracle.

    Per trial, from its own stream split from the seed: random classifier,
    feature, trace-normalized PSD covariance, lambda in (0, 5]. Pass
    requires mc_mean <= bound + q*stderr, q = _IFA_QUANTILE, which the
    report's details record with the oracle's replicate count. The
    negative control hands `ifa_loss` the negated covariance, which flips
    the variance margin's sign: a planted bug the comparison must catch on
    some trials.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if n_pairs < 10000:
        raise InvalidInputError("n_pairs must be >= 10000")

    failures: list[dict] = []
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
        lam = 5.0 * (1.0 - g.random())

        # The negative control negates the covariance, which negates every
        # q[c,c'] exactly: the variance margin enters with the wrong sign, so
        # for material lambda the value drops below the Monte Carlo mean.
        # Weakening lambda instead (halving, even zeroing) can never fail:
        # each per-class ratio in the correct formula is at most the softmax
        # probability, which forces the value above 2*C*log(C) at any
        # lambda, while the oracle mean at lambda=0 is at most log(C).
        bound = ifa_loss(feature, -cov if negative_control else cov, weights, bias, lam)[0]
        mc_mean, mc_stderr = efa_mc_estimate(feature, cov, weights, bias, lam, n_pairs, mc_rng)
        slack = bound + _IFA_QUANTILE * mc_stderr - mc_mean
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
        "replicates": _MC_REPLICATES,
        "quantile": _IFA_QUANTILE,
        "seed": seed,
        "negative_control": negative_control,
    }
    return _finish("ifa-bound", trials, worst_slack, failures, details)


# ------------------------------------------------- factorization identity


# Largest admitted gap between the summed losses and either closed form.
_SNC_TOLERANCE = 1e-8
# Points per trial and neighbors per point.
_SNC_POINTS, _SNC_K = 30, 3


def verify_snc_factorization(
    trials: int = 10,
    seed: int = 0,
    negative_control: bool = False,
) -> VerifyReport:
    """Full-batch neighborhood loss vs the matrix-factorization objective.

    Per trial: the directed k-NN graph A of n standard-normal points in 8
    dimensions, found by `knn` on a bank of them, and random probability
    rows P. The batch loss `snc_loss_batch` at decay 1, with every row's
    neighbors and the bank both taken from P, summed over the batch must
    equal both the edge form -(2/k)*sum_edges p_i.p_j + sum_{i,k'}
    (p_i.p_k')^2 and ||A/k - P P^T||_F^2 minus its constant term
    ||A/k||_F^2. Expanding the square shows the identity holds for any A,
    symmetric or not. The negative control skips the constant-term
    subtraction.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")

    failures: list[dict] = []
    worst = 0.0
    n_classes = 4
    for t, trial_rng in enumerate(RngState(seed).split(trials)):
        g = trial_rng.generator
        points = g.standard_normal((_SNC_POINTS, 8))
        neighbors = knn(FeatureBank(points, _SNC_POINTS), np.arange(_SNC_POINTS), _SNC_K)
        adjacency = np.zeros((_SNC_POINTS, _SNC_POINTS))
        adjacency[np.arange(_SNC_POINTS)[:, None], neighbors] = 1.0

        probs = row_softmax(1.5 * g.standard_normal((_SNC_POINTS, n_classes)))
        loss_sum = float(snc_loss_batch(probs, probs[neighbors], probs, 1.0)[0].sum())

        gram = probs @ probs.T
        edge_form = -(2.0 / _SNC_K) * float((adjacency * gram).sum()) + float((gram**2).sum())
        scaled = adjacency / _SNC_K
        factor_form = float(((scaled - gram) ** 2).sum())
        constant = float((scaled**2).sum())
        rhs = factor_form if negative_control else factor_form - constant

        diff_edge = abs(loss_sum - edge_form)
        diff_factor = abs(loss_sum - rhs)
        worst = max(worst, diff_edge, diff_factor)
        if diff_edge > _SNC_TOLERANCE or diff_factor > _SNC_TOLERANCE:
            failures.append(
                {
                    "trial": t,
                    "diff_edge_form": diff_edge,
                    "diff_factorization": diff_factor,
                    "loss_sum": loss_sum,
                    "edge_form": edge_form,
                    "factorization_minus_constant": rhs,
                }
            )
    details = {
        "n_points": _SNC_POINTS,
        "k": _SNC_K,
        "seed": seed,
        "tolerance": _SNC_TOLERANCE,
        "negative_control": negative_control,
    }
    return _finish("snc-factorization", trials, worst, failures, details)


# ---------------------------------------------------------- gradients


# (classes, feature dim, batch, K) of the batched-vs-reference instances:
# the adaptation default shape and two wider ones.
_BATCHED_SHAPES = ((3, 8, 64, 5), (10, 16, 32, 5), (31, 32, 16, 3))


def _batched_vs_reference(rng: RngState, shape, negative_control: bool) -> float:
    """Largest floored relative difference between the batch kernels and
    the per-sample reference losses on one random instance, over values,
    per-sample gradients and the batch-summed classifier gradients. The
    negative control plants an off-by-one: batch row i is compared with
    the reference of sample i+1."""
    n_classes, dim, batch, k = shape
    g = rng.generator
    probs = row_softmax(1.5 * g.standard_normal((batch, n_classes)))
    neighbors = row_softmax(1.5 * g.standard_normal((batch * k, n_classes)))
    neighbors = neighbors.reshape(batch, k, n_classes)
    bank_rows = row_softmax(1.5 * g.standard_normal((batch, n_classes)))
    features = g.standard_normal((batch, dim))
    labels = g.integers(0, n_classes, batch)
    a = g.standard_normal((n_classes, dim, dim))
    covs = a @ a.transpose(0, 2, 1)
    covs *= dim / np.trace(covs, axis1=1, axis2=2)[:, None, None]
    weights = g.standard_normal((n_classes, dim))
    bias = g.standard_normal(n_classes)
    decay = float(0.25 + g.random())
    lam = float(2.0 * (1.0 - g.random()))

    batched = snc_loss_batch(probs, neighbors, bank_rows, decay) + ifa_loss_batch(
        features, labels, covs, weights, bias, lam
    )
    reference = [
        np.zeros(batch),
        np.zeros((batch, n_classes)),
        np.zeros(batch),
        np.zeros((batch, dim)),
        np.zeros_like(weights),
        np.zeros_like(bias),
    ]
    for i in range(batch):
        j = (i + 1) % batch if negative_control else i
        reference[0][i], reference[1][i] = snc_loss(probs[j], neighbors[j], bank_rows, j, decay)
        value, d_feature, d_weights, d_bias = ifa_loss(features[j], covs[labels[j]], weights, bias, lam)
        reference[2][i], reference[3][i] = value, d_feature
        reference[4] += d_weights
        reference[5] += d_bias
    return max(
        float(np.abs(got - ref).max() / max(1.0, np.abs(ref).max()))
        for got, ref in zip(batched, reference)
    )


# Largest admitted finite-difference error, and the central-difference
# step. The step balances truncation against the rounding noise that
# parameters with exactly-zero gradients (the dispersal loss is translation
# invariant, so feature-layer biases have none) leak into the floored
# relative error: noise grows like 1/step.
_GRAD_TOLERANCE, _GRAD_STEP = 1e-4, 1e-4
# Both calibration losses have zero truncation error under central
# differences, so a wide step only shrinks the 1/step rounding noise.
_CALIBRATION_STEP = 1e-2


def verify_gradients(
    seed: int = 0,
    n_instances: int = 20,
    negative_control: bool = False,
) -> VerifyReport:
    """Analytic gradients vs central finite differences.

    Two calibration controls run first: a constant loss (error must be 0)
    and a pure quadratic in the parameters (central differences are exact,
    error < 1e-9). Then each random instance checks the batch
    neighborhood and alignment kernels and the dispersal loss in isolation
    plus the weighted composite objective: one forward pass at the base
    point feeds the public kernels and `batch_objective`, and one forward
    pass per perturbed point gives all four values, so an instance with P
    parameters runs 1 + 2P forward passes and one perturbation loop. The
    perturbed points call only the losses' value stages, and skip the
    class moments when FD is identically zero (fewer than two classes with
    >= 2 members in the instance's fixed labels). A few wider instances
    then check the batch kernels against the per-sample reference losses
    (values and gradients, floored relative error < 1e-10). The negative
    control scales every analytic gradient by 1.01 and compares each batch
    row with the reference of the next sample.
    """
    if n_instances < 1:
        raise InvalidInputError("n_instances must be >= 1")
    rngs = RngState(seed).split(n_instances + 2)
    failures: list[dict] = []
    worst = 0.0
    per_check_max = {"snc": 0.0, "ifa": 0.0, "fd": 0.0, "composite": 0.0, "batched": 0.0}

    cal_model = init_model(3, (4,), 3, 3, rngs[n_instances])

    def calibration_values(m):
        # The quadratic is summed array by array: the value's rounding, and
        # so the reported control error, depends on the summation order.
        arrays = [a for layer in m.layers for a in (layer.weights, layer.bias)]
        return 1.0, 0.5 * sum(float((arr * arr).sum()) for arr in arrays + [m.clf_weights, m.clf_bias])

    cal_analytic = np.stack([np.zeros_like(cal_model.params), cal_model.params])
    constant_err, quadratic_err = finite_diff_errors(
        cal_model, cal_analytic, calibration_values, _CALIBRATION_STEP
    ).tolist()
    if constant_err > 1e-12:
        failures.append({"check": "constant-control", "error": constant_err})
    if quadratic_err > 1e-9:
        failures.append({"check": "quadratic-control", "error": quadratic_err})

    for idx in range(n_instances):
        model_rng, data_rng = rngs[idx].split(2)
        g = data_rng.generator
        batch = int(g.integers(3, 7))
        n_classes = int(g.integers(2, 5))
        d_in = int(g.integers(2, 5))
        d_feat = int(g.integers(2, 5))
        hidden = (int(g.integers(3, 6)),)
        model = init_model(d_in, hidden, d_feat, n_classes, model_rng)
        x = g.standard_normal((batch, d_in))
        k = int(g.integers(1, 4))
        neighbor_probs = np.stack(
            [row_softmax(1.5 * g.standard_normal((k, n_classes))) for _ in range(batch)]
        )
        bank_rows = row_softmax(1.5 * g.standard_normal((batch, n_classes)))
        while True:
            labels = g.integers(0, n_classes, batch).astype(np.int64)
            if np.bincount(labels, minlength=n_classes).max() >= 2:
                break
        covs = np.zeros((n_classes, d_feat, d_feat))
        for c in range(n_classes):
            a = g.standard_normal((d_feat, d_feat))
            covs[c] = a @ a.T
            covs[c] *= d_feat / np.trace(covs[c])
        class_means = row_softmax(g.standard_normal((n_classes, n_classes)))
        affinity = class_means @ class_means.T
        decay = float(0.25 + g.random())
        lam = float(2.0 * g.random())
        alpha1, alpha2 = 0.3, 0.7

        # The base point: each check's gradient from one forward pass,
        # through the checked kernels and the composite `adapt` runs.
        feats, probs, acts = forward(model, x)
        no_logits, no_feats = np.zeros((batch, n_classes)), np.zeros((batch, d_feat))
        _, dprobs = snc_loss_batch(probs, neighbor_probs, bank_rows, decay)
        snc_grads = grad_params(model, acts, softmax_vjp(probs, dprobs) / batch, no_feats)
        _, dfeats, dw, db = ifa_loss_batch(feats, labels, covs, model.clf_weights, model.clf_bias, lam)
        ifa_grads = grad_params(model, acts, no_logits, dfeats / batch)
        ifa_grads.clf_weights += dw / batch
        ifa_grads.clf_bias += db / batch
        moments = class_moments(feats, labels, n_classes)
        _, gfeat = fd_loss(feats, labels, moments, affinity)
        fd_grads = grad_params(model, acts, no_logits, gfeat)
        _, composite_grads = batch_objective(
            model, acts, probs, neighbor_probs, bank_rows, labels,
            moments, covs, affinity, decay, lam, alpha1, alpha2,
        )
        analytic = np.stack([grads.params for grads in (snc_grads, ifa_grads, fd_grads, composite_grads)])

        fd_live = _fd_live(np.bincount(labels, minlength=n_classes))

        def values(m):
            # One forward pass serves the perturbed point of all four checks;
            # the composite is batch_objective's total, summed in its order.
            # The base point checked the constant inputs, so the perturbed
            # points take the unchecked value stages of the cores `adapt` runs.
            feats, probs, _ = forward(m, x)
            snc = float(_snc_values(probs, neighbor_probs, bank_rows, decay)[0].sum()) / batch
            ifa = float(_ifa_values(feats, labels, covs, m.clf_weights, m.clf_bias, lam)[0].sum()) / batch
            fd = _fd_value(_class_moments(feats, labels, n_classes)[2], affinity)[0] if fd_live else 0.0
            return snc, ifa, fd, snc + alpha1 * ifa + alpha2 * fd

        if negative_control:
            analytic *= 1.01
        errors = finite_diff_errors(model, analytic, values, _GRAD_STEP)
        for name, err in zip(("snc", "ifa", "fd", "composite"), errors.tolist()):
            per_check_max[name] = max(per_check_max[name], err)
            worst = max(worst, err)
            if err > _GRAD_TOLERANCE:
                failures.append(
                    {
                        "instance": idx,
                        "check": name,
                        "error": err,
                        "batch": batch,
                        "n_classes": n_classes,
                        "input_dim": d_in,
                        "feature_dim": d_feat,
                        "k": k,
                    }
                )

    for shape_rng, shape in zip(rngs[n_instances + 1].split(len(_BATCHED_SHAPES)), _BATCHED_SHAPES):
        err = _batched_vs_reference(shape_rng, shape, negative_control)
        per_check_max["batched"] = max(per_check_max["batched"], err)
        if err > 1e-10:
            n_classes, d_feat, batch, k = shape
            failures.append(
                {
                    "check": "batched-vs-reference",
                    "error": err,
                    "batch": batch,
                    "n_classes": n_classes,
                    "feature_dim": d_feat,
                    "k": k,
                }
            )

    details = {
        "seed": seed,
        "tolerance": _GRAD_TOLERANCE,
        "step": _GRAD_STEP,
        "negative_control": negative_control,
        "constant_control_error": constant_err,
        "quadratic_control_error": quadratic_err,
        "max_error_per_check": per_check_max,
    }
    return _finish("gradients", n_instances, worst, failures, details)


# ------------------------------------------------------------- oracles


def _partition_sizes(total: int, g: np.random.Generator) -> list[int]:
    sizes = []
    remaining = total
    while remaining > 0:
        if remaining > 1 and g.random() < 0.1:
            size = 1
        else:
            size = int(g.integers(1, min(37, remaining) + 1))
        sizes.append(size)
        remaining -= size
    if 1 not in sizes:  # the partitions must exercise size-1 batches
        for i, s in enumerate(sizes):
            if s >= 2:
                sizes[i] = s - 1
                sizes.insert(i + 1, 1)
                break
    return sizes


def _planted_doubled_correction(stats: ClassStatistics, moments):
    # Planted bug for the negative control: each batch covariance gains
    # n/(n+m) (mu - mu')(mu - mu')^T, which the merge weighs by m/(n+m), so
    # the merge's n*m/(n+m)^2 mean-gap correction term is doubled. A class
    # the batch does not hold is left out of the merge, whatever it gains.
    counts, means, covs = moments
    n = stats.counts[:, None, None]
    delta = (stats.means - means)[:, :, None]
    weight = n / np.maximum(n + counts[:, None, None], 1)
    return counts, means, covs + weight * (delta * delta.transpose(0, 2, 1))


def _softmax_and_logsumexp(v: np.ndarray, negative_control: bool):
    # The row kernels on a one-row array; the negative control plants
    # shift-free naive exponentials.
    if negative_control:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(v) / np.exp(v).sum(), float(np.log(np.exp(v).sum()))
    return row_softmax(v[None])[0], row_logsumexp(v[None])[0]


_EXTREME_LOGITS = (
    [1000.0, 0.0],
    [-1500.0, 3.0, 7.0],
    [800.0, 800.0, 800.0, 800.0, 800.0],
    [-745.0, 0.0, 745.0],
)


# Sizes of `oracles`: the class-statistics streams (count, samples each,
# classes, feature dim), the neighbor-search bank (points, dim, queries,
# each k) and the random log-softmax trials.
_STREAMS, _STREAM_SAMPLES, _STREAM_CLASSES, _STREAM_DIM = 10, 1000, 10, 8
_BANK_POINTS, _BANK_DIM, _BANK_QUERIES, _BANK_KS = 500, 16, 50, (1, 5, 10)
_SOFTMAX_TRIALS = 200


def verify_oracles(seed: int = 0, negative_control: bool = False) -> VerifyReport:
    """Streaming/numeric primitives vs independent oracles.

    (a) streaming class statistics vs `batch_covariance_oracle` over random batch
    partitions that include size-1 batches, max entry error < 1e-9;
    (b) bank neighbor search vs an exhaustive scan, exact indices under the
    (distance, index) tie rule; (c) log-softmax identity
    log softmax(v)_c = v_c - logsumexp(v) within 1e-12, plus finite
    results on extreme logits, for the `row_softmax`/`row_logsumexp`
    kernels on one-row arrays. Negative controls plant, respectively, a
    doubled covariance correction term, an unnormalized distance scan, and
    shift-free naive exponentials.
    """
    rngs = RngState(seed).split(_STREAMS + 2)
    failures: list[dict] = []
    stats_worst = 0.0

    for s in range(_STREAMS):
        g = rngs[s].generator
        scale = 0.5 + 2.0 * g.random()
        shift = 3.0 * g.standard_normal(_STREAM_DIM)
        feats = g.standard_normal((_STREAM_SAMPLES, _STREAM_DIM)) * scale + shift
        labels = g.integers(0, _STREAM_CLASSES, _STREAM_SAMPLES).astype(np.int64)
        sizes = _partition_sizes(_STREAM_SAMPLES, g)

        stats = ClassStatistics.empty(_STREAM_CLASSES, _STREAM_DIM)
        pos = 0
        for size in sizes:
            batch = slice(pos, pos + size)
            moments = class_moments(feats[batch], labels[batch], _STREAM_CLASSES)
            if negative_control:
                moments = _planted_doubled_correction(stats, moments)
            stats = update_class_stats(stats, moments)
            pos += size
        means, covs, counts = stats.means, stats.covs, stats.counts

        for c in range(_STREAM_CLASSES):
            rows = feats[labels == c]
            if rows.shape[0] == 0:
                if counts[c] != 0:
                    failures.append({"part": "class-stats", "stream": s, "class": c, "reason": "phantom count"})
                continue
            mean_oracle, cov_oracle = batch_covariance_oracle(rows)
            mean_err = float(np.abs(means[c] - mean_oracle).max())
            cov_err = float(np.abs(covs[c] - cov_oracle).max())
            stats_worst = max(stats_worst, mean_err, cov_err)
            if mean_err > 1e-9 or cov_err > 1e-9 or int(counts[c]) != rows.shape[0]:
                failures.append(
                    {
                        "part": "class-stats",
                        "stream": s,
                        "class": c,
                        "mean_error": mean_err,
                        "cov_error": cov_err,
                        "count_streaming": int(counts[c]),
                        "count_oracle": rows.shape[0],
                        "n_batches": len(sizes),
                    }
                )

    g = rngs[_STREAMS].generator
    rows = g.standard_normal((_BANK_POINTS, _BANK_DIM))
    bank = FeatureBank(rows, _BANK_POINTS)
    queries = g.choice(_BANK_POINTS, _BANK_QUERIES, replace=False)
    knn_mismatches = 0
    # Oracle scan; the negative control plants the bug of skipping row
    # normalization in the scanned distances. A stable sort ranks by
    # (distance, index); each query's own row sorts last, at +inf.
    scan_rows = rows if negative_control else bank.normalized
    found = {k: knn(bank, queries, k) for k in _BANK_KS}
    distances = 1.0 - scan_rows[queries] @ scan_rows.T
    distances[np.arange(queries.size), queries] = np.inf
    ranked = np.argsort(distances, axis=1, kind="stable")
    for row, q in enumerate(queries.tolist()):
        for k in _BANK_KS:
            expected = ranked[row, :k].tolist()
            got = found[k][row].tolist()
            if got != expected:
                knn_mismatches += 1
                if knn_mismatches <= 10:
                    failures.append(
                        {"part": "knn", "query": q, "k": k, "got": got, "expected": expected}
                    )

    g = rngs[_STREAMS + 1].generator
    softmax_worst = 0.0
    for t in range(_SOFTMAX_TRIALS):
        width = int(g.integers(1, 13))
        scale = 10.0 ** g.uniform(-2.0, 2.0)
        v = g.standard_normal(width) * scale
        v = np.clip(v, v.max() - 200.0, None)  # keep exp() out of subnormals
        p, lse = _softmax_and_logsumexp(v, negative_control)
        if not (np.all(np.isfinite(p)) and np.isfinite(lse)):
            failures.append({"part": "log-softmax", "trial": t, "reason": "non-finite"})
            continue
        identity_err = float(np.abs(np.log(p) - (v - lse)).max())
        sum_err = float(abs(p.sum() - 1.0))
        softmax_worst = max(softmax_worst, identity_err, sum_err)
        if identity_err > 1e-12 or sum_err > 1e-12:
            failures.append(
                {
                    "part": "log-softmax",
                    "trial": t,
                    "identity_error": identity_err,
                    "sum_error": sum_err,
                    "logits": v.tolist(),
                }
            )
    for case, raw in enumerate(_EXTREME_LOGITS):
        v = np.asarray(raw)
        p, lse = _softmax_and_logsumexp(v, negative_control)
        finite = bool(np.all(np.isfinite(p)) and np.isfinite(lse))
        sum_ok = finite and abs(float(p.sum()) - 1.0) <= 1e-12
        if not (finite and sum_ok):
            failures.append({"part": "log-softmax-extreme", "case": case, "logits": list(raw)})

    details = {
        "seed": seed,
        "streams": _STREAMS,
        "samples_per_stream": _STREAM_SAMPLES,
        "negative_control": negative_control,
        "stats_max_error": stats_worst,
        "knn_mismatches": knn_mismatches,
        "softmax_max_error": softmax_worst,
    }
    worst = max(stats_worst, softmax_worst, float(knn_mismatches))
    trials = _STREAMS + len(queries) * len(_BANK_KS) + _SOFTMAX_TRIALS + len(_EXTREME_LOGITS)
    return _finish("oracles", trials, worst, failures, details)
