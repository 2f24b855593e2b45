"""Property-verification suites for the implemented mathematics.

Four suites: the feature-alignment upper bound against its Monte Carlo
oracle, the full-batch neighborhood-loss factorization identity, analytic
gradients against central finite differences, and the streaming-estimator
oracles (class statistics, neighbor search, the row kernels' log-softmax
identity).

Every suite is deterministic for a given seed and returns a VerifyReport.
`negative_control=True` plants a known-wrong variant of the checked
formula; a sensitive suite must then report failures.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .adapt import batch_objective
from .banks import FeatureBank, knn
from .data import dumps_17g
from .errors import InvalidInputError
from .losses import (
    efa_mc_estimate,
    fd_loss,
    ifa_loss,
    ifa_loss_batch,
    snc_loss,
    snc_loss_batch,
    softmax_vjp,
)
from .model import finite_diff_check, forward, grad_params, init_model
from .numerics import RngState, row_logsumexp, row_softmax
from .stats import ClassStatistics, batch_covariance_oracle, class_moments, update_class_stats


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
        return dumps_17g(self.to_dict())


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


def verify_ifa_bound(
    trials: int = 100,
    n_pairs: int = 200000,
    seed: int = 7,
    negative_control: bool = False,
    lambda_override: float | None = None,
) -> VerifyReport:
    """Closed-form alignment loss must upper-bound its Monte Carlo oracle.

    Per trial: random classifier, feature, trace-normalized PSD covariance,
    lambda in (0, 5]. Pass requires mc_mean <= bound + 3*stderr. The
    negative control hands `ifa_loss` the negated covariance, which flips
    the variance margin's sign: a planted bug the comparison must catch on
    some trials.
    `lambda_override` pins lambda instead of sampling it (used for the
    degenerate lambda=0 case).

    Trials run on a thread pool, one worker per available CPU (the Philox
    fills, GEMMs and ufuncs release the GIL). Each owns a stream split from
    the seed and the report is assembled in trial order, so it does not
    depend on the worker count; a failing trial raises the first error in
    trial order. Each streamed oracle holds about n_pairs * (C + 1) floats.
    """
    from concurrent.futures import ThreadPoolExecutor  # imports logging: keep it off the CLI's import

    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    if n_pairs < 10000:
        raise InvalidInputError("n_pairs must be >= 10000")
    if lambda_override is not None and lambda_override < 0.0:
        raise InvalidInputError("lambda_override must be >= 0")

    def trial(t: int, trial_rng: RngState) -> dict:
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

        # The negative control negates the covariance, which negates every
        # q[c,c'] exactly: the variance margin enters with the wrong sign, so
        # for material lambda the value drops below the Monte Carlo mean.
        # Weakening lambda instead (halving, even zeroing) can never fail:
        # each per-class ratio in the correct formula is at most the softmax
        # probability, which forces the value above 2*C*log(C) at any
        # lambda, while the oracle mean at lambda=0 is at most log(C).
        bound = ifa_loss(feature, -cov if negative_control else cov, weights, bias, lam)[0]
        mc_mean, mc_stderr = efa_mc_estimate(feature, cov, weights, bias, lam, n_pairs, mc_rng)
        slack = bound + 3.0 * mc_stderr - mc_mean
        return {
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

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(trials, cpus)) as pool:
        records = list(pool.map(trial, range(trials), RngState(seed).split(trials)))
    worst_slack = min(np.inf, *(record["slack"] for record in records))
    failures = [record for record in records if record["slack"] < 0.0]
    details = {
        "n_pairs": n_pairs,
        "seed": seed,
        "negative_control": negative_control,
        "lambda_override": lambda_override,
    }
    return _finish("ifa-bound", trials, worst_slack, failures, details)


# ------------------------------------------------- factorization identity


# Largest admitted gap between the summed losses and either closed form.
_SNC_TOLERANCE = 1e-8


def verify_snc_factorization(
    n_points: int = 30,
    k: int = 3,
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
    if n_points < 2 or k < 1 or k >= n_points:
        raise InvalidInputError("need 1 <= k < n_points and n_points >= 2")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")

    failures: list[dict] = []
    worst = 0.0
    n_classes = 4
    for t, trial_rng in enumerate(RngState(seed).split(trials)):
        g = trial_rng.generator
        points = g.standard_normal((n_points, 8))
        neighbors = knn(FeatureBank.from_rows(points, n_points), np.arange(n_points), k)
        adjacency = np.zeros((n_points, n_points))
        adjacency[np.arange(n_points)[:, None], neighbors] = 1.0

        probs = row_softmax(1.5 * g.standard_normal((n_points, n_classes)))
        loss_sum = float(snc_loss_batch(probs, probs[neighbors], probs, 1.0)[0].sum())

        gram = probs @ probs.T
        edge_form = -(2.0 / k) * float((adjacency * gram).sum()) + float((gram**2).sum())
        scaled = adjacency / k
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
        "n_points": n_points,
        "k": k,
        "seed": seed,
        "tolerance": _SNC_TOLERANCE,
        "negative_control": negative_control,
    }
    return _finish("snc-factorization", trials, worst, failures, details)


# ---------------------------------------------------------- gradients


def _scaled_gradients(closure, factor: float):
    def wrapped(m):
        value, grads = closure(m)
        grads.params *= factor
        return value, grads

    return wrapped


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


def verify_gradients(
    seed: int = 0,
    n_instances: int = 20,
    tolerance: float = 1e-4,
    step: float = 1e-4,
    negative_control: bool = False,
) -> VerifyReport:
    """Analytic gradients vs central finite differences.

    Two calibration controls run first: a constant loss (error must be 0)
    and a pure quadratic in the parameters (central differences are exact,
    error < 1e-9). Then each random instance checks the batch
    neighborhood and alignment kernels and the dispersal loss in isolation
    plus the weighted composite objective. A few wider instances then
    check the batch kernels against the per-sample reference losses
    (values and gradients, floored relative error < 1e-10). The negative
    control scales every analytic gradient by 1.01 and compares each batch
    row with the reference of the next sample.

    The step default balances truncation against the rounding noise that
    parameters with exactly-zero gradients (the dispersal loss is
    translation invariant, so feature-layer biases have none) leak into
    the floored relative error: noise grows like 1/step.
    """
    if n_instances < 1:
        raise InvalidInputError("n_instances must be >= 1")
    rngs = RngState(seed).split(n_instances + 2)
    failures: list[dict] = []
    worst = 0.0
    per_check_max = {"snc": 0.0, "ifa": 0.0, "fd": 0.0, "composite": 0.0, "batched": 0.0}

    cal_model = init_model(3, (4,), 3, 3, rngs[n_instances])

    def constant_closure(m):
        return 1.0, m.with_params(np.zeros_like(m.params))

    def quadratic_closure(m):
        # Summed array by array: the value's rounding, and so the reported
        # control error, depends on the summation order.
        arrays = [a for layer in m.layers for a in (layer.weights, layer.bias)]
        value = 0.5 * sum(float((arr * arr).sum()) for arr in arrays + [m.clf_weights, m.clf_bias])
        return value, m.with_params(m.params.copy())

    # Both calibration losses have zero truncation error under central
    # differences, so a wide step only shrinks the 1/step rounding noise.
    cal_step = max(step, 1e-2)
    constant_err = finite_diff_check(cal_model, constant_closure, cal_step)
    quadratic_err = finite_diff_check(cal_model, quadratic_closure, cal_step)
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

        def snc_closure(m):
            _, _, probs = forward(m, x)
            values, dprobs = snc_loss_batch(probs, neighbor_probs, bank_rows, decay)
            dlogits = softmax_vjp(probs, dprobs) / batch
            return float(values.sum()) / batch, grad_params(m, x, dlogits, np.zeros((batch, d_feat)))

        def ifa_closure(m):
            feats, _, _ = forward(m, x)
            values, dfeats, dw, db = ifa_loss_batch(feats, labels, covs, m.clf_weights, m.clf_bias, lam)
            grads = grad_params(m, x, np.zeros((batch, n_classes)), dfeats / batch)
            grads.clf_weights += dw / batch
            grads.clf_bias += db / batch
            return float(values.sum()) / batch, grads

        def fd_closure(m):
            feats, _, _ = forward(m, x)
            value, gfeat = fd_loss(feats, labels, affinity)
            return value, grad_params(m, x, np.zeros((batch, n_classes)), gfeat)

        def composite_closure(m):
            feats, _, probs = forward(m, x)
            breakdown, grads = batch_objective(
                m, x, feats, probs, neighbor_probs, bank_rows, labels, covs, affinity,
                decay, lam, alpha1, alpha2,
            )
            return breakdown.total, grads

        # Value-only forms for the perturbed points, where no gradient is read.
        def snc_value(m):
            values, _ = snc_loss_batch(forward(m, x)[2], neighbor_probs, bank_rows, decay)
            return float(values.sum()) / batch

        def ifa_value(m):
            values = ifa_loss_batch(forward(m, x)[0], labels, covs, m.clf_weights, m.clf_bias, lam)[0]
            return float(values.sum()) / batch

        def fd_value(m):
            return fd_loss(forward(m, x)[0], labels, affinity)[0]

        def composite_value(m):
            # batch_objective's total, summed in the same order.
            return snc_value(m) + alpha1 * ifa_value(m) + alpha2 * fd_value(m)

        for name, closure, value in (
            ("snc", snc_closure, snc_value),
            ("ifa", ifa_closure, ifa_value),
            ("fd", fd_closure, fd_value),
            ("composite", composite_closure, composite_value),
        ):
            tested = _scaled_gradients(closure, 1.01) if negative_control else closure
            err = finite_diff_check(model, tested, step, loss=value)
            per_check_max[name] = max(per_check_max[name], err)
            worst = max(worst, err)
            if err > tolerance:
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
        "tolerance": tolerance,
        "step": step,
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


def _stream_with_doubled_correction(feats, labels, sizes, n_classes, dim):
    # Planted bug for the negative control: the mean-gap correction term
    # of the pooled covariance update is doubled.
    means = np.zeros((n_classes, dim))
    covs = np.zeros((n_classes, dim, dim))
    counts = np.zeros(n_classes, dtype=np.int64)
    pos = 0
    for size in sizes:
        batch_counts, batch_means, batch_covs = class_moments(
            feats[pos : pos + size], labels[pos : pos + size], n_classes
        )
        pos += size
        for c in np.flatnonzero(batch_counts):
            m, mu_b, cov_b = int(batch_counts[c]), batch_means[c], batch_covs[c]
            n_a = int(counts[c])
            n = n_a + m
            delta = means[c] - mu_b
            covs[c] = (n_a * covs[c] + m * cov_b) / n + 2.0 * (n_a * m / n**2) * np.outer(delta, delta)
            means[c] = (n_a * means[c] + m * mu_b) / n
            counts[c] = n
    return means, covs, counts


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


def verify_oracles(
    seed: int = 0,
    streams: int = 10,
    samples_per_stream: int = 1000,
    n_classes: int = 10,
    dim: int = 8,
    bank_points: int = 500,
    bank_dim: int = 16,
    n_queries: int = 50,
    ks: tuple[int, ...] = (1, 5, 10),
    softmax_trials: int = 200,
    negative_control: bool = False,
) -> VerifyReport:
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
    if streams < 1 or samples_per_stream < 1:
        raise InvalidInputError("need at least one stream and one sample")
    rngs = RngState(seed).split(streams + 2)
    failures: list[dict] = []
    stats_worst = 0.0

    for s in range(streams):
        g = rngs[s].generator
        scale = 0.5 + 2.0 * g.random()
        shift = 3.0 * g.standard_normal(dim)
        feats = g.standard_normal((samples_per_stream, dim)) * scale + shift
        labels = g.integers(0, n_classes, samples_per_stream).astype(np.int64)
        sizes = _partition_sizes(samples_per_stream, g)

        if negative_control:
            means, covs, counts = _stream_with_doubled_correction(
                feats, labels, sizes, n_classes, dim
            )
        else:
            stats = ClassStatistics.empty(n_classes, dim)
            pos = 0
            for size in sizes:
                stats = update_class_stats(stats, feats[pos : pos + size], labels[pos : pos + size])
                pos += size
            means, covs, counts = stats.means, stats.covs, stats.counts

        for c in range(n_classes):
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

    g = rngs[streams].generator
    rows = g.standard_normal((bank_points, bank_dim))
    bank = FeatureBank.from_rows(rows, bank_points)
    queries = g.choice(bank_points, n_queries, replace=False)
    knn_mismatches = 0
    # Oracle scan; the negative control plants the bug of skipping row
    # normalization in the scanned distances.
    scan_rows = rows if negative_control else bank.normalized
    found = {k: knn(bank, queries, k) for k in ks}
    for row, q in enumerate(queries):
        q = int(q)
        ranked = sorted(
            (float(1.0 - np.dot(scan_rows[i], scan_rows[q])), i)
            for i in range(bank_points)
            if i != q
        )
        for k in ks:
            expected = [idx for _, idx in ranked[:k]]
            got = found[k][row].tolist()
            if got != expected:
                knn_mismatches += 1
                if knn_mismatches <= 10:
                    failures.append(
                        {"part": "knn", "query": q, "k": k, "got": got, "expected": expected}
                    )

    g = rngs[streams + 1].generator
    softmax_worst = 0.0
    for t in range(softmax_trials):
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
        "streams": streams,
        "samples_per_stream": samples_per_stream,
        "negative_control": negative_control,
        "stats_max_error": stats_worst,
        "knn_mismatches": knn_mismatches,
        "softmax_max_error": softmax_worst,
    }
    worst = max(stats_worst, softmax_worst, float(knn_mismatches))
    trials = streams + len(queries) * len(ks) + softmax_trials + len(_EXTREME_LOGITS)
    return _finish("oracles", trials, worst, failures, details)
