"""Objective components for adaptation: the neighborhood-consistency loss
with its decay schedule, the closed-form augmentation alignment bound with
its Monte Carlo oracle, the between-class dispersal penalty with affinity
weights, and the schedule helpers.

The adaptation loop evaluates a whole batch with `snc_loss_batch` and
`ifa_loss_batch`; the per-sample `snc_loss` and `ifa_loss` are their
reference forms. `fd_loss` is one class-matrix kernel: the batch's class
covariances from `stats.class_moments`, flattened and stacked, give every
pair's trace in one Gram matrix, whose diagonal holds the squared norms.
Every loss returns its value together with exact analytic gradients with
respect to its live inputs. Rows fetched from memory banks and the running
class covariances are constants by contract; only the quantities produced
by the current forward pass carry gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import RngState, _gaussian_plan, check_distribution_rows, check_symmetric, row_logsumexp, row_softmax
from .stats import class_moments

# Draws per chunk of `efa_mc_estimate`'s stream: a chunk stays in L2, and at
# verify's sizes (C <= 5, d <= 8) its logits GEMM stays under OpenBLAS's
# threading threshold, so concurrent trials do not oversubscribe the BLAS.
_MC_ROWS = 6144


@dataclass
class LossBreakdown:
    snc: float
    ifa: float
    fd: float
    total: float
    decay: float
    lam: float


def decay_factor(iteration: int, max_iter: int, beta: float) -> float:
    """(1 + 10*iteration/max_iter)^(-beta); 1 at the start of training."""
    if max_iter < 1:
        raise InvalidInputError("max_iter must be >= 1")
    if not 0 <= iteration <= max_iter:
        raise InvalidInputError("iteration must lie in [0, max_iter]")
    if beta < 0:
        raise InvalidInputError("beta must be >= 0")
    return float((1.0 + 10.0 * iteration / max_iter) ** (-beta))


def lambda_schedule(iteration: int, max_iter: int, lambda0: float) -> float:
    """Linear ramp from 0 to lambda0 across training."""
    if max_iter < 1:
        raise InvalidInputError("max_iter must be >= 1")
    if not 0 <= iteration <= max_iter:
        raise InvalidInputError("iteration must lie in [0, max_iter]")
    return float(lambda0 * iteration / max_iter)


def softmax_vjp(probs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits; rows of a
    2-D batch are independent."""
    inner = (upstream * probs).sum(axis=-1, keepdims=True)
    return probs * (upstream - inner)


def snc_loss(
    probs_i,
    neighbor_probs,
    batch_probs,
    self_index: int,
    decay: float,
) -> tuple[float, np.ndarray]:
    """Neighborhood-consistency loss for one sample.

    value = -(2/K) * sum_j probs_i . neighbor_j
            + decay * sum_k (probs_i . batch_k)^2

    The batch sum includes the self pair, whose both factors are the live
    probs_i; all other neighbor/batch rows are bank constants. The returned
    gradient is the exact partial w.r.t. probs_i under that convention.
    """
    p = check_distribution_rows(probs_i, "probs_i")[0]
    neighbors = check_distribution_rows(neighbor_probs, "neighbor_probs")
    batch = check_distribution_rows(batch_probs, "batch_probs")
    if neighbors.shape[1] != p.size or batch.shape[1] != p.size:
        raise InvalidInputError("class-count mismatch between probability rows")
    if not 0 <= self_index < batch.shape[0]:
        raise InvalidInputError("self_index out of range")
    if not np.isfinite(decay) or decay < 0.0:
        raise InvalidInputError("decay must be finite and >= 0")

    k = neighbors.shape[0]
    dots = batch @ p
    self_dot = float(p @ p)
    dots[self_index] = self_dot

    first = -(2.0 / k) * float((neighbors @ p).sum())
    second = decay * float((dots**2).sum())
    value = first + second

    quad = 2.0 * dots[:, None] * batch
    grad_quad = quad.sum(axis=0) - quad[self_index] + 4.0 * self_dot * p
    grad = -(2.0 / k) * neighbors.sum(axis=0) + decay * grad_quad
    return value, grad


def snc_loss_batch(
    probs,
    neighbor_probs,
    bank_probs,
    decay: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of `snc_loss`: row i equals
    snc_loss(probs[i], neighbor_probs[i], bank_probs, i, decay).

    With D = P B^T over the (B, C) live rows P and stored bank rows B, and
    D's diagonal replaced by the self-dots p_i . p_i:

        value_i = -(2/K) * sum_j p_i . neighbor_ij + decay * sum_k D_ik^2

    `neighbor_probs` is (B, K, C). Returns (values (B,), grads (B, C))
    w.r.t. the live rows.
    """
    p = check_distribution_rows(probs, "probs")
    bank = check_distribution_rows(bank_probs, "bank_probs")
    neighbors = np.asarray(neighbor_probs, dtype=np.float64)
    if neighbors.ndim != 3 or neighbors.shape[0] != p.shape[0] or neighbors.shape[1] == 0:
        raise InvalidInputError("neighbor_probs must be (B, K, C) with K >= 1")
    check_distribution_rows(neighbors.reshape(-1, neighbors.shape[2]), "neighbor_probs")
    if neighbors.shape[2] != p.shape[1] or bank.shape != p.shape:
        raise InvalidInputError("batch, bank and neighbor rows disagree in shape")
    if not np.isfinite(decay) or decay < 0.0:
        raise InvalidInputError("decay must be finite and >= 0")

    k = neighbors.shape[1]
    neighbor_sum = neighbors.sum(axis=1)
    self_dots = (p * p).sum(axis=1)
    dots = p @ bank.T
    np.fill_diagonal(dots, self_dots)
    values = -(2.0 / k) * (neighbor_sum * p).sum(axis=1) + decay * (dots**2).sum(axis=1)

    np.fill_diagonal(dots, 0.0)
    grad_quad = 2.0 * dots @ bank + 4.0 * self_dots[:, None] * p
    grads = -(2.0 / k) * neighbor_sum + decay * grad_quad
    return values, grads


def ifa_loss(
    feature,
    cov,
    clf_weights,
    clf_bias,
    lam: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form upper bound on the expected augmented-pair loss.

    With logits = W z + b and q[c,c'] = (w_c' - w_c)^T cov (w_c' - w_c):

        value = -2 * sum_c [ logit_c - logsumexp_c'( logit_c' + (lam/2) q[c,c'] ) ]

    Returns (value, d_feature, d_clf_weights, d_clf_bias), treating cov as a
    constant. All log-sum-exps are max-shifted.
    """
    z = np.asarray(feature, dtype=np.float64)
    weights = np.asarray(clf_weights, dtype=np.float64)
    bias = np.asarray(clf_bias, dtype=np.float64)
    if z.ndim != 1 or weights.ndim != 2 or weights.shape[1] != z.size:
        raise InvalidInputError("feature/classifier shapes disagree")
    if bias.shape != (weights.shape[0],):
        raise InvalidInputError("classifier bias shape mismatch")
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidInputError("lambda must be finite and >= 0")
    sigma = check_symmetric(cov, "cov")
    if sigma.shape != (z.size, z.size):
        raise InvalidInputError("cov dimension does not match the feature")

    logits = weights @ z + bias
    gram = weights @ sigma @ weights.T
    diag = np.diagonal(gram)
    quad = diag[None, :] - 2.0 * gram + diag[:, None]  # quad[c, c']
    shifted = logits[None, :] + 0.5 * lam * quad
    value = -2.0 * float(logits.sum() - row_logsumexp(shifted).sum())

    resp = row_softmax(shifted)  # resp[c, c']
    d_logits = -2.0 * (1.0 - resp.sum(axis=0))
    d_bias = d_logits
    d_feature = weights.T @ d_logits
    d_weights = np.outer(d_logits, z)
    if lam > 0.0:
        t = lam * resp
        col = t.sum(axis=0)
        row = t.sum(axis=1)
        d_weights = d_weights + 2.0 * (((col + row)[:, None] * weights - (t + t.T) @ weights) @ sigma)
    return value, d_feature, d_weights, d_bias


def ifa_loss_batch(
    features,
    labels,
    covs,
    clf_weights,
    clf_bias,
    lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch form of `ifa_loss`: sample i uses the covariance
    covs[labels[i]].

    The per-class grams W cov_c W^T are built once, giving a (B, C, C)
    shifted-logit tensor. For the lambda term of d_weights the
    responsibilities are pooled per class, so each class covariance
    multiplies once. Returns (values (B,), d_features (B, d),
    d_clf_weights, d_clf_bias), the last two summed over the batch.
    """
    z = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    weights = np.asarray(clf_weights, dtype=np.float64)
    bias = np.asarray(clf_bias, dtype=np.float64)
    if z.ndim != 2 or weights.ndim != 2 or weights.shape[1] != z.shape[1]:
        raise InvalidInputError("feature/classifier shapes disagree")
    if bias.shape != (weights.shape[0],):
        raise InvalidInputError("classifier bias shape mismatch")
    if labels.shape != (z.shape[0],):
        raise InvalidInputError("labels must align with the feature rows")
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidInputError("lambda must be finite and >= 0")
    sigma = check_symmetric(covs, "covs")
    if sigma.ndim != 3 or sigma.shape[1] != z.shape[1]:
        raise InvalidInputError("covs must be one (d, d) matrix per class")
    if labels.size and (labels.min() < 0 or labels.max() >= sigma.shape[0]):
        raise InvalidInputError("label out of range for the covariances")

    b, c = z.shape[0], weights.shape[0]
    logits = z @ weights.T + bias
    grams = weights @ sigma @ weights.T  # (classes, C, C)
    diag = np.diagonal(grams, axis1=1, axis2=2)
    quad = diag[:, None, :] - 2.0 * grams + diag[:, :, None]
    shifted = (logits[:, None, :] + 0.5 * lam * quad[labels]).reshape(b * c, c)
    values = -2.0 * (logits.sum(axis=1) - row_logsumexp(shifted).reshape(b, c).sum(axis=1))

    resp = row_softmax(shifted).reshape(b, c, c)  # resp[i, c, c']
    d_logits = -2.0 * (1.0 - resp.sum(axis=1))
    d_features = d_logits @ weights
    d_weights = d_logits.T @ z
    d_bias = d_logits.sum(axis=0)
    if lam > 0.0:
        pooled = np.zeros((sigma.shape[0], c, c))
        np.add.at(pooled, labels, lam * resp)
        col = pooled.sum(axis=1)
        row = pooled.sum(axis=2)
        per_class = (col + row)[:, :, None] * weights - (pooled + pooled.transpose(0, 2, 1)) @ weights
        d_weights = d_weights + 2.0 * (per_class @ sigma).sum(axis=0)
    return values, d_features, d_weights, d_bias


def efa_mc_estimate(
    feature,
    cov,
    clf_weights,
    clf_bias,
    lam: float,
    n_pairs: int,
    rng: RngState,
) -> tuple[float, float]:
    """Monte Carlo estimate of the expected augmented-pair loss.

    Draws n_pairs independent pairs of features from N(feature, lam*cov)
    and averages -log(softmax(W z_j + b) . softmax(W z_k + b)). Returns
    (mean, standard error), stderr = sample stdev / sqrt(n_pairs).

    The covariance is factored once; the 2n draws come from `rng` in chunks
    of _MC_ROWS rows, draw j paired with draw n + j, so only the (n, C)
    first-half probabilities and one chunk are held at a time. Every step is
    row-wise, so the result equals one unchunked `sample_gaussian` pass bit
    for bit. Each chunk's logits are a class-major, C-contiguous (C, rows)
    array, so softmax and pair dots reduce over C long rows. For C <= 7 this
    adds in the same order as sample-major (2n, C) logits, bit for bit; for
    C >= 8 NumPy sums those rows pairwise and the two differ by up to about
    1e-15 absolute.
    """
    if n_pairs < 2:
        raise InvalidInputError("n_pairs must be >= 2")
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidInputError("lambda must be finite and >= 0")
    weights = np.asarray(clf_weights, dtype=np.float64)
    bias = np.asarray(clf_bias, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != np.size(feature) or bias.shape != weights.shape[:1]:
        raise InvalidInputError("classifier must be (C, d) weights and a (C,) bias, d the feature size")
    draw = _gaussian_plan(feature, lam * check_symmetric(cov, "cov"))

    def chunk_probs(start: int) -> np.ndarray:
        draws = draw(min(_MC_ROWS, n_pairs - start), rng)
        return row_softmax((weights @ draws.T + bias[:, None]).T)

    first = np.empty((weights.shape[0], n_pairs)).T  # class-major, like each chunk
    for s in range(0, n_pairs, _MC_ROWS):
        first[s : s + _MC_ROWS] = chunk_probs(s)
    values = np.empty(n_pairs)
    for s in range(0, n_pairs, _MC_ROWS):
        dots = (first[s : s + _MC_ROWS] * chunk_probs(s)).sum(axis=1)
        values[s : s + _MC_ROWS] = -np.log(dots)  # dots >= 1/C by Cauchy-Schwarz, so log is safe
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n_pairs))
    return mean, stderr


def affinity_weights(score_bank: np.ndarray, pseudo_labels) -> np.ndarray:
    """Epoch-start (C, C) class affinities a_ij = mean_pred_i . mean_pred_j
    from the score bank's (M, C) probability rows.

    mean_pred_c is the mean bank probability row over samples pseudo-labeled
    c (zero vector when the class is unpopulated), so unpopulated classes get
    zero rows/columns. The matrix is symmetric with entries in [0, 1]. The
    class means come from `stats.class_moments`.
    """
    _, class_means, _ = class_moments(score_bank, pseudo_labels, score_bank.shape[1])
    return class_means @ class_means.T


def fd_loss(
    batch_features,
    batch_pseudo_labels,
    affinity: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Between-class dispersal penalty on per-batch class covariances.

    For every ordered pair (i, j), i != j, of classes with >= 2 batch
    members and nonzero covariance Frobenius norms:

        value += -(1/2) * a_ij * (1 - tr(cov_i cov_j) / (|cov_i| |cov_j|))

    The covariances are population-normalized within the batch and carry
    gradient back into batch_features; a_ij are the entries of the (C, C)
    `affinity` matrix. Returns (value, grad); both are zero for a batch with
    fewer than two classes of >= 2 members.

    `stats.class_moments` gives the class moments; a class of fewer than 2
    members has an exactly zero covariance. F stacks the flattened
    covariances as rows and T = F F^T holds every tr(cov_i cov_j), so with n
    = sqrt(diag T) and W the affinities of the contributing pairs, value =
    -(1/2) sum W (1 - T / n n^T) and, with G = (W + W^T) / (2 n n^T), the
    covariance gradient is G F - (rowsum(G T) / n^2) F.
    """
    aff = np.asarray(affinity, dtype=np.float64)
    if aff.ndim != 2 or aff.shape[0] != aff.shape[1]:
        raise InvalidInputError("affinity must be a square (C, C) matrix")
    counts, means, covs = class_moments(batch_features, batch_pseudo_labels, aff.shape[0])
    feats = np.asarray(batch_features, dtype=np.float64)
    labels = np.asarray(batch_pseudo_labels, dtype=np.int64).ravel()
    if np.count_nonzero(counts >= 2) < 2:
        return 0.0, np.zeros_like(feats)

    flat = covs.reshape(aff.shape[0], -1)
    trace = flat @ flat.T
    norms = np.sqrt(np.diag(trace))
    live = norms > 0.0
    pairs = np.outer(live, live) & ~np.eye(aff.shape[0], dtype=bool)
    weight = np.where(pairs, aff, 0.0)
    # A zero-norm class has a zero covariance and no live pair, so a unit
    # stand-in norm keeps its row of every term at exactly zero.
    safe = np.where(live, norms, 1.0)
    denom = np.outer(safe, safe)
    # 0.0 - ...: a batch with no contributing pair returns +0.0, not -0.0.
    value = 0.0 - 0.5 * float((weight * (1.0 - trace / denom)).sum())
    # Pair (i, j) feeds both covariances, so the gradient sees W + W^T.
    sym = 0.5 * (weight + weight.T) / denom
    dflat = sym @ flat - ((sym * trace).sum(axis=1) / safe**2)[:, None] * flat
    scaled = (2.0 / counts[labels])[:, None] * (feats - means[labels])
    return value, np.einsum("bi,bij->bj", scaled, dflat.reshape(covs.shape)[labels])
