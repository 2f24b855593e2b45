"""Objective components for adaptation: the neighborhood-consistency loss
with its decay schedule, the closed-form augmentation alignment bound with
its Monte Carlo oracle, the between-class dispersal penalty with affinity
weights, and the schedule helpers.

A whole batch is evaluated by `snc_loss_batch` and `ifa_loss_batch`; the
per-sample `snc_loss` and `ifa_loss` are their reference forms. Each batch
kernel checks its arguments and calls an unchecked core, `_snc_loss_batch`
or `_ifa_loss_batch`, which the adaptation loop calls directly on the
arrays it built and checked. `fd_loss` is one class-matrix kernel on the
caller's `stats.class_moments`: the covariances, flattened and stacked,
give every pair's trace in one Gram matrix, whose diagonal holds the
squared norms; it checks its arguments and calls the core `_fd_loss`.
Every loss returns its value together with exact analytic gradients with
respect to its live inputs. Rows fetched from memory banks and the running
class covariances are constants by contract; only the quantities produced
by the current forward pass carry gradient. Each core is a value stage
(`_snc_values`, `_ifa_values`, `_fd_value`), which returns the values and
the intermediates the gradient reuses, and a gradient tail that calls it,
so each value has one formula; value-only callers, such as the perturbed
points of `verify`'s finite differences, call the value stages alone.
The Monte Carlo oracle `efa_mc_estimate` draws only the C - 1 logits that
softmax can see, relative to the last one, and forms each pair loss from
their exponentials without normalising them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .numerics import RngState, _gaussian_lift, check_distribution_rows, check_symmetric, row_logsumexp, row_softmax
from .stats import _checked_batch, _checked_moments, class_moments

# Points per chunk of `efa_mc_estimate`: one pair each, so a replicate's GEMM
# writes 2(C - 1) free-logit rows of _MC_ROWS, and a chunk stays in L2.
_MC_ROWS = 6144
# Randomly shifted copies of the point set in `efa_mc_estimate`: its stderr
# has _MC_REPLICATES - 1 degrees of freedom.
_MC_REPLICATES = 16


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
    if max_iter < 1 or not 0 <= iteration <= max_iter:
        raise InvalidInputError("need max_iter >= 1 and iteration in [0, max_iter]")
    if not 0.0 <= beta < np.inf:  # negated, so NaN fails too
        raise InvalidInputError(f"beta must be finite and >= 0, got {beta!r}")
    return float((1.0 + 10.0 * iteration / max_iter) ** (-beta))


def lambda_schedule(iteration: int, max_iter: int, lambda0: float) -> float:
    """Linear ramp from 0 to lambda0 across training."""
    if max_iter < 1 or not 0 <= iteration <= max_iter:
        raise InvalidInputError("need max_iter >= 1 and iteration in [0, max_iter]")
    if not 0.0 <= lambda0 < np.inf:  # negated, so NaN fails too
        raise InvalidInputError(f"lambda0 must be finite and >= 0, got {lambda0!r}")
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
    return _snc_loss_batch(p, neighbors, bank, decay)


def _snc_values(p, neighbors, bank, decay: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_snc_loss_batch`'s values, with the neighbor sums, self-dots and
    dots (self-dots on the diagonal) its gradient reuses."""
    neighbor_sum = neighbors.sum(axis=1)
    self_dots = (p * p).sum(axis=1)
    dots = p @ bank.T
    np.fill_diagonal(dots, self_dots)
    values = -(2.0 / neighbors.shape[1]) * (neighbor_sum * p).sum(axis=1) + decay * (dots**2).sum(axis=1)
    return values, neighbor_sum, self_dots, dots


def _snc_loss_batch(p, neighbors, bank, decay: float) -> tuple[np.ndarray, np.ndarray]:
    """`snc_loss_batch` without its checks, on float64 arrays it accepts."""
    values, neighbor_sum, self_dots, dots = _snc_values(p, neighbors, bank, decay)
    np.fill_diagonal(dots, 0.0)
    grad_quad = 2.0 * dots @ bank + 4.0 * self_dots[:, None] * p
    grads = -(2.0 / neighbors.shape[1]) * neighbor_sum + decay * grad_quad
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
    return _ifa_loss_batch(z, labels, sigma, weights, bias, lam)


def _ifa_values(z, labels, sigma, weights, bias, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """`_ifa_loss_batch`'s values and the (B * C, C) shifted logits whose
    softmax its gradient takes."""
    b, c = z.shape[0], weights.shape[0]
    logits = z @ weights.T + bias
    grams = weights @ sigma @ weights.T  # (classes, C, C)
    diag = np.diagonal(grams, axis1=1, axis2=2)
    quad = diag[:, None, :] - 2.0 * grams + diag[:, :, None]
    shifted = (logits[:, None, :] + 0.5 * lam * quad[labels]).reshape(b * c, c)
    values = -2.0 * (logits.sum(axis=1) - row_logsumexp(shifted).reshape(b, c).sum(axis=1))
    return values, shifted


def _ifa_loss_batch(
    z, labels, sigma, weights, bias, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`ifa_loss_batch` without its checks: float64 arrays it accepts, int64
    labels and exactly symmetric covariances."""
    values, shifted = _ifa_values(z, labels, sigma, weights, bias, lam)
    b, c = z.shape[0], weights.shape[0]
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


def _primes(count: int) -> list[int]:
    """The first `count` primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton(first: int, points: np.ndarray, scratch: np.ndarray) -> None:
    """Write the Halton points of indices first + 1, ..., first + n into the
    (dims, n) `points`, coordinate j the radical inverse in the (j + 1)-th
    prime base, using a (3, >= n) float `scratch` and allocating nothing.
    The digits are exact: for an integer rest < 2^52 and base b,
    floor((rest + 0.5) / b) is the integer quotient."""
    n = points.shape[1]
    rest, quotient, digit = scratch[:, :n]
    for row, base in zip(points, _primes(points.shape[0])):
        rest.fill(1.0)
        np.cumsum(rest, out=rest)
        rest += first
        row.fill(0.0)
        scale = 1.0
        while rest[-1] >= 1.0:  # the largest index has digits left
            scale /= base
            np.add(rest, 0.5, out=quotient)
            quotient /= base
            np.floor(quotient, out=quotient)
            np.multiply(quotient, -base, out=digit)
            digit += rest
            digit *= scale
            row += digit
            rest, quotient = quotient, rest


def efa_mc_estimate(
    feature,
    cov,
    clf_weights,
    clf_bias,
    lam: float,
    n_pairs: int,
    rng: RngState,
) -> tuple[float, float]:
    """Randomized quasi-Monte Carlo estimate of the expected augmented-pair
    loss -log(softmax(W z + b) . softmax(W z' + b)), z and z' independent
    draws from N(feature, lam*cov).

    R = _MC_REPLICATES randomly shifted copies of one point set of
    n = n_pairs // R points give R * n pair evaluations. Returns (mean,
    standard error): the mean of the R replicate means and their sample
    stdev / sqrt(R), which has R - 1 degrees of freedom.

    The logits W z + b are N(W f + b, M M^T) with M = W lift, lift the
    (d, k) factor of lam*cov's k active coordinates (factored once), so
    they are drawn directly. softmax(l + t 1) = softmax(l), so only the
    C - 1 free logits a = l[:-1] - l[-1] are drawn, about m = c[:-1] - c[-1]
    for the centre c = W f + b with factor F = M[:-1] - M[-1]; the last
    logit is exactly 0. For k > C - 1, F becomes R^T of F^T = QR (same Gram
    matrix), so a logit vector costs r = min(C - 1, k) normals and a pair 2r.

    The points are the Halton points 1, ..., n in 2r dimensions, bases the
    first 2r primes. Each replicate adds its own shift ~ U[0, 1)^2r mod 1
    (Cranley-Patterson), so it is unbiased and the replicates are
    independent; the R shifts come from `rng`, so repeated calls on one
    state differ and equal states give equal estimates. Box-Muller maps a
    point's coordinates (2j, 2j + 1), a radius and an angle, to the pair's
    normals (z_j, z'_j). A chunk of up to _MC_ROWS points takes its
    (2r, rows) Halton block and the cos and sin of its angles once. A shift
    only rotates an angle, by phi say, so a replicate shifts the radii rho
    mod 1, fills the (2r + 1, rows) basis [rho cos; rho sin; 1] and takes
    both draws' free logits a and b in one GEMM by its (2(C - 1), 2r + 1)
    block [[F cos phi, -F sin phi, m], [F sin phi, F cos phi, m]], built
    once per call.

    With S = 1 + sum e^a, S' = 1 + sum e^b and X = 1 + sum e^(a + b), the
    pair loss is log(S S' / X); all three are >= 1, so nothing underflows.
    A pair whose loss is non-finite (an exponential or S S' overflowed) is
    recomputed in log space, lse(a) + lse(b) - lse(a + b) with the 0 logit
    appended. The buffers are allocated once per call and only R sums
    persist, so memory does not grow with n_pairs.
    """
    if n_pairs < _MC_REPLICATES:
        raise InvalidInputError(f"n_pairs must be >= {_MC_REPLICATES}")
    if not np.isfinite(lam) or lam < 0.0:
        raise InvalidInputError("lambda must be finite and >= 0")
    weights = np.asarray(clf_weights, dtype=np.float64)
    bias = np.asarray(clf_bias, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != np.size(feature) or bias.shape != weights.shape[:1] or not bias.size:
        raise InvalidInputError("classifier must be (C, d) weights and a (C,) bias, d the feature size, C >= 1")
    mean, lift, _ = _gaussian_lift(feature, lam * check_symmetric(cov, "cov"))
    factor = weights @ lift
    free = factor[:-1] - factor[-1]
    if free.shape[1] > free.shape[0]:
        free = np.linalg.qr(free.T, mode="r").T
    centre = weights @ mean + bias
    if not (np.isfinite(free).all() and np.isfinite(centre).all()):
        raise NumericalError("Monte Carlo logits are non-finite")
    n_free, active = free.shape
    dims = 2 * active
    n_points = n_pairs // _MC_REPLICATES
    # Row 2j of a shift or a point block is noise row j's radius coordinate,
    # row 2j + 1 its angle coordinate.
    shifts = rng.generator.random((_MC_REPLICATES, dims, 1))
    leads = 1.0 - shifts[:, 0::2]
    turns = 2.0 * np.pi * shifts[:, 1::2, 0]
    rotated_cos, rotated_sin = free * np.cos(turns)[:, None], free * np.sin(turns)[:, None]
    offset = np.broadcast_to((centre[:-1] - centre[-1])[:, None], (_MC_REPLICATES, n_free, 1))
    blocks = np.block([[rotated_cos, -rotated_sin, offset], [rotated_sin, rotated_cos, offset]])
    point_buffer = np.empty(dims * _MC_ROWS)
    trig_buffer = np.empty((3, active * _MC_ROWS))
    basis_buffer = np.empty((dims + 1) * _MC_ROWS)
    logit_buffer = np.empty(2 * n_free * _MC_ROWS)
    scratch = np.empty((3, _MC_ROWS))
    sums = np.zeros(_MC_REPLICATES)
    # Overflow is caught by the finiteness test on each replicate's sum.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in range(0, n_points, _MC_ROWS):
            rows = min(_MC_ROWS, n_points - s)
            points = point_buffer[: dims * rows].reshape(dims, rows)
            _halton(s, points, scratch)
            radial, sine = points[0::2], points[1::2]
            cosine, radius, wrap = trig_buffer[:, : active * rows].reshape(3, active, rows)
            sine *= 2.0 * np.pi
            np.cos(sine, out=cosine)
            np.sin(sine, out=sine)
            basis = basis_buffer[: (dims + 1) * rows].reshape(dims + 1, rows)
            basis[-1] = 1.0
            logits = logit_buffer[: 2 * n_free * rows].reshape(2 * n_free, rows)
            first, second = logits[:n_free], logits[n_free:]
            norm, norm_second, cross = scratch[:, :rows]
            for replicate, (block, lead) in enumerate(zip(blocks, leads)):
                # t = lead - radial, plus 1 where t <= 0 (the shift mod 1), so
                # t is in (0, 1] and its log is finite. With u = -t in [-1, 1),
                # t = (floor(u) + 1) - u; floor writes the wrap as a float, so
                # adding it casts nothing.
                np.subtract(radial, lead, out=radius)
                np.floor(radius, out=wrap)
                wrap += 1.0
                np.subtract(wrap, radius, out=radius)
                np.log(radius, out=radius)
                radius *= -2.0
                np.sqrt(radius, out=radius)
                np.multiply(cosine, radius, out=basis[:active])
                np.multiply(sine, radius, out=basis[active:dims])
                np.matmul(block, basis, out=logits)
                np.exp(logits, out=logits)
                np.add.reduce(first, axis=0, initial=1.0, out=norm)
                np.add.reduce(second, axis=0, initial=1.0, out=norm_second)
                np.multiply(first, second, out=first)
                np.add.reduce(first, axis=0, initial=1.0, out=cross)
                norm *= norm_second
                norm /= cross
                np.log(norm, out=norm)
                total = norm.sum()
                if not np.isfinite(total):  # an exponential or S S' overflowed: redo those pairs in log space
                    bad = np.flatnonzero(~np.isfinite(norm))
                    a, b = (np.pad(half.T, ((0, 0), (0, 1))) for half in np.split(block @ basis[:, bad], 2))
                    norm[bad] = row_logsumexp(a) + row_logsumexp(b) - row_logsumexp(a + b)
                    total = norm.sum()
                    if not np.isfinite(total):
                        raise NumericalError("Monte Carlo logits are non-finite")
                sums[replicate] += total
    means = sums / n_points
    estimate = means.mean()
    spread = means - estimate
    return float(estimate), float(np.sqrt(spread @ spread / (_MC_REPLICATES - 1) / _MC_REPLICATES))


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
    moments,
    affinity: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Between-class dispersal penalty on per-batch class covariances.

    For every ordered pair (i, j), i != j, of classes with >= 2 batch
    members and nonzero covariance Frobenius norms:

        value += -(1/2) * a_ij * (1 - tr(cov_i cov_j) / (|cov_i| |cov_j|))

    `moments` is `stats.class_moments(batch_features, batch_pseudo_labels,
    C)`, whose population covariances carry gradient back into
    batch_features; a_ij are the entries of the (C, C) `affinity` matrix.
    Returns (value, grad); both are zero for a batch with fewer than two
    classes of >= 2 members.

    The moments' counts must match the labels, and they decide the early
    return; a class of fewer than 2 members has an exactly zero covariance.
    F stacks the flattened covariances as rows and T = F F^T holds every
    tr(cov_i cov_j), so with n = sqrt(diag T) and W the affinities of the
    contributing pairs, value = -(1/2) sum W (1 - T / n n^T) and, with
    G = (W + W^T) / (2 n n^T), the covariance gradient is
    G F - (rowsum(G T) / n^2) F.
    """
    aff = np.asarray(affinity, dtype=np.float64)
    if aff.ndim != 2 or aff.shape[0] != aff.shape[1]:
        raise InvalidInputError("affinity must be a square (C, C) matrix")
    feats, labels = _checked_batch(batch_features, batch_pseudo_labels, aff.shape[0])
    counts, means, covs = _checked_moments(moments, aff.shape[0], feats.shape[1])
    if np.bincount(labels, minlength=aff.shape[0]).tolist() != counts.tolist():
        raise InvalidInputError("moment counts disagree with the pseudo-labels")
    return _fd_loss(feats, labels, counts, means, covs, aff)


def _fd_live(counts) -> bool:
    """Whether FD can be nonzero: at least two classes have >= 2 members."""
    return np.count_nonzero(counts >= 2) >= 2


def _fd_value(covs, aff) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`fd_loss`'s value from the (C, d, d) covariances alone, with the
    flattened covariances F, T = F F^T, the pair weights W, the stand-in
    norms and their outer product that its gradient reuses. It is +0.0
    where `_fd_live` is false: every covariance but one is zero, so no pair
    contributes."""
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
    return value, flat, trace, weight, safe, denom


def _fd_loss(feats, labels, counts, means, covs, aff) -> tuple[float, np.ndarray]:
    """`fd_loss` without its checks, on moments that match the labels."""
    if not _fd_live(counts):
        return 0.0, np.zeros_like(feats)
    value, flat, trace, weight, safe, denom = _fd_value(covs, aff)
    # Pair (i, j) feeds both covariances, so the gradient sees W + W^T.
    sym = 0.5 * (weight + weight.T) / denom
    dflat = sym @ flat - ((sym * trace).sum(axis=1) / safe**2)[:, None] * flat
    scaled = (2.0 / counts[labels])[:, None] * (feats - means[labels])
    return value, np.einsum("bi,bij->bj", scaled, dflat.reshape(covs.shape)[labels])
