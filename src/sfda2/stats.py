"""Per-class batch moments, their streaming merge, and a two-pass oracle.

`class_moments` gives a batch's per-class counts, means and population
covariances, computed once per batch for `losses.fd_loss` and for
`update_class_stats` (`adapt` calls the unchecked core `_class_moments` on
rows its bank write checked). `update_class_stats` merges them into the
running ones:

    n_new = n + m
    mu_new = (n*mu + m*mu') / n_new
    cov_new = (n*cov + m*cov') / n_new + n*m*(mu - mu')(mu - mu')^T / n_new^2

followed by the exact symmetrization (cov + cov^T) / 2, since the products
need not give a symmetric result. The merge is a convex combination of PSD
matrices plus a PSD outer product, so the running covariances are PSD up to
rounding and nothing clamps them (as in ISDA's online estimate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass
class ClassStatistics:
    means: np.ndarray  # (C, d)
    covs: np.ndarray  # (C, d, d) symmetric; PSD up to rounding
    counts: np.ndarray  # (C,) int64

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @classmethod
    def empty(cls, n_classes: int, dim: int) -> "ClassStatistics":
        if n_classes < 1 or dim < 1:
            raise InvalidInputError("class count and dimension must be >= 1")
        return cls(
            means=np.zeros((n_classes, dim)),
            covs=np.zeros((n_classes, dim, dim)),
            counts=np.zeros(n_classes, dtype=np.int64),
        )


def batch_covariance_oracle(features) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass mean and population covariance of the rows: the reference of
    the `oracles` verify suite, kept off the training path."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InvalidInputError("need at least one feature row")
    mean = arr.mean(axis=0)
    centered = arr - mean
    cov = centered.T @ centered / arr.shape[0]
    return mean, cov


def _checked_batch(features, labels, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Float rows and int64 labels, checked to be finite 2-D rows with one
    label each in [0, n_classes): a batch `class_moments` and `fd_loss` take."""
    arr = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if arr.ndim != 2 or labels.shape[0] != arr.shape[0]:
        raise InvalidInputError("features must be 2-D rows with one label each")
    if not np.isfinite(arr).all():
        raise InvalidInputError("features contain non-finite entries")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise InvalidInputError("pseudo-label out of range")
    return arr, labels


def class_moments(features, labels, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class counts (C,), means (C, d) and population covariances
    (C, d, d) of a batch's rows; an empty class gets count 0 and exact zeros.

    Each populated class is first shifted by one of its own rows (the
    shifted-data algorithm of Chan, Golub & LeVeque), then its rows are
    centred by their shifted mean: one-hot row sums divided by max(count,
    1). Coincident rows thus shift to exact zeros and get an exactly zero
    covariance, whatever their values; rows that only nearly coincide get
    a tiny but nonzero one. The covariances average the outer products of
    the centred rows, not E[xx^T] - mu mu^T, which cancels.
    """
    return _class_moments(*_checked_batch(features, labels, n_classes), n_classes)


def _class_moments(arr, labels, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`class_moments` without its checks, on float64 (B, d) rows and int64
    labels in [0, n_classes)."""
    b, d = arr.shape
    counts = np.bincount(labels, minlength=n_classes)
    onehot = (labels == np.arange(n_classes)[:, None]).astype(np.float64)
    per_class = np.maximum(counts, 1)[:, None]
    pivots = np.zeros((n_classes, d))
    present, first = np.unique(labels, return_index=True)
    pivots[present] = arr[first]
    shifted = arr - pivots[labels]
    offsets = onehot @ shifted / per_class
    centered = shifted - offsets[labels]
    outer = (centered[:, :, None] * centered[:, None, :]).reshape(b, d * d)
    covs = (onehot @ outer / per_class).reshape(n_classes, d, d)
    return counts, pivots + offsets, covs


def _checked_moments(moments, n_classes: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`moments`, checked to be a `class_moments` triple of C = n_classes and width dim."""
    counts, means, covs = map(np.asarray, moments)
    if counts.shape != (n_classes,) or means.shape != (n_classes, dim) or covs.shape != (n_classes, dim, dim):
        raise InvalidInputError("moments disagree with the class count or feature width")
    if counts.dtype.kind not in "iu" or counts.min(initial=0) < 0:
        raise InvalidInputError("moment counts must be integers >= 0")
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise InvalidInputError("moments contain non-finite entries")
    return counts, means, covs


def update_class_stats(stats: ClassStatistics, moments) -> ClassStatistics:
    """Merge a batch's `class_moments` into the running statistics (a new value)."""
    batch_counts, batch_means, batch_covs = _checked_moments(moments, stats.n_classes, stats.dim)

    means = stats.means.copy()
    covs = stats.covs.copy()
    updated = np.flatnonzero(batch_counts)
    n = stats.counts[updated][:, None, None]
    m = batch_counts[updated][:, None, None]
    total = n + m
    delta = (means[updated] - batch_means[updated])[:, :, None]
    outer = delta * delta.transpose(0, 2, 1)
    cov_new = (n * covs[updated] + m * batch_covs[updated]) / total + (n * m) * outer / total**2
    covs[updated] = (cov_new + cov_new.transpose(0, 2, 1)) / 2.0
    means[updated] = (n[:, 0] * means[updated] + m[:, 0] * batch_means[updated]) / total[:, 0]
    return ClassStatistics(means=means, covs=covs, counts=stats.counts + batch_counts)
