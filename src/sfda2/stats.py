"""Per-class batch moments, their streaming merge, and a two-pass oracle.

`class_moments` gives a batch's per-class counts, means and population
covariances; the pooled update merges them into the running ones:

    n_new = n + m
    mu_new = (n*mu + m*mu') / n_new
    cov_new = (n*cov + m*cov') / n_new + n*m*(mu - mu')(mu - mu')^T / n_new^2

followed by symmetrization. One stacked `eigvalsh` call checks the updated
classes, and `psd_repair` clamps only those with a negative eigenvalue, so
the update stays bit-faithful to the pooled arithmetic on ordinary data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import psd_repair


@dataclass
class ClassStatistics:
    means: np.ndarray  # (C, d)
    covs: np.ndarray  # (C, d, d) symmetric, PSD-repaired
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


def class_moments(features, labels, n_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class counts (C,), means (C, d) and population covariances
    (C, d, d) of a batch's rows; an empty class gets count 0 and exact zeros.

    The means are one-hot row sums divided by max(count, 1), summing first
    so that coincident dyadic rows get an exactly zero covariance. The
    covariances average the outer products of rows centred by their own
    class mean, not E[xx^T] - mu mu^T, which cancels.
    """
    arr = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if arr.ndim != 2 or labels.shape[0] != arr.shape[0]:
        raise InvalidInputError("features must be 2-D rows with one label each")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("features contain non-finite entries")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise InvalidInputError("pseudo-label out of range")
    b, d = arr.shape
    counts = np.bincount(labels, minlength=n_classes)
    onehot = (labels == np.arange(n_classes)[:, None]).astype(np.float64)
    per_class = np.maximum(counts, 1)[:, None]
    means = onehot @ arr / per_class
    centered = arr - means[labels]
    outer = (centered[:, :, None] * centered[:, None, :]).reshape(b, d * d)
    covs = (onehot @ outer / per_class).reshape(n_classes, d, d)
    return counts, means, covs


def update_class_stats(stats: ClassStatistics, features, pseudo_labels) -> ClassStatistics:
    """Merge one batch into the running statistics (returns a new value)."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != stats.dim:
        raise InvalidInputError("feature width does not match statistics dimension")
    batch_counts, batch_means, batch_covs = class_moments(arr, pseudo_labels, stats.n_classes)

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
    negative = np.linalg.eigvalsh(covs[updated]).min(axis=1) < 0.0
    for c in updated[negative]:
        covs[c] = psd_repair(covs[c])
    return ClassStatistics(means=means, covs=covs, counts=stats.counts + batch_counts)
