"""Streaming per-class mean/covariance estimation with a two-pass oracle.

The pooled update merges a batch's population statistics into the running
ones:

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
    """Two-pass mean and population covariance of the rows."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InvalidInputError("need at least one feature row")
    mean = arr.mean(axis=0)
    centered = arr - mean
    cov = centered.T @ centered / arr.shape[0]
    return mean, cov


def update_class_stats(stats: ClassStatistics, features, pseudo_labels) -> ClassStatistics:
    """Merge one batch into the running statistics (returns a new value)."""
    arr = np.asarray(features, dtype=np.float64)
    labels = np.asarray(pseudo_labels, dtype=np.int64).ravel()
    if arr.ndim != 2 or arr.shape[1] != stats.dim:
        raise InvalidInputError("feature width does not match statistics dimension")
    if labels.shape[0] != arr.shape[0]:
        raise InvalidInputError("labels must align with feature rows")
    if labels.size and (labels.min() < 0 or labels.max() >= stats.n_classes):
        raise InvalidInputError("pseudo-label out of range")

    means = stats.means.copy()
    covs = stats.covs.copy()
    counts = stats.counts.copy()
    updated = np.unique(labels)
    for c in updated:
        rows = arr[labels == c]
        m = rows.shape[0]
        mu_batch, cov_batch = batch_covariance_oracle(rows)
        n = int(counts[c])
        total = n + m
        delta = means[c] - mu_batch
        cov_new = (n * covs[c] + m * cov_batch) / total + (n * m) * np.outer(delta, delta) / total**2
        covs[c] = (cov_new + cov_new.T) / 2.0
        means[c] = (n * means[c] + m * mu_batch) / total
        counts[c] = total
    negative = np.linalg.eigvalsh(covs[updated]).min(axis=1) < 0.0
    for c in updated[negative]:
        covs[c] = psd_repair(covs[c])
    return ClassStatistics(means=means, covs=covs, counts=counts)
