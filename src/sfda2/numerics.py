"""Numerical primitives: stable row softmax / log-sum-exp, the distribution
row check, PSD-aware Gaussian sampling, and a deterministic splittable RNG.

All arithmetic is float64. Matrices are plain numpy arrays in row-major
layout; validation happens at the public entry points so the callers can
stay lean.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericalError


class RngState:
    """Deterministic splittable random stream.

    Backed by the Philox counter-based bit generator. A state is identified
    by (seed, spawn key); identical identities produce identical streams.
    `split` derives independent child streams by extending the spawn key,
    so trials can each own a private stream while staying reproducible
    from the root seed.

    A state is single-owner: every draw advances the internal counter.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        sequence = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self.generator = np.random.Generator(np.random.Philox(sequence))

    def split(self, n: int) -> list["RngState"]:
        if n < 1:
            raise InvalidInputError("split count must be >= 1")
        return [RngState(self.seed, self.spawn_key + (i,)) for i in range(n)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngState(seed={self.seed}, spawn_key={self.spawn_key})"


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def check_distribution_rows(rows, name: str) -> np.ndarray:
    """Validate a vector or 2-D array of one or more class distributions and
    return it as 2-D rows. The negated range test fails a NaN entry too."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError(f"{name} must be one or more rows of class distributions")
    if not (arr.min() >= 0.0 and np.abs(arr.sum(axis=1) - 1.0).max() <= 1e-9):
        raise InvalidInputError(f"{name} rows are not valid distributions")
    return arr


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array, computed with max subtraction."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidInputError("row_softmax input must be 2-D with nonzero width")
    row = arr.max(axis=1, keepdims=True)
    # NaN propagates through both reductions: -inf shows in the minimum,
    # +inf in the maxima. `initial` lets a zero-row input through.
    if not (np.isfinite(arr.min(initial=0.0)) and np.isfinite(row.max(initial=0.0))):
        raise InvalidInputError("row_softmax input contains non-finite entries")
    out = np.subtract(arr, row)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True, out=row)
    return out


def row_logsumexp(m: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidInputError("row_logsumexp input must be 2-D with nonzero width")
    mx = arr.max(axis=1, keepdims=True)
    return (mx + np.log(np.exp(arr - mx).sum(axis=1, keepdims=True))).ravel()


# Largest admitted |m - m^T| entry of a matrix checked as symmetric.
_SYMMETRY_TOL = 1e-9


def check_symmetric(matrix: np.ndarray, name: str) -> np.ndarray:
    """Validate a square matrix, or a stack of them along the leading axes,
    and return its exact symmetrization."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise InvalidInputError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    transposed = np.swapaxes(arr, -1, -2)
    if np.abs(arr - transposed).max() > _SYMMETRY_TOL:
        raise InvalidInputError(f"{name} is not symmetric within {_SYMMETRY_TOL}")
    return (arr + transposed) / 2.0


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T == cov for a PSD matrix: Cholesky, or, for a
    singular one, an eigendecomposition with the negative eigenvalues of
    rounding clamped to zero.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance factorization failed") from exc
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _gaussian_lift(mean, cov) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate N(mean, cov) and factor its active block once. Returns the
    mean, the (d, k) lift and the (d,) mask of the k active coordinates
    (nonzero variance): mean + lift @ e has law N(mean, cov) for e ~ N(0, I_k)."""
    mean_arr = _as_vector(mean, "mean")
    cov_arr = check_symmetric(cov, "cov")
    if cov_arr.shape != (mean_arr.size, mean_arr.size):
        raise InvalidInputError("mean and cov dimensions disagree")
    active = np.diagonal(cov_arr) != 0.0
    lift = np.zeros((mean_arr.size, int(active.sum())))
    lift[active] = psd_factor(cov_arr[np.ix_(active, active)])
    return mean_arr, lift, active


def sample_gaussian(mean, cov, n: int, rng: RngState) -> np.ndarray:
    """Draw n samples from N(mean, cov) as rows of a C-contiguous (n, d) array.

    Coordinates whose covariance diagonal is exactly zero are deterministic
    (for a PSD matrix the whole row/column is zero) and equal the mean bit
    for bit, signed zero included; the factorization policy applies to the
    active block only. One GEMM lifts the (n, k) noise of the k active
    coordinates by the (d, k) `_gaussian_lift`, the factor in the active
    rows and zeros elsewhere; with k = 0 it draws nothing.
    """
    mean_arr, lift, active = _gaussian_lift(mean, cov)
    if n < 1:
        raise InvalidInputError("sample count must be >= 1")
    samples = rng.generator.standard_normal((n, lift.shape[1])) @ lift.T
    samples += mean_arr
    # +-0.0 + m == m for every m except +0.0 + -0.0, so pin -0.0 means.
    samples[:, ~active & (mean_arr == 0.0) & np.signbit(mean_arr)] = -0.0
    if not np.all(np.isfinite(samples)):
        raise NumericalError("gaussian sampling produced non-finite values")
    return samples
