"""Numerical primitives: stable row softmax / log-sum-exp, the distribution
row check, PSD-aware Gaussian sampling, and a deterministic splittable RNG.

All arithmetic is float64. Matrices are plain numpy arrays in row-major
layout; validation happens at the public entry points so the callers can
stay lean.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericalError

# Jitter escalation for Cholesky on near-singular covariance blocks.
_JITTERS = (1e-12, 1e-6)


class RngState:
    """Deterministic splittable random stream.

    Backed by the Philox counter-based bit generator. A state is identified
    by (seed, spawn key); identical identities produce identical streams.
    `split` derives independent child streams by extending the spawn key,
    so parallel trials can each own a private stream while staying
    reproducible from the root seed.

    A state is single-owner: every draw advances the internal counter.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not isinstance(seed, (int, np.integer)):
            raise InvalidInputError("seed must be an integer")
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
    """Validate a vector or 2-D array of class distributions and return it
    as 2-D rows. The range test is negated so that a NaN entry fails it."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidInputError(f"{name} must be rows of class distributions")
    if not (arr.min() >= 0.0 and np.abs(arr.sum(axis=1) - 1.0).max() <= 1e-9):
        raise InvalidInputError(f"{name} rows are not valid distributions")
    return arr


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array, computed with max subtraction."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidInputError("row_softmax input must be 2-D with nonzero width")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("row_softmax input contains non-finite entries")
    shifted = arr - arr.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def row_logsumexp(m: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of a 2-D array."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidInputError("row_logsumexp input must be 2-D with nonzero width")
    mx = arr.max(axis=1, keepdims=True)
    return (mx + np.log(np.exp(arr - mx).sum(axis=1, keepdims=True))).ravel()


def check_symmetric(matrix: np.ndarray, name: str, tol: float = 1e-9) -> np.ndarray:
    """Validate a square matrix, or a stack of them along the leading axes,
    and return its exact symmetrization."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise InvalidInputError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    transposed = np.swapaxes(arr, -1, -2)
    if np.abs(arr - transposed).max() > tol:
        raise InvalidInputError(f"{name} is not symmetric within {tol}")
    return (arr + transposed) / 2.0


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T == cov for a (near-)PSD matrix.

    Tries Cholesky first, escalates through diagonal jitter, then falls back
    to an eigen-decomposition with negative eigenvalues clamped to zero.
    """
    dim = cov.shape[0]
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(dim)
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(cov + jitter * eye)
        except np.linalg.LinAlgError:
            continue
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance factorization failed") from exc
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def psd_repair(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize and clamp negative eigenvalues to zero (only when present)."""
    sym = (matrix + matrix.T) / 2.0
    eigvals = np.linalg.eigvalsh(sym)
    if eigvals.min() >= 0.0:
        return sym
    vals, vecs = np.linalg.eigh(sym)
    repaired = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return (repaired + repaired.T) / 2.0


def _gaussian_plan(mean, cov):
    """Validate N(mean, cov) and factor its active block once; the returned
    draw(n, rng) costs one `standard_normal` fill and one GEMM per call."""
    mean_arr = _as_vector(mean, "mean")
    cov_arr = check_symmetric(cov, "cov")
    if cov_arr.shape != (mean_arr.size, mean_arr.size):
        raise InvalidInputError("mean and cov dimensions disagree")
    active = np.diagonal(cov_arr) != 0.0
    lift = np.zeros((mean_arr.size, int(active.sum())))
    lift[active] = psd_factor(cov_arr[np.ix_(active, active)])
    # +-0.0 + m == m for every m except +0.0 + -0.0, so pin -0.0 means.
    negative_zero = ~active & (mean_arr == 0.0) & np.signbit(mean_arr)

    def draw(n: int, rng: RngState) -> np.ndarray:
        if n < 1:
            raise InvalidInputError("sample count must be >= 1")
        samples = rng.generator.standard_normal((n, lift.shape[1])) @ lift.T
        samples += mean_arr
        samples[:, negative_zero] = -0.0
        if not np.all(np.isfinite(samples)):
            raise NumericalError("gaussian sampling produced non-finite values")
        return samples

    return draw


def sample_gaussian(mean, cov, n: int, rng: RngState) -> np.ndarray:
    """Draw n samples from N(mean, cov) as rows of a C-contiguous (n, d) array.

    Coordinates whose covariance diagonal is exactly zero are deterministic
    (for a PSD matrix the whole row/column is zero) and equal the mean bit
    for bit, signed zero included; the factorization policy applies to the
    active block only. One GEMM lifts the (n, k) noise of the k active
    coordinates by a (d, k) matrix with the factor in the active rows and
    zeros elsewhere; with k = 0 it draws nothing. This is one draw from
    `_gaussian_plan`; a caller that draws often from one law keeps the plan.
    """
    return _gaussian_plan(mean, cov)(n, rng)
