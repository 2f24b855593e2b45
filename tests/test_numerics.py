import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from sfda2.errors import InvalidInputError
from sfda2.numerics import (
    RngState,
    check_distribution_rows,
    check_symmetric,
    psd_factor,
    row_logsumexp,
    row_softmax,
    sample_gaussian,
)

finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


class TestSoftmax:
    """`row_softmax` on one-row arrays."""

    def test_uniform_pair(self):
        assert_allclose(row_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_large_equal_logits_stable(self):
        # max-subtraction keeps exp() in range
        assert_allclose(row_softmax(np.array([[1000.0, 1000.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_singleton(self):
        assert_allclose(row_softmax(np.array([[7.3]])), [[1.0]], atol=0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(5)[None, :]
            c = rng.standard_normal()
            assert_allclose(row_softmax(v + c), row_softmax(v), atol=1e-12)

    @settings(derandomize=True, max_examples=60)
    @given(finite_vectors)
    def test_always_a_distribution(self, entries):
        p = row_softmax(np.array([entries]))
        assert p.shape == (1, len(entries))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            row_softmax(np.empty((1, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            row_softmax(np.array([[0.0, np.nan]]))
        with pytest.raises(InvalidInputError):
            row_softmax(np.array([[np.inf, 0.0]]))


def allocating_softmax(m):
    """The softmax formula with a fresh array per step, the form the
    in-place kernel must reproduce bit for bit."""
    shifted = m - m.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


class TestSoftmaxRows:
    """`row_softmax` on many-row arrays, against the allocating formula bit for bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_classes", range(2, 9))
    def test_equals_allocating(self, n_classes, order):
        rng = np.random.default_rng(n_classes)
        m = np.asarray(4.0 * rng.standard_normal((301, n_classes)), order=order)
        assert_array_equal(row_softmax(m).view(np.uint64), allocating_softmax(m).view(np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_message(self, bad):
        m = np.zeros((4, 3))
        m[2, 1] = bad
        with pytest.raises(InvalidInputError, match="^row_softmax input contains non-finite entries$"):
            row_softmax(m)

    def test_zero_rows_pass(self):
        assert row_softmax(np.empty((0, 3))).shape == (0, 3)


class TestLogsumexp:
    """`row_logsumexp` on one-row arrays."""

    def test_pair_of_zeros(self):
        assert_allclose(row_logsumexp(np.array([[0.0, 0.0]])), [math.log(2.0)], rtol=1e-15)

    def test_singleton_identity(self):
        for x in [-3.5, 0.0, 12.25]:
            assert row_logsumexp(np.array([[x]]))[0] == pytest.approx(x, abs=1e-15)

    def test_large_inputs_stable(self):
        got = row_logsumexp(np.array([[1000.0, 1000.0]]))
        assert_allclose(got, [1000.0 + math.log(2.0)], rtol=1e-15)

    @settings(derandomize=True, max_examples=60)
    @given(finite_vectors)
    def test_bounds(self, entries):
        v = np.array(entries)
        got = row_logsumexp(v[None, :])
        assert got.shape == (1,)
        assert got[0] >= v.max() - 1e-12
        assert got[0] <= v.max() + math.log(len(entries)) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            row_logsumexp(np.empty((1, 0)))


class TestRowVariants:
    def test_match_per_row_calls(self):
        # each row of a batch call equals its own one-row call, bit for bit
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 4)) * 10
        sm = row_softmax(m)
        ls = row_logsumexp(m)
        for i in range(6):
            assert_array_equal(sm[i], row_softmax(m[i : i + 1])[0])
            assert_array_equal(ls[i], row_logsumexp(m[i : i + 1])[0])


class TestSampleGaussian:
    def test_zero_covariance_copies_mean(self):
        mean = np.array([1.0, 2.0])
        out = sample_gaussian(mean, np.zeros((2, 2)), 3, RngState(0))
        assert out.shape == (3, 2)
        assert_array_equal(out, np.tile(mean, (3, 1)))

    def test_identity_covariance_moments(self):
        # law-of-large-numbers check at a fixed seed
        d = 4
        out = sample_gaussian(np.zeros(d), np.eye(d), 100000, RngState(11))
        assert np.abs(out.mean(axis=0)).max() < 0.02
        emp = np.cov(out.T, bias=True)
        assert np.abs(emp - np.eye(d)).max() < 0.05

    def test_degenerate_direction_is_exact(self):
        mean = np.array([3.0, -1.0])
        cov = np.diag([4.0, 0.0])
        out = sample_gaussian(mean, cov, 1000, RngState(2))
        # the zero-variance coordinate carries no sampling noise at all
        assert_array_equal(out[:, 1], np.full(1000, -1.0))
        assert out[:, 0].std() > 1.0

    def test_singular_covariance_stays_near_its_range(self):
        # rank-1 PSD: plain Cholesky fails and the eigendecomposition takes
        # over. Samples leave span{u} only by the square roots of its
        # rounding-size eigenvalues, about 1e-8.
        u = np.array([1.0, 2.0, -1.0])
        cov = np.outer(u, u)
        mean = np.zeros(3)
        out = sample_gaussian(mean, cov, 200, RngState(3))
        basis = u / np.linalg.norm(u)
        residual = out - np.outer(out @ basis, basis)
        assert np.abs(residual).max() < 1e-6

    def test_rank_one_factor_reproduces_its_covariance(self):
        u = np.array([1.0, 2.0, -1.0])
        cov = np.outer(u, u)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        factor = psd_factor(cov)
        assert np.abs(factor @ factor.T - cov).max() <= 1e-13

    def test_affine_property_random_psd(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T
        mean = rng.standard_normal(3)
        out = sample_gaussian(mean, cov, 200000, RngState(4))
        emp = (out - mean).T @ (out - mean) / out.shape[0]
        assert np.abs(emp - cov).max() < 0.08

    def test_reproducible_per_state(self):
        mean = np.zeros(2)
        cov = np.eye(2)
        a = sample_gaussian(mean, cov, 5, RngState(9))
        b = sample_gaussian(mean, cov, 5, RngState(9))
        assert_array_equal(a, b)

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            sample_gaussian(np.zeros(2), cov, 1, RngState(0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_gaussian(np.zeros(3), np.eye(2), 1, RngState(0))


def scatter_sample_gaussian(mean, cov, n, rng):
    """Tile-and-scatter form of sample_gaussian: the mean tiled to (n, d),
    the active columns gathered by a boolean mask and the noise added in
    place. The lift-matrix form must match it bit for bit."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = check_symmetric(cov, "cov")
    active = np.diagonal(cov) != 0.0
    samples = np.tile(mean, (n, 1))
    k = int(active.sum())
    if k == 0:
        return samples
    factor = psd_factor(cov[np.ix_(active, active)])
    noise = rng.generator.standard_normal((n, k))
    samples[:, active] += noise @ factor.T
    return samples


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def gaussian_cases():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 5))
    full = a @ a.T
    one_dead = full.copy()
    one_dead[1] = 0.0
    one_dead[:, 1] = 0.0
    u = rng.standard_normal(4)
    return {
        "full-rank": (rng.standard_normal(5), full),
        "one-zero-diagonal": (rng.standard_normal(5), one_dead),
        "rank-one": (rng.standard_normal(4), np.outer(u, u)),
        "all-zero": (rng.standard_normal(3), np.zeros((3, 3))),
        "d=1": (np.array([-2.5]), np.array([[0.7]])),
        "negative-zero-mean": (np.array([-0.0, 1.5, 0.0, -0.0]), np.diag([0.0, 2.0, 0.0, 0.5])),
    }


GAUSSIAN_CASES = gaussian_cases()


class TestSampleGaussianMatchesScatterReference:
    @pytest.mark.parametrize("n", [1, 7, 2000])
    @pytest.mark.parametrize("name", sorted(GAUSSIAN_CASES))
    def test_bitwise_equal(self, name, n):
        mean, cov = GAUSSIAN_CASES[name]
        expected = scatter_sample_gaussian(mean, cov, n, RngState(5))
        actual = sample_gaussian(mean, cov, n, RngState(5))
        assert_bitwise_equal(actual, expected)
        assert actual.flags.c_contiguous

    def test_all_degenerate_call_draws_nothing(self):
        state = RngState(8)
        sample_gaussian(np.ones(3), np.zeros((3, 3)), 10, state)
        assert state.generator.standard_normal() == RngState(8).generator.standard_normal()


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(42).generator.standard_normal(8)
        b = RngState(42).generator.standard_normal(8)
        assert_array_equal(a, b)

    def test_split_streams_are_distinct_and_stable(self):
        first = [s.generator.standard_normal(4) for s in RngState(7).split(3)]
        second = [s.generator.standard_normal(4) for s in RngState(7).split(3)]
        for x, y in zip(first, second):
            assert_array_equal(x, y)
        assert not np.allclose(first[0], first[1])
        assert not np.allclose(first[1], first[2])

    def test_split_is_independent_of_parent_consumption(self):
        parent = RngState(13)
        children = parent.split(2)
        fresh = RngState(13).split(2)
        for c, f in zip(children, fresh):
            assert_array_equal(c.generator.standard_normal(3), f.generator.standard_normal(3))

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.0, "0", True, False])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
            RngState(seed)
        assert RngState(np.uint8(0)).seed == 0


class TestCheckDistributionRows:
    @pytest.mark.parametrize("shape", [(0, 3), (0,), (3, 0), (0, 0)])
    def test_zero_size_rejected(self, shape):
        # Zero rows once reached NumPy's zero-size reduction error.
        with pytest.raises(InvalidInputError, match="^p must be one or more rows of class distributions$"):
            check_distribution_rows(np.empty(shape), "p")


class TestCheckSymmetric:
    def test_accepts_tiny_asymmetry_and_symmetrizes(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        out = check_symmetric(m, "m")
        assert_array_equal(out, out.T)

    def test_rejects_real_asymmetry(self):
        with pytest.raises(InvalidInputError, match="m"):
            check_symmetric(np.array([[1.0, 0.2], [0.0, 1.0]]), "m")

