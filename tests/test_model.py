import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sfda2.errors import InvalidInputError, NumericalError
from sfda2.model import (
    Layer,
    Model,
    finite_diff_errors,
    forward,
    grad_params,
    init_model,
    init_optimizer,
    sgd_step,
    validate_model,
)
from sfda2.numerics import RngState


def zero_grads(model):
    return model.with_params(np.zeros_like(model.params))


def logits_of(model, feats):
    return feats @ model.clf_weights.T + model.clf_bias


def identity_model(dim, n_classes=None):
    n_classes = dim if n_classes is None else n_classes
    return Model(
        layers=[Layer(np.eye(dim), np.zeros(dim), "identity")],
        clf_weights=np.eye(n_classes, dim),
        clf_bias=np.zeros(n_classes),
    )


class TestForward:
    def test_zero_model_predicts_uniform(self):
        model = Model(
            layers=[Layer(np.zeros((3, 2)), np.zeros(3), "identity")],
            clf_weights=np.zeros((4, 3)),
            clf_bias=np.zeros(4),
        )
        feats, probs, _ = forward(model, np.array([[5.0, -2.0], [0.1, 0.2]]))
        assert_array_equal(logits_of(model, feats), np.zeros((2, 4)))
        assert_allclose(probs, np.full((2, 4), 0.25), atol=1e-15)
        assert_array_equal(feats, np.zeros((2, 3)))

    def test_identity_stack_passes_input_through(self):
        model = identity_model(2)
        x = np.array([[3.0, -1.0]])
        feats, _, acts = forward(model, x)
        assert_array_equal(logits_of(model, feats), x)
        assert len(acts) == 2 and acts[-1] is feats
        assert_array_equal(acts[0], x)

    def test_acts_are_each_layers_output(self):
        model = init_model(3, (5, 4), 2, 3, RngState(7))
        x = np.random.default_rng(8).standard_normal((6, 3))
        feats, _, acts = forward(model, x)
        assert [a.shape for a in acts] == [(6, 3), (6, 5), (6, 4), (6, 2)]
        for layer, h_in, h_out in zip(model.layers, acts, acts[1:]):
            a = h_in @ layer.weights.T + layer.bias
            assert_array_equal(h_out, np.maximum(a, 0.0) if layer.activation == "relu" else a)
        assert acts[-1] is feats

    def test_prob_rows_normalized(self):
        model = init_model(3, (6,), 4, 5, RngState(0))
        _, probs, _ = forward(model, np.random.default_rng(1).standard_normal((5, 3)))
        assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(probs >= 0)

    def test_batch_order_equivariant(self):
        model = init_model(4, (5,), 3, 3, RngState(2))
        x = np.random.default_rng(3).standard_normal((6, 4))
        perm = np.array([4, 2, 0, 5, 1, 3])
        f1, p1, a1 = forward(model, x)
        f2, p2, a2 = forward(model, x[perm])
        assert_array_equal(f2, f1[perm])
        assert_array_equal(p2, p1[perm])
        for h1, h2 in zip(a1, a2):
            assert_array_equal(h2, h1[perm])

    def test_width_mismatch_rejected(self):
        model = init_model(3, (4,), 2, 2, RngState(0))
        with pytest.raises(InvalidInputError):
            forward(model, np.zeros((2, 5)))


class TestGradParams:
    def test_zero_upstream_gives_zero_gradients(self):
        model = init_model(2, (3,), 2, 2, RngState(1))
        _, _, acts = forward(model, np.ones((4, 2)))
        grads = grad_params(model, acts, np.zeros((4, 2)), np.zeros((4, 2)))
        assert_array_equal(grads.params, np.zeros_like(model.params))

    def test_linear_case_bias_gradient(self):
        # L = sum of all logits; d/db_c = batch size
        model = identity_model(2)
        _, _, acts = forward(model, np.random.default_rng(0).standard_normal((5, 2)))
        grads = grad_params(model, acts, np.ones((5, 2)), np.zeros((5, 2)))
        assert_allclose(grads.clf_bias, np.full(2, 5.0), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = identity_model(2)
        _, _, acts = forward(model, np.zeros((3, 2)))
        with pytest.raises(InvalidInputError):
            grad_params(model, acts, np.zeros((4, 2)), np.zeros((3, 2)))
        with pytest.raises(InvalidInputError):
            grad_params(model, acts, np.zeros((3, 2)), np.zeros((3, 3)))

    def test_foreign_acts_rejected(self):
        model = init_model(2, (3,), 2, 2, RngState(1))
        _, _, acts = forward(model, np.ones((4, 2)))
        upstream = (np.zeros((4, 2)), np.zeros((4, 2)))
        for bad in (acts[:-1], acts + [acts[-1]], [acts[0], acts[1][:, :2], acts[2]], [acts[0][:3]] + acts[1:], []):
            with pytest.raises(InvalidInputError, match="activation list"):
                grad_params(model, bad, *upstream)
        deeper = init_model(2, (3, 3), 2, 2, RngState(1))
        with pytest.raises(InvalidInputError, match="activation list"):
            grad_params(deeper, acts, *upstream)

    def test_zero_pre_activation_masks_like_the_pre_activation(self):
        # Row 0 puts hidden unit 0 at exactly a = 0 and row 1 puts unit 1
        # there; relu's output gives the same mask as a > 0, bit for bit.
        hidden = Layer(np.array([[1.0, 1.0], [2.0, -1.0], [-1.0, 0.5]]), np.zeros(3), "relu")
        head = Layer(np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]]), np.array([0.1, -0.2]), "identity")
        model = Model([hidden, head], np.array([[1.0, -2.0], [0.5, 0.3], [-1.0, 1.0]]), np.zeros(3))
        x = np.array([[1.0, -1.0], [1.0, 2.0], [0.5, 3.0], [-2.0, 1.0]])
        pre = x @ hidden.weights.T + hidden.bias
        relu = np.maximum(pre, 0.0)
        assert pre[0, 0] == 0.0 and pre[1, 1] == 0.0
        rng = np.random.default_rng(11)
        dlog, dfeat = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))

        _, _, acts = forward(model, x)
        got = grad_params(model, acts, dlog, dfeat)

        expected = np.empty_like(model.params)
        ref = model.with_params(expected)
        feats = relu @ head.weights.T + head.bias
        ref.clf_weights[...] = dlog.T @ feats
        ref.clf_bias[...] = dlog.sum(axis=0)
        dh = dlog @ model.clf_weights + dfeat
        ref.layers[1].weights[...] = dh.T @ relu
        ref.layers[1].bias[...] = dh.sum(axis=0)
        da = (dh @ head.weights) * (pre > 0.0)
        ref.layers[0].weights[...] = da.T @ x
        ref.layers[0].bias[...] = da.sum(axis=0)
        assert got.params.tobytes() == expected.tobytes()

    def test_matches_finite_differences(self):
        # L = 0.5*sum(logits^2) + 0.5*sum(features^2)
        model = init_model(3, (4, 3), 3, 4, RngState(5))
        x = np.random.default_rng(6).standard_normal((4, 3))

        def values(m):
            feats, _, _ = forward(m, x)
            return [0.5 * float((logits_of(m, feats) ** 2).sum() + (feats**2).sum())]

        feats, _, acts = forward(model, x)
        analytic = grad_params(model, acts, logits_of(model, feats), feats).params[None]
        assert finite_diff_errors(model, values(model), analytic, values, 1e-5)[0] < 1e-6


class TestSgdStep:
    def test_zero_gradient_zero_buffer_is_identity(self):
        model = init_model(2, (3,), 2, 3, RngState(7))
        state = init_optimizer(model, 0.9, 0.1)
        before = model.params.copy()
        sgd_step(model, zero_grads(model), state)
        assert_array_equal(model.params, before)

    def test_plain_sgd_subtracts_gradient(self):
        model = identity_model(2)
        state = init_optimizer(model, 0.0, 1.0)
        grads = zero_grads(model)
        grads.clf_bias = np.array([0.5, -2.0])
        sgd_step(model, grads, state)
        assert_allclose(model.clf_bias, np.array([-0.5, 2.0]), atol=1e-15)

    def test_momentum_recurrence(self):
        # constant gradient g: step one moves lr*g, step two moves lr*(1+m)*g
        model = identity_model(2)
        state = init_optimizer(model, 0.9, 0.1)
        g = np.array([1.0, -1.0])
        grads = zero_grads(model)
        grads.clf_bias = g
        start = model.clf_bias.copy()
        sgd_step(model, grads, state)
        after_one = model.clf_bias.copy()
        assert_allclose(start - after_one, 0.1 * g, atol=1e-15)
        sgd_step(model, grads, state)
        assert_allclose(after_one - model.clf_bias, 0.1 * 1.9 * g, atol=1e-15)

    def test_non_finite_gradient_refused(self):
        model = identity_model(2)
        state = init_optimizer(model, 0.9, 0.1)
        grads = zero_grads(model)
        grads.clf_bias = np.array([np.nan, 0.0])
        with pytest.raises(NumericalError):
            sgd_step(model, grads, state)

    def test_refused_step_leaves_parameters_and_buffer_untouched(self):
        model = init_model(2, (3,), 2, 3, RngState(9))
        state = init_optimizer(model, 0.9, 0.1)
        grads = zero_grads(model)
        grads.params = np.linspace(-1.0, 1.0, model.params.size)
        sgd_step(model, grads, state)  # a nonzero buffer to protect
        params, buffer = model.params.tobytes(), state.buffer.tobytes()
        grads.layers[0].weights[1, 0] = np.nan  # finite entries before and after it
        with pytest.raises(NumericalError):
            sgd_step(model, grads, state)
        assert model.params.tobytes() == params
        assert state.buffer.tobytes() == buffer

    def test_step_updates_in_place(self):
        model = identity_model(2)
        state = init_optimizer(model, 0.5, 0.1)
        params, buffer, bias = model.params, state.buffer, model.clf_bias
        grads = zero_grads(model)
        grads.clf_bias = np.ones(2)
        assert sgd_step(model, grads, state) is None
        assert model.params is params and state.buffer is buffer
        assert_allclose(bias, np.full(2, -0.1), atol=1e-15)  # the old view sees the step
        assert_array_equal(buffer[-2:], np.ones(2))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(InvalidInputError, match=f"^lr must be finite and >= 0, got {lr!r}$"):
            init_optimizer(identity_model(2), 0.9, lr)


class TestFiniteDiffOneLoss:
    def test_constant_loss_reports_zero(self):
        model = identity_model(2)
        zeros = np.zeros((1, model.params.size))
        assert finite_diff_errors(model, [3.25], zeros, lambda m: [3.25], 1e-5)[0] == 0.0

    def test_quadratic_loss_is_machine_exact(self):
        model = init_model(2, (3,), 2, 2, RngState(8))

        def values(m):
            return [0.5 * float(m.params @ m.params)]

        # zero truncation error for a quadratic, so a wide step leaves
        # only rounding noise
        assert finite_diff_errors(model, values(model), model.params[None], values, 1e-3)[0] < 1e-9

    def test_non_finite_perturbed_loss_rejected(self):
        model = identity_model(2)
        base = model.params.copy()

        def values(m):
            return [0.0 if np.array_equal(m.params, base) else float("nan")]

        with pytest.raises(NumericalError, match="perturbed point"):
            finite_diff_errors(model, [0.0], np.zeros((1, base.size)), values, 1e-5)

    def test_step_must_be_positive(self):
        model = identity_model(2)
        with pytest.raises(InvalidInputError):
            finite_diff_errors(model, [0.0], np.zeros((1, model.params.size)), lambda m: [0.0], 0.0)

    def test_non_finite_gradient_rejected(self):
        # A NaN gradient entry would drop out of max(worst, rel) and report 0.
        model = init_model(3, (4,), 3, 3, RngState(8))

        def values(m):
            return [0.5 * float(m.params @ m.params)]

        nan_grad = np.full((1, model.params.size), np.nan)
        with pytest.raises(NumericalError, match="^analytic gradient has non-finite entries$"):
            finite_diff_errors(model, values(model), nan_grad, values, 1e-3)


def two_losses(x):
    """L1 = 0.5*sum(logits^2) and L2 = 0.5*sum(features^2): a value function
    for both and a loss-and-gradient closure for each."""

    def values(m):
        feats, _, _ = forward(m, x)
        return 0.5 * float((logits_of(m, feats) ** 2).sum()), 0.5 * float((feats**2).sum())

    def closure(index):
        def loss_and_grad(m):
            feats, _, acts = forward(m, x)
            logits = logits_of(m, feats)
            upstream = (logits, np.zeros_like(feats)) if index == 0 else (np.zeros_like(logits), feats)
            return values(m)[index], grad_params(m, acts, *upstream)

        return loss_and_grad

    return values, [closure(0), closure(1)]


class TestFiniteDiffErrors:
    def setup_method(self):
        self.model = init_model(3, (4, 3), 3, 4, RngState(5))
        self.values, self.closures = two_losses(np.random.default_rng(6).standard_normal((4, 3)))
        base, grads = zip(*(c(self.model) for c in self.closures))
        self.base, self.analytic = base, np.stack([g.params for g in grads])

    def test_each_row_equals_its_one_loss_call(self):
        errors = finite_diff_errors(self.model, self.base, self.analytic, self.values, 1e-5)
        assert errors.shape == (2,)
        singles = [
            finite_diff_errors(self.model, [base], row[None], lambda m, i=i: [self.values(m)[i]], 1e-5)[0]
            for i, (base, row) in enumerate(zip(self.base, self.analytic))
        ]
        assert errors.tolist() == singles
        assert errors.max() < 1e-6

    def test_defect_stays_in_its_row(self):
        clean = finite_diff_errors(self.model, self.base, self.analytic, self.values, 1e-5)
        self.analytic[1] *= 1.01
        planted = finite_diff_errors(self.model, self.base, self.analytic, self.values, 1e-5)
        assert planted[0] == clean[0]
        assert planted[1] > 5e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_rejected(self, bad):
        self.analytic[1, 7] = bad
        with pytest.raises(NumericalError, match="^analytic gradient has non-finite entries$"):
            finite_diff_errors(self.model, self.base, self.analytic, self.values, 1e-5)

    def test_non_finite_base_rejected(self):
        with pytest.raises(NumericalError, match="base point"):
            finite_diff_errors(self.model, [self.base[0], np.nan], self.analytic, self.values, 1e-5)


class TestModelPlumbing:
    def test_init_model_deterministic(self):
        a = init_model(3, (5,), 4, 3, RngState(21))
        b = init_model(3, (5,), 4, 3, RngState(21))
        assert_array_equal(a.params, b.params)

    def test_copy_is_deep(self):
        model = init_model(2, (3,), 2, 2, RngState(0))
        cl = model.with_params(model.params.copy())
        cl.clf_bias[0] = 99.0
        assert model.clf_bias[0] == 0.0

    def test_validate_rejects_broken_chain(self):
        model = Model(
            layers=[
                Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                Layer(np.zeros((2, 4)), np.zeros(2), "identity"),
            ],
            clf_weights=np.zeros((2, 2)),
            clf_bias=np.zeros(2),
        )
        with pytest.raises(InvalidInputError):
            validate_model(model)

    def test_validate_rejects_unknown_activation(self):
        model = Model(
            layers=[Layer(np.zeros((2, 2)), np.zeros(2), "tanh")],
            clf_weights=np.zeros((2, 2)),
            clf_bias=np.zeros(2),
        )
        with pytest.raises(InvalidInputError):
            validate_model(model)

    def test_validate_rejects_non_finite(self):
        model = identity_model(2)
        model.clf_weights = model.clf_weights.copy()
        model.clf_weights[0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            validate_model(model)


class TestFlatLayout:
    def named_arrays(self, model):
        arrays = [a for layer in model.layers for a in (layer.weights, layer.bias)]
        return arrays + [model.clf_weights, model.clf_bias]

    def test_views_share_the_vector_in_canonical_order(self):
        model = init_model(3, (4, 5), 2, 3, RngState(4))
        arrays = self.named_arrays(model)
        assert_array_equal(model.params, np.concatenate([a.ravel() for a in arrays]))
        model.params[...] = np.arange(model.params.size)
        assert_array_equal(np.concatenate([a.ravel() for a in arrays]), np.arange(model.params.size))
        assert all(np.shares_memory(a, model.params) for a in arrays)
        assert [a.shape for a in arrays] == [(4, 3), (4,), (5, 4), (5,), (2, 5), (2,), (3, 2), (3,)]

    def test_gradient_has_the_model_layout(self):
        model = init_model(3, (4,), 2, 3, RngState(5))
        _, _, acts = forward(model, np.random.default_rng(0).standard_normal((6, 3)))
        grads = grad_params(model, acts, np.ones((6, 3)), np.ones((6, 2)))
        assert grads.params.shape == model.params.shape
        assert all(np.shares_memory(a, grads.params) for a in self.named_arrays(grads))
        assert_array_equal(grads.clf_bias, np.full(3, 6.0))
        assert_array_equal(grads.params[-3:], grads.clf_bias)

    def test_constructor_copies_separate_arrays(self):
        weights = np.eye(2)
        model = Model([Layer(weights, np.zeros(2), "identity")], np.eye(2), np.zeros(2))
        model.layers[0].weights[0, 0] = 5.0
        assert weights[0, 0] == 1.0
        assert model.params[0] == 5.0

    def test_reassigned_field_stays_in_the_vector(self):
        model = identity_model(2)
        model.clf_bias = np.array([1.0, 2.0])
        model.layers[0].weights = np.full((2, 2), 3.0)
        assert_array_equal(model.params[-2:], [1.0, 2.0])
        assert_array_equal(model.params[:4], np.full(4, 3.0))
        with pytest.raises(InvalidInputError):
            model.clf_weights = np.zeros((3, 2))
        with pytest.raises(InvalidInputError):
            model.params = np.zeros(3)
        with pytest.raises(InvalidInputError):
            model.layers = ()

    def test_with_params_checks_the_layout(self):
        model = identity_model(2)
        with pytest.raises(InvalidInputError):
            model.with_params(np.zeros(model.params.size + 1))
        shared = np.zeros_like(model.params)
        assert model.with_params(shared).params is shared
