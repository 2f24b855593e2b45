"""Dense feature extractor + linear classifier with exact reverse-mode
gradients and a central finite-difference checker.

The extractor is a stack of affine layers with relu or identity
activations; features are the last extractor output, logits come from a
linear classifier (weights shaped classes x feature_dim, rows are the
per-class weight vectors).

Every parameter of a model lives in one contiguous float64 vector,
`Model.params`, in the canonical order (W, b) per layer, then the
classifier W, b. The named arrays are reshaped views into it, so the
optimizer and the finite-difference checker work on that vector alone.
A gradient is a Model of the same structure whose vector holds the
derivatives, the way `jax.grad` returns the pytree type of its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .numerics import RngState, row_softmax

_ACTIVATIONS = ("relu", "identity")


class _BoundOnce:
    """Fields are bound once. Assigning to an array field afterwards copies
    into it, so a parameter array never detaches from its model's vector."""

    def __setattr__(self, name, value):
        if name not in self.__dict__:
            return super().__setattr__(name, value)
        current = self.__dict__[name]
        if not isinstance(current, np.ndarray) or np.shape(value) != current.shape:
            raise InvalidInputError(f"{name} is bound once; only same-shape values can be copied in")
        if value is not current:
            current[...] = value


@dataclass
class Layer(_BoundOnce):
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str


class Model(_BoundOnce):
    """Extractor layers plus a linear classifier, `clf_weights`
    (n_classes, feature_dim) and `clf_bias` (n_classes,), all views into
    the parameter vector `params`."""

    def __init__(
        self,
        layers: list[Layer],
        clf_weights: np.ndarray,
        clf_bias: np.ndarray,
        *,
        params: np.ndarray | None = None,
    ):
        """Packs copies of the given arrays into a new vector, or, when
        `params` is given, takes only their shapes and views into it."""
        arrays = [a for layer in layers for a in (layer.weights, layer.bias)]
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays + [clf_weights, clf_bias]]
        if params is None:
            params = np.concatenate([a.ravel() for a in arrays])
        elif params.dtype != np.float64 or params.shape != (sum(a.size for a in arrays),):
            raise InvalidInputError("parameter vector does not match the model's layout")
        self.params = params
        views, end = [], 0
        for a in arrays:
            views.append(params[end : end + a.size].reshape(a.shape))
            end += a.size
        self.layers = tuple(
            Layer(w, b, layer.activation) for layer, w, b in zip(layers, views[0::2], views[1::2])
        )
        self.clf_weights, self.clf_bias = views[-2:]

    def with_params(self, params: np.ndarray) -> Model:
        """A model of the same structure viewing `params`, which is not copied."""
        return Model(self.layers, self.clf_weights, self.clf_bias, params=params)

    @property
    def input_dim(self) -> int:
        if self.layers:
            return self.layers[0].weights.shape[1]
        return self.clf_weights.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.clf_weights.shape[1]

    @property
    def n_classes(self) -> int:
        return self.clf_weights.shape[0]


@dataclass
class OptimizerState:
    momentum: float
    lr: float
    buffer: np.ndarray  # laid out like Model.params


def validate_model(model: Model) -> None:
    prev = None
    for i, layer in enumerate(model.layers):
        w, b = layer.weights, layer.bias
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise InvalidInputError(f"layer {i} weight/bias shapes disagree")
        if prev is not None and w.shape[1] != prev:
            raise InvalidInputError(f"layer {i} input width breaks the chain")
        if layer.activation not in _ACTIVATIONS:
            raise InvalidInputError(f"layer {i} has unknown activation {layer.activation!r}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise InvalidInputError(f"layer {i} has non-finite parameters")
        prev = w.shape[0]
    cw, cb = model.clf_weights, model.clf_bias
    if cw.ndim != 2 or cb.ndim != 1 or cb.shape[0] != cw.shape[0]:
        raise InvalidInputError("classifier weight/bias shapes disagree")
    if prev is not None and cw.shape[1] != prev:
        raise InvalidInputError("classifier input width must equal the feature dimension")
    if not (np.all(np.isfinite(cw)) and np.all(np.isfinite(cb))):
        raise InvalidInputError("classifier has non-finite parameters")


def init_model(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    feature_dim: int,
    n_classes: int,
    rng: RngState,
) -> Model:
    """Random model: relu hidden layers, identity feature layer, zero biases.

    Weight scales follow the usual fan-in heuristics (sqrt(2/fan_in) before
    relu, sqrt(1/fan_in) elsewhere) so forward magnitudes stay O(1).
    """
    if input_dim < 1 or n_classes < 2:
        raise InvalidInputError("model dimensions out of range")
    if feature_dim < 1:
        raise InvalidInputError(f"feature_dim must be >= 1, got {feature_dim}")
    if any(width < 1 for width in hidden_dims):
        raise InvalidInputError(f"hidden layer widths must be >= 1, got {tuple(hidden_dims)}")
    gen = rng.generator
    layers: list[Layer] = []
    fan_in = input_dim
    for width in hidden_dims:
        scale = np.sqrt(2.0 / fan_in)
        layers.append(Layer(scale * gen.standard_normal((width, fan_in)), np.zeros(width), "relu"))
        fan_in = width
    scale = np.sqrt(1.0 / fan_in)
    layers.append(Layer(scale * gen.standard_normal((feature_dim, fan_in)), np.zeros(feature_dim), "identity"))
    clf_w = np.sqrt(1.0 / feature_dim) * gen.standard_normal((n_classes, feature_dim))
    return Model(layers, clf_w, np.zeros(n_classes))


def forward(model: Model, inputs) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(features, probs, acts) for a batch of input rows; `acts` lists the
    inputs and each extractor layer's output, the cache of `grad_params`."""
    h = np.asarray(inputs, dtype=np.float64)
    if h.ndim != 2:
        raise InvalidInputError("inputs must be a 2-D batch")
    if h.shape[1] != model.input_dim:
        raise InvalidInputError(f"input width {h.shape[1]} does not match model input dim {model.input_dim}")
    acts = [h]
    for layer in model.layers:
        a = h @ layer.weights.T + layer.bias
        h = np.maximum(a, 0.0) if layer.activation == "relu" else a
        acts.append(h)
    probs = row_softmax(h @ model.clf_weights.T + model.clf_bias)
    return h, probs, acts


def grad_params(model: Model, acts, dL_dlogits, dL_dfeatures) -> Model:
    """Exact parameter gradients, through `forward`'s activation list `acts`,
    for a loss entering at the logits and/or directly at the features;
    either upstream may be all-zero. Returned as a Model of the same layout
    whose vector holds the gradient."""
    dlog = np.asarray(dL_dlogits, dtype=np.float64)
    dfeat = np.asarray(dL_dfeatures, dtype=np.float64)
    b = dlog.shape[0] if dlog.ndim else 0
    if dlog.shape != (b, model.n_classes) or dfeat.shape != (b, model.feature_dim):
        raise InvalidInputError("dL_dlogits and dL_dfeatures must be (B, classes) and (B, feature_dim)")
    widths = [model.input_dim] + [layer.weights.shape[0] for layer in model.layers]
    if len(acts) != len(widths) or any(np.shape(h) != (b, w) for h, w in zip(acts, widths)):
        raise InvalidInputError("acts must be forward's activation list for this model and batch")

    grads = model.with_params(np.empty_like(model.params))  # every slot is written below
    grads.clf_weights[...] = dlog.T @ acts[-1]
    grads.clf_bias[...] = dlog.sum(axis=0)

    # Sensitivity entering the extractor: the logits path plus the direct
    # feature path (used by losses defined on features themselves).
    dh = dlog @ model.clf_weights + dfeat
    for idx in range(len(model.layers) - 1, -1, -1):
        layer, slot = model.layers[idx], grads.layers[idx]
        # relu(a) > 0 exactly where a > 0, so the output gives the mask.
        da = dh * (acts[idx + 1] > 0.0) if layer.activation == "relu" else dh
        slot.weights[...] = da.T @ acts[idx]
        slot.bias[...] = da.sum(axis=0)
        dh = da @ layer.weights
    return grads


def init_optimizer(model: Model, momentum: float, lr: float) -> OptimizerState:
    if not (0.0 <= momentum < 1.0):
        raise InvalidInputError("momentum must lie in [0, 1)")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise InvalidInputError(f"lr must be finite and >= 0, got {lr!r}")
    return OptimizerState(momentum=momentum, lr=lr, buffer=np.zeros_like(model.params))


def sgd_step(model: Model, grads: Model, state: OptimizerState) -> None:
    """In place: buffer <- momentum*buffer + grad; params <- params - lr*buffer.

    Refuses the step on non-finite gradients before changing anything.
    """
    g = grads.params
    if g.shape != model.params.shape:
        raise InvalidInputError("gradient does not match the model parameters")
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite gradient entry; step refused")
    state.buffer *= state.momentum
    state.buffer += g
    model.params -= state.lr * state.buffer


def finite_diff_errors(model: Model, analytic: np.ndarray, values, h: float) -> np.ndarray:
    """Per loss, the max over parameters of |analytic - central difference|
    relative error, with denominator max(1e-8, |central difference|).

    `analytic` holds the losses' (losses, P) gradients at `model`. `values`
    maps a Model to all the losses' values, so each perturbed point is
    evaluated once for every loss.
    """
    if h <= 0.0:
        raise InvalidInputError("step size must be positive")
    if not np.all(np.isfinite(analytic)):
        raise NumericalError("analytic gradient has non-finite entries")

    probe = model.with_params(model.params.copy())
    params = probe.params
    up, down = np.empty((2, params.size, analytic.shape[0]))
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + h
        up[j] = values(probe)
        params[j] = orig - h
        down[j] = values(probe)
        params[j] = orig
    if not (np.all(np.isfinite(up)) and np.all(np.isfinite(down))):
        raise NumericalError("loss is non-finite at a perturbed point")
    numeric = (up - down) / (2.0 * h)
    rel = np.abs(analytic.T - numeric) / np.maximum(1e-8, np.abs(numeric))
    return rel.max(axis=0, initial=0.0)
