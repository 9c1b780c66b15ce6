"""Small ReLU MLP classifier with explicit forward and backward passes.

Parameters are plain numpy arrays and gradients are computed by hand, so the
training loop can inject arbitrary gradients w.r.t. the softmax outputs
(cross-entropy, transport scores, ...) without an autograd framework. The
softmax Jacobian is applied analytically and annihilates additive constants
in the output gradient, which is what makes gauge-centered transport
gradients safe to backpropagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError


@dataclass
class MlpModel:
    """Fully connected network: weights[i] maps layer i to layer i+1."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]


def init(layer_dims, seed) -> MlpModel:
    """Fresh model with He-scaled normal weights and zero biases.

    Deterministic for a fixed ``seed`` (int or numpy SeedSequence).
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise DimensionError("layer_dims needs at least input and output sizes")
    if any(d < 1 for d in dims):
        raise DimensionError(f"layer sizes must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, stored batch-first (n, width)."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=1, keepdims=True)


def forward(model: MlpModel, x) -> ForwardTrace:
    """Run the network on one sample (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DimensionError(
            f"input width {x.shape[-1] if x.ndim else '?'} does not match"
            f" model input dim {model.input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError("input features contain NaN or Inf")

    pre_activations = []
    activations = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre_activations.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
            activations.append(a)
    logits = pre_activations[-1]
    probs = _stable_softmax(logits)
    return ForwardTrace(
        inputs=x,
        pre_activations=pre_activations,
        activations=activations,
        logits=logits,
        probs=probs,
    )


@dataclass
class ParamGrads:
    """Parameter gradients, summed over the batch rows of the trace."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def backward(model: MlpModel, trace: ForwardTrace, grad_probs) -> ParamGrads:
    """Backpropagate a gradient w.r.t. the softmax outputs to all parameters.

    ``grad_probs`` must match ``trace.probs`` in shape (a single sample may
    be passed 1-D). The softmax Jacobian is applied analytically:
    ``dz = p * (g - <g, p>)`` per row, so any constant shift of ``g``
    produces exactly zero parameter gradients.
    """
    g = np.asarray(grad_probs, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != trace.probs.shape:
        raise DimensionError(
            f"grad_probs shape {g.shape} does not match probs {trace.probs.shape}"
        )
    p = trace.probs
    dz = p * (g - np.sum(g * p, axis=1, keepdims=True))

    grad_w: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        a_prev = trace.activations[i - 1] if i > 0 else trace.inputs
        grad_w[i] = a_prev.T @ dz
        grad_b[i] = np.sum(dz, axis=0)
        if i > 0:
            dz = (dz @ model.weights[i].T) * (trace.pre_activations[i - 1] > 0.0)
    return ParamGrads(weights=grad_w, biases=grad_b)
