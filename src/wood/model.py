"""Small ReLU MLP classifier with explicit forward and backward passes.

Parameters live in one flat numpy vector with per-layer views, and
gradients are computed by hand into a vector of the same layout, so the
training loop can inject arbitrary gradients w.r.t. the softmax outputs
(cross-entropy, transport scores, ...) without an autograd framework. The
softmax Jacobian is applied analytically and annihilates additive constants
in the output gradient, which is what makes gauge-centered transport
gradients safe to backpropagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def _layer_dims(layer_dims) -> tuple[int, ...]:
    """``layer_dims`` as ints: an input and an output width at least, each >= 1."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise InputError("layer_dims needs at least input and output sizes")
    if any(d < 1 for d in dims):
        raise InputError(f"layer sizes must be positive, got {dims}")
    return dims


def _flat_layers(dims: tuple[int, ...], flat: np.ndarray | None = None):
    """A flat float64 vector for the parameters of ``dims``, uninitialized
    unless ``flat`` (of exactly that many entries) is given, and its
    per-layer views, laid out W0 b0 W1 b1 ... (each view C-contiguous)."""
    pairs = list(zip(dims[:-1], dims[1:]))
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in pairs)
    if flat is None:
        flat = np.empty(size)
    elif flat.shape != (size,):
        raise ValueError(f"{flat.size} parameters for layer_dims {dims}, expected {size}")
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in pairs:
        end = offset + fan_in * fan_out
        weights.append(flat[offset:end].reshape(fan_in, fan_out))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return flat, weights, biases


class MlpModel:
    """Fully connected network: weights[i] maps layer i to layer i+1.

    All parameters live in one contiguous float64 vector ``params``;
    ``weights[i]`` and ``biases[i]`` are reshaped views into it, so an
    update of ``params`` is an update of every layer and vice versa. The
    given arrays are copied in.
    """

    def __init__(self, layer_dims, weights, biases):
        self.layer_dims = _layer_dims(layer_dims)
        self.params, self.weights, self.biases = _flat_layers(self.layer_dims)
        given = [np.shape(w) for w in weights] + [np.shape(b) for b in biases]
        if given != [w.shape for w in self.weights] + [b.shape for b in self.biases]:
            raise InputError(
                f"parameter shapes {given} disagree with layer_dims {self.layer_dims}"
            )
        for view, value in zip((*self.weights, *self.biases), (*weights, *biases)):
            view[...] = value

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
    dims = _layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, weights, biases)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, batch-first (n, width): the inputs,
    each hidden layer's post-ReLU activation and the softmax rows."""

    inputs: np.ndarray
    activations: list[np.ndarray]
    probs: np.ndarray


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row, computed in place in ``logits``."""
    # The ufunc reductions are what ndarray.max and .sum call, without the
    # Python call in between.
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


def forward(model: MlpModel, x) -> ForwardTrace:
    """Run the network on one sample (d,) or a batch (n, d), allocating one
    array per layer: ReLU and softmax overwrite their inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise InputError(
            f"input width {x.shape[-1] if x.ndim else '?'} does not match"
            f" model input dim {model.input_dim}"
        )
    if not np.isfinite(x).all():
        raise InputError("input features contain NaN or Inf")
    return _forward(model, x)


def _forward(model: MlpModel, x: np.ndarray) -> ForwardTrace:
    """The body of :func:`forward` for a finite float64 batch ``(n, input_dim)``."""
    activations = []
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w
        z += b
        a = np.maximum(z, 0.0, out=z)
        activations.append(a)
    logits = a @ model.weights[-1]
    logits += model.biases[-1]
    return ForwardTrace(inputs=x, activations=activations, probs=_stable_softmax(logits))


class ParamGrads:
    """Parameter gradients, summed over the batch rows of the trace.

    Laid out like ``MlpModel.params``: one flat vector ``flat`` with
    per-layer views ``weights[i]`` and ``biases[i]``.
    """

    def __init__(self, layer_dims: tuple[int, ...]):
        self.flat, self.weights, self.biases = _flat_layers(layer_dims)


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
        raise InputError(
            f"grad_probs shape {g.shape} does not match probs {trace.probs.shape}"
        )
    return _backward(model, trace, g, ParamGrads(model.layer_dims))


def _backward(
    model: MlpModel, trace: ForwardTrace, g: np.ndarray, grads: ParamGrads
) -> ParamGrads:
    """The body of :func:`backward` for a float64 ``g`` shaped like
    ``trace.probs``; every entry of ``grads`` is overwritten."""
    p = trace.probs
    dz = p * (g - np.add.reduce(g * p, axis=1, keepdims=True))
    for i in range(len(model.weights) - 1, -1, -1):
        a_prev = trace.activations[i - 1] if i > 0 else trace.inputs
        np.matmul(a_prev.T, dz, out=grads.weights[i])
        np.add.reduce(dz, axis=0, out=grads.biases[i])
        if i > 0:
            dz = dz @ model.weights[i].T
            # ReLU(z) > 0 exactly where z > 0.
            dz *= trace.activations[i - 1] > 0.0
    return grads
