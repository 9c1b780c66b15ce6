"""MLP forward/backward correctness: stability, gauge invariance, grad checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wood.errors import InputError
from wood.model import MlpModel, backward, forward, init


def zeroed(model):
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    return model


class TestInit:
    def test_deterministic(self):
        a = init((2, 4, 3), seed=7)
        b = init((2, 4, 3), seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_minimal_model(self):
        model = init((5, 3), seed=0)
        assert model.input_dim == 5
        assert model.n_classes == 3

    def test_empty_dims_rejected(self):
        with pytest.raises(InputError):
            init((), seed=0)

    def test_bias_zero_weight_scale(self):
        model = init((100, 50), seed=1)
        assert np.all(model.biases[0] == 0.0)
        assert np.std(model.weights[0]) == pytest.approx(np.sqrt(2.0 / 100), rel=0.1)


class TestFlatParams:
    def test_layer_views_share_the_flat_vector(self):
        model = init((3, 5, 2), seed=4)
        assert model.params.size == 3 * 5 + 5 + 5 * 2 + 2
        for view in (*model.weights, *model.biases):
            assert np.shares_memory(view, model.params)
        model.weights[1][2, 1] = 7.5
        model.biases[0][4] = -2.0
        assert 7.5 in model.params
        assert -2.0 in model.params
        model.params[:] = 0.0
        assert not any(v.any() for v in (*model.weights, *model.biases))

    def test_construction_copies_and_checks_shapes(self):
        w, b = np.array([[1.0, 2.0]]), np.array([3.0, 4.0])
        model = MlpModel((1, 2), [w], [b])
        np.testing.assert_array_equal(model.params, [1.0, 2.0, 3.0, 4.0])
        model.params[:] = 0.0
        assert w[0, 0] == 1.0
        with pytest.raises(InputError):
            MlpModel((1, 2), [w.T], [b])
        with pytest.raises(InputError):
            MlpModel((1, 2, 2), [w], [b])

    def test_gradients_fill_one_flat_vector_bitwise(self, rng):
        # Writing into views of the flat vector rounds exactly as the plain
        # per-layer expressions do.
        model = init((2, 4, 3), seed=6)
        x = rng.normal(size=(5, 2))
        g = rng.normal(size=(5, 3))
        trace = forward(model, x)
        grads = backward(model, trace, g)
        assert grads.flat.shape == model.params.shape
        for view in (*grads.weights, *grads.biases):
            assert np.shares_memory(view, grads.flat)

        p = trace.probs
        dz1 = p * (g - np.sum(g * p, axis=1, keepdims=True))
        dz0 = (dz1 @ model.weights[1].T) * (trace.activations[0] > 0.0)
        want = [x.T @ dz0, np.sum(dz0, axis=0), trace.activations[0].T @ dz1, np.sum(dz1, axis=0)]
        got = [grads.weights[0], grads.biases[0], grads.weights[1], grads.biases[1]]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def reference_forward_backward(model, x, g):
    """Forward and backward with every intermediate kept in its own array:
    ``(activations, probs, [dW0, db0, dW1, ...])``."""
    pre_activations, activations = [], []
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w
        z += b
        pre_activations.append(z)
        if i < len(model.weights) - 1:
            a = np.maximum(z, 0.0)
            activations.append(a)
    logits = pre_activations[-1]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)

    grads = [None] * (2 * len(model.weights))
    dz = probs * (g - (g * probs).sum(axis=1, keepdims=True))
    for i in range(len(model.weights) - 1, -1, -1):
        a_prev = activations[i - 1] if i > 0 else x
        grads[2 * i] = a_prev.T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ model.weights[i].T) * (pre_activations[i - 1] > 0.0)
    return activations, probs, grads


class TestForwardContract:
    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 9), min_size=2, max_size=5),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        zero_rows=st.booleans(),
        scale=st.sampled_from([1.0, 30.0, 1000.0]),
    )
    def test_forward_and_backward_match_the_keep_everything_reference(
        self, dims, n, seed, zero_rows, scale
    ):
        # Up to three hidden layers; zero input rows and zero biases give
        # pre-activations of exactly 0, and large inputs saturate the softmax.
        rng = np.random.default_rng(seed)
        model = init(dims, seed=seed)
        x = scale * rng.normal(size=(n, dims[0]))
        if zero_rows:
            x[::2] = 0.0
        g = rng.normal(size=(n, dims[-1]))
        activations, probs, want = reference_forward_backward(model, x, g)

        trace = forward(model, x)
        grads = backward(model, trace, g)
        assert trace.probs.tobytes() == probs.tobytes()
        assert len(trace.activations) == len(activations)
        for got, ref in zip(trace.activations, activations):
            assert got.tobytes() == ref.tobytes()
        got = [v for pair in zip(grads.weights, grads.biases) for v in pair]
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_forward_allocates_each_layer_once(self, rng):
        model = init((8, 64, 32, 10), seed=0)
        x = rng.normal(size=(4096, 8))
        forward(model, x)  # warm-up: first-call allocations are not the pass's
        tracemalloc.start()
        try:
            trace = forward(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in trace.activations) + trace.probs.nbytes
        assert peak <= 1.1 * kept


class TestForward:
    def test_zero_parameters_give_uniform(self):
        model = zeroed(init((3, 4, 5), seed=0))
        trace = forward(model, np.ones(3))
        np.testing.assert_allclose(trace.probs[0], np.full(5, 0.2), atol=1e-15)

    def test_huge_logits_stable(self):
        model = MlpModel((1, 2), [np.array([[1000.0, 1000.0]])], [np.zeros(2)])
        trace = forward(model, np.array([1.0]))
        np.testing.assert_allclose(trace.probs[0], [0.5, 0.5])
        assert np.all(np.isfinite(trace.probs))

    def test_softmax_contract(self, rng):
        model = init((4, 8, 3), seed=3)
        x = rng.normal(size=(20, 4))
        probs = forward(model, x).probs
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_nan_input(self):
        model = init((2, 3), seed=0)
        with pytest.raises(InputError):
            forward(model, np.array([np.nan, 1.0]))

    def test_rejects_wrong_width(self):
        model = init((2, 3), seed=0)
        with pytest.raises(InputError):
            forward(model, np.ones(3))


class TestBackward:
    def test_constant_gradient_annihilated(self, rng):
        # The softmax Jacobian kills additive constants, which is what makes
        # gauge-centered transport gradients safe.
        model = init((3, 5, 4), seed=11)
        x = rng.normal(size=(6, 3))
        trace = forward(model, x)
        grads = backward(model, trace, np.full_like(trace.probs, 3.7))
        for g in grads.weights + grads.biases:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_gauge_invariance(self, rng):
        model = init((3, 5, 4), seed=12)
        x = rng.normal(size=(5, 3))
        trace = forward(model, x)
        g = rng.normal(size=trace.probs.shape)
        base = backward(model, trace, g)
        shifted = backward(model, trace, g + 42.0)
        for a, b in zip(base.weights + base.biases, shifted.weights + shifted.biases):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_gradient(self, rng):
        model = init((2, 4, 3), seed=5)
        trace = forward(model, rng.normal(size=(3, 2)))
        grads = backward(model, trace, np.zeros_like(trace.probs))
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    def test_shape_mismatch(self, rng):
        model = init((2, 3), seed=5)
        trace = forward(model, rng.normal(size=(3, 2)))
        with pytest.raises(InputError):
            backward(model, trace, np.zeros((2, 3)))

    def test_parameter_gradients_match_finite_differences(self, rng):
        # Composite loss: cross-entropy on two samples plus a quadratic
        # score term on a third, checked parameter by parameter.
        beta = 0.3

        def batch_loss(model, x, ys):
            probs = forward(model, x).probs
            ce = -np.log(probs[0, ys[0]]) - np.log(probs[1, ys[1]])
            score = 1.0 - float(probs[2] @ probs[2])
            return float(ce - beta * score)

        for trial in range(20):
            model = init((3, 6, 4, 3), seed=100 + trial)
            x = rng.normal(size=(3, 3))
            ys = [int(rng.integers(3)), int(rng.integers(3))]

            trace = forward(model, x)
            probs = trace.probs
            grad_probs = np.zeros_like(probs)
            grad_probs[0, ys[0]] = -1.0 / probs[0, ys[0]]
            grad_probs[1, ys[1]] = -1.0 / probs[1, ys[1]]
            grad_probs[2] = beta * 2.0 * probs[2]
            grads = backward(model, trace, grad_probs)

            step = 1e-5
            for layer in range(len(model.weights)):
                w = model.weights[layer]
                flat = rng.choice(w.size, size=min(6, w.size), replace=False)
                for idx in flat:
                    i, j = np.unravel_index(idx, w.shape)
                    orig = w[i, j]
                    w[i, j] = orig + step
                    up = batch_loss(model, x, ys)
                    w[i, j] = orig - step
                    down = batch_loss(model, x, ys)
                    w[i, j] = orig
                    fd = (up - down) / (2 * step)
                    got = grads.weights[layer][i, j]
                    assert got == pytest.approx(fd, rel=1e-4, abs=1e-7)
