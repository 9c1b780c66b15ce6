"""Loss decomposition and explicit softmax-output gradients."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wood.errors import InputError, NumericError
from wood.geometry import EvalPath, ScoreConfig, _score_rows, binary_matrix, scores
from wood.loss import PROB_FLOOR, LossValue, loss_and_grad
from wood.oracles import dynamic_matrix, fd_gradient, lp_transport, one_hot
from wood.transport import CostKind, SinkhornConfig, sinkhorn_gradient

from conftest import random_simplex, solve_one

CLOSED_BINARY = ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM)
CLOSED_DYNAMIC = ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM)


def loss_of(ind=(), ood=(), beta=0.1, cfg=CLOSED_DYNAMIC):
    """Loss of a batch given as InD ``(f, label)`` pairs plus OOD rows."""
    rows = [f for f, _ in ind] + list(ood)
    lv, _ = loss_and_grad(np.array(rows), [label for _, label in ind], beta, cfg)
    return lv


def ood_grad(f, cfg, beta):
    """Gradient row of ``f`` as the only (OOD) row of a batch."""
    _, grad = loss_and_grad(np.asarray(f)[None, :], [], beta, cfg)
    return grad[0]


class TestWoodLoss:
    def test_single_ind_sample(self):
        lv = loss_of(ind=[(np.array([0.5, 0.5]), 0)])
        assert lv.total == pytest.approx(math.log(2.0), abs=1e-6)
        assert lv.ood_term == 0.0

    def test_single_ood_sample(self):
        lv = loss_of(ood=[np.full(10, 0.1)])
        assert lv.total == pytest.approx(-0.09, abs=1e-12)
        assert lv.ce_term == 0.0

    def test_perfect_prediction_zero_loss(self):
        assert loss_of(ind=[(one_hot(2, 4), 2)], cfg=CLOSED_BINARY).total == 0.0

    def test_decomposition_identity(self, rng):
        for _ in range(20):
            k = 5
            beta = float(rng.uniform(0, 1))
            lv = loss_of(
                ind=[(random_simplex(rng, k, floor=0.01), int(rng.integers(k))) for _ in range(4)],
                ood=[random_simplex(rng, k) for _ in range(3)],
                beta=beta,
            )
            assert lv.total == pytest.approx(lv.ce_term - beta * lv.ood_term, abs=1e-12)

    def test_beta_zero_reduces_to_cross_entropy(self, rng):
        k = 4
        samples = [
            (random_simplex(rng, k, floor=0.01), int(rng.integers(k))) for _ in range(8)
        ]
        lv = loss_of(ind=samples, ood=[random_simplex(rng, k) for _ in range(3)], beta=0.0)
        reference = sum(-math.log(max(f[y], PROB_FLOOR)) for f, y in samples) / len(samples)
        assert lv.total == pytest.approx(reference, abs=1e-12)

    def test_higher_ood_score_strictly_lowers_total(self):
        near_onehot = np.array([0.9, 0.05, 0.05])
        near_uniform = np.array([0.4, 0.3, 0.3])
        values, _ = scores(np.array([near_uniform, near_onehot]), CLOSED_DYNAMIC)
        assert values[0] > values[1]
        low = loss_of(ood=[near_onehot], beta=0.5)
        high = loss_of(ood=[near_uniform], beta=0.5)
        assert high.total < low.total

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            loss_of(ind=[(np.array([0.5, 0.5]), 2)], cfg=CLOSED_BINARY)

    def test_empty_batch_rejected(self):
        with pytest.raises(InputError):
            loss_and_grad(np.zeros((0, 3)), [], 0.1, CLOSED_DYNAMIC)
        with pytest.raises(InputError):
            loss_of(ood=[np.array([0.5, 0.5])], beta=-0.1)


class TestGradInd:
    def test_half_half(self):
        _, grad = loss_and_grad([[0.5, 0.5]], [0], 0.1, CLOSED_DYNAMIC)
        np.testing.assert_allclose(grad[0], [-2.0, 0.0])

    def test_confident_correct(self):
        _, grad = loss_and_grad([one_hot(0, 2)], [0], 0.1, CLOSED_DYNAMIC)
        np.testing.assert_allclose(grad[0], [-1.0, 0.0])

    def test_batch_normalization(self):
        _, grad = loss_and_grad([[0.5, 0.5], [0.25, 0.75]], [0, 1], 0.1, CLOSED_DYNAMIC)
        np.testing.assert_allclose(grad[1], [0.0, -1.0 / (2 * 0.75)])

    def test_matches_finite_differences(self, rng):
        # Centered gradient vs the simplex-tangent oracle, 50 random draws.
        for _ in range(50):
            k = int(rng.integers(2, 7))
            f = random_simplex(rng, k, floor=0.05)
            label = int(rng.integers(k))
            _, grad = loss_and_grad(f[None, :], [label], 0.1, CLOSED_DYNAMIC)
            grad = grad[0] - grad[0].mean()
            fd = fd_gradient(lambda x: -math.log(x[label]), f, step=1e-6)
            assert np.linalg.norm(grad - fd) <= 1e-3 * np.linalg.norm(fd)


class TestGradOod:
    def test_uniform_dynamic_is_stationary(self):
        grad = ood_grad(np.full(4, 0.25), CLOSED_DYNAMIC, 0.1)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_one_hot_dynamic_k2(self):
        grad = ood_grad(one_hot(0, 2), CLOSED_DYNAMIC, 0.1)
        np.testing.assert_allclose(grad, [0.1, -0.1], atol=1e-15)

    def test_closed_dynamic_matches_finite_differences(self, rng):
        beta = 0.1
        for _ in range(50):
            k = int(rng.integers(2, 7))
            f = random_simplex(rng, k, floor=0.02)
            grad = ood_grad(f, CLOSED_DYNAMIC, beta)
            fd = fd_gradient(lambda x: -beta * (1.0 - float(x @ x)), f, step=1e-5)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-9)

    def test_closed_binary_matches_finite_differences(self, rng):
        beta = 0.25
        f = np.array([0.6, 0.25, 0.15])
        grad = ood_grad(f, CLOSED_BINARY, beta)
        fd = fd_gradient(lambda x: -beta * (1.0 - float(np.max(x))), f, step=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_sinkhorn_matches_finite_differences(self, rng):
        # The dual route differentiates the regularized objective with the
        # cost matrix held fixed at the base point, so that is what the
        # oracle must difference.
        beta = 0.1
        lam = 10.0
        sk = SinkhornConfig(lam=lam, tol=1e-13, max_iter=20000)
        for kind in (CostKind.BINARY, CostKind.DYNAMIC):
            cfg = ScoreConfig(kind, EvalPath.SINKHORN, sk)
            for _ in range(4):
                f = random_simplex(rng, 3, floor=0.05)
                while np.diff(np.sort(f))[-1] < 1e-3:
                    f = random_simplex(rng, 3, floor=0.05)
                k_star = int(np.argmax(f)) if kind is CostKind.BINARY else 0
                frozen = (
                    binary_matrix(3) if kind is CostKind.BINARY else dynamic_matrix(f, k_star)
                )

                def fn(x):
                    res = solve_one(one_hot(k_star, 3), x, frozen, sk)
                    return -beta * res.reg_value

                grad = ood_grad(f, cfg, beta)
                fd = fd_gradient(fn, f, step=1e-5)
                assert np.linalg.norm(grad - fd) <= 1e-3 * np.linalg.norm(fd)

    def test_sinkhorn_non_convergence_raises(self, rng):
        cfg = ScoreConfig(
            CostKind.BINARY, EvalPath.SINKHORN, SinkhornConfig(lam=100.0, max_iter=1)
        )
        with pytest.raises(NumericError, match="row 0"):
            ood_grad(random_simplex(rng, 3), cfg, 0.1)

    def test_gradients_are_centered(self, rng):
        for cfg in (CLOSED_BINARY, CLOSED_DYNAMIC):
            _, grad = loss_and_grad(
                np.array([random_simplex(rng, 6) for _ in range(3)]), [], 0.7, cfg
            )
            assert np.all(np.abs(np.sum(grad, axis=1)) <= 1e-15)


class TestBoundDiagnostics:
    def test_binary_alpha_is_one(self):
        assert loss_of(ood=[np.array([0.5, 0.5])], cfg=CLOSED_BINARY).alpha_m == 1.0

    def test_dynamic_alpha_from_probs(self):
        lv = loss_of(ood=[np.array([0.5, 0.3, 0.2])], cfg=CLOSED_DYNAMIC)
        assert lv.alpha_m == pytest.approx(0.8)

    def test_min_softmax_entry(self):
        lv = loss_of(ind=[(np.array([0.5, 0.3, 0.2]), 0)], cfg=CLOSED_BINARY)
        assert lv.m == pytest.approx(0.2)
        assert lv.alpha_m == 1.0

    def test_empty_ind_vacuous(self):
        assert loss_of(ood=[np.array([0.5, 0.5])]).m == 1.0


# ---------------------------------------------------------------------------
# Batch path against per-row calls and the oracles.
# ---------------------------------------------------------------------------

CONFIGS = [
    ScoreConfig(kind, path, SinkhornConfig(lam=50.0))
    for kind in (CostKind.BINARY, CostKind.DYNAMIC)
    for path in (EvalPath.CLOSED_FORM, EvalPath.SINKHORN)
]


@st.composite
def softmax_batches(draw, max_n=6, max_k=5, floor=0.0):
    """Softmax of random logits, shape (n, K), optionally floored inward."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(2, max_k))
    logits = np.array(
        draw(st.lists(st.floats(-6.0, 6.0), min_size=n * k, max_size=n * k))
    ).reshape(n, k)
    P = np.exp(logits - logits.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    if floor:
        P = (1.0 - k * floor) * P + floor
    return P


class TestBatchProperties:
    @settings(max_examples=40, deadline=None)
    @given(P=softmax_batches(), cfg=st.sampled_from(CONFIGS))
    def test_scores_rows_equal_single_row_calls(self, P, cfg):
        values, classes = scores(P, cfg)
        for i, f in enumerate(P):
            value, k_star = scores(f[None, :], cfg)
            assert values[i] == value[0]
            assert classes[i] == k_star[0]

    @settings(max_examples=40, deadline=None)
    @given(
        P=softmax_batches(),
        cfg=st.sampled_from(CONFIGS),
        split=st.floats(0.0, 1.0),
        beta=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_loss_rows_equal_single_row_calls(self, P, cfg, split, beta, seed):
        n, k = P.shape
        n_ind = int(split * n)
        n_ood = n - n_ind
        labels = np.random.default_rng(seed).integers(0, k, size=n_ind)
        lv, grad = loss_and_grad(P, labels, beta, cfg)
        # An InD row depends on the rest of the batch only through n_ind,
        # an OOD row only through beta / n_ood.
        for i in range(n_ind):
            _, alone = loss_and_grad(np.tile(P[i], (n_ind, 1)), [labels[i]] * n_ind, beta, cfg)
            np.testing.assert_array_equal(grad[i], alone[0])
        for j in range(n_ind, n):
            _, alone = loss_and_grad(P[j][None, :], [], beta / n_ood, cfg)
            np.testing.assert_array_equal(grad[j], alone[0])
        if n_ood:
            assert lv.ood_term == float(np.mean(scores(P[n_ind:], cfg)[0]))

    @settings(max_examples=30, deadline=None)
    @given(P=softmax_batches(max_n=4), cfg=st.sampled_from(CONFIGS))
    def test_scores_match_lp_oracle(self, P, cfg):
        values, classes = scores(P, cfg)
        k = P.shape[1]
        for f, value, k_star in zip(P, values, classes):
            exact = [
                lp_transport(
                    one_hot(c, k),
                    f,
                    binary_matrix(k) if cfg.matrix_kind is CostKind.BINARY else dynamic_matrix(f, c),
                )[0]
                for c in range(k)
            ]
            assert value == pytest.approx(min(exact), abs=1e-8)
            assert exact[k_star] == pytest.approx(min(exact), abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        P=softmax_batches(floor=0.02),
        kind=st.sampled_from([CostKind.BINARY, CostKind.DYNAMIC]),
        split=st.floats(0.0, 1.0),
        beta=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_closed_form_gradients_match_finite_differences(self, P, kind, split, beta, seed):
        cfg = ScoreConfig(kind, EvalPath.CLOSED_FORM)
        n, k = P.shape
        n_ind = int(split * n)
        n_ood = n - n_ind
        labels = np.random.default_rng(seed).integers(0, k, size=n_ind)
        _, grad = loss_and_grad(P, labels, beta, cfg)
        for i in range(n_ind):
            label = labels[i]
            fd = fd_gradient(lambda x: -math.log(x[label]) / n_ind, P[i], step=1e-6)
            centered = grad[i] - grad[i].mean()
            assert np.linalg.norm(centered - fd) <= 1e-3 * np.linalg.norm(fd)

        def score(x):
            return 1.0 - float(np.max(x) if kind is CostKind.BINARY else x @ x)

        for j in range(n_ind, n):
            f = P[j]
            if kind is CostKind.BINARY and np.diff(np.sort(f))[-1] < 1e-3:
                continue  # the max is not differentiable at a tie
            fd = fd_gradient(lambda x: -beta / n_ood * score(x), f, step=1e-5)
            # Central differences of these quadratic/linear scores carry only
            # rounding error, about eps / step = 2e-11, which near a
            # stationary point exceeds any relative bound.
            assert np.linalg.norm(grad[j] - fd) <= 1e-6 * np.linalg.norm(fd) + 1e-9


# ---------------------------------------------------------------------------
# The batch loss against its plain formulas, bit for bit.
# ---------------------------------------------------------------------------


def reference_loss_and_grad(P, labels, beta, cfg):
    """:func:`loss_and_grad` with every intermediate kept: the label entries
    by fancy indexing, ``m`` and ``alpha_m`` as reductions of whole clamped
    or complemented arrays, and the OOD gradient centered by a row sum."""
    n, k = P.shape
    n_ind = len(labels)
    n_ood = n - n_ind
    grad = np.zeros_like(P)
    ce_term, m = 0.0, 1.0
    if n_ind:
        rows = np.arange(n_ind)
        p_label = np.maximum(P[rows, labels], PROB_FLOOR)
        ce_term = float((-np.log(p_label)).sum() / n_ind)
        grad[rows, labels] = -1.0 / (n_ind * p_label)
        m = float(np.maximum(P[:n_ind], PROB_FLOOR).min())
    dynamic = cfg.matrix_kind is CostKind.DYNAMIC
    ood_term, alpha_m = 0.0, 0.0 if dynamic else 1.0
    if n_ood:
        Q = P[n_ind:]
        values, classes, plans = _score_rows(Q, cfg, first_row=n_ind)
        ood_term = float(values.sum() / n_ood)
        scale = beta / n_ood
        if cfg.evaluation is EvalPath.SINKHORN:
            g = -scale * sinkhorn_gradient(plans, cfg.sinkhorn)
        elif dynamic:
            g = scale * (2.0 * Q - 1.0)
        else:
            g = np.zeros_like(Q)
            g[np.arange(n_ood), classes] = scale
        grad[n_ind:] = g - g.sum(axis=1, keepdims=True) / k
        if dynamic:
            alpha_m = float((1.0 - Q.min(axis=1)).max())
    return LossValue(ce_term - beta * ood_term, ce_term, ood_term, alpha_m, m), grad


# Weights of a row before it is normalized: exact zeros, entries that stay
# below PROB_FLOOR, and ordinary ones.
ROW_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.0, 5e-324, 1e-300, 1e-14, 1e-13]), st.floats(1e-3, 1.0)
)


@st.composite
def batches_with_zeros(draw, max_n=6, max_k=5):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(2, max_k))
    P = np.array(draw(st.lists(ROW_WEIGHTS, min_size=n * k, max_size=n * k))).reshape(n, k)
    P[P.sum(axis=1) == 0.0, draw(st.integers(0, k - 1))] = 1.0
    return P / P.sum(axis=1, keepdims=True)


def outcome(fn, *args):
    """Gradient bytes and each LossValue field as ``.hex()``, or the error."""
    try:
        lv, grad = fn(*args)
    except NumericError as exc:
        return repr(exc)
    return grad.tobytes(), [float(value).hex() for value in astuple(lv)]


class TestLossEqualsPlainFormulas:
    @settings(max_examples=150, deadline=None)
    @given(
        P=batches_with_zeros(),
        cfg=st.sampled_from(CONFIGS),
        ind=st.sampled_from(["none", "all", "some"]),
        beta=st.floats(0.0, 2.0),
        data=st.data(),
    )
    def test_bits_equal_the_reference(self, P, cfg, ind, beta, data):
        n, k = P.shape
        n_ind = {"none": 0, "all": n, "some": data.draw(st.integers(0, n))}[ind]
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n_ind, max_size=n_ind))
        labels = np.array(labels, dtype=np.intp)
        assert outcome(loss_and_grad, P, labels, beta, cfg) == outcome(
            reference_loss_and_grad, P, labels, beta, cfg
        )
