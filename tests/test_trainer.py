"""Batch construction, training mechanics, and checkpoint persistence."""

import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wood.trainer
from wood.data import Dataset, Role, SyntheticKind, SyntheticSpec, synth
from wood.errors import InputError, NumericError
from wood.geometry import EvalPath, ScoreConfig, _score_rows, scores
from wood.loss import loss_and_grad
from wood.model import MlpModel, ParamGrads, backward, forward, init
from wood.trainer import (
    Batch,
    EpochMetrics,
    MomentumState,
    TrainConfig,
    _all_finite,
    _check_finite,
    fit,
    load_checkpoint,
    make_batches,
    metrics_csv_lines,
    save_checkpoint,
    train_step,
)
from wood.transport import CostKind, SinkhornConfig

from conftest import edit_json, make_checkpoint

PROB_FLOOR = 1e-12


def reference_update(model, grads, vel_w, vel_b, cfg):
    """SGD with momentum, one layer array at a time: the update the flat
    vector must reproduce bit for bit."""
    for w, b, gw, gb, vw, vb in zip(
        model.weights, model.biases, grads.weights, grads.biases, vel_w, vel_b
    ):
        vw *= cfg.momentum
        vw += gw
        vb *= cfg.momentum
        vb += gb
        w -= cfg.lr * vw
        b -= cfg.lr * vb


def blobs(n_per_class=50, k=2, seed=3):
    return synth(
        SyntheticSpec(SyntheticKind.GAUSSIAN_BLOBS, k=k, n_per_class=n_per_class, seed=seed)
    )


def ring(n=40, seed=5):
    # Inner ring: the hole at the centroid of the class circle. Far-out
    # rings make a small ReLU net spuriously confident (saturated softmax),
    # which the score gradient cannot undo; see the data-module docs.
    return synth(
        SyntheticSpec(SyntheticKind.RING, n_per_class=n, separation=0.5, seed=seed)
    )


class TestMakeBatches:
    def test_partition_into_disjoint_halves(self):
        ind = blobs(n_per_class=50, k=2)  # 100 samples
        cfg = TrainConfig(epochs=1, b_ind=50, b_ood=0)
        batches = list(make_batches(ind, None, cfg, np.random.default_rng(0)))
        assert len(batches) == 2
        seen = np.concatenate([b.x[: len(b.y_ind), 0] for b in batches])
        assert seen.size == 100
        assert np.unique(seen).size == 100

    def test_b_ood_zero_has_empty_ood_slice(self):
        ind = blobs()
        cfg = TrainConfig(epochs=1, b_ind=25, b_ood=0)
        for batch in make_batches(ind, None, cfg, np.random.default_rng(0)):
            assert batch.x.shape[0] == len(batch.y_ind)

    def test_deterministic_under_seed(self):
        ind = blobs()
        ood = ring()
        cfg = TrainConfig(epochs=1, b_ind=30, b_ood=5)
        a = list(make_batches(ind, ood, cfg, np.random.default_rng(11)))
        b = list(make_batches(ind, ood, cfg, np.random.default_rng(11)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.x[: len(x.y_ind)], y.x[: len(y.y_ind)])
            np.testing.assert_array_equal(x.x[len(x.y_ind) :], y.x[len(y.y_ind) :])

    def test_empty_ood_with_positive_b_ood(self):
        ind = blobs()
        cfg = TrainConfig(epochs=1, b_ind=10, b_ood=4)
        with pytest.raises(InputError):
            list(make_batches(ind, None, cfg, np.random.default_rng(0)))


class TestFitInputs:
    @pytest.mark.parametrize("labels, b_ood", [(np.zeros(6), 0), (np.arange(6) % 2, 3)])
    def test_rejected_before_the_first_step(self, labels, b_ood, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("fit stepped on inputs it cannot train on")

        monkeypatch.setattr("wood.trainer.train_step", no_step)
        ind = Dataset(np.random.default_rng(0).normal(size=(6, 2)), labels, Role.IND)
        with pytest.raises(InputError):
            fit(ind, None, TrainConfig(epochs=1, b_ood=b_ood))

    def test_ood_width_must_match(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("fit stepped on inputs it cannot train on")

        monkeypatch.setattr("wood.trainer.train_step", no_step)
        ind = Dataset(np.zeros((6, 2)), np.arange(6) % 2, Role.IND)
        ood = Dataset(np.zeros((4, 3)), None, Role.OOD)
        with pytest.raises(InputError, match="OOD feature dim 3 does not match InD feature dim 2"):
            fit(ind, ood, TrainConfig(epochs=1, b_ood=2))


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self):
        ind = blobs()
        cfg = TrainConfig(epochs=1, b_ind=20, b_ood=0, lr=0.0)
        model = init((2, 8, 2), seed=1)
        before = [w.copy() for w in model.weights]
        batch = next(make_batches(ind, None, cfg, np.random.default_rng(0)))
        loss_value = train_step(model, batch, cfg, MomentumState(model))
        assert math.isfinite(loss_value.total)
        for w, orig in zip(model.weights, before):
            np.testing.assert_array_equal(w, orig)

    def test_loss_decreases_on_separable_toy(self):
        # Plain logistic-regression behavior: single linear layer, pure CE.
        ind = blobs(n_per_class=40, k=2, seed=9)
        cfg = TrainConfig(epochs=1, b_ind=80, b_ood=0, lr=0.05, momentum=0.0, beta=0.0)
        model = init((2, 2), seed=2)
        state = MomentumState(model)
        rng = np.random.default_rng(0)
        totals = []
        for _ in range(100):
            batch = next(make_batches(ind, None, cfg, rng))
            loss_value = train_step(model, batch, cfg, state)
            totals.append(loss_value.total)
        assert totals[-1] < totals[0]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))

    def test_nan_guard_reports_diagnostics(self):
        cfg = TrainConfig(epochs=1)
        grads = ParamGrads((1, 1))
        grads.weights[0][...] = np.nan
        grads.biases[0][...] = 0.0
        grad_probs = np.array([[np.nan, 0.0]])
        with pytest.raises(NumericError, match="batch=7"):
            _check_finite(grads, grad_probs, cfg, batch_id=7)

    @pytest.mark.parametrize(
        "values, finite",
        [([0.0, -2.5], True), ([1e200, -1e300], True), ([1e200, np.inf], False),
         ([np.nan, 0.0], False), ([-np.inf], False)],
    )
    def test_all_finite(self, values, finite):
        # Entries above 1e154 overflow the dot product and take the entrywise test.
        with np.errstate(over="ignore", invalid="ignore"):
            assert _all_finite(np.array(values)) is finite

    @pytest.mark.parametrize("bad_row", [0, 3, 6])
    def test_non_finite_gradient_names_the_row(self, monkeypatch, bad_row):
        # A NaN in one row of the softmax-output gradient reaches every
        # parameter gradient; the fused check catches it before the update
        # and the row search names that row.
        def poisoned(*args):
            value, grad = loss_and_grad(*args)
            grad[bad_row, 0] = np.nan
            return value, grad

        monkeypatch.setattr("wood.trainer._loss_and_grad", poisoned)
        ind, ood = blobs(n_per_class=10), ring(n=10)
        cfg = TrainConfig(epochs=1, b_ind=5, b_ood=3)
        batch = next(make_batches(ind, ood, cfg, np.random.default_rng(0)))
        model = init((2, 4, 2), seed=0)
        state = MomentumState(model)
        before = model.params.copy()
        with pytest.raises(NumericError) as info:
            train_step(model, batch, cfg, state, batch_id=(2, 9))
        assert str(info.value) == (
            f"non-finite gradient encountered (lam={cfg.score.sinkhorn.lam},"
            f" batch=(2, 9), sample={bad_row})"
        )
        assert model.params.tobytes() == before.tobytes()
        assert not state.velocity.any()

    def test_diverged_model_is_a_numeric_error(self):
        # A finite but huge step overflows the next forward pass; the step
        # reports it itself, without letting NumPy warnings through.
        ind, ood = blobs(n_per_class=10), ring(n=10)
        cfg = TrainConfig(epochs=2, b_ind=5, b_ood=3, lr=1e300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as info:
                fit(ind, ood, cfg, hidden=(4,))
        assert caught == []
        assert re.fullmatch(
            r"model diverged: non-finite softmax output"
            r" \(lr=1e\+300, batch=\(0, 1\), sample=\d+\)",
            str(info.value),
        )

    def test_non_finite_update_is_a_numeric_error(self):
        # Inputs of size 100 give gradients large enough that lr * velocity
        # overflows to inf in the update itself, before any forward pass sees it.
        rng = np.random.default_rng(0)
        batch = Batch(x=rng.normal(size=(6, 2)) * 100, y_ind=np.arange(6) % 3)
        model = init((2, 4, 3), seed=0)
        cfg = TrainConfig(epochs=1, lr=1e308)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as info:
                train_step(model, batch, cfg, MomentumState(model), batch_id=(0, 4))
        assert caught == []
        assert str(info.value) == (
            "model diverged: non-finite parameter after the update (lr=1e+308, batch=(0, 4))"
        )

    def test_sinkhorn_failure_names_batch_and_row(self):
        ind, ood = blobs(n_per_class=10), ring(n=10)
        score = ScoreConfig(
            CostKind.BINARY, EvalPath.SINKHORN, SinkhornConfig(lam=50.0, max_iter=1)
        )
        cfg = TrainConfig(epochs=1, b_ind=5, b_ood=3, score=score)
        with pytest.raises(NumericError, match=r"row 5 \(class 0\).*batch=\(0, 0\)"):
            fit(ind, ood, cfg, hidden=(4,))


class TestFitEqualsPlainCrossEntropyTrainer:
    def test_bitwise_trajectory_with_no_ood(self):
        ind = blobs(n_per_class=30, k=3, seed=21)
        cfg = TrainConfig(epochs=3, b_ind=16, b_ood=0, lr=0.02, momentum=0.9, seed=77)
        ckpt, _ = fit(ind, None, cfg, hidden=(8,))

        # Reference loop built from the model primitives only, replicating
        # the documented seeding scheme (init stream, batch stream).
        init_seed, batch_seed = np.random.SeedSequence(cfg.seed).spawn(2)
        model = init((ind.dim, 8, ind.n_classes), init_seed)
        rng = np.random.default_rng(batch_seed)
        vel_w = [np.zeros_like(w) for w in model.weights]
        vel_b = [np.zeros_like(b) for b in model.biases]
        for _ in range(cfg.epochs):
            perm = rng.permutation(ind.n)
            for start in range(0, ind.n, cfg.b_ind):
                idx = perm[start : start + cfg.b_ind]
                x = ind.features[idx]
                ys = ind.labels[idx]
                trace = forward(model, x)
                grad_probs = np.zeros_like(trace.probs)
                for row, y in enumerate(ys):
                    grad_probs[row, y] = -1.0 / (
                        len(idx) * max(float(trace.probs[row, y]), PROB_FLOOR)
                    )
                grads = backward(model, trace, grad_probs)
                reference_update(model, grads, vel_w, vel_b, cfg)

        for got, want in zip(ckpt.model.weights, model.weights):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(ckpt.model.biases, model.biases):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 6), max_size=2),
        dim=st.integers(1, 4),
        k=st.integers(2, 4),
        lr=st.floats(1e-4, 0.5),
        momentum=st.floats(0.0, 0.99),
        b_ind=st.integers(1, 6),
        b_ood=st.integers(0, 4),
        score=st.sampled_from(
            [
                ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM),
                ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM),
                ScoreConfig(CostKind.BINARY, EvalPath.SINKHORN, SinkhornConfig(lam=10.0)),
                ScoreConfig(CostKind.DYNAMIC, EvalPath.SINKHORN, SinkhornConfig(lam=10.0)),
                # Rows off the one-hots underflow at lam=3000 and are solved
                # again in the log domain.
                ScoreConfig(CostKind.BINARY, EvalPath.SINKHORN, SinkhornConfig(lam=3000.0)),
                ScoreConfig(CostKind.DYNAMIC, EvalPath.SINKHORN, SinkhornConfig(lam=3000.0)),
            ]
        ),
        ood_scale=st.sampled_from([3.0, 30.0]),
        steps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_update_equals_per_layer_update(
        self, hidden, dim, k, lr, momentum, b_ind, b_ood, score, ood_scale, steps, seed
    ):
        # train_step runs the unchecked bodies of forward, loss_and_grad and
        # backward; the reference runs the checked public functions. Both
        # give the same bytes, or the same error.
        cfg = TrainConfig(
            epochs=1, b_ind=b_ind, b_ood=b_ood, lr=lr, momentum=momentum, score=score
        )
        dims = (dim, *hidden, k)
        model = init(dims, seed)
        state = MomentumState(model)
        ref = init(dims, seed)
        vel_w = [np.zeros_like(w) for w in ref.weights]
        vel_b = [np.zeros_like(b) for b in ref.biases]
        rng = np.random.default_rng(seed)
        for step in range(steps):
            x_ind = rng.normal(size=(b_ind, dim))
            y_ind = rng.integers(0, k, size=b_ind)
            x_ood = rng.normal(size=(b_ood, dim)) * ood_scale
            batch = Batch(x=np.concatenate((x_ind, x_ood)), y_ind=y_ind)
            trace = forward(ref, np.concatenate((x_ind, x_ood)))
            try:
                want, grad_probs = loss_and_grad(trace.probs, batch.y_ind, cfg.beta, score)
            except NumericError as exc:
                with pytest.raises(NumericError) as info:
                    train_step(model, batch, cfg, state, batch_id=(0, step))
                assert str(info.value) == f"{exc} (batch=(0, {step}))"
                break
            reference_update(ref, backward(ref, trace, grad_probs), vel_w, vel_b, cfg)
            got = train_step(model, batch, cfg, state, batch_id=(0, step))

            assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(want)]
            for a, b in zip((*model.weights, *model.biases), (*ref.weights, *ref.biases)):
                assert a.tobytes() == b.tobytes()
        assert state.velocity.tobytes() == np.concatenate(
            [np.concatenate((w.ravel(), b)) for w, b in zip(vel_w, vel_b)]
        ).tobytes()

    def test_beta_irrelevant_without_ood_samples(self):
        ind = blobs(n_per_class=20, k=2, seed=4)
        base = TrainConfig(epochs=2, b_ind=10, b_ood=0, seed=5, beta=0.0)
        other = TrainConfig(epochs=2, b_ind=10, b_ood=0, seed=5, beta=0.9)
        ckpt_a, _ = fit(ind, None, base, hidden=(4,))
        ckpt_b, _ = fit(ind, None, other, hidden=(4,))
        for wa, wb in zip(ckpt_a.model.weights, ckpt_b.model.weights):
            np.testing.assert_array_equal(wa, wb)


def blas_fingerprint() -> str:
    """sha256 of BLAS products at the shapes of the pinned steps below, and
    of ``exp`` and ``log``: the roundings that other hardware or another
    BLAS build may legitimately change."""
    rng = np.random.default_rng(0)
    parts = []
    for a, b in ((12, 16), (16, 8), (8, 5)):
        x, w, d = rng.normal(size=(14, a)), rng.normal(size=(a, b)), rng.normal(size=(14, b))
        parts += [x @ w, d @ w.T, x.T @ d]
    kernel, v = rng.random((1, 5, 5)), rng.random((6, 5, 1))
    parts += [kernel @ v, kernel.transpose(0, 2, 1) @ v]
    z = rng.normal(size=64) * 30.0
    parts += [np.exp(z), np.log(np.abs(z))]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def stacked_fingerprint() -> str:
    """sha256 of the stacked ``1xK @ Kx1`` products by which the dynamic
    closed form scores the six OOD rows of the pinned dynamic steps."""
    rows = np.random.default_rng(1).random((6, 5))
    return hashlib.sha256((rows[:, None, :] @ rows[:, :, None]).tobytes()).hexdigest()


class TestPinnedTrainingBits:
    """The parameter vector after three binary-Sinkhorn ``train_step``s has
    the sha256 recorded before the class solve was reworked, and after three
    dynamic closed-form steps (the path the c06 and score workloads train on)
    the one recorded before the step was trimmed, so a refactor cannot change
    the rounding unnoticed. The digests hold for the BLAS and
    the ``exp``/``log`` they were recorded with (NumPy 2.4.6, OpenBLAS
    0.3.31, x86-64 with AVX-512); elsewhere the test cannot tell a rounding
    change from the platform's own, and skips."""

    FINGERPRINT = "abd9f8eccd2bcbbe4c5331dd5687f9ebdfd893ebed621d771987cc12b0a07831"
    DIGESTS = {
        50.0: ("b1cb8e5702dc8773105b200940ce796292810b3468c5e93d18b0375cfec3bf07", "scaled"),
        # Every OOD row is solved in the log domain at lam=3000, where the
        # gradient keeps the entries below LOG_FLOOR that carry mass.
        3000.0: ("fbe5a15ea1f14d2dc2cbab5a7244720e184353e077661cff6101fc36856f69aa", "log"),
    }

    @pytest.mark.parametrize("lam", sorted(DIGESTS))
    def test_three_binary_sinkhorn_steps(self, lam):
        if blas_fingerprint() != self.FINGERPRINT:
            pytest.skip("BLAS, exp or log round differently from where the digests were recorded")
        digest, domain = self.DIGESTS[lam]
        score = ScoreConfig(CostKind.BINARY, EvalPath.SINKHORN, SinkhornConfig(lam=lam))
        cfg = TrainConfig(epochs=1, beta=0.5, b_ind=8, b_ood=6, lr=0.05, momentum=0.9, score=score)
        model = init((12, 16, 8, 5), 7)
        state = MomentumState(model)
        rng = np.random.default_rng(11)
        for step in range(3):
            x = rng.normal(size=(14, 12))
            x[8:] *= 3.0
            y = rng.integers(0, 5, size=8)
            _, _, plans = _score_rows(forward(model, x[8:]).probs, score)
            assert plans.domain.tolist() == [domain] * 6
            train_step(model, Batch(x=x, y_ind=y), cfg, state, batch_id=(0, step))
        assert hashlib.sha256(model.params.tobytes()).hexdigest() == digest

    # The dynamic closed form scores each OOD row by a stacked 1xK @ Kx1
    # product, a shape the fingerprint above does not cover.
    STACKED_FINGERPRINT = "2273e730bc03c488a03b0acabef74ad9d4e19c42db0a4aa2574b2d38bcc01e29"
    DYNAMIC_DIGEST = "23727f89c3799ac3aeebeb9d85d2377c9df0e83453fc9b33bcb73fbf2e6bbd25"

    def test_three_dynamic_closed_form_steps(self):
        if (blas_fingerprint(), stacked_fingerprint()) != (
            self.FINGERPRINT,
            self.STACKED_FINGERPRINT,
        ):
            pytest.skip("BLAS, exp or log round differently from where the digests were recorded")
        score = ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM)
        cfg = TrainConfig(epochs=1, beta=0.5, b_ind=8, b_ood=6, lr=0.05, momentum=0.9, score=score)
        model = init((12, 16, 8, 5), 7)
        state = MomentumState(model)
        rng = np.random.default_rng(11)
        for step in range(3):
            x = rng.normal(size=(14, 12))
            x[8:] *= 3.0
            y = rng.integers(0, 5, size=8)
            train_step(model, Batch(x=x, y_ind=y), cfg, state, batch_id=(0, step))
        digest = hashlib.sha256(model.params.tobytes()).hexdigest()
        assert digest == self.DYNAMIC_DIGEST


class TestFitMetrics:
    def test_decomposition_identity_per_epoch(self):
        ind = blobs(n_per_class=30, k=2, seed=6)
        ood = ring(n=30, seed=7)
        cfg = TrainConfig(epochs=3, b_ind=20, b_ood=5, seed=1)
        _, metrics = fit(ind, ood, cfg, hidden=(8,))
        assert len(metrics) == 3
        for row in metrics:
            assert row.total == pytest.approx(
                row.ce_term - cfg.beta * row.ood_term, abs=1e-12
            )
            assert row.alpha_m > 0
            assert 0 < row.m <= 1

    def test_epoch_metrics_fold_the_epoch_losses(self):
        # fit replayed by hand: the same seed streams, init, batches and
        # steps. Each epoch's row is the means of its steps' loss terms, the
        # largest alpha_M and the smallest m, to the bit.
        ind = blobs(n_per_class=30, k=2, seed=6)
        ood = ring(n=30, seed=7)
        score_cfg = ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM)
        cfg = TrainConfig(epochs=3, b_ind=20, b_ood=5, seed=1, score=score_cfg)
        _, metrics = fit(ind, ood, cfg, hidden=(8,))
        init_seed, batch_seed = np.random.SeedSequence(cfg.seed).spawn(2)
        model = init((ind.dim, 8, ind.n_classes), init_seed)
        rng = np.random.default_rng(batch_seed)
        state = MomentumState(model)
        expected = []
        for epoch, row in enumerate(metrics):
            losses = [
                train_step(model, batch, cfg, state, batch_id=(epoch, batch_id))
                for batch_id, batch in enumerate(make_batches(ind, ood, cfg, rng))
            ]
            assert len({l.alpha_m for l in losses}) > 1 and len({l.m for l in losses}) > 1
            expected.append(
                EpochMetrics(
                    epoch=epoch,
                    ce_term=float(np.mean([l.ce_term for l in losses])),
                    ood_term=float(np.mean([l.ood_term for l in losses])),
                    total=float(np.mean([l.total for l in losses])),
                    alpha_m=max(l.alpha_m for l in losses),
                    m=min(l.m for l in losses),
                    wall_ms=row.wall_ms,
                )
            )
        assert metrics_csv_lines(metrics) == metrics_csv_lines(expected)

    def test_ood_term_beats_pure_cross_entropy_baseline(self):
        # The mechanism claim: the score penalty leaves OOD softmax outputs
        # measurably flatter than cross-entropy-only training does.
        ind = blobs(n_per_class=100, k=3, seed=13)
        ood = ring(n=200, seed=14)
        score_cfg = ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM)
        mixed = TrainConfig(epochs=30, b_ind=50, b_ood=10, seed=3, score=score_cfg)
        ce_only = TrainConfig(epochs=30, b_ind=50, b_ood=0, seed=3, score=score_cfg)
        ckpt_mixed, _ = fit(ind, ood, mixed, hidden=(64, 32))
        ckpt_ce, _ = fit(ind, None, ce_only, hidden=(64, 32))

        def mean_ood_score(ckpt):
            probs = forward(ckpt.model, ood.features).probs
            return float(np.mean(scores(probs, score_cfg)[0]))

        assert mean_ood_score(ckpt_mixed) > mean_ood_score(ckpt_ce) + 0.05

    def test_metrics_csv_round_trip_floats(self):
        ind = blobs(n_per_class=10, k=2, seed=8)
        cfg = TrainConfig(epochs=1, b_ind=10, b_ood=0, seed=2)
        _, metrics = fit(ind, None, cfg, hidden=(4,))
        lines = metrics_csv_lines(metrics)
        assert lines[0].startswith("epoch,ce_term,ood_term,total,alpha_M,m,wall_ms")
        cells = lines[1].split(",")
        assert float(cells[3]) == metrics[0].total

    def test_metrics_csv_lines_text(self):
        rows = [
            EpochMetrics(0, 0.5, 1e-17, 0.1 + 0.2, 0.0, -2.5, 12.0),
            EpochMetrics(11, *[1.0] * 6),
        ]
        assert metrics_csv_lines(rows) == [
            "epoch,ce_term,ood_term,total,alpha_M,m,wall_ms",
            "0,0.5,1e-17,0.30000000000000004,0.0,-2.5,12.0",
            "11,1.0,1.0,1.0,1.0,1.0,1.0",
        ]


def cut_place(layer_dims) -> str:
    """Where :func:`save_checkpoint` cuts the weight rows of ``layer_dims`` in
    two: before the first chunk (up to 16 rows of one matrix) that the
    parameters before it, in the JSON order of the biases and then the rows
    of each weight matrix, reach half of; or after the last row."""
    pairs = list(zip(layer_dims[:-1], layer_dims[1:]))
    before = sum(fan_out for _, fan_out in pairs)
    half = (before + sum(fan_in * fan_out for fan_in, fan_out in pairs)) // 2
    for i, (fan_in, fan_out) in enumerate(pairs):
        for row in range(0, fan_in, 16):
            if before >= half:
                if row:
                    return "inside the first matrix" if i == 0 else "inside a later matrix"
                return "between two matrices" if i else "at the first weight row"
            before += min(16, fan_in - row) * fan_out
    return "after the last weight row"


def checkpoint_payload(ckpt) -> dict:
    """The JSON object that :func:`save_checkpoint` writes for ``ckpt``."""
    model = ckpt.model
    return {
        "format_version": 1,
        "layer_dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "activation": "relu",
        "normalization": ckpt.normalization,
        "n_classes": model.n_classes,
        "train_config": ckpt.train_config,
        "rng_digest": ckpt.rng_digest,
    }


def save_on_cpus(ckpt, path, cpus) -> int:
    """Save ``ckpt`` to ``path`` with every checkpoint over the two-process
    threshold and ``cpus`` as this process's CPUs; return the forks made."""
    real_fork, forks = os.fork, []
    with (
        mock.patch.object(wood.trainer, "_SPLIT_PARAMS", 1),
        mock.patch.object(os, "sched_getaffinity", return_value=cpus, create=True),
        mock.patch.object(os, "fork", lambda: forks.append(None) or real_fork()),
    ):
        save_checkpoint(ckpt, path)
    with pytest.raises(ChildProcessError):  # every child was waited for
        os.waitpid(-1, os.WNOHANG)
    return len(forks)


class TestCheckpoint:
    def make(self, tmp_path):
        model = init((3, 4, 2), seed=42)
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_checkpoint(model, {"kind": "identity"}, rng_digest="digest"), path)
        return model, path

    def test_round_trip_bytes_identical(self, tmp_path):
        _, path = self.make(tmp_path)
        first = path.read_bytes()
        reloaded = load_checkpoint(path)
        save_checkpoint(reloaded, path)
        assert path.read_bytes() == first

    def test_round_trip_parameters_bitwise(self, tmp_path):
        model, path = self.make(tmp_path)
        restored = load_checkpoint(path).model
        for a, b in zip(model.weights, restored.weights):
            np.testing.assert_array_equal(a, b)

    def test_model_checkpoint_model_bitwise(self, tmp_path):
        model = init((3, 5, 4, 2), seed=8)
        model.params[:] = np.random.default_rng(1).normal(size=model.params.size) * 1e-3
        cfg = TrainConfig(epochs=1)
        ckpt = make_checkpoint(model, {"kind": "identity"}, cfg, "digest")
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        restored = load_checkpoint(path).model
        assert restored.layer_dims == model.layer_dims
        assert restored.params.tobytes() == model.params.tobytes()
        again = make_checkpoint(restored, {"kind": "identity"}, cfg, "digest")
        assert again.model.params.tobytes() == ckpt.model.params.tobytes()

    def test_saved_bytes_are_pinned(self, tmp_path):
        # Literal weights, not an RNG draw: only a change of the file format moves the digest.
        model = MlpModel(
            (2, 3, 2),
            [[[0.5, -1.25, 2.0], [0.1, 0.2, -0.3]], [[1.0, -1.0], [0.25, 0.75], [-2.5, 3.0]]],
            [[0.0, 0.125, -0.0], [1e-3, -7.0]],
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(make_checkpoint(model, {"kind": "identity"}, rng_digest="digest"), path)
        digest = "577d58688a2b39caff817a38d0c2b86f5e8e29e110d13a77fa5053845e67440e"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(
        layer_dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        data=st.data(),
        non_finite=st.sampled_from([None, math.nan, math.inf, -math.inf]),
    )
    def test_split_rendering_is_json_dumps(self, tmp_path_factory, layer_dims, data, non_finite):
        # With the threshold at one parameter, every checkpoint renders in two
        # processes, one with a NaN or an infinity too.
        model = init(layer_dims, seed=0)
        special = st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 1e-5, 1.7976931348623157e308])
        value = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
        size = model.params.size
        model.params[:] = data.draw(st.lists(value, min_size=size, max_size=size))
        if non_finite is not None:
            model.params[data.draw(st.integers(0, size - 1))] = non_finite
        ckpt = make_checkpoint(model, {"kind": "identity"}, rng_digest="digest")
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        assert save_on_cpus(ckpt, path, {0, 1}) == 1
        expected = json.dumps(checkpoint_payload(ckpt), sort_keys=True, separators=(",", ":"))
        assert path.read_text(encoding="ascii") == expected + "\n"

    @settings(max_examples=40, deadline=None)
    @given(
        layer_dims=st.lists(st.integers(1, 70), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        special=st.lists(st.sampled_from([-0.0, 5e-324, 1e22, math.nan, -math.inf]), max_size=3),
    )
    def test_chunked_rendering_is_json_dumps(self, tmp_path_factory, layer_dims, seed, special):
        # Matrices of 1 to 70 rows: shorter than a 16-row chunk, as long as
        # one, or several chunks long.
        model = init(layer_dims, seed=seed)
        rng = np.random.default_rng(seed)
        model.params[rng.integers(0, model.params.size, len(special))] = special
        ckpt = make_checkpoint(model, {"kind": "identity"}, rng_digest="digest")
        base = tmp_path_factory.mktemp("ckpt")
        paths = [base / "two" / "ckpt.json", base / "one" / "ckpt.json"]
        for path, cpus in zip(paths, ({0, 1}, {0})):
            path.parent.mkdir()
            assert save_on_cpus(ckpt, path, cpus) == (len(cpus) == 2)
        expected = json.dumps(checkpoint_payload(ckpt), sort_keys=True, separators=(",", ":"))
        assert paths[0].read_text(encoding="ascii") == expected + "\n"
        for name in ["ckpt.json", "ckpt.json.params"]:
            assert (paths[0].parent / name).read_bytes() == (paths[1].parent / name).read_bytes()

    @pytest.mark.parametrize(
        "layer_dims, place, non_finite",
        [
            ((1, 1, 3), "at the first weight row", False),
            ((2, 4, 4), "between two matrices", False),
            ((40, 3, 2), "inside the first matrix", False),
            ((1, 40, 3, 2), "inside a later matrix", True),
            # 19 chunks, the last of 12 rows, cut at row 160.
            ((300, 3, 2), "inside the first matrix", False),
            # One chunk, and the biases alone are less than half: the child
            # renders no row.
            ((16, 100), "after the last weight row", False),
        ],
    )
    def test_split_at_each_kind_of_cut(self, tmp_path, layer_dims, place, non_finite):
        assert cut_place(layer_dims) == place
        model = init(layer_dims, seed=0)
        model.biases[0][0] = 0.25
        if non_finite:
            model.weights[0][0, 0] = math.nan
            model.weights[-1][-1, -1] = -math.inf
        ckpt = make_checkpoint(model, {"kind": "identity"}, rng_digest="digest")
        path = tmp_path / "ckpt.json"
        assert save_on_cpus(ckpt, path, {0, 1}) == 1
        expected = json.dumps(checkpoint_payload(ckpt), sort_keys=True, separators=(",", ":"))
        assert path.read_text(encoding="ascii") == expected + "\n"

    def test_truncated_file(self, tmp_path):
        _, path = self.make(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(InputError, match="byte"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        _, path = self.make(tmp_path)
        edit_json(path, format_version=999)
        with pytest.raises(InputError, match="unsupported version"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        _, path = self.make(tmp_path)
        edit_json(path, layer_dims=[3, 5, 2])
        with pytest.raises(InputError, match="shapes"):
            load_checkpoint(path)

    def test_one_class_output_rejected(self, tmp_path):
        # A single softmax output is not a distribution over classes to score.
        path = tmp_path / "ckpt.json"
        model = init((2, 4, 1), seed=0)
        save_checkpoint(make_checkpoint(model), path)
        with pytest.raises(InputError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: a checkpoint needs at least 2 classes, got 1"

    def test_reloaded_model_scores_identically(self, tmp_path):
        model, path = self.make(tmp_path)
        restored = load_checkpoint(path).model
        x = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_array_equal(forward(model, x).probs, forward(restored, x).probs)


def sidecar_parts(path):
    """The digest line, the header line and the parameter block of the
    sidecar saved beside the checkpoint ``path``."""
    digest, header, block = path.with_name(path.name + ".params").read_bytes().split(b"\n", 2)
    return digest, header, block


def write_sidecar(path, header, block, digest=None):
    """Write the sidecar of ``path`` from its parts, sealed with the digest
    that :func:`save_checkpoint` computes unless ``digest`` is given."""
    rest = header + b"\n" + block
    if digest is None:
        digest = hashlib.sha256(path.read_bytes() + rest).hexdigest().encode("ascii")
    path.with_name(path.name + ".params").write_bytes(digest + b"\n" + rest)


def json_only_load(path):
    """:func:`load_checkpoint` of ``path`` with its sidecar moved away."""
    sidecar = path.with_name(path.name + ".params")
    kept = sidecar.with_name("kept")
    sidecar.rename(kept)
    try:
        return load_checkpoint(path)
    finally:
        kept.rename(sidecar)


def same_checkpoint(a, b):
    return (
        a.model.layer_dims == b.model.layer_dims
        and a.model.params.tobytes() == b.model.params.tobytes()
        and (a.normalization, a.train_config, a.rng_digest)
        == (b.normalization, b.train_config, b.rng_digest)
    )


def header_with(header, **fields):
    return json.dumps({**json.loads(header), **fields}, sort_keys=True).encode("ascii")


# Each defect of a sidecar: a function of its digest line, header line and
# block that gives the sidecar's parts, and whether the digest is sealed over
# the new parts. Every one makes load_checkpoint parse the checkpoint's text.
SIDECAR_DEFECTS = {
    "truncated block": (lambda d, h, b: (d, h, b[:-8]), False),
    "truncated block, sealed": (lambda d, h, b: (d, h, b[:-8]), True),
    "extra bytes": (lambda d, h, b: (d, h, b + bytes(8)), False),
    "extra bytes, sealed": (lambda d, h, b: (d, h, b + bytes(8)), True),
    "a partial float, sealed": (lambda d, h, b: (d, h, b + b"\0"), True),
    "wrong digest": (lambda d, h, b: (hashlib.sha256(h).hexdigest().encode(), h, b), False),
    "non-hex digest": (lambda d, h, b: (b"z" * 64, h, b), False),
    "upper-case digest": (lambda d, h, b: (d.upper(), h, b), False),
    "header not JSON, sealed": (lambda d, h, b: (d, h[:-1], b), True),
    "header not an object, sealed": (lambda d, h, b: (d, b"[1, 2]", b), True),
    "header nested too deeply, sealed": (lambda d, h, b: (d, b"[" * 100_000, b), True),
    "field check fails, sealed": (lambda d, h, b: (d, header_with(h, rng_digest=5), b), True),
    "layer_dims of another size, sealed": (
        lambda d, h, b: (d, header_with(h, layer_dims=[3, 5, 2], n_classes=2), b),
        True,
    ),
    "unsupported version, sealed": (
        lambda d, h, b: (d, header_with(h, format_version=2), b),
        True,
    ),
    "NaN entry, sealed": (lambda d, h, b: (d, h, np.float64(math.nan).tobytes() + b[8:]), True),
    "infinite entry, sealed": (
        lambda d, h, b: (d, h, b[:-8] + np.float64(-math.inf).tobytes()),
        True,
    ),
}


class TestSidecar:
    """``save_checkpoint`` writes ``<checkpoint>.params`` beside the checkpoint,
    and ``load_checkpoint`` takes the parameters from it where it matches,
    with the result of parsing the checkpoint's text."""

    def save(self, tmp_path, layer_dims=(3, 4, 2), seed=42):
        model = init(layer_dims, seed=seed)
        path = tmp_path / "ckpt.json"
        cfg = TrainConfig(epochs=2, seed=seed)
        normalization = {"kind": "pixel_scale", "scale": 255.0}
        save_checkpoint(make_checkpoint(model, normalization, cfg, f"digest-{seed}"), path)
        return path

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        n_classes=st.integers(2, 5),
        data=st.data(),
    )
    def test_sidecar_load_equals_the_json_load(self, tmp_path_factory, widths, n_classes, data):
        model = init((*widths, n_classes), seed=0)
        special = st.sampled_from(
            [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
             1.7976931348623157e308]
        )
        value = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
        size = model.params.size
        model.params[:] = data.draw(st.lists(value, min_size=size, max_size=size))
        path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
        save_checkpoint(make_checkpoint(model, {"kind": "identity"}, rng_digest="d"), path)
        # The sidecar load parses no weight or bias text.
        with mock.patch.object(wood.trainer, "_numbers", side_effect=AssertionError):
            loaded = load_checkpoint(path)
        assert loaded.model.params.tobytes() == model.params.tobytes()
        assert same_checkpoint(loaded, json_only_load(path))

    @pytest.mark.parametrize("defect", ["missing", *SIDECAR_DEFECTS])
    def test_a_defect_falls_back_to_the_json_load(self, tmp_path, defect):
        path = self.save(tmp_path)
        expected = json_only_load(path)
        if defect == "missing":
            path.with_name(path.name + ".params").unlink()
        else:
            change, sealed = SIDECAR_DEFECTS[defect]
            digest, header, block = change(*sidecar_parts(path))
            write_sidecar(path, header, block, None if sealed else digest)
        numbers = mock.patch.object(wood.trainer, "_numbers", wraps=wood.trainer._numbers)
        with numbers as parsed:
            loaded = load_checkpoint(path)
        assert parsed.called
        assert same_checkpoint(loaded, expected)

    @pytest.mark.parametrize(
        "edit",
        [
            {"rng_digest": 5},
            {"format_version": 2},
            {"layer_dims": [3, 5, 2]},
            {"biases": [[0.0, 0.0, 0.0, math.nan], [0.0, 0.0]]},
            {"n_classes": 3},
        ],
    )
    def test_an_edited_checkpoint_with_its_old_sidecar_raises_the_json_error(
        self, tmp_path, edit
    ):
        path = self.save(tmp_path)
        edit_json(path, **edit)
        with pytest.raises(InputError) as with_sidecar:
            load_checkpoint(path)
        with pytest.raises(InputError) as without:
            json_only_load(path)
        assert str(with_sidecar.value) == str(without.value)
        assert str(with_sidecar.value).startswith(f"{path}: ")

    def test_saving_over_a_pair_replaces_both_files(self, tmp_path):
        self.save(tmp_path, layer_dims=(5, 7, 3), seed=1)
        path = self.save(tmp_path, layer_dims=(3, 4, 2), seed=2)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        self.save(fresh, layer_dims=(3, 4, 2), seed=2)
        for name in ["ckpt.json", "ckpt.json.params"]:
            assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes()
        assert same_checkpoint(load_checkpoint(path), json_only_load(path))

    def test_two_processes_write_the_sidecar_of_one(self, tmp_path):
        model = init((40, 30, 3), seed=0)
        ckpt = make_checkpoint(model, {"kind": "identity"}, rng_digest="digest")
        sidecars = []
        for cpus in ({0, 1}, {0}):
            path = tmp_path / f"{len(cpus)}" / "ckpt.json"
            path.parent.mkdir()
            assert save_on_cpus(ckpt, path, cpus) == (len(cpus) == 2)
            sidecars.append((path.parent / "ckpt.json.params").read_bytes())
        assert sidecars[0] == sidecars[1]


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InputError):
            TrainConfig(epochs=0)
        with pytest.raises(InputError):
            TrainConfig(epochs=1, b_ind=0)
        with pytest.raises(InputError):
            TrainConfig(epochs=1, momentum=1.0)
        with pytest.raises(InputError):
            TrainConfig(epochs=1, lr=-0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                TrainConfig(epochs=1, lr=bad)
            with pytest.raises(InputError):
                TrainConfig(epochs=1, beta=bad)
