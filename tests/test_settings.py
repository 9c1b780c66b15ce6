"""The one rule for scalar settings and array inputs, checked where they are made.

A count is an integer that is not a bool, at or above its least value; a
real is a real number that is not a bool, inside its range (NaN is in none).
A NumPy scalar is stored as the plain int or float, so every config is JSON.
Every public call returns a valid result or raises one ``WoodError``.
"""

import json
import math
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wood.data import Dataset, Role, SyntheticKind, SyntheticSpec, synth
from wood.detect import calibrate, evaluate, report_text
from wood.errors import InputError, WoodError
from wood.geometry import EvalPath, ScoreConfig, binary_matrix, scores
from wood.loss import loss_and_grad
from wood.model import backward, forward, init
from wood.trainer import TrainConfig, _json_fields, fit, load_checkpoint, save_checkpoint
from wood.transport import CostKind, SinkhornConfig, sinkhorn_batch

INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float16, np.float32, np.float64, np.longdouble]


def numpy_scalars(low: int, high: int):
    """NumPy scalars of every real dtype: integers in ``[low, high]`` (as far
    as the dtype holds them) and floats in ``[low, high]``, NaN and +-inf."""
    integer = st.sampled_from(INTEGER_DTYPES).flatmap(
        lambda t: st.integers(max(low, int(np.iinfo(t).min)), min(high, int(np.iinfo(t).max)))
        .map(t)
    )
    real = st.sampled_from(FLOAT_DTYPES).flatmap(
        lambda t: st.floats(low, high, width=16).map(t)
        | st.sampled_from([math.nan, math.inf, -math.inf]).map(t)
    )
    return integer | real


def scalars(low: int = -3, high: int = 300):
    """Anything a caller might pass as a scalar setting. Sizes stay within
    ``[low, high]``, so that no valid draw asks for a large allocation."""
    return st.one_of(
        numpy_scalars(low, high),
        st.booleans(),
        st.booleans().map(np.bool_),
        st.sampled_from([math.nan, math.inf, -math.inf, np.longdouble("1e400")]),
        st.text(max_size=3),
        st.none(),
        st.floats(low, high).filter(lambda x: not x.is_integer()),  # fractional counts
        st.integers(low, high),
        st.floats(-2.0, 2.0),
    )


def setting(default, low: int = -3, high: int = 300):
    """A valid ``default``, or any scalar."""
    return st.just(default) | scalars(low, high)


def assert_plain(config):
    """Every number field of ``config`` is a plain int or float (no bool,
    no NumPy scalar), and the whole config renders as JSON."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not isinstance(value, (str, SinkhornConfig, ScoreConfig, SyntheticKind)):
            assert type(value) in (int, float), (f.name, value)
    json.dumps(asdict(config, dict_factory=_json_fields))


def call(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or ``None`` where it raises a ``WoodError``;
    any warning it lets escape fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args, **kwargs)
        except WoodError:
            return None


def blobs(k=3, n_per_class=4, seed=0):
    spec = SyntheticSpec(SyntheticKind.GAUSSIAN_BLOBS, k=k, n_per_class=n_per_class, seed=seed)
    return synth(spec)


PROBS = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8]])


# A bad setting, by a name for the case: the call and its one error line.
BAD_SETTINGS = {
    "lam-text": (lambda: SinkhornConfig(lam="5"), "lam must be finite and positive, got '5'"),
    "tol-list": (lambda: SinkhornConfig(tol=[1]), "tol must be finite and positive, got [1]"),
    "lr-text": (
        lambda: TrainConfig(epochs=1, lr="a"), "lr must be finite and nonnegative, got 'a'"
    ),
    "beta-none": (
        lambda: TrainConfig(epochs=1, beta=None), "beta must be finite and nonnegative, got None"
    ),
    "epochs-bool": (lambda: TrainConfig(epochs=True), "epochs must be an integer >= 1, got True"),
    "momentum-nan": (
        lambda: TrainConfig(epochs=1, momentum=np.float32("nan")),
        "momentum must be in [0, 1), got np.float32(nan)",
    ),
    "seed-negative": (
        lambda: SyntheticSpec(SyntheticKind.RING, seed=-1), "seed must be an integer >= 0, got -1"
    ),
    "k-float": (
        lambda: SyntheticSpec(SyntheticKind.RING, k=2.0), "k must be an integer >= 2, got 2.0"
    ),
    "noise-inf": (
        lambda: SyntheticSpec(SyntheticKind.RING, noise=math.inf),
        "noise must be finite and positive, got inf",
    ),
    "separation-nan": (
        lambda: SyntheticSpec(SyntheticKind.RING, separation=math.nan),
        "separation must be finite and positive, got nan",
    ),
    "layer-size-fraction": (
        lambda: init((2, 2.5, 3), seed=0), "a layer size must be an integer, got 2.5"
    ),
    "layer-size-bool": (
        lambda: init((2, True, 3), seed=0), "a layer size must be an integer, got True"
    ),
    "init-seed-negative": (lambda: init((2, 3), seed=-1), "seed must be an integer >= 0, got -1"),
    "loss-beta-nan": (
        lambda: loss_and_grad(PROBS, [], math.nan, ScoreConfig()),
        "beta must be finite and nonnegative, got nan",
    ),
    "loss-beta-inf": (
        lambda: loss_and_grad(PROBS, [], math.inf, ScoreConfig()),
        "beta must be finite and nonnegative, got inf",
    ),
    "loss-label-fraction": (
        lambda: loss_and_grad(PROBS, [1.7], 0.1, ScoreConfig()),
        "label 1.7 in row 0 is not an integer",
    ),
    "tnr-target-text": (
        lambda: calibrate([0.1, 0.2], "0.9"), "tnr_target must be in (0, 1), got '0.9'"
    ),
    "n-classes-fraction": (
        lambda: Dataset(np.zeros((2, 2)), [0, 1], Role.IND, n_classes=2.5),
        "n_classes must be an integer >= 1, got 2.5",
    ),
    "binary-matrix-float": (
        lambda: binary_matrix(np.float64(3)),
        "n_classes must be an integer >= 2, got np.float64(3.0)",
    ),
}

MODEL = init((2, 3), seed=0)

# An array input that is not real numbers, by a name for the case: the call
# and the argument its error names.
NOT_REAL = {
    "text-probs": (lambda: scores([["a", "b"]], ScoreConfig()), "probs"),
    "ragged-probs": (lambda: scores([[0.5, 0.5], [1.0]], ScoreConfig()), "probs"),
    "complex-probs": (lambda: scores([[0.5 + 0.5j, 0.5]], ScoreConfig()), "probs"),
    "none-probs": (lambda: scores([[None, 1.0]], ScoreConfig()), "probs"),
    "ragged-cost": (
        lambda: sinkhorn_batch([[0.5, 0.5]], [[0.5, 0.5]], [[0, 1], [1]], SinkhornConfig()),
        "cost",
    ),
    "complex-marginal": (
        lambda: sinkhorn_batch([[0.5, 0.5j]], [[0.5, 0.5]], [[0, 1], [1, 0]], SinkhornConfig()),
        "r1",
    ),
    "text-scores": (lambda: calibrate([0.1, "x"]), "ind_scores"),
    "ragged-scores": (lambda: evaluate([0.1], [0.2], [[0.3], [0.4, 0.5]]), "ood_scores"),
    "complex-x": (lambda: forward(MODEL, [[1.0, 2.0j]]), "x"),
    "text-grad": (
        lambda: backward(MODEL, forward(MODEL, [1.0, 2.0]), [["a", "b", "c"]]), "grad_probs"
    ),
    "ragged-features": (lambda: Dataset([[1.0], [2.0, 3.0]], None, Role.OOD), "features"),
    "complex-features": (lambda: Dataset([[1.0j]], None, Role.OOD), "features"),
    "text-labels": (lambda: Dataset([[1.0]], ["a"], Role.IND), "labels"),
    "ragged-labels": (lambda: loss_and_grad(PROBS, [[0], [1, 2]], 0.1, ScoreConfig()), "labels"),
}


class TestProbes:
    """Calls that a hand-written rule let through, or failed with no ``WoodError``."""

    @pytest.mark.parametrize("make, line", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
    def test_a_bad_setting_is_one_input_error(self, make, line):
        with pytest.raises(InputError) as caught:
            make()
        assert str(caught.value) == line

    def test_a_fractional_hidden_width_is_not_truncated(self):
        with pytest.raises(InputError, match=r"^a layer size must be an integer, got 2\.5$"):
            fit(blobs(), None, TrainConfig(epochs=1, b_ood=0), hidden=(2.5,))

    def test_numpy_widths_build_plain_layer_dims(self):
        model = init((np.int64(2), np.uint8(3), np.int32(2)), seed=0)
        assert model.layer_dims == (2, 3, 2)
        assert all(type(d) is int for d in model.layer_dims)

    @pytest.mark.parametrize("make, name", NOT_REAL.values(), ids=NOT_REAL.keys())
    def test_an_array_that_is_not_real_is_one_input_error(self, make, name):
        # A complex array used to be cast with a ComplexWarning that dropped
        # its imaginary part; a ragged or non-numeric one raised a bare
        # ValueError or TypeError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as caught:
                make()
        assert str(caught.value) == f"{name} must be an array of real numbers"

    def test_float64_arrays_are_not_copied(self):
        features = np.zeros((3, 2))
        labels = np.array([0, 1, 1])
        ds = Dataset(features, labels, Role.IND)
        assert ds.features is features and ds.labels is labels

    def test_numpy_tnr_target_is_reported_as_a_plain_float(self):
        report = evaluate([0.1, 0.2], [0.3], [0.4], np.float32(0.5))
        assert type(report.tnr_target) is float
        assert "tnr_target: 0.5\n" in report_text(report)


COUNT_TYPES = INTEGER_DTYPES + [int]
REAL_TYPES = INTEGER_DTYPES + FLOAT_DTYPES + [int, float]


def plain(value, real: bool):
    """The plain Python number that the rule stores for ``value``."""
    if type(value) in (int, float):
        return value
    return float(value) if real else int(value)


class TestNumpyScalarsRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.fixed_dictionaries({
            name: st.sampled_from(COUNT_TYPES).map(lambda t, v=value: t(v))
            for name, value in (("epochs", 1), ("b_ind", 5), ("b_ood", 2), ("seed", 3),
                                ("max_iter", 50))
        }),
        reals=st.fixed_dictionaries({
            "lr": st.sampled_from(FLOAT_DTYPES + [float]).map(lambda t: t(0.01)),
            "momentum": st.sampled_from(FLOAT_DTYPES + [float]).map(lambda t: t(0.5)),
            "beta": st.sampled_from(REAL_TYPES).map(lambda t: t(1)),
            "lam": st.sampled_from(REAL_TYPES).map(lambda t: t(20)),
        }),
    )
    def test_fit_save_load(self, tmp_path_factory, counts, reals):
        # Whatever TrainConfig accepts trains, saves and loads, and its files
        # are those of the plain Python numbers the rule stores for it.
        tmp = tmp_path_factory.mktemp("run")
        plain_counts = {name: plain(value, False) for name, value in counts.items()}
        plain_reals = {name: plain(value, True) for name, value in reals.items()}
        for side, ints, floats in (("given", counts, reals), ("plain", plain_counts, plain_reals)):
            kwargs = {**ints, **floats}
            sinkhorn = SinkhornConfig(lam=kwargs.pop("lam"), max_iter=kwargs.pop("max_iter"))
            cfg = TrainConfig(**kwargs, score=ScoreConfig("binary", "sinkhorn", sinkhorn))
            assert_plain(cfg)
            assert_plain(cfg.score.sinkhorn)
            ind = blobs(k=2, n_per_class=5)
            ood = synth(SyntheticSpec(SyntheticKind.RING, n_per_class=4, seed=1))
            ckpt, _ = fit(ind, ood, cfg, hidden=(3,))
            save_checkpoint(ckpt, tmp / f"{side}.json")
            loaded = load_checkpoint(tmp / f"{side}.json")
            assert loaded.train_config == ckpt.train_config
            np.testing.assert_array_equal(loaded.model.params, ckpt.model.params)
        for suffix in ("", ".params"):
            given_bytes = (tmp / f"given.json{suffix}").read_bytes()
            assert given_bytes == (tmp / f"plain.json{suffix}").read_bytes()


class TestEveryPublicCall:
    """Each scalar argument is drawn from NumPy scalars of every real dtype,
    bools, NaN, +-inf, strings, ``None`` and fractional counts: the call
    returns a valid result or raises a ``WoodError``."""

    @settings(max_examples=150, deadline=None)
    @given(lam=setting(50.0), max_iter=setting(1000), tol=setting(1e-9))
    def test_sinkhorn_config(self, lam, max_iter, tol):
        cfg = call(SinkhornConfig, lam=lam, max_iter=max_iter, tol=tol)
        if cfg is not None:
            assert_plain(cfg)
            assert 0 < cfg.lam < math.inf and 0 < cfg.tol < math.inf and cfg.max_iter >= 1

    @settings(max_examples=150, deadline=None)
    @given(
        epochs=setting(1), beta=setting(0.1), b_ind=setting(50), b_ood=setting(10),
        lr=setting(0.01), momentum=setting(0.9), seed=setting(0),
    )
    def test_train_config(self, epochs, beta, b_ind, b_ood, lr, momentum, seed):
        cfg = call(TrainConfig, epochs=epochs, beta=beta, b_ind=b_ind, b_ood=b_ood, lr=lr,
                   momentum=momentum, seed=seed)
        if cfg is not None:
            assert_plain(cfg)
            assert min(cfg.epochs, cfg.b_ind) >= 1 and min(cfg.b_ood, cfg.seed) >= 0
            assert 0 <= cfg.lr < math.inf and 0 <= cfg.beta < math.inf and 0 <= cfg.momentum < 1

    @settings(max_examples=150, deadline=None)
    @given(
        k=setting(3, high=6), n_per_class=setting(4, high=6), dim=setting(2, high=6),
        separation=setting(4.0), noise=setting(0.5), seed=setting(0),
    )
    def test_synthetic_spec(self, k, n_per_class, dim, separation, noise, seed):
        spec = call(SyntheticSpec, SyntheticKind.GAUSSIAN_BLOBS, k=k, n_per_class=n_per_class,
                    dim=dim, separation=separation, noise=noise, seed=seed)
        if spec is not None:
            assert_plain(spec)
            ds = call(synth, spec)
            assert ds is not None and ds.features.shape == (spec.k * spec.n_per_class, spec.dim)

    @settings(max_examples=100, deadline=None)
    @given(
        matrix_kind=st.sampled_from([*CostKind, *(m.value for m in CostKind)]) | scalars(),
        evaluation=st.sampled_from([*EvalPath, *(m.value for m in EvalPath)]) | scalars(),
        sinkhorn=st.just(SinkhornConfig()) | scalars(),
    )
    def test_score_config(self, matrix_kind, evaluation, sinkhorn):
        cfg = call(ScoreConfig, matrix_kind, evaluation, sinkhorn)
        if cfg is not None:
            assert isinstance(cfg.matrix_kind, CostKind) and isinstance(cfg.evaluation, EvalPath)
            assert call(scores, PROBS, cfg) is not None

    @settings(max_examples=100, deadline=None)
    @given(dims=st.lists(setting(3, high=8), min_size=2, max_size=4), seed=setting(0))
    def test_init(self, dims, seed):
        model = call(init, dims, seed)
        if model is not None:
            assert all(type(d) is int and d >= 1 for d in model.layer_dims)
            assert np.isfinite(model.params).all()

    @settings(max_examples=40, deadline=None)
    @given(hidden=st.lists(setting(3, high=8), max_size=2))
    def test_fit_hidden(self, hidden):
        result = call(fit, blobs(k=2), None, TrainConfig(epochs=1, b_ood=0), hidden=hidden)
        if result is not None:
            assert result[0].model.layer_dims == (2, *hidden, 2)

    @settings(max_examples=100, deadline=None)
    @given(beta=setting(0.1), kind=st.sampled_from(CostKind))
    def test_loss_and_grad(self, beta, kind):
        result = call(loss_and_grad, PROBS, [2], beta, ScoreConfig(kind))
        if result is not None:
            loss, grad = result
            assert math.isfinite(loss.total) and np.isfinite(grad).all()

    @settings(max_examples=100, deadline=None)
    @given(tnr_target=setting(0.95))
    def test_calibrate_and_evaluate(self, tnr_target):
        epsilon = call(calibrate, [0.1, 0.4, 0.2], tnr_target)
        assert epsilon is None or math.isfinite(epsilon)
        report = call(evaluate, [0.1, 0.4, 0.2], [0.3], [0.5], tnr_target)
        assert (epsilon is None) == (report is None)
        if report is not None:
            assert type(report.tnr_target) is float and 0 < report.tnr_target < 1

    @settings(max_examples=100, deadline=None)
    @given(n_classes=setting(3, high=8))
    def test_binary_matrix_and_dataset(self, n_classes):
        costs = call(binary_matrix, n_classes)
        if costs is not None:
            assert costs.shape == (n_classes, n_classes)
        ds = call(Dataset, np.zeros((2, 2)), [0, 1], Role.IND, n_classes=n_classes)
        if ds is not None:
            assert type(ds.n_classes) is int and ds.n_classes >= 2
