"""Cost-matrix builders and the batch transport score, both evaluation paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wood.errors import InputError, NumericError
from wood.geometry import (
    EvalPath,
    ScoreConfig,
    _score_rows,
    binary_matrix,
    scores,
)
from wood.oracles import dynamic_matrix, forced_transport, lp_transport, one_hot
from wood.transport import CostKind, SinkhornConfig, sinkhorn_batch

from conftest import random_simplex, solve_one

CLOSED_BINARY = ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM)
CLOSED_DYNAMIC = ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM)


def sinkhorn_cfg(kind, lam=50.0):
    return ScoreConfig(kind, EvalPath.SINKHORN, SinkhornConfig(lam=lam))


class TestBinaryMatrix:
    def test_k2(self):
        np.testing.assert_array_equal(binary_matrix(2), [[0, 1], [1, 0]])

    def test_k3_structure(self):
        m = binary_matrix(3)
        assert np.all(np.diag(m) == 0)
        assert np.sum(m) == 6

    def test_degenerate_k(self):
        with pytest.raises(InputError):
            binary_matrix(1)


class TestDynamicMatrix:
    def test_uniform_k2(self):
        m = dynamic_matrix([0.5, 0.5], 0)
        np.testing.assert_array_equal(m, [[0.5, 0.5], [0.5, 0.5]])

    def test_one_hot_columns(self):
        # f = e_0, k = 0: first column (0,1,1), the others (1,0,0).
        m = dynamic_matrix([1.0, 0.0, 0.0], 0)
        np.testing.assert_array_equal(m[:, 0], [0, 1, 1])
        np.testing.assert_array_equal(m[:, 1], [1, 0, 0])
        np.testing.assert_array_equal(m[:, 2], [1, 0, 0])

    def test_labeled_row_and_other_rows_sum_to_one(self, rng):
        f = random_simplex(rng, 4)
        m = dynamic_matrix(f, 2)
        for row in range(4):
            if row != 2:
                np.testing.assert_allclose(m[2] + m[row], np.ones(4), atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            dynamic_matrix([0.5, 0.5], 2)


def score_of(f, cfg):
    """Score value and argmin class of a single softmax row."""
    values, classes = scores(np.asarray(f, dtype=np.float64)[None, :], cfg)
    return float(values[0]), int(classes[0])


def exact_to_onehot(f, label, kind):
    """Exact transport distance from ``f`` to the one-hot of ``label``."""
    k = len(f)
    M = binary_matrix(k) if kind is CostKind.BINARY else dynamic_matrix(f, label)
    return forced_transport(label, f, M)


class TestScoreConfigFields:
    @pytest.mark.parametrize("kind", [CostKind.BINARY, "binary"])
    def test_binary_closed_form_by_member_or_value(self, kind):
        # 1 - max f; the dynamic 1 - sum(f**2) would read 0.62.
        values, classes = scores([[0.2, 0.3, 0.5]], ScoreConfig(kind))
        assert (values[0], classes[0]) == (0.5, 2)

    def test_values_are_stored_as_members(self):
        cfg = ScoreConfig("binary", "sinkhorn")
        assert cfg.matrix_kind is CostKind.BINARY and cfg.evaluation is EvalPath.SINKHORN
        assert cfg == ScoreConfig(CostKind.BINARY, EvalPath.SINKHORN)

    @pytest.mark.parametrize(
        "kwargs, line",
        [
            ({"matrix_kind": "bin"}, "matrix_kind: 'bin' is not a valid CostKind"),
            ({"matrix_kind": EvalPath.SINKHORN},
             "matrix_kind: <EvalPath.SINKHORN: 'sinkhorn'> is not a valid CostKind"),
            ({"evaluation": "closed_form"}, "evaluation: 'closed_form' is not a valid EvalPath"),
            ({"evaluation": None}, "evaluation: None is not a valid EvalPath"),
            ({"sinkhorn": 50.0}, "sinkhorn must be a SinkhornConfig, got 50.0"),
        ],
    )
    def test_anything_else_is_one_input_error_naming_the_field(self, kwargs, line):
        with pytest.raises(InputError) as caught:
            ScoreConfig(**kwargs)
        assert str(caught.value) == line


class TestWassersteinToOnehot:
    def test_uniform_dynamic_k10(self):
        f = np.full(10, 0.1)
        assert score_of(f, CLOSED_DYNAMIC)[0] == pytest.approx(0.9, abs=1e-15)

    def test_mass_on_label_is_zero(self):
        f = one_hot(1, 3)
        assert score_of(f, CLOSED_BINARY) == (0.0, 1)
        assert score_of(f, CLOSED_DYNAMIC)[0] == 0.0

    def test_frozen_example_values(self):
        f = [0.5, 0.3, 0.2]
        assert score_of(f, CLOSED_BINARY)[0] == pytest.approx(0.5)
        assert score_of(f, CLOSED_DYNAMIC)[0] == pytest.approx(0.62)

    def test_closed_form_matches_lp_oracle(self, rng):
        # The score is the minimum over classes of the exact distance.
        for _ in range(20):
            k = int(rng.integers(2, 6))
            f = random_simplex(rng, k)
            lp_binary = [lp_transport(one_hot(c, k), f, binary_matrix(k))[0] for c in range(k)]
            cf_binary, k_star = score_of(f, CLOSED_BINARY)
            assert cf_binary == pytest.approx(min(lp_binary), abs=1e-8)
            assert lp_binary[k_star] == pytest.approx(min(lp_binary), abs=1e-8)
            lp_dynamic = [
                lp_transport(one_hot(c, k), f, dynamic_matrix(f, c))[0] for c in range(k)
            ]
            cf_dynamic, _ = score_of(f, CLOSED_DYNAMIC)
            assert cf_dynamic == pytest.approx(min(lp_dynamic), abs=1e-8)

    def test_closed_form_vs_sinkhorn_band(self, rng):
        # |closed - sinkhorn(lam=100)| <= 2% of max(closed, 0.05)
        for kind in (CostKind.BINARY, CostKind.DYNAMIC):
            cfg100 = sinkhorn_cfg(kind, lam=100.0)
            closed = ScoreConfig(kind, EvalPath.CLOSED_FORM)
            for _ in range(200):
                k = int(rng.integers(2, 8))
                f = random_simplex(rng, k)
                a, _ = score_of(f, closed)
                b, _ = score_of(f, cfg100)
                assert abs(a - b) <= 0.02 * max(a, 0.05)


class TestWoodScore:
    def test_binary_min_is_one_minus_max(self):
        f = [0.5, 0.3, 0.2]
        value, k_star = score_of(f, CLOSED_BINARY)
        assert value == pytest.approx(0.5)
        assert k_star == 0

    def test_one_hot_scores_zero(self):
        f = one_hot(1, 4)
        assert score_of(f, CLOSED_BINARY)[0] == 0.0
        assert score_of(f, CLOSED_DYNAMIC)[0] == 0.0

    def test_uniform_dynamic_k10(self):
        assert score_of(np.full(10, 0.1), CLOSED_DYNAMIC)[0] == pytest.approx(0.9)

    def test_argmin_examples(self):
        assert score_of([0.2, 0.7, 0.1], CLOSED_BINARY)[1] == 1
        assert score_of([1 / 3, 1 / 3, 1 / 3], CLOSED_BINARY)[1] == 0
        assert score_of([0.2, 0.7, 0.1], CLOSED_DYNAMIC)[1] == 0

    def test_sinkhorn_binary_argmin_matches_closed(self, rng):
        P = np.array([random_simplex(rng, 4) for _ in range(10)])
        _, sinkhorn_classes = scores(P, sinkhorn_cfg(CostKind.BINARY))
        _, closed_classes = scores(P, CLOSED_BINARY)
        np.testing.assert_array_equal(sinkhorn_classes, closed_classes)

    def test_batch_validation_names_the_row(self):
        P = np.array([[0.5, 0.5], [0.7, 0.7], [1.0, 0.0]])
        with pytest.raises(InputError, match="row 1"):
            scores(P, CLOSED_DYNAMIC)
        with pytest.raises(InputError, match="row 0"):
            scores([[np.nan, 1.0]], CLOSED_BINARY)
        with pytest.raises(InputError):
            scores([0.5, 0.5], CLOSED_BINARY)
        with pytest.raises(InputError):
            scores([[1.0]], CLOSED_BINARY)

    def test_sinkhorn_non_convergence_names_the_row(self):
        cfg = ScoreConfig(
            CostKind.BINARY, EvalPath.SINKHORN, SinkhornConfig(lam=100.0, max_iter=1)
        )
        P = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.2]])
        with pytest.raises(NumericError, match="row 1"):
            scores(P, cfg)

    def test_empty_batch(self):
        for kind in (CostKind.BINARY, CostKind.DYNAMIC):
            for path in (EvalPath.CLOSED_FORM, EvalPath.SINKHORN):
                values, classes = scores(np.zeros((0, 3)), ScoreConfig(kind, path))
                assert values.shape == classes.shape == (0,)
        for costs in (binary_matrix(3), np.zeros((0, 3, 3))):
            result = sinkhorn_batch(np.zeros((0, 3)), np.zeros((0, 3)), costs, SinkhornConfig())
            assert result.log_v.shape == (0, 3)
            assert all(len(values) == 0 for values in vars(result).values())


class TestPropositions:
    def test_label_invariance_closed_form_bitwise(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 11))
            f = random_simplex(rng, k)
            values = {exact_to_onehot(f, label, CostKind.DYNAMIC) for label in range(k)}
            assert len(values) == 1

    def test_label_invariance_sinkhorn_spread(self, rng):
        sk = SinkhornConfig(lam=50.0)
        for _ in range(10):
            f = random_simplex(rng, 10)
            values = [
                solve_one(one_hot(label, 10), f, dynamic_matrix(f, label), sk).value
                for label in range(10)
            ]
            assert max(values) - min(values) <= 1e-6

    def test_uniform_attains_strict_maximum(self, rng):
        for k in (2, 5, 10):
            top = score_of(np.full(k, 1.0 / k), CLOSED_DYNAMIC)[0]
            assert top == pytest.approx(1.0 - 1.0 / k, abs=1e-12)
            values, _ = scores(np.array([random_simplex(rng, k) for _ in range(200)]), CLOSED_DYNAMIC)
            assert np.all(values < top)

    def test_score_ranges(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 11))
            f = random_simplex(rng, k)
            for cfg in (CLOSED_BINARY, CLOSED_DYNAMIC):
                s = score_of(f, cfg)[0]
                assert 0.0 <= s <= 1.0 - 1.0 / k + 1e-12


def public_class_solves(P, cfg):
    """Public ``sinkhorn_batch`` results (one per candidate class for
    binary costs, one with per-row ``dynamic_matrix(f, 0)`` costs for
    dynamic costs), each row's argmin class, and that class's problem for
    that row solved on its own."""
    n, k = P.shape
    if cfg.matrix_kind is CostKind.BINARY:
        costs = [binary_matrix(k)] * n
        results = [
            sinkhorn_batch(np.eye(k)[np.full(n, c)], P, costs[0], cfg.sinkhorn)
            for c in range(k)
        ]
    else:
        costs = [dynamic_matrix(f, 0) for f in P]
        onehots = np.eye(k)[np.zeros(n, dtype=int)]
        results = [sinkhorn_batch(onehots, P, np.array(costs), cfg.sinkhorn)]
    classes = np.argmin([r.value for r in results], axis=0)
    plans = [solve_one(np.eye(k)[c], P[i], costs[i], cfg.sinkhorn) for i, c in enumerate(classes)]
    return results, classes, plans


class TestScoreRowsEqualsPublicSolves:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 5),
        k=st.integers(2, 6),
        kind=st.sampled_from([CostKind.BINARY, CostKind.DYNAMIC]),
        lam=st.sampled_from([10.0, 50.0, 3000.0]),
        spread=st.sampled_from([0.5, 5.0, 40.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_field_by_field(self, n, k, kind, lam, spread, seed):
        # At lam=3000 every row with mass off a class underflows in the
        # scaled domain and is solved again in the log domain.
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, k)) * spread
        P = np.exp(logits - logits.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        cfg = ScoreConfig(kind, EvalPath.SINKHORN, SinkhornConfig(lam=lam, max_iter=5000))
        results, classes, plans = public_class_solves(P, cfg)
        if not all(r.converged.all() for r in results):
            with pytest.raises(NumericError, match="failed to converge"):
                _score_rows(P, cfg)
            return
        if lam == 3000.0:
            assert all(r.domain[i] == "log" for r in results for i in np.flatnonzero(P.max(1) < 1))

        values, got_classes, got_plans = _score_rows(P, cfg)
        want_values = np.array([plan.value for plan in plans])
        assert values.tobytes() == want_values.tobytes()
        assert got_classes.tobytes() == classes.astype(np.intp).tobytes()
        for name in vars(got_plans):
            got = getattr(got_plans, name)
            want = np.array([getattr(plan, name) for plan in plans])
            if name == "domain":
                assert got.tolist() == want.tolist()
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
