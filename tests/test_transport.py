"""Transport-layer tests: exact distances (via the oracles), Sinkhorn, dual gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wood.errors import InputError, NumericError
from wood.geometry import binary_matrix
from wood.oracles import (
    CapacityError,
    center_gradient,
    dynamic_matrix,
    fd_gradient,
    forced_transport,
    lp_transport,
    one_hot,
    scaled_sweep,
)
from wood.transport import (
    CostKind,
    SinkhornConfig,
    _log_domain,
    _scaled_sweep,
    as_prob_rows,
    sinkhorn_batch,
    sinkhorn_gradient,
)

from conftest import random_simplex, solve_one


def random_cost(rng, k):
    return rng.uniform(0.0, 1.0, (k, k))


class TestProbVector:
    """Simplex validation of probability vectors, one per row."""

    def test_accepts_valid(self):
        arr = as_prob_rows([[0.25, 0.25, 0.5]])
        assert arr.dtype == np.float64

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            as_prob_rows([[1.1, -0.1]])

    def test_rejects_bad_sum(self):
        with pytest.raises(InputError):
            as_prob_rows([[0.5, 0.6]])

    def test_rejects_scalar_and_short(self):
        with pytest.raises(InputError):
            as_prob_rows([[1.0]])
        with pytest.raises(InputError):
            as_prob_rows([0.5, 0.5])

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            as_prob_rows([[np.nan, 1.0]])

    def test_allows_one_hot_zeros(self):
        as_prob_rows([[0.0, 1.0, 0.0]])

    def test_sum_tolerance_is_one_in_a_billion(self):
        # PROB_SUM_TOL is 1e-9: a row that sums to 1 + 5e-10 is a simplex
        # point, one that sums to 1 + 3e-9 is not.
        as_prob_rows([[0.5, 0.5 + 5e-10]])
        with pytest.raises(InputError, match=r"^probs row 1 must sum to 1, got 1\.000000003"):
            as_prob_rows([[0.5, 0.5], [0.5, 0.5 + 3e-9]])


class TestCostMatrix:
    """Cost validation at the solver boundary."""

    r = np.array([[0.5, 0.5]])

    def test_rejects_negative_costs(self):
        with pytest.raises(InputError):
            sinkhorn_batch(self.r, self.r, [[0.0, -1.0], [1.0, 0.0]], SinkhornConfig())

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            sinkhorn_batch(self.r, self.r, np.zeros((2, 3)), SinkhornConfig())


class TestExactWasserstein:
    """The exact distance, as the oracles compute it."""

    def test_identical_one_hots_zero(self):
        m = binary_matrix(3)
        e1 = one_hot(0, 3)
        assert forced_transport(0, e1, m) == 0.0

    def test_singleton_coupling_value(self):
        # A one-hot marginal forces the coupling; binary cost charges every
        # unit of mass that must leave the labeled class.
        m = binary_matrix(3)
        value = forced_transport(0, [0.5, 0.3, 0.2], m)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            lp_transport([0.5, 0.5], [0.3, 0.3, 0.4], binary_matrix(2))

    def test_capacity_cap(self):
        k = 17
        m = binary_matrix(k)
        r = np.full(k, 1.0 / k)
        with pytest.raises(CapacityError):
            lp_transport(r, np.roll(r, 1) * 0 + r, m)


class TestSinkhornConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0}, {"lam": -1.0}, {"lam": np.nan}, {"lam": np.inf},
            {"tol": 0.0}, {"tol": np.nan}, {"tol": np.inf}, {"max_iter": 0},
            # No sweep count equals a cap of 2.5, so the loop would not stop.
            {"max_iter": 2.5}, {"max_iter": 3.0}, {"max_iter": "3"}, {"max_iter": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(InputError, match=f"^{name} must be "):
            SinkhornConfig(**kwargs)

    def test_numpy_integer_max_iter_is_a_cap(self):
        cfg = SinkhornConfig(lam=5.0, tol=1e-300, max_iter=np.int64(3))
        r1 = random_simplex(np.random.default_rng(0), 3)
        res = solve_one(r1, [0.2, 0.3, 0.5], binary_matrix(3), cfg)
        assert res.iterations == 3 and not res.converged


class TestSinkhornDistance:
    def test_same_one_hot_is_zero(self, rng):
        m = rng.uniform(0.2, 1.0, (3, 3)) * (1 - np.eye(3))
        e2 = one_hot(1, 3)
        res = solve_one(e2, e2, m, SinkhornConfig(lam=10.0))
        assert res.converged
        assert abs(res.value) <= 1e-8

    def test_tracks_exact_k2(self):
        res = solve_one(
            [0.5, 0.5], [0.3, 0.7], binary_matrix(2), SinkhornConfig(lam=100.0)
        )
        assert res.converged
        assert res.value == pytest.approx(0.2, rel=0.02)

    def test_tracks_exact_one_hot(self):
        res = solve_one(
            [0.5, 0.3, 0.2], one_hot(0, 3), binary_matrix(3), SinkhornConfig(lam=50.0)
        )
        assert res.converged
        assert res.value == pytest.approx(0.5, rel=0.02)

    def test_one_hot_column_marginal_is_exact_for_any_lam(self, rng):
        # A one-hot column marginal admits a single feasible coupling, so
        # the regularization strength cannot matter.
        for lam in (1.0, 10.0, 100.0):
            k = 4
            m = random_cost(rng, k)
            r1 = random_simplex(rng, k)
            res = solve_one(r1, one_hot(2, k), m, SinkhornConfig(lam=lam))
            assert res.converged
            assert res.value == pytest.approx(float(r1 @ m[:, 2]), abs=1e-10)

    def test_monotone_in_lam(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 6))
            m = random_cost(rng, k)
            r1 = random_simplex(rng, k)
            r2 = random_simplex(rng, k)
            exact, _ = lp_transport(r1, r2, m)
            errs = []
            for lam in (1.0, 10.0, 100.0):
                res = solve_one(r1, r2, m, SinkhornConfig(lam=lam, max_iter=20000))
                errs.append(abs(res.value - exact))
            assert errs[2] <= errs[1] + 1e-9
            assert errs[1] <= errs[0] + 1e-9

    def test_non_convergence_reported_not_raised(self):
        res = solve_one(
            [0.5, 0.5], [0.3, 0.7], binary_matrix(2), SinkhornConfig(lam=100.0, max_iter=1)
        )
        assert not res.converged
        assert res.iterations == 1

    def test_overflow_falls_back_to_log_domain(self, rng):
        # exp(-3000 * M) underflows to zero rows in the scaled kernel.
        k = 3
        costs = rng.uniform(0.5, 1.0, (4, k, k))
        r1 = np.array([random_simplex(rng, k) for _ in range(4)])
        r2 = np.array([random_simplex(rng, k) for _ in range(4)])
        cfg = SinkhornConfig(lam=3000.0, max_iter=5000)
        res = sinkhorn_batch(r1, r2, costs, cfg)
        assert list(res.domain) == ["log"] * 4

    def test_scaled_and_log_agree(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 6))
            m = random_cost(rng, k)
            r1 = random_simplex(rng, k)
            r2 = random_simplex(rng, k)
            cfg = SinkhornConfig(lam=float(rng.choice([1.0, 10.0, 50.0])), max_iter=20000)
            a = sinkhorn_batch(r1[None], r2[None], m, cfg)
            b = _log_domain(r1[None], r2[None], m[None], cfg, np.arange(1))
            assert a.domain[0] == "scaled"
            if a.converged[0] and b.converged[0]:
                assert abs(a.value[0] - b.value[0]) <= 1e-8

    def test_value_nonnegative(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            res = solve_one(
                random_simplex(rng, k),
                random_simplex(rng, k),
                random_cost(rng, k),
                SinkhornConfig(lam=5.0),
            )
            assert res.value >= 0.0


@st.composite
def transport_batches(draw, max_n=6):
    """A batch ``(r1, r2, C)`` of one-hot-to-softmax problems, as the score
    solves them: binary costs shared by the batch, or dynamic costs, one
    matrix per problem, built from that problem's softmax row."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(2, 6))
    kind = draw(st.sampled_from([CostKind.BINARY, CostKind.DYNAMIC]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.1, 1.0, 10.0]))
    r2 = rng.dirichlet(np.full(k, alpha), size=n)
    labels = rng.integers(0, k, size=n)
    r1 = np.eye(k)[labels]
    if kind is CostKind.BINARY:
        costs = np.ones((k, k)) - np.eye(k)
    else:
        costs = np.repeat(r2[:, None, :], k, axis=1)
        costs[np.arange(n), labels, :] = 1.0 - r2
    return r1, r2, costs


def problem(r1, r2, costs, i):
    """Problem ``i`` of a batch as a batch of one."""
    return r1[i : i + 1], r2[i : i + 1], costs if costs.ndim == 2 else costs[i : i + 1]


class TestSinkhornBatch:
    @settings(max_examples=40, deadline=None)
    @given(batch=transport_batches(), lam=st.sampled_from([1.0, 10.0, 50.0, 3000.0]))
    def test_rows_equal_single_problem_calls(self, batch, lam):
        cfg = SinkhornConfig(lam=lam, max_iter=5000)
        res = sinkhorn_batch(*batch, cfg)
        for i in range(batch[0].shape[0]):
            alone = sinkhorn_batch(*problem(*batch, i), cfg)
            for name, values in vars(res).items():
                np.testing.assert_array_equal(values[i], getattr(alone, name)[0])

    @settings(max_examples=25, deadline=None)
    @given(batch=transport_batches(), seed=st.integers(0, 2**32 - 1))
    def test_mixed_batch_falls_back_per_problem(self, batch, seed):
        # At lam=3000 a one-hot-to-softmax problem underflows in the scaled
        # domain unless the softmax row is that one-hot; problems whose
        # costs are shrunk 100-fold do not underflow either.
        r1, r2, costs = batch
        n = r1.shape[0]
        easy = np.random.default_rng(seed).random(n) < 0.5
        r2 = np.where(easy[:, None] & (costs.ndim == 2), r1, r2)
        if costs.ndim == 3:
            costs = np.where(easy[:, None, None], 0.01 * costs, costs)
        cfg = SinkhornConfig(lam=3000.0, max_iter=5000)
        res = sinkhorn_batch(r1, r2, costs, cfg)
        interior = (r2 > 0.0).sum(axis=1) > 1
        hard = ~easy & interior
        assert list(res.domain[hard]) == ["log"] * int(hard.sum())
        assert list(res.domain[easy]) == ["scaled"] * int(easy.sum())
        for i in np.flatnonzero(hard):
            alone = sinkhorn_batch(*problem(r1, r2, costs, i), cfg)
            assert alone.domain[0] == "log"
            assert abs(res.value[i] - alone.value[0]) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(batch=transport_batches(), seed=st.integers(0, 2**32 - 1))
    def test_non_convergence_flagged_per_problem(self, batch, seed):
        # A softmax row equal to the one-hot converges in the first sweep;
        # an interior row cannot.
        r1, r2, costs = batch
        easy = np.random.default_rng(seed).random(r1.shape[0]) < 0.5
        r2 = np.where(easy[:, None], r1, r2)
        res = sinkhorn_batch(r1, r2, costs, SinkhornConfig(lam=50.0, max_iter=1))
        interior = (r2 > 0.0).sum(axis=1) > 1
        np.testing.assert_array_equal(res.converged[easy], True)
        np.testing.assert_array_equal(res.converged[interior], False)
        np.testing.assert_array_equal(res.iterations, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(2, 6),
        k=st.integers(2, 5),
        shared=st.booleans(),
        alpha=st.sampled_from([0.3, 1.0, 10.0]),
        lam=st.sampled_from([1.0, 10.0, 50.0]),
        max_iter=st.sampled_from([3, 30, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_problems_finishing_on_different_sweeps(self, b, k, shared, alpha, lam, max_iter, seed):
        # General marginals on both sides settle after different numbers of
        # sweeps, or not within the cap: every row keeps the state, count
        # and flags of the sweep it finished on.
        rng = np.random.default_rng(seed)
        r1 = rng.dirichlet(np.full(k, alpha), size=b)
        r2 = rng.dirichlet(np.full(k, alpha), size=b)
        costs = rng.uniform(0.0, 1.0, (k, k) if shared else (b, k, k))
        cfg = SinkhornConfig(lam=lam, max_iter=max_iter)
        res = sinkhorn_batch(r1, r2, costs, cfg)
        for i in range(b):
            alone = sinkhorn_batch(*problem(r1, r2, costs, i), cfg)
            for name, values in vars(res).items():
                want = np.asarray(getattr(alone, name)[0])
                assert np.asarray(values[i]).tobytes() == want.tobytes(), name

    def test_huge_finite_values_are_not_failures(self):
        # Each value is about 1e308 and finite, but their total overflows:
        # no problem failed, so nothing is re-solved in the log domain.
        r = np.full((2, 2), 0.5)
        res = sinkhorn_batch(r, r, np.full((2, 2), 1e308), SinkhornConfig(lam=1e-307))
        with np.errstate(over="ignore"):
            assert np.isfinite(res.value).all() and np.isinf(res.value.sum())
        assert res.domain.tolist() == ["scaled", "scaled"]
        assert res.converged.all()

    def test_b1_is_sinkhorn_distance(self, rng):
        m = random_cost(rng, 4)
        r1, r2 = random_simplex(rng, 4), random_simplex(rng, 4)
        cfg = SinkhornConfig(lam=10.0)
        one = solve_one(r1, r2, m, cfg)
        res = sinkhorn_batch(r1[None], r2[None], m, cfg)
        assert one.value == res.value[0] and one.iterations == res.iterations[0]
        np.testing.assert_array_equal(sinkhorn_gradient(one, cfg), sinkhorn_gradient(res, cfg)[0])

    def test_rejects_mismatched_shapes(self):
        r = np.full((2, 3), 1.0 / 3)
        cfg = SinkhornConfig()
        with pytest.raises(InputError):
            sinkhorn_batch(r, r[:1], np.zeros((3, 3)), cfg)
        with pytest.raises(InputError):
            sinkhorn_batch(r, r, np.zeros((3, 3, 3)), cfg)
        with pytest.raises(InputError):
            sinkhorn_batch(r, r, -np.ones((3, 3)), cfg)


def batched_sweep(kernel, r1, r2, v, tol):
    # _scaled_sweep on (B, K) rows, laid out as _sinkhorn_batch lays them out:
    # (B, K, 1) columns and the kernel's transposed view.
    r1, r2, v = r1[:, :, None], r2[:, :, None], v[:, :, None]
    pos2 = r2 > 0.0
    with np.errstate(all="ignore"):
        (v_new,), done, bad = _scaled_sweep(
            kernel, kernel.transpose(0, 2, 1), r1, r2, r1 > 0.0, pos2,
            np.where(pos2, np.inf, 1.0), v, tol,
        )
    return v_new[:, :, 0], done, bad


class TestScaledSweepEqualsPerRowSweep:
    """``_scaled_sweep`` against the entry-by-entry sweep of one problem in
    ``wood.oracles``, bitwise: the new scaling, ``done`` and ``bad``."""

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.integers(1, 4),
        k=st.integers(2, 5),
        shared=st.booleans(),
        binary=st.booleans(),
        lam=st.sampled_from([1.0, 50.0, 3000.0]),
        holes=st.sampled_from([0.0, 0.3, 0.7]),
        v_scale=st.sampled_from([1.0, 1e-300, 3e-309, 1e300]),
        v_special=st.sampled_from([None, 0.0, np.inf, np.nan]),
        tol=st.sampled_from([1e-9, 0.5, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_per_row(self, b, k, shared, binary, lam, holes, v_scale, v_special, tol, seed):
        # At lam=3000 the binary kernel is the identity, so a zero scaling on
        # the support gives an infinite u and then NaN entries in v; tiny or
        # huge scalings give entries near the ends of the float range.
        rng = np.random.default_rng(seed)
        costs = binary_matrix(k) if binary else rng.uniform(0.0, 1.0, (k, k))
        with np.errstate(under="ignore"):
            kernel = np.exp(-lam * np.broadcast_to(costs, (1 if shared else b, k, k)))

        def marginals():
            # Rows with zero-mass columns (one-hots among them).
            w = rng.uniform(0.1, 1.0, (b, k)) * (rng.random((b, k)) >= holes)
            w[np.arange(b), rng.integers(0, k, b)] += 0.5
            return w / w.sum(axis=1, keepdims=True)

        r1, r2 = marginals(), marginals()
        v = rng.uniform(0.1, 2.0, (b, k)) * v_scale * (rng.random((b, k)) >= holes)
        if v_special is not None:
            v[rng.integers(0, b), rng.integers(0, k)] = v_special
        got, done, bad = batched_sweep(kernel, r1, r2, v, tol)
        assert done.dtype == bad.dtype == bool and done.shape == bad.shape == (b,)
        for i in range(b):
            want, want_done, want_bad = scaled_sweep(kernel[0 if shared else i], r1[i], r2[i], v[i], tol)
            assert got[i].tobytes() == want.tobytes()
            assert (bool(done[i]), bool(bad[i])) == (want_done, want_bad)

    @pytest.mark.parametrize(
        "costs, v",
        [
            # The identity kernel: u = r1 / v, whose entries near 1.7e308
            # sum to infinity.
            (1.0 - np.eye(2), [3e-309, 3e-309]),
            # The swap kernel: u[0] near 1.7e308 meets v_new[0] = 10, so
            # their product overflows.
            (np.eye(2), [10.0, 3e-309]),
        ],
    )
    def test_finite_entries_near_the_float_limit(self, costs, v):
        # Every entry of u and v_new is finite, so the row is good, and it
        # is settled, though a whole-array total of its entries overflows.
        kernel = np.exp(-3000.0 * costs)[None]
        r = np.array([[0.5, 0.5]])
        v = np.array([v])
        got, done, bad = batched_sweep(kernel, r, r, v, 1e-9)
        want, want_done, want_bad = scaled_sweep(kernel[0], r[0], r[0], v[0], 1e-9)
        assert got[0].tobytes() == want.tobytes()
        assert (bool(done[0]), bool(bad[0])) == (want_done, want_bad) == (True, False)
        u = r[0] / (kernel[0] @ v[0])
        with np.errstate(over="ignore"):
            assert np.isfinite(u).all() and np.isfinite(got).all()
            assert np.isinf(u.sum()) or np.isinf(u @ got[0])


class TestSinkhornGradient:
    def test_uniform_binary_symmetric(self):
        cfg = SinkhornConfig(lam=10.0)
        res = solve_one([0.5, 0.5], [0.5, 0.5], binary_matrix(2), cfg)
        grad = center_gradient(sinkhorn_gradient(res, cfg))
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-12)

    def test_matches_finite_differences(self, rng):
        cfg = SinkhornConfig(lam=10.0, tol=1e-13, max_iter=20000)
        for _ in range(8):
            k = int(rng.choice([2, 3, 5]))
            m = random_cost(rng, k)
            r1 = random_simplex(rng, k, floor=0.02)
            r2 = random_simplex(rng, k, floor=0.02)

            def reg_value(x):
                return solve_one(r1, x, m, cfg).reg_value

            res = solve_one(r1, r2, m, cfg)
            grad = center_gradient(sinkhorn_gradient(res, cfg))
            fd = fd_gradient(reg_value, r2, step=1e-5)
            assert np.linalg.norm(grad - fd) <= 1e-3 * np.linalg.norm(fd)

    def test_matches_finite_differences_in_the_log_domain(self):
        # At lam=3000 the scaled iteration overflows, and the log-domain
        # iterate puts the argmin class's entry about 2000 below the others.
        cfg = SinkhornConfig(lam=3000.0, tol=1e-13)
        f = np.array([0.2, 0.5, 0.3])
        r1 = one_hot(1, 3)
        m = binary_matrix(3)
        res = solve_one(r1, f, m, cfg)
        assert res.domain == "log"
        grad = center_gradient(sinkhorn_gradient(res, cfg))
        fd = fd_gradient(lambda x: solve_one(r1, x, m, cfg).reg_value, f, step=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-3 * np.linalg.norm(fd)

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.sampled_from([1.0, 50.0, 700.0, 750.0, 1000.0, 3000.0, 1e4]),
        weights=st.lists(
            st.one_of(
                st.floats(0.01, 1.0),
                # Zero, tiny and subnormal entries.
                st.sampled_from([0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-250, 1e-100, 1e-20]),
            ),
            min_size=2,
            max_size=50,
        ),
        dynamic=st.booleans(),
        data=st.data(),
    )
    def test_one_hot_problem_equals_its_closed_form(self, lam, weights, dynamic, data):
        # A one-hot r1 = e_c forces the coupling e_c (x) f, so the value is
        # f @ C[c], the regularized value adds sum f log f / lam, and on the
        # support of f the centered gradient is the centered C[c] + log f / lam.
        w = np.array(weights)
        if w.max() < 0.01:
            w[0] = 1.0
        f = w / w.sum()
        k = f.size
        c = data.draw(st.integers(0, k - 1))
        m = dynamic_matrix(f, c) if dynamic else binary_matrix(k)
        cfg = SinkhornConfig(lam=lam)
        res = solve_one(one_hot(c, k), f, m, cfg)
        support = f > 0.0
        plogp = float(np.sum(f[support] * np.log(f[support])))
        # A log-domain plan entry is the exp of a sum of terms as large as
        # lam, so it rounds to about lam * 2.2e-16.
        tol = max(1e-12, 1e-15 * lam)
        for got, want in [(res.value, f @ m[c]), (res.reg_value, f @ m[c] + plogp / lam)]:
            assert abs(got - want) <= tol * max(1.0, abs(want)), (res.domain, got, want)
        grad = sinkhorn_gradient(res, cfg)
        assert np.isfinite(grad).all()
        got = center_gradient(grad[support])
        want = center_gradient(m[c][support] + np.log(f[support]) / lam)
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max()), res.domain

    def test_subnormal_entry_of_r2_is_solved_in_the_log_domain(self):
        # A scaled iterate built from a subnormal entry of r2 keeps too few
        # bits of log v: this gradient was 1.4e-5 off the closed form.
        cfg = SinkhornConfig(lam=1.0)
        f = np.array([0.5, 0.5, 1e-320])
        m = binary_matrix(3)
        res = solve_one(one_hot(0, 3), f, m, cfg)
        assert res.domain == "log"
        got = center_gradient(sinkhorn_gradient(res, cfg))
        want = center_gradient(m[0] + np.log(f) / cfg.lam)
        assert np.abs(got - want).max() <= 1e-9

    def test_sign_moving_mass_off_label(self):
        # Label one-hot on the row side; pushing softmax mass away from the
        # label must raise the distance, so off-label components dominate.
        cfg = SinkhornConfig(lam=10.0)
        f = np.array([0.98, 0.01, 0.01])
        res = solve_one(one_hot(0, 3), f, binary_matrix(3), cfg)
        grad = center_gradient(sinkhorn_gradient(res, cfg))
        assert grad[1] > grad[0]
        assert grad[2] > grad[0]

    def test_requires_convergence(self):
        cfg = SinkhornConfig(lam=100.0, max_iter=1)
        res = solve_one([0.5, 0.5], [0.3, 0.7], binary_matrix(2), cfg)
        with pytest.raises(NumericError):
            sinkhorn_gradient(res, cfg)


def metric_violations(triples, m, tol=1e-9):
    """Symmetry, triangle inequality and identity of the exact distance on
    sampled triples; returns the violations found."""
    violations = []
    for idx, (r1, r2, r3) in enumerate(triples):
        w12, w21, w13, w23, w11 = (
            lp_transport(a, b, m)[0] for a, b in ((r1, r2), (r2, r1), (r1, r3), (r2, r3), (r1, r1))
        )
        if abs(w12 - w21) > tol:
            violations.append(f"triple {idx}: symmetry |{w12} - {w21}| > {tol}")
        if w13 > w12 + w23 + tol:
            violations.append(f"triple {idx}: triangle {w13} > {w12} + {w23}")
        if w11 > tol:
            violations.append(f"triple {idx}: W(r,r) = {w11} > {tol}")
        if w12 <= tol and np.max(np.abs(np.asarray(r1) - np.asarray(r2))) > 1e-6:
            violations.append(f"triple {idx}: W=0 for distinct distributions")
    return violations


class TestMetricAxioms:
    def test_binary_matrix_satisfies_axioms(self, rng):
        m = binary_matrix(4)
        triples = [
            (random_simplex(rng, 4), random_simplex(rng, 4), random_simplex(rng, 4))
            for _ in range(100)
        ]
        violations = metric_violations(triples, m)
        assert not violations, violations

    def test_self_distance_zero(self, rng):
        m = binary_matrix(3)
        r = random_simplex(rng, 3)
        assert not metric_violations([(r, r, random_simplex(rng, 3))], m)


@settings(max_examples=25, deadline=None)
@given(
    weights1=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    weights2=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
)
def test_binary_distance_symmetry_property(weights1, weights2):
    r1 = np.array(weights1) / np.sum(weights1)
    r2 = np.array(weights2) / np.sum(weights2)
    m = binary_matrix(3)
    w12, _ = lp_transport(r1, r2, m)
    w21, _ = lp_transport(r2, r1, m)
    assert w12 >= -1e-12
    assert w12 == pytest.approx(w21, abs=1e-9)
