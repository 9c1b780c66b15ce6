"""Self-checks for the brute-force reference implementations."""

import numpy as np
import pytest

from wood.errors import InputError
from wood.geometry import binary_matrix
from wood.oracles import (
    CapacityError,
    dynamic_matrix,
    fd_gradient,
    forced_transport,
    lp_transport,
    pairwise_auroc,
)

from conftest import random_simplex


def ipf_coupling(rng, r1, r2, sweeps=300):
    """Random feasible coupling via iterative proportional fitting."""
    k = r1.size
    p = rng.uniform(0.1, 1.0, (k, k))
    for _ in range(sweeps):
        p *= (r1 / p.sum(axis=1))[:, None]
        p *= (r2 / p.sum(axis=0))[None, :]
    return p


class TestLpTransport:
    def test_one_hot_forces_singleton_coupling(self, rng):
        k = 4
        m = rng.uniform(0, 1, (k, k))
        f = random_simplex(rng, k)
        y = np.zeros(k)
        y[2] = 1.0
        value, coupling = lp_transport(y, f, m)
        expected = np.zeros((k, k))
        expected[2, :] = f
        np.testing.assert_allclose(coupling, expected, atol=1e-8)
        assert value == pytest.approx(float(f @ m[2, :]), abs=1e-8)
        # The forced-coupling helper agrees, for any costs and both kinds.
        for costs in (m, binary_matrix(k), dynamic_matrix(f, 2)):
            assert forced_transport(2, f, costs) == pytest.approx(
                lp_transport(y, f, costs)[0], abs=1e-8
            )

    def test_k2_binary_is_half_l1(self, rng):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(20):
            r1 = random_simplex(rng, 2)
            r2 = random_simplex(rng, 2)
            value, _ = lp_transport(r1, r2, m)
            assert value == pytest.approx(0.5 * np.sum(np.abs(r1 - r2)), abs=1e-8)

    def test_equal_marginals_zero_diagonal(self, rng):
        k = 5
        m = rng.uniform(0.1, 1.0, (k, k))
        np.fill_diagonal(m, 0.0)
        r = random_simplex(rng, k)
        value, coupling = lp_transport(r, r, m)
        assert value == pytest.approx(0.0, abs=1e-8)
        np.testing.assert_allclose(coupling, np.diag(r), atol=1e-8)

    def test_optimality_against_random_feasible_couplings(self, rng):
        for _ in range(5):
            k = int(rng.integers(2, 7))
            m = rng.uniform(0, 1, (k, k))
            r1 = random_simplex(rng, k, floor=0.01)
            r2 = random_simplex(rng, k, floor=0.01)
            value, _ = lp_transport(r1, r2, m)
            for _ in range(200):
                p = ipf_coupling(rng, r1, r2)
                assert value <= float(np.sum(p * m)) + 1e-6

    def test_coupling_marginals(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 9))
            m = rng.uniform(0, 1, (k, k))
            r1 = random_simplex(rng, k)
            r2 = random_simplex(rng, k)
            _, coupling = lp_transport(r1, r2, m)
            np.testing.assert_allclose(coupling.sum(axis=1), r1, atol=1e-8)
            np.testing.assert_allclose(coupling.sum(axis=0), r2, atol=1e-8)

    def test_capacity_cap(self):
        k = 17
        r = np.full(k, 1.0 / k)
        with pytest.raises(CapacityError):
            lp_transport(r, r, np.zeros((k, k)))

    def test_rejects_non_distribution(self):
        with pytest.raises(InputError):
            lp_transport([0.5, 0.6], [0.5, 0.5], np.zeros((2, 2)))


class TestFdGradient:
    def test_quadratic_known_gradient(self, rng):
        # fn = sum(a * p^2): ambient gradient 2*a*p, centered on the simplex.
        k = 4
        a = rng.uniform(0.5, 2.0, k)
        p = random_simplex(rng, k, floor=0.05)

        def fn(x):
            return float(np.sum(a * x * x))

        grad = fd_gradient(fn, p, step=1e-5)
        expected = 2 * a * p
        expected = expected - expected.mean()
        assert np.linalg.norm(grad - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_dynamic_closed_form_stationary_at_uniform(self):
        k = 5
        uniform = np.full(k, 1.0 / k)

        def fn(x):
            return 1.0 - float(x @ x)

        grad = fd_gradient(fn, uniform, step=1e-5)
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_binary_closed_form_constant_gradient(self, rng):
        # fn = 1 - f[k]: ambient gradient -e_k, centered.
        k = 4
        p = random_simplex(rng, k, floor=0.05)

        def fn(x):
            return 1.0 - float(x[1])

        grad = fd_gradient(fn, p, step=1e-5)
        expected = -np.eye(k)[1]
        expected = expected - expected.mean()
        np.testing.assert_allclose(grad, expected, atol=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(InputError):
            fd_gradient(lambda x: 0.0, np.array([0.5, 0.5]), step=0.0)


class TestPairwiseAuroc:
    def test_perfect_separation(self):
        assert pairwise_auroc([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_identical_lists_half(self):
        assert pairwise_auroc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_hand_counted_case(self):
        # OOD 2.5 beats {1,2}; OOD 5 beats all four: (2 + 4) / 8.
        assert pairwise_auroc([1, 2, 3, 4], [2.5, 5]) == 0.75

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            pairwise_auroc([], [1.0])
