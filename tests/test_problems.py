"""Benchmark objective tests: pinned values, certificate inequalities,
finite-difference gradient consistency, minimizer correctness."""

import numpy as np
import pytest

from ngl.drivers import regularize
from ngl.problems import nesterov_convex, nesterov_strongly_convex, quadratic


def central_fd_gradient(problem, x, h):
    """Oracle: central finite differences of the exact value function."""
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (problem.value(x + e) - problem.value(x - e)) / (2 * h)
    return g


def sample_problems():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6))
    A = A @ A.T + 0.5 * np.eye(6)
    return [
        nesterov_convex(k=1, L=4.0, n=2),
        nesterov_convex(k=5, L=10.0, n=12),
        nesterov_convex(k=12, L=7.5, n=12),
        nesterov_strongly_convex(mu=1.0, L=100.0, n=20),
        nesterov_strongly_convex(mu=0.05, L=3.0, n=9),
        quadratic(A, rng.standard_normal(6)),
        quadratic(np.diag([1.0, 100.0]), [-1.0, 0.0]),
    ]


class TestPinnedValues:
    def test_chained_convex_small(self):
        p = nesterov_convex(k=1, L=4.0, n=2)
        assert p.value(np.zeros(2)) == 0.0
        assert p.value(np.array([0.5, 0.0])) == -0.25
        assert np.allclose(p.x_star, [0.5, 0.0])
        assert p.f_star == -0.25
        assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-12
        assert p.mu == 0.0

    def test_chained_convex_minimizer_formula(self):
        p = nesterov_convex(k=3, L=8.0, n=5)
        assert np.allclose(p.x_star, [0.75, 0.5, 0.25, 0.0, 0.0])
        p = nesterov_convex(k=6, L=1.0, n=6)
        assert np.isclose(p.x_star[-1], 1.0 / 7.0)

    def test_chained_convex_validation(self):
        with pytest.raises(ValueError):
            nesterov_convex(k=0, L=1.0, n=3)
        with pytest.raises(ValueError):
            nesterov_convex(k=4, L=1.0, n=3)

    def test_strongly_convex_solve(self):
        p = nesterov_strongly_convex(mu=1.0, L=100.0, n=100)
        assert p.chi == 100.0
        assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-9

    def test_strongly_convex_near_degenerate(self):
        p = nesterov_strongly_convex(mu=1.0 - 1e-9, L=1.0, n=8)
        assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-9

    def test_strongly_convex_validation(self):
        with pytest.raises(ValueError):
            nesterov_strongly_convex(mu=2.0, L=1.0, n=4)
        with pytest.raises(ValueError):
            nesterov_strongly_convex(mu=1.0, L=1.0, n=4)

    def test_quadratic_identity(self):
        p = quadratic(np.eye(2), np.zeros(2))
        assert p.value(np.array([3.0, 4.0])) == 12.5
        assert np.allclose(p.gradient(np.array([3.0, 4.0])), [3.0, 4.0])
        assert p.f_star == 0.0
        assert np.allclose(p.x_star, 0.0)

    def test_quadratic_diagonal(self):
        p = quadratic(np.diag([1.0, 100.0]), [-1.0, 0.0])
        assert np.allclose(p.x_star, [1.0, 0.0])
        assert np.isclose(p.f_star, -0.5)
        assert p.mu == 1.0 and p.L == 100.0

    def test_quadratic_validation(self):
        with pytest.raises(ValueError):
            quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))  # not symmetric
        with pytest.raises(ValueError):
            quadratic(np.diag([1.0, -1.0]), np.zeros(2))  # indefinite
        with pytest.raises(ValueError):
            # singular with b outside range(A): unbounded below
            quadratic(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_dimension_mismatch(self):
        p = nesterov_convex(k=1, L=4.0, n=2)
        with pytest.raises(ValueError):
            p.value(np.zeros(3))
        with pytest.raises(ValueError):
            p.gradient(np.zeros(3))

    @pytest.mark.parametrize("make", [
        lambda: nesterov_convex(k=3, L=4.0, n=4),
        lambda: nesterov_strongly_convex(mu=1.0, L=10.0, n=4),
        lambda: quadratic(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4)),
        lambda: regularize(nesterov_convex(k=3, L=4.0, n=4), np.ones(4), 0.5),
    ], ids=["chained_convex", "chained_strongly_convex", "quadratic", "regularized"])
    def test_public_methods_validate_input(self, make):
        p = make()
        cases = [
            ([0.0, np.nan, 0.0, 0.0], "^vector contains non-finite entries$"),
            ([0.0, 0.0, 0.0, -np.inf], "^vector contains non-finite entries$"),
            (np.zeros(3), "^expected dimension 4, got 3$"),
            (np.zeros((2, 4)), r"^expected a 1-D vector, got shape \(2, 4\)$"),
        ]
        for x, message in cases:
            for method in (p.value, p.gradient):
                with pytest.raises(ValueError, match=message):
                    method(x)
        # a list or float32 input is converted, and gives the float64 result
        x = np.array([0.5, -0.25, 1.0, 2.0])
        assert p.value(list(x)) == p.value(x)
        assert np.array_equal(p.gradient(x.astype(np.float32)), p.gradient(x))


class TestCertificates:
    @pytest.mark.parametrize("idx", range(7))
    def test_gradient_matches_central_differences(self, idx):
        p = sample_problems()[idx]
        rng = np.random.default_rng(100 + idx)
        for _ in range(100):
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 5.0)
            h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
            g = p.gradient(x)
            fd = central_fd_gradient(p, x, h)
            denom = max(float(np.linalg.norm(g)), 1e-8)
            assert float(np.linalg.norm(fd - g)) <= 1e-4 * denom

    @pytest.mark.parametrize("idx", range(7))
    def test_smoothness_upper_bound(self, idx):
        p = sample_problems()[idx]
        rng = np.random.default_rng(200 + idx)
        for _ in range(200):
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 10.0)
            y = rng.standard_normal(p.dim) * rng.uniform(0.1, 10.0)
            lhs = p.value(y)
            rhs = p.value(x) + float(p.gradient(x) @ (y - x)) + p.L / 2.0 * float(
                np.linalg.norm(y - x) ** 2
            )
            assert rhs - lhs >= -1e-9 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("idx", range(7))
    def test_convexity_lower_bound(self, idx):
        p = sample_problems()[idx]
        rng = np.random.default_rng(300 + idx)
        for _ in range(200):
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 10.0)
            y = rng.standard_normal(p.dim) * rng.uniform(0.1, 10.0)
            lhs = p.value(y)
            rhs = p.value(x) + float(p.gradient(x) @ (y - x)) + p.mu / 2.0 * float(
                np.linalg.norm(y - x) ** 2
            )
            assert lhs - rhs >= -1e-9 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("idx", range(7))
    def test_gradient_domination_of_gap(self, idx):
        # ||grad f||^2 >= 2 mu (f - f*) for strongly convex instances
        p = sample_problems()[idx]
        if p.mu == 0.0:
            pytest.skip("needs mu > 0")
        rng = np.random.default_rng(400 + idx)
        for _ in range(200):
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 10.0)
            lhs = float(np.linalg.norm(p.gradient(x)) ** 2) / (2.0 * p.mu)
            gap = p.value(x) - p.f_star
            assert lhs - gap >= -1e-9 * max(1.0, abs(gap))

    @pytest.mark.parametrize("idx", range(7))
    def test_minimizer_quality(self, idx):
        p = sample_problems()[idx]
        gnorm = float(np.linalg.norm(p.gradient(p.x_star)))
        assert gnorm <= 1e-9 * max(1.0, p.L * float(np.linalg.norm(p.x_star)))
        rng = np.random.default_rng(500 + idx)
        for _ in range(100):
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 10.0)
            gap = p.value(x) - p.f_star
            assert gap >= -1e-9 * max(1.0, abs(p.f_star))
            if p.mu > 0:
                dist2 = float(np.linalg.norm(x - p.x_star) ** 2)
                assert gap >= p.mu / 2.0 * dist2 - 1e-9 * max(1.0, gap)


class TestShiftedMinimizer:
    @pytest.mark.parametrize("idx", range(7))
    def test_shifted_stationarity(self, idx):
        p = sample_problems()[idx]
        rng = np.random.default_rng(600 + idx)
        for _ in range(10):
            ridge = float(10.0 ** rng.uniform(-4, 2))
            center = rng.standard_normal(p.dim)
            z = p.shifted_minimizer(ridge, center)
            resid = p.gradient(z) + ridge * (z - center)
            scale = max(1.0, p.L * float(np.linalg.norm(z)), ridge)
            assert float(np.linalg.norm(resid)) <= 1e-8 * scale

    def test_ridge_validation(self):
        p = nesterov_convex(k=2, L=1.0, n=4)
        with pytest.raises(ValueError):
            p.shifted_minimizer(0.0, np.zeros(4))


class TestRowKernels:
    """``_values`` and ``_gradients`` give row i of a 2-D X the bits of
    ``_value`` and ``_gradient`` at X[i]: the stepping core evaluates its
    trace rows in blocks with them."""

    @pytest.mark.parametrize("n", [1, 2, 16, 100, 1000])
    def test_rows_match_the_1d_kernels_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        # first entries whose scalar square (C pow) differs from x * x in
        # the last bit: a kernel squaring the column X[:, 0] at once fails
        # (a Python float's ** is C pow too); small other entries keep the
        # first square's last bit visible in f
        odd = [c for c in rng.standard_normal(200_000).tolist() if c ** 2 != c * c]
        assert len(odd) >= 50
        X = 1e-3 * rng.standard_normal((2 * len(odd), n))
        X[: len(odd), 0] = odd
        assert np.any(X[:, 0] ** 2 != np.array([x0 ** 2 for x0 in X[:, 0]]))
        M = rng.standard_normal((n, n))
        strongly = nesterov_strongly_convex(mu=0.5, L=40.0, n=n)
        families = [
            strongly,
            nesterov_convex(k=max(1, n // 2), L=20.0, n=n),  # the default row loop
            quadratic(M @ M.T / n + np.eye(n), rng.standard_normal(n)),
            regularize(strongly, rng.standard_normal(n), 0.3),  # the default row loop
        ]
        for p in families:
            values, gradients = p._values(X), p._gradients(X)
            # each row as a vector of its own, as the core's iterates are
            want_values = np.array([p._value(x.copy()) for x in X])
            want_gradients = np.array([p._gradient(x.copy()) for x in X])
            assert values.shape == (len(X),) and gradients.shape == X.shape
            assert values.tobytes() == want_values.tobytes(), p
            assert gradients.tobytes() == want_gradients.tobytes(), p
