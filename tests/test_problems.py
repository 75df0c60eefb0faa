"""Benchmark objective tests: pinned values, certificate inequalities,
finite-difference gradient consistency, minimizer correctness."""

import math

import numpy as np
import pytest

from ngl.drivers import RegularizedProblem
from ngl.numkit import row_dots
from ngl.problems import (ChainedConvex, ChainedStronglyConvex, ObjectiveProblem, Quadratic,
                          _solve_spd_tridiagonal, nesterov_convex, nesterov_strongly_convex,
                          quadratic)


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


STRONGLY_CONVEX = [i for i, p in enumerate(sample_problems()) if p.mu > 0.0]


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
        # an infinite L would build a problem whose f_star is nan
        with pytest.raises(ValueError, match="^L must be positive and finite, got inf$"):
            nesterov_convex(k=3, L=np.inf, n=5)

    def test_strongly_convex_solve(self):
        p = nesterov_strongly_convex(mu=1.0, L=100.0, n=100)
        assert p.L / p.mu == 100.0
        assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-9

    def test_strongly_convex_near_degenerate(self):
        p = nesterov_strongly_convex(mu=1.0 - 1e-9, L=1.0, n=8)
        assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-9

    def test_strongly_convex_validation(self):
        with pytest.raises(ValueError):
            nesterov_strongly_convex(mu=2.0, L=1.0, n=4)
        with pytest.raises(ValueError):
            nesterov_strongly_convex(mu=1.0, L=1.0, n=4)
        with pytest.raises(ValueError, match="^L must be positive and finite, got inf$"):
            nesterov_strongly_convex(mu=1.0, L=np.inf, n=4)

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
        lambda: RegularizedProblem(nesterov_convex(k=3, L=4.0, n=4), np.ones(4), 0.5),
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

    @pytest.mark.parametrize("idx", STRONGLY_CONVEX)
    def test_gradient_domination_of_gap(self, idx):
        # ||grad f||^2 >= 2 mu (f - f*) for strongly convex instances
        p = sample_problems()[idx]
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
        # first square's last bit visible in f.  The other rows end in such
        # entries, for the convex chain's square of its last entry.
        odd = [c for c in rng.standard_normal(200_000).tolist() if c ** 2 != c * c]
        assert len(odd) >= 50
        X = 1e-3 * rng.standard_normal((2 * len(odd), n))
        X[: len(odd), 0] = odd
        X[len(odd):, -1] = odd
        assert np.any(X[:, 0] ** 2 != np.array([x0 ** 2 for x0 in X[:, 0]]))
        M = rng.standard_normal((n, n))
        strongly = nesterov_strongly_convex(mu=0.5, L=40.0, n=n)
        families = [
            strongly,
            nesterov_convex(k=max(1, n // 2), L=20.0, n=n),
            nesterov_convex(k=n, L=20.0, n=n),  # a chain over every entry
            quadratic(M @ M.T / n + np.eye(n), rng.standard_normal(n)),
            RegularizedProblem(strongly, rng.standard_normal(n), 0.3),
            RegularizedProblem(nesterov_convex(k=1, L=20.0, n=n), rng.standard_normal(n), 0.3),
        ]
        for p in families:
            values, gradients = p._values(X), p._gradients(X)
            # each row as a vector of its own, as the core's iterates are
            want_values = np.array([p._value(x.copy()) for x in X])
            want_gradients = np.array([p._gradient(x.copy()) for x in X])
            assert values.shape == (len(X),) and gradients.shape == X.shape
            assert values.tobytes() == want_values.tobytes(), p
            assert gradients.tobytes() == want_gradients.tobytes(), p
            # the core takes the rows' norms with row_dots, whose bits are
            # the 1-D dot's only on contiguous rows
            norms = np.sqrt(row_dots(gradients, gradients))
            want_norms = np.array([math.sqrt(g.dot(g)) for g in want_gradients])
            assert norms.tobytes() == want_norms.tobytes(), p


class TestChainKernel:
    """The strongly convex chain's gradient reads its neighbours from a
    padded buffer and keeps the bits of the in-place form it replaced."""

    @staticmethod
    def in_place(p, x):
        """The in-place form along axis 0: 2x, its last entry less x_n,
        then the right and the left neighbours subtracted, c * Bx + mu * x,
        and c taken off the first entry."""
        Bx = 2.0 * x
        Bx[-1] -= x[-1]
        if p.dim > 1:
            Bx[:-1] -= x[1:]
            Bx[1:] -= x[:-1]
        g = p._c * Bx + p.mu * x
        g[0] -= p._c
        return g

    @pytest.mark.parametrize("n", [1, 2, 3, 100])
    @pytest.mark.parametrize("mu, L", [(0.5, 40.0), (1e-3, 1e6)])
    def test_the_kernels_keep_the_in_place_bits(self, n, mu, L):
        rng = np.random.default_rng(n)
        # magnitudes from 1e-300 to 1e308, where 2x overflows to inf, with
        # -0.0 and 0.0 entries between them
        X = rng.choice([-1.0, 1.0], (64, n)) * 10.0 ** rng.uniform(-300, 308, (64, n))
        X[rng.random((64, n)) < 0.1] = -0.0
        X[rng.random((64, n)) < 0.05] = 0.0
        X[:8, -1] = -1.5e308
        p = nesterov_strongly_convex(mu, L, n)
        with np.errstate(all="ignore"):
            want = np.array([self.in_place(p, x.copy()) for x in X])
            rows = p._gradients(X)
            got = np.array([p._gradient(x.copy()) for x in X])
        assert np.isinf(want).any()
        assert np.array_equal(rows.view(np.int64), want.view(np.int64))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_gradient_is_not_a_view_of_the_buffer(self):
        p = nesterov_strongly_convex(0.5, 40.0, 5)
        first = p._gradient(np.linspace(-1.0, 1.0, 5))
        kept = first.copy()
        p._gradient(np.full(5, 3.0))
        assert np.array_equal(first.view(np.int64), kept.view(np.int64))

    def test_a_copy_views_its_own_buffer(self):
        import copy
        import pickle

        p = nesterov_strongly_convex(0.5, 40.0, 5)
        p._gradient(np.full(5, 3.0))  # the buffer the copies are made of holds this x
        x = np.linspace(-1.0, 1.0, 5)
        for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert np.array_equal(q._gradient(x).view(np.int64), p._gradient(x).view(np.int64))


@pytest.mark.parametrize("cls", [ChainedConvex, ChainedStronglyConvex, Quadratic, RegularizedProblem])
def test_each_family_holds_the_validating_wrappers(cls):
    # the benchmark's tracer wraps value and gradient in each family's own
    # class dict: a missing binding would show only in a traced run
    assert vars(cls)["value"] is ObjectiveProblem.value
    assert vars(cls)["gradient"] is ObjectiveProblem.gradient


@pytest.fixture
def solveh_banded():
    """scipy's banded solve, the reference for the tridiagonal solve's bits."""
    return pytest.importorskip("scipy.linalg").solveh_banded


def band(d, e):
    """LAPACK upper band storage of the symmetric tridiagonal (d, e)."""
    ab = np.zeros((2, len(d)))
    ab[0, 1:] = e
    ab[1, :] = d
    return ab


def raised(fn):
    """(type, message) of the exception fn() raises."""
    with pytest.raises(Exception) as info:
        fn()
    return info.type, str(info.value)


class TestTridiagonalSolve:
    """``_solve_spd_tridiagonal`` is LAPACK's dptsv step for step: its x has
    the bits of ``scipy.linalg.solveh_banded`` on the strongly convex
    chain's band, on ridge-shifted chain bands, and on random SPD bands,
    and its errors have scipy's type and message."""

    @pytest.mark.parametrize("n", [2, 3, 16, 100, 5000])
    def test_strongly_convex_band_matches_scipy(self, solveh_banded, n):
        rng = np.random.default_rng(n)
        for mu, L in ((1.0, 100.0), (0.05, 3.0), (1e7, 1e8), (1.0 - 1e-9, 1.0)):
            p = nesterov_strongly_convex(mu=mu, L=L, n=n)
            c = p._c
            for ridge, center in ((0.0, None), (0.3, rng.standard_normal(n)),
                                  (1e-4, 10.0 * rng.standard_normal(n))):
                # the chain's band and right-hand side, shifted by a ridge
                d = np.full(n, 2.0 * c + p.mu + ridge)
                d[-1] = c + p.mu + ridge
                e = np.full(n - 1, -c)
                rhs = np.zeros(n)
                rhs[0] = c
                if center is not None:
                    rhs += ridge * center
                want = solveh_banded(band(d, e), rhs).tobytes()
                assert _solve_spd_tridiagonal(d, e, rhs).tobytes() == want, (mu, L, ridge)
                if center is None:
                    assert p.x_star.tobytes() == want, (mu, L)

    @pytest.mark.parametrize("k", [2, 3, 16, 100])
    def test_convex_head_band_matches_scipy(self, solveh_banded, k):
        # the convex chain's head band, shifted by a ridge
        rng = np.random.default_rng(k)
        c = 7.5 / 4.0
        for ridge in (1e-4, 0.3, 20.0):
            d, e = np.full(k, 2.0 * c + ridge), np.full(k - 1, -c)
            rhs = ridge * rng.standard_normal(k)
            rhs[0] += c
            want = solveh_banded(band(d, e), rhs)
            assert _solve_spd_tridiagonal(d, e, rhs).tobytes() == want.tobytes(), ridge

    def test_random_spd_systems_match_scipy(self, solveh_banded):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            n = int(rng.integers(2, 80))
            e = rng.standard_normal(n - 1) * 10.0 ** rng.uniform(-3, 3)
            # diagonally dominant by a margin from tiny to large: SPD
            d = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]) + 10.0 ** rng.uniform(-6, 2, n)
            b = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            want = solveh_banded(band(d, e), b)
            assert _solve_spd_tridiagonal(d, e, b).tobytes() == want.tobytes()

    def test_one_by_one_system_divides(self):
        rng = np.random.default_rng(1)
        for d, r in zip(10.0 ** rng.uniform(-5, 5, 200), rng.standard_normal(200)):
            x = _solve_spd_tridiagonal(np.array([d]), np.empty(0), np.array([r]))
            assert x.tobytes() == np.array([r / d]).tobytes()
        p = nesterov_strongly_convex(mu=0.3, L=7.0, n=1)
        assert p.x_star.tobytes() == np.array([p._c / (p._c + p.mu + 0.0)]).tobytes()

    def test_non_finite_input_is_rejected_as_scipy_does(self, solveh_banded):
        d, e, b = np.full(4, 3.0), np.full(3, -1.0), np.ones(4)
        for bad in (np.nan, np.inf, -np.inf):
            for which in range(3):
                args = [d.copy(), e.copy(), b.copy()]
                args[which][which] = bad
                got = raised(lambda: _solve_spd_tridiagonal(*args))
                assert got == raised(lambda: solveh_banded(band(args[0], args[1]), args[2]))
                assert got == (ValueError, "array must not contain infs or NaNs")

    def test_failed_pivot_names_its_leading_minor_as_scipy_does(self, solveh_banded):
        n = 6
        cases = []
        for k in range(1, n + 1):
            d = np.full(n, 3.0)
            d[k - 1] = 0.0 if k % 2 else -0.0  # a zero pivot at minor k
            cases.append((k, d, np.full(n - 1, -1.0)))
        # 2 > 1 * 1: the second pivot goes negative after one elimination
        cases.append((2, np.array([1.0, 1.0, 5.0]), np.array([2.0, 1.0])))
        # e0 / d0 overflows to inf, so the second pivot is -inf
        cases.append((2, np.array([1e-300, 1.0]), np.array([1e200])))
        for k, d, e in cases:
            b = np.ones(len(d))
            got = raised(lambda: _solve_spd_tridiagonal(d, e, b))
            assert got == raised(lambda: solveh_banded(band(d, e), b))
            assert got == (np.linalg.LinAlgError, f"{k}th leading minor not positive definite")
