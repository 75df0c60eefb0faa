"""Oracle tests: composite-bound certification, sandwich inequalities,
alignment bound, decomposition, unbiasedness, the ball radius law,
compressor tie rules, finite-difference closed forms, reduced-precision
error envelopes, the noise stream against a one-query-at-a-time
reference, block queries against one-point queries, the scalar
reference for the row-vectorised reduced-precision gradient, and its
full-precision row sums against exact rational sums."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ngl.numkit
from ngl.bounds import certification_report
from ngl.drivers import RegularizedOracle
from ngl.numkit import PrecisionSpec, round_to_precision
from ngl.oracles import (
    CompressedGradientOracle,
    FiniteDifferenceOracle,
    FloatingPointQuadraticOracle,
    GradientOracle,
    NoiseSpec,
    SyntheticNoiseOracle,
    _forward_differences,
    _fp_quadratic,
    _grid,
    _generator,
    _sign,
    _top_k,
)
from ngl.problems import nesterov_convex, nesterov_strongly_convex, quadratic
from ngl.solvers import DivergedError, GDConfig, gd_run
from ngl.verify import neumaier_row_sums

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=30),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(alpha=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(alpha=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(delta=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(mode="gaussian")


def test_mode_none_forces_exact():
    p = nesterov_strongly_convex(mu=1.0, L=10.0, n=5)
    o = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.5, delta=2.0, mode="none"), certify=True)
    x = np.ones(5)
    assert np.array_equal(o.estimate_with_exact(x)[0], p.gradient(x))
    assert o.declared_alpha == 0.0 and o.declared_delta == 0.0


def test_adversarial_pinned_value():
    p = quadratic(np.eye(2), np.zeros(2))  # gradient is x itself
    o = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.5, delta=0.0, mode="adversarial_opposing"))
    assert np.allclose(o.estimate_with_exact(np.array([2.0, 0.0]))[0], [1.0, 0.0])
    # with delta: shrink along the gradient direction by alpha*|g| + delta
    o2 = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.5, delta=0.25, mode="adversarial_opposing"))
    assert np.allclose(o2.estimate_with_exact(np.array([2.0, 0.0]))[0], [0.75, 0.0])
    # zero gradient: absolute part vanishes rather than dividing by zero
    assert np.allclose(o2.estimate_with_exact(np.zeros(2))[0], [0.0, 0.0])


def test_noiseless_alpha_delta_zero_identity():
    p = nesterov_strongly_convex(mu=1.0, L=10.0, n=4)
    o = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.0, delta=0.0, mode="sampled_unbiased", seed=5))
    x = np.arange(4.0)
    assert np.array_equal(o.estimate_with_exact(x)[0], p.gradient(x))


def test_reproducible_and_query_indexed():
    p = nesterov_strongly_convex(mu=1.0, L=10.0, n=6)
    spec = NoiseSpec(alpha=0.3, delta=0.5, mode="sampled_unbiased", seed=42)
    x = np.ones(6)
    a = SyntheticNoiseOracle(p, spec)
    b = SyntheticNoiseOracle(p, spec)
    g1, g2 = a.estimate_with_exact(x)[0], a.estimate_with_exact(x)[0]
    h1, h2 = b.estimate_with_exact(x)[0], b.estimate_with_exact(x)[0]
    assert np.array_equal(g1, h1) and np.array_equal(g2, h2)
    assert not np.array_equal(g1, g2)  # distinct queries, distinct draws
    other = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.3, delta=0.5, mode="sampled_unbiased", seed=43))
    assert not np.array_equal(other.estimate_with_exact(x)[0], g1)


def _oracle_zoo(certify=True):
    p1 = nesterov_strongly_convex(mu=1.0, L=50.0, n=12)
    rng = np.random.default_rng(9)
    M = rng.standard_normal((8, 8))
    p2 = quadratic(M @ M.T + np.eye(8), rng.standard_normal(8))
    return [
        SyntheticNoiseOracle(p1, NoiseSpec(0.4, 0.7, "sampled_unbiased", seed=1), certify=certify),
        SyntheticNoiseOracle(p1, NoiseSpec(0.9, 3.0, "sampled_unbiased", seed=2), certify=certify),
        SyntheticNoiseOracle(p1, NoiseSpec(0.5, 0.1, "adversarial_opposing"), certify=certify),
        SyntheticNoiseOracle(p1, NoiseSpec(0.0, 0.0, "none"), certify=certify),
        CompressedGradientOracle(p1, "top_k", 3, certify=certify),
        CompressedGradientOracle(p1, "sign", certify=certify),
        CompressedGradientOracle(p1, "grid", 4, certify=certify),
        FiniteDifferenceOracle(p1, h=1e-5, value_noise=1e-12, seed=3, certify=certify),
        FloatingPointQuadraticOracle(p2, PrecisionSpec(16), domain_radius=20.0, certify=certify),
    ]


def test_composite_bound_certification_1000_queries():
    rng = np.random.default_rng(77)
    for oracle in _oracle_zoo(certify=True):
        n = oracle.problem.dim
        for _ in range(1000 // 8):
            x = rng.standard_normal(n) * rng.uniform(0.05, 10.0)
            oracle.estimate_with_exact(x)[0]  # certify=True raises on violation


def test_sandwich_inequalities_every_estimate():
    rng = np.random.default_rng(78)
    for oracle in _oracle_zoo(certify=False):
        n = oracle.problem.dim
        for _ in range(60):
            x = rng.standard_normal(n) * rng.uniform(0.05, 10.0)
            est = oracle.estimate_with_exact(x)[0]
            rep = certification_report(
                est, oracle.problem.gradient(x), oracle.declared_alpha, oracle.declared_delta
            )
            for key, slack in rep.items():
                assert slack >= -1e-9, f"{oracle!r} violated {key} by {slack}"


def test_alignment_bound_relative_only():
    p = nesterov_strongly_convex(mu=1.0, L=50.0, n=12)
    rng = np.random.default_rng(79)
    for alpha in (0.1, 0.5, 0.95):
        o = SyntheticNoiseOracle(p, NoiseSpec(alpha, 0.0, "sampled_unbiased", seed=11))
        for _ in range(200):
            x = rng.standard_normal(12) * rng.uniform(0.1, 5.0)
            est = o.estimate_with_exact(x)[0]
            g = p.gradient(x)
            lhs = float(est @ g)
            rhs = math.sqrt(1.0 - alpha**2) * float(np.linalg.norm(est)) * float(np.linalg.norm(g))
            assert lhs >= rhs - 1e-12


def test_decomposition_components():
    # each estimate is g + rel + abs, parts rebuilt from fresh generators
    p = nesterov_strongly_convex(mu=1.0, L=50.0, n=10)
    o = SyntheticNoiseOracle(p, NoiseSpec(0.6, 1.5, "sampled_unbiased", seed=21))
    draws = _ReferenceBalls(21, 10)
    rng = np.random.default_rng(80)
    for _ in range(300):
        x = rng.standard_normal(10) * rng.uniform(0.1, 5.0)
        g = p.gradient(x)
        rel, absolute = draws.ball(0.6 * float(np.linalg.norm(g))), draws.ball(1.5)
        assert float(np.linalg.norm(rel)) <= 0.6 * float(np.linalg.norm(g)) + 1e-15
        assert float(np.linalg.norm(absolute)) <= 1.5 + 1e-15
        assert np.array_equal(o.estimate_with_exact(x)[0], g + rel + absolute)


def test_unbiasedness_mean_within_four_standard_errors():
    p = quadratic(np.diag([2.0, 1.0, 3.0]), np.array([0.5, -1.0, 0.0]))
    o = SyntheticNoiseOracle(p, NoiseSpec(0.5, 1.0, "sampled_unbiased", seed=33))
    x = np.array([1.0, 2.0, -1.0])
    g = p.gradient(x)
    draws = 100_000
    errs = np.empty((draws, 3))
    for q in range(draws):
        errs[q] = o._estimate(x, g) - g
    mean = errs.mean(axis=0)
    se = errs.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(mean) <= 4.0 * se), f"bias {mean} vs SE {se}"


@pytest.mark.parametrize("n", [1, 2, 16])
@pytest.mark.parametrize("ball", ["relative", "absolute"])
def test_radius_law(n, ball):
    # P(r <= t) = (t/R)^n: (r/R)^n is uniform on [0, 1], by a KS statistic
    # under its 0.1% critical value 1.95/sqrt(N)
    p = quadratic(np.eye(n), np.zeros(n))  # the gradient is x itself
    if ball == "relative":
        x = np.linspace(1.0, 2.0, n)
        spec, R = NoiseSpec(0.7, 0.0, "sampled_unbiased", seed=n), 0.7 * float(np.linalg.norm(x))
    else:
        x = np.zeros(n)  # the estimate is the absolute ball itself
        spec, R = NoiseSpec(0.0, 2.5, "sampled_unbiased", seed=n), 2.5
    o = SyntheticNoiseOracle(p, spec)
    N = 20_000
    u = np.sort([(float(np.linalg.norm(o._estimate(x, x) - x)) / R) ** n for _ in range(N)])
    assert u[-1] <= 1.0 + 1e-12
    i = np.arange(1, N + 1)
    ks = max(float(np.max(i / N - u)), float(np.max(u - (i - 1) / N)))
    assert ks <= 1.95 / math.sqrt(N), ks


class TestTopK:
    def test_pinned(self):
        assert np.array_equal(_top_k(np.array([3.0, -1.0, 2.0]), 1), [3.0, 0.0, 0.0])
        g = np.array([3.0, -1.0, 2.0])
        err = np.linalg.norm(_top_k(g, 1) - g)
        assert math.isclose(err, math.sqrt(5.0))
        assert math.sqrt(5.0) <= math.sqrt(2.0 / 3.0) * math.sqrt(14.0)

    def test_identity_when_k_equals_n(self):
        g = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(_top_k(g, 3), g)

    def test_tie_lowest_index(self):
        out = _top_k(np.array([1.0, 1.0]), 1)
        assert np.array_equal(out, [1.0, 0.0])
        # equality case of the bound
        assert math.isclose(float(np.linalg.norm(out - [1.0, 1.0])), math.sqrt(0.5) * math.sqrt(2.0))
        out = _top_k(np.array([-2.0, 1.0, 2.0]), 1)
        assert np.array_equal(out, [-2.0, 0.0, 0.0])

    def test_k_validation(self):
        p = quadratic(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            CompressedGradientOracle(p, "top_k", 0)
        with pytest.raises(ValueError):
            CompressedGradientOracle(p, "top_k", 4)

    @given(g=finite_vectors, frac=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_error_bound(self, g, frac):
        n = len(g)
        k = max(1, min(n, int(round(frac * n))))
        out = _top_k(g, k)
        err = float(np.linalg.norm(out - g))
        assert err <= math.sqrt(1.0 - k / n) * float(np.linalg.norm(g)) + 1e-9 * max(1.0, float(np.linalg.norm(g)))


class TestSign:
    def test_pinned(self):
        assert np.array_equal(_sign(np.array([1.0, -1.0])), [1.0, -1.0])
        out = _sign(np.array([2.0, 0.0, 0.0]))
        assert np.allclose(out, [2.0 / 3.0, 0.0, 0.0])
        err = float(np.linalg.norm(out - [2.0, 0.0, 0.0]))
        assert math.isclose(err, 4.0 / 3.0)
        assert err <= math.sqrt(2.0 / 3.0) * 2.0
        assert np.array_equal(_sign(np.zeros(4)), np.zeros(4))

    @given(g=finite_vectors)
    @settings(max_examples=200)
    def test_error_bound(self, g):
        n = len(g)
        err = float(np.linalg.norm(_sign(g) - g))
        assert err <= math.sqrt(1.0 - 1.0 / n) * float(np.linalg.norm(g)) + 1e-9 * max(1.0, float(np.linalg.norm(g)))


class TestGridSparsify:
    def test_pinned(self):
        out = _grid(np.array([0.4, -0.2]), 1)
        assert np.array_equal(out, [0.0, 0.0])
        assert math.isclose(float(np.linalg.norm(out - [0.4, -0.2])), math.sqrt(0.2))
        assert np.array_equal(_grid(np.array([3.0, -7.0]), 5), [3.0, -7.0])
        # tie rounds toward even numerator
        assert _grid(np.array([0.5]), 1)[0] == 0.0
        assert _grid(np.array([1.5]), 1)[0] == 2.0
        assert _grid(np.array([0.25]), 2)[0] == 0.0

    def test_m_validation(self):
        p = quadratic(np.eye(2), np.zeros(2))
        for bad in (0, 10**309):
            with pytest.raises(ValueError, match=r"needs m in \[1, 1.7976931348623157e\+308\]"):
                CompressedGradientOracle(p, "grid", bad)
        # 2*m would overflow here: every accepted m still declares a positive level
        for m in (10**300, 10**308, int(sys.float_info.max)):
            assert CompressedGradientOracle(p, "grid", m).declared_delta == 0.5 * math.sqrt(2) / m > 0.0

    def test_fine_grid_keeps_coordinates_past_float_precision(self):
        # |g*m| >= 2**52: the coordinate is kept, and g*m (here inf) is never used
        g = np.array([1.0, -3.0, 1.6e-300, -2.4e-300, 0.0])
        assert np.array_equal(_grid(g, 10**300), [1.0, -3.0, 2e-300, -2e-300, 0.0])
        assert np.array_equal(_grid(g[:2], 10**308), g[:2])
        # the slow path rounds the other coordinates as the fast path does
        h = np.array([0.3, 2.0**30, -0.71])
        assert np.array_equal(_grid(h, 4096), np.rint(h * 4096) / 4096)
        assert np.array_equal(_grid(np.append(h, 2.0**52), 4096), np.append(_grid(h, 4096), 2.0**52))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("L, m", [(10.0, 10**308), (1e9, 10**300)], ids=["L10-m1e308", "L1e9-m1e300"])
    def test_certified_at_a_fine_resolution(self, L, m):
        diag = np.linspace(1.0, L, 16)
        p = quadratic(np.diag(diag), -diag)
        oracle = CompressedGradientOracle(p, "grid", m, certify=True)
        assert oracle.declared_delta == 2.0 / m > 0.0
        for x in (np.zeros(16), np.ones(16), np.linspace(-3.0, 3.0, 16)):
            est, exact = oracle.estimate_with_exact(x)
            assert np.all(np.isfinite(est))
            assert float(np.linalg.norm(est - exact)) <= oracle.declared_delta

    @given(g=finite_vectors, m=st.integers(1, 1000))
    @settings(max_examples=200)
    def test_error_bound(self, g, m):
        out = _grid(g, m)
        assert float(np.linalg.norm(out - g)) <= math.sqrt(len(g)) / (2.0 * m) + 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [
    lambda p: CompressedGradientOracle(p, "grid", 16),
    lambda p: CompressedGradientOracle(p, "grid", 16, certify=True),
    lambda p: SyntheticNoiseOracle(p, NoiseSpec(0.25, 0.1, "adversarial_opposing")),
    lambda p: SyntheticNoiseOracle(p, NoiseSpec(0.25, 0.1, "adversarial_opposing"),
                                   certify=True)],
    ids=["grid", "grid_certified", "adversarial", "adversarial_certified"])
def test_a_finite_gradient_past_1e154_queries_without_a_warning(make):
    # its sums of squares overflow to inf, which the norms and the
    # certification read as such; a query outside the core warns of nothing
    p = quadratic(np.eye(2), np.zeros(2))
    x = np.array([1e200, 0.5])
    one, rows = make(p), make(p)
    est, exact = one.estimate_with_exact(x)
    E, G = rows._query_rows(np.array([x, -x, [0.25, 1.0]]))
    assert np.array_equal(exact, x) and np.array_equal(G[0], x)
    assert est.tobytes() == E[0].tobytes()
    assert np.all(np.isfinite(E))
    if one.declared_alpha == 0.0:  # the grid keeps a coordinate past float precision
        assert np.array_equal(est, [1e200, 0.5])


class TestFiniteDifference:
    def test_quadratic_closed_form(self):
        p = quadratic(np.eye(4), np.zeros(4))
        # dyadic data keeps every evaluation exact: the error is h/2 exactly
        x = np.array([0.25, -0.5, 1.0, 0.0])
        h = 2.0**-10
        oracle = FiniteDifferenceOracle(p, h)
        err = oracle.estimate_with_exact(x)[0] - p.gradient(x)
        assert np.array_equal(err, np.full(4, h / 2.0))
        # generic point: within 1e-12 of the closed form
        x = np.array([0.3, -1.2, 4.0, 0.0])
        err = oracle.estimate_with_exact(x)[0] - p.gradient(x)
        assert np.allclose(err, h / 2.0, rtol=0, atol=1e-12)
        assert abs(float(np.linalg.norm(err)) - math.sqrt(4) * h / 2.0) <= 1e-12

    def test_linear_objective_exact(self):
        # zero curvature: forward differences reproduce the gradient exactly
        class Linear:
            dim = 3
            slope = np.array([2.0, -0.5, 0.25])

            def _values(self, X):
                return X @ self.slope

        g = _forward_differences(Linear()._values, np.array([0.5, 1.0, -2.0]), 0.5, None)
        assert np.array_equal(g, [2.0, -0.5, 0.25])

    @pytest.mark.parametrize("family", ["convex", "strongly_convex", "quadratic"])
    def test_chunks_keep_the_per_point_bits(self, family):
        # n = 200: the kernel sees chunks of 2**14 // n = 81 rows (81, 81, 39),
        # and each estimate equals n+1 separate evaluations bit for bit
        n = 200
        rng = np.random.default_rng(3)
        M = rng.standard_normal((n, n))
        p = {"convex": lambda: nesterov_convex(10, 50.0, n),
             "strongly_convex": lambda: nesterov_strongly_convex(1.0, 50.0, n),
             "quadratic": lambda: quadratic(M @ M.T / n + np.eye(n), rng.standard_normal(n))}[family]()
        chunks = []

        def values(X):
            chunks.append(X.shape)
            return p._values(X)

        for q in range(4):
            x = rng.standard_normal(n) * 10.0 ** (q - 2)
            h = 10.0 ** -(q + 3)
            shifts = _generator(q).uniform(-1e-9, 1e-9, size=n + 1) if q % 2 else None
            added = np.zeros(n + 1) if shifts is None else shifts
            f0 = p.value(x) + added[0]
            want = np.empty(n)
            for j in range(n):
                step = x.copy()
                step[j] += h
                want[j] = (p.value(step) + added[j + 1] - f0) / h
            assert np.array_equal(_forward_differences(values, x, h, shifts), want)
        assert chunks == [(81, n), (81, n), (39, n)] * 4

    def test_optimal_step_bound(self):
        p = nesterov_strongly_convex(mu=1.0, L=10.0, n=6)
        value_noise = 1e-8
        h = 2.0 * math.sqrt(value_noise / p.L)
        o = FiniteDifferenceOracle(p, h=h, value_noise=value_noise, seed=7, certify=True)
        bound = math.sqrt(6) * 2.0 * math.sqrt(p.L * value_noise)
        assert o.declared_delta <= bound * (1.0 + 1e-9)
        rng = np.random.default_rng(12)
        for _ in range(50):
            o.estimate_with_exact(rng.standard_normal(6))[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_shift(self):
        # h is the largest float, so x + h*e_j overflows while x stays a
        # finite point with a finite value
        p = quadratic(1e-300 * np.eye(2), np.zeros(2))
        x, h = np.full(2, 1e300), float(np.finfo(np.float64).max)
        assert math.isfinite(p.value(x))
        oracle = FiniteDifferenceOracle(p, h=h)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(oracle.estimate_with_exact(x)[0]).all()
            with pytest.raises(DivergedError, match="^non-finite gradient estimate at step 0$") as exc:
                gd_run(p, FiniteDifferenceOracle(p, h=h), GDConfig(steps=3, alpha=0.0, L=p.L), x0=x)
        # the guard runs before row 0 is recorded
        assert exc.value.trace.terminal == "diverged"
        assert len(exc.value.trace.k) == 0

    def test_h_validation(self):
        p = quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            FiniteDifferenceOracle(p, h=0.0)
        with pytest.raises(ValueError):
            FiniteDifferenceOracle(p, h=-1.0)
        with pytest.raises(ValueError):
            FiniteDifferenceOracle(p, h=1.0, value_noise=-1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_levels_are_rejected(bad):
    # a NaN level would certify any error: err > nan is False
    p = quadratic(np.eye(2), np.zeros(2))
    builds = [
        lambda: GradientOracle(p, 0.0, bad, certify=True),
        lambda: GradientOracle(p, bad, 0.0),
        lambda: FiniteDifferenceOracle(p, h=bad),
        lambda: FiniteDifferenceOracle(p, h=1e-3, value_noise=bad),
        lambda: FloatingPointQuadraticOracle(p, PrecisionSpec(20), domain_radius=bad),
    ]
    for build in builds:
        with pytest.raises(ValueError):
            build()


class TestFloatingPointGradient:
    def test_host_precision_matches_exact(self):
        rng = np.random.default_rng(15)
        n = 10
        A = rng.standard_normal((n, n))
        A = A + A.T
        b = rng.standard_normal(n)
        x = rng.standard_normal(n)
        g = _fp_quadratic(A, b, x, PrecisionSpec(52))
        exact = A @ x + b
        eps = 2.0**-52
        allowed = 4.0 * eps * (np.abs(b).sum() + np.abs(A).sum(axis=0).max() * np.abs(x).sum())
        assert float(np.max(np.abs(g - exact))) <= allowed

    def test_zero_x_rounds_b_only(self):
        b = np.array([1.0 / 3.0, -2.0 / 7.0, 5.0])
        A = np.eye(3)
        spec = PrecisionSpec(12)
        g = _fp_quadratic(A, b, np.zeros(3), spec)
        eps = spec.eps
        assert np.all(np.abs(g - b) <= eps * np.abs(b) * 8.0)

    def test_nonnegative_relative_bound(self):
        rng = np.random.default_rng(16)
        n = 12
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A = A + A.T + n * np.eye(n)
        b = rng.uniform(0.0, 1.0, size=n)
        x = rng.uniform(0.0, 1.0, size=n)
        spec = PrecisionSpec(10)
        g = _fp_quadratic(A, b, x, spec)
        exact = A @ x + b
        rel = float(np.linalg.norm(g - exact)) / float(np.linalg.norm(exact))
        assert rel <= math.sqrt(n) * 2.0**-10 * 8.0

    def test_row_envelope_certification(self):
        rng = np.random.default_rng(17)
        n = 8
        M = rng.standard_normal((n, n))
        p = quadratic(M @ M.T + np.eye(n), rng.standard_normal(n))
        for bits in (8, 16, 32, 52):
            o = FloatingPointQuadraticOracle(p, PrecisionSpec(bits), domain_radius=15.0, certify=True)
            for _ in range(25):
                o.estimate_with_exact(rng.uniform(-1.0, 1.0, size=n) * 10.0)[0]

    def test_exactness_at_coarse_grid(self):
        # data already on the 5-bit grid passes through with zero error
        A = np.diag([1.0, 2.0])
        b = np.array([0.5, -1.0])
        x = np.array([4.0, 0.25])
        g = _fp_quadratic(A, b, x, PrecisionSpec(5))
        assert np.array_equal(g, A @ x + b)
        got = Fraction(float(g[0]))
        assert got == Fraction(9, 2)


class _ReferenceBalls:
    """Noise stream 2's balls, one draw at a time from fresh generators."""

    def __init__(self, seed, n):
        bitgen = np.random.Philox(key=seed)
        self.directions = np.random.Generator(bitgen)
        self.radii = np.random.Generator(bitgen.jumped())
        self.n = n

    def ball(self, radius):
        """The next ball of this radius: n normals and one double."""
        d = self.directions.standard_normal(self.n)
        u = self.radii.random()
        norm = math.sqrt(d.dot(d))
        if norm == 0.0:
            return np.zeros(self.n)
        return radius * ((u ** (1.0 / self.n) / norm) * d)


def _queries(per_block):
    """Query count crossing the first refill, and more than a dozen."""
    return max(12, per_block + 3)


BLOCKS = (1, 3, ngl.numkit.BLOCK_FLOATS)


class TestStreamIdentity:
    """Query q's noise is the q-th draw of sequential generators keyed by
    the seed, whatever block size the oracle draws in."""

    def test_synthetic_noise(self, monkeypatch):
        seed = 123
        for block in BLOCKS:
            monkeypatch.setattr(ngl.numkit, "BLOCK_FLOATS", block)
            for n in (1, 6, 100):
                p = quadratic(np.eye(n), np.zeros(n))  # the gradient is x itself
                for alpha, delta in ((0.4, 0.3), (0.4, 0.0), (0.0, 0.3)):
                    o = SyntheticNoiseOracle(p, NoiseSpec(alpha, delta, "sampled_unbiased", seed=seed))
                    # a zero-level ball draws nothing
                    balls = (alpha > 0.0) + (delta > 0.0)
                    ref = _ReferenceBalls(seed, n)
                    rng = np.random.default_rng(n)
                    for q in range(_queries(max(1, block // (balls * n)))):
                        # every fifth point has a zero gradient, whose relative ball still draws
                        x = np.zeros(n) if q % 5 == 2 else rng.standard_normal(n)
                        want = x
                        if alpha > 0.0:
                            want = want + ref.ball(alpha * math.sqrt(x.dot(x)))
                        if delta > 0.0:
                            want = want + ref.ball(delta)
                        got = o.estimate_with_exact(x)[0]
                        assert got.tobytes() == want.tobytes(), (block, n, alpha, delta, q)

    def test_finite_difference(self, monkeypatch):
        seed, h, noise = 17, 1e-4, 1e-7
        for block in BLOCKS:
            monkeypatch.setattr(ngl.numkit, "BLOCK_FLOATS", block)
            for n in (1, 6, 100):
                p = nesterov_strongly_convex(mu=1.0, L=10.0, n=n)
                o = FiniteDifferenceOracle(p, h=h, value_noise=noise, seed=seed)
                shifts = np.random.Generator(np.random.Philox(key=seed))
                rng = np.random.default_rng(n)
                for q in range(_queries(max(1, block // (n + 1)))):
                    x = rng.standard_normal(n)
                    want = _forward_differences(p._values, x, h, shifts.uniform(-noise, noise, size=n + 1))
                    assert np.array_equal(o.estimate_with_exact(x)[0], want), (block, n, q)

    def test_zero_gradient_query_advances_the_stream(self):
        p = quadratic(np.eye(3), np.zeros(3))
        spec = NoiseSpec(0.5, 0.0, "sampled_unbiased", seed=9)
        a, b = SyntheticNoiseOracle(p, spec), SyntheticNoiseOracle(p, spec)
        x = np.array([1.0, -2.0, 0.5])
        # a relative ball at a zero gradient is the zero vector, and takes its draws
        assert not np.any(a.estimate_with_exact(np.zeros(3))[0])
        b.estimate_with_exact(x)
        assert np.array_equal(a.estimate_with_exact(x)[0], b.estimate_with_exact(x)[0])


def _report_reference(est, g, alpha, delta):
    """certification_report for one pair, in Python floats: three 1-D norms and C pow squares."""
    ge, gn, err = (math.sqrt(v.dot(v)) for v in (est, g, est - g))
    report = {
        "composite": alpha * gn + delta - err,
        "norm_upper": (1.0 + alpha) * gn + delta - ge,
        "norm_lower": ge - ((1.0 - alpha) * gn - delta),
        "exact_norm_upper": (ge + delta) / (1.0 - alpha) - gn,
        "exact_norm_lower": gn - (ge - delta) / (1.0 + alpha),
        "sq_upper": 2.0 * (1.0 + alpha) ** 2 * gn**2 + 2.0 * delta**2 - ge**2,
        "sq_lower": ge**2 - (0.5 * (1.0 - alpha) ** 2 * gn**2 - delta**2),
        "exact_sq_upper": 2.0 / (1.0 - alpha) ** 2 * ge**2 + 2.0 / (1.0 - alpha) ** 2 * delta**2 - gn**2,
        "exact_sq_lower": gn**2 - (ge**2 / (2.0 * (1.0 + alpha) ** 2) - delta**2 / (1.0 + alpha) ** 2),
    }
    if delta == 0.0:
        report["alignment"] = float(est @ g) - math.sqrt(max(0.0, 1.0 - alpha**2)) * ge * gn
    return report


def _rows_match_points(make, chunks):
    """One oracle takes ``chunks`` as given, 2-D ones as block queries; a
    twin takes every row as a one-point query.  Both give the same bits
    and count the same queries."""
    block, point = make(), make()
    for chunk in chunks:
        if chunk.ndim == 1:
            got = [block.estimate_with_exact(chunk)]
        else:
            got = list(zip(*block._query_rows(np.ascontiguousarray(chunk))))
        want = [point.estimate_with_exact(x.copy()) for x in np.atleast_2d(chunk)]
        for (e, g), (we, wg) in zip(got, want, strict=True):
            assert e.tobytes() == we.tobytes() and g.tobytes() == wg.tobytes()
        assert block.queries == point.queries
    return block


def _interleaved(X):
    """X's rows as blocks of 5, 1 and the rest, with one-point queries between them."""
    return [X[:5], X[5], X[6:7], X[7], X[8]] + ([X[9:]] if len(X) > 9 else [])


class TestQueryRows:
    """A block query's row i is the (queries + i + 1)-th one-point query, bit for bit."""

    @pytest.mark.parametrize("block", [1, 40, ngl.numkit.BLOCK_FLOATS])
    @pytest.mark.parametrize("alpha, delta, mode", [
        (0.0, 0.3, "sampled_unbiased"), (0.4, 0.0, "sampled_unbiased"),
        (0.4, 0.3, "sampled_unbiased"), (0.4, 0.3, "none")])
    def test_sampled(self, monkeypatch, block, alpha, delta, mode):
        # small blocks make the noise refill inside a block query
        monkeypatch.setattr(ngl.numkit, "BLOCK_FLOATS", block)
        rng = np.random.default_rng(31)
        for p in (nesterov_strongly_convex(1.0, 10.0, 7), quadratic(np.eye(6), np.zeros(6))):
            X = rng.standard_normal((24, p.dim))
            X[[2, 11]] = 0.0  # a zero gradient on the identity quadratic
            spec = NoiseSpec(alpha, delta, mode, seed=5)
            _rows_match_points(lambda: SyntheticNoiseOracle(p, spec), _interleaved(X))

    @pytest.mark.parametrize("alpha, delta", [(0.5, 0.1), (0.5, 0.0), (0.0, 0.1), (0.0, 0.0)])
    def test_adversarial_with_zero_gradient_rows(self, alpha, delta):
        p = quadratic(np.eye(5), np.zeros(5))  # the gradient is x itself
        X = np.random.default_rng(32).standard_normal((12, 5))
        X[1], X[6] = 0.0, -0.0
        X[3] = 1e-170  # squares underflow: a zero norm with nonzero entries
        X[8, 2] = -0.0
        spec = NoiseSpec(alpha, delta, "adversarial_opposing")
        _rows_match_points(lambda: SyntheticNoiseOracle(p, spec), _interleaved(X))

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_top_k_ties(self, k):
        p = quadratic(np.eye(7), np.zeros(7))
        X = np.random.default_rng(33).integers(-2, 3, size=(12, 7)).astype(float)
        X[4] = [1.0, -1.0, 2.0, -2.0, 2.0, 0.0, -0.0]
        _rows_match_points(lambda: CompressedGradientOracle(p, "top_k", k), _interleaved(X))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 100, 1000])
    def test_sign_with_zero_entries(self, n):
        # the chain's gradient is zero past its head; the sum's pairwise
        # blocking changes with n
        p = nesterov_convex(max(1, n // 2), 4.0, n)
        X = np.random.default_rng(34).standard_normal((12, n)) * 3.0
        X[5] = 0.0
        _rows_match_points(lambda: CompressedGradientOracle(p, "sign"), _interleaved(X))

    @pytest.mark.parametrize("m", [16, 1e300])
    def test_grid_past_float_precision(self, m):
        p = quadratic(np.eye(4), np.zeros(4))
        X = np.random.default_rng(35).standard_normal((12, 4))
        X[2] = [2.0**51, 0.3, -2.0**60, 1e30]  # |g*m| past 2**52; at m = 1e300 it overflows
        X[7] = [1e-170, -3e-171, 0.0, 1e-200]  # a zero norm: the fast form, whatever m
        _rows_match_points(lambda: CompressedGradientOracle(p, "grid", m), _interleaved(X))

    def test_one_query_per_row_elsewhere(self):
        # finite differences, reduced precision and the ridge oracle take each row as a query
        p = nesterov_strongly_convex(1.0, 10.0, 6)
        rng = np.random.default_rng(36)
        M = rng.standard_normal((6, 6))
        quad = quadratic(M @ M.T + np.eye(6), rng.standard_normal(6))
        makes = [
            lambda: FiniteDifferenceOracle(p, h=1e-4, value_noise=1e-7, seed=3, certify=True),
            lambda: FloatingPointQuadraticOracle(quad, PrecisionSpec(16), 20.0, certify=True),
            lambda: RegularizedOracle(SyntheticNoiseOracle(
                p, NoiseSpec(0.2, 0.1, "sampled_unbiased", seed=4)), np.ones(6), 0.5, 10.0),
        ]
        for make in makes:
            block = _rows_match_points(make, _interleaved(rng.standard_normal((14, 6))))
        assert block.base_oracle.queries == 14

    @pytest.mark.parametrize("make, level", [
        (lambda p: SyntheticNoiseOracle(p, NoiseSpec(0.4, 0.3, "sampled_unbiased", seed=6),
                                        certify=True), "declared_delta"),
        (lambda p: CompressedGradientOracle(p, "top_k", 2, certify=True), "declared_alpha"),
    ], ids=["sampled", "top_k"])
    def test_a_breach_raises_the_one_point_message(self, make, level):
        p = nesterov_strongly_convex(1.0, 10.0, 8)

        def tightened():
            # a declared level below what the oracle emits (the estimates
            # do not read it): some queries break it
            oracle = make(p)
            setattr(oracle, level, 0.1 * getattr(oracle, level))
            return oracle

        X = np.random.default_rng(37).standard_normal((40, 8))
        X[:6] = 0.0  # at the origin the chain's gradient has one nonzero entry, which top_k keeps
        block, point = tightened(), tightened()
        block.estimate_with_exact(X[0])
        with pytest.raises(AssertionError) as raised:
            block._query_rows(X[1:])
        with pytest.raises(AssertionError) as want:
            for x in X:
                point.estimate_with_exact(x.copy())
        assert str(raised.value) == str(want.value)
        assert block.queries == point.queries > 2

    def test_certification_report_rows(self):
        rng = np.random.default_rng(38)
        G = rng.standard_normal((50, 100)) * np.exp(rng.uniform(-20, 20, size=(50, 1)))
        E = G + rng.standard_normal((50, 100)) * rng.uniform(0.0, 2.0, size=(50, 1))
        E[3] = G[3]  # no error
        G[7] = 0.0
        # norms whose C pow square is not their product's
        for row, v in ((10, 21.00529813526687), (11, 0.01732616306962217)):
            assert v ** 2 != v * v
            G[row], E[row] = 0.0, 0.0
            G[row, 0] = E[row + 1, 0] = v
        for alpha, delta in ((0.3, 0.1), (0.3, 0.0), (0.0, 0.0)):
            rows = certification_report(E, G, alpha, delta)
            for i in range(len(G)):
                one = certification_report(E[i].copy(), G[i].copy(), alpha, delta)
                want = _report_reference(E[i].copy(), G[i].copy(), alpha, delta)
                assert list(rows) == list(one) == list(want)
                assert [v[i] for v in rows.values()] == list(one.values()) == list(want.values())
        with pytest.raises(ValueError):
            certification_report(E, G[:, :-1], 0.3, 0.1)


@pytest.mark.parametrize("make", [
    lambda p: SyntheticNoiseOracle(p, NoiseSpec(0.3, 0.2, "sampled_unbiased", seed=5)),
    lambda p: FiniteDifferenceOracle(p, h=1e-4, value_noise=1e-8, seed=5),
], ids=["synthetic", "finite_difference"])
def test_one_bit_generator_per_oracle(monkeypatch, make):
    # the oracle keys one Philox by its seed (a sampled oracle's radius
    # generator is its jumped twin); refills draw and build nothing new
    built = []
    philox, generator = np.random.Philox, np.random.Generator

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return build

    monkeypatch.setattr(np.random, "Philox", counting(philox))
    monkeypatch.setattr(np.random, "Generator", counting(generator))
    monkeypatch.setattr(ngl.numkit, "BLOCK_FLOATS", 16)
    p = nesterov_strongly_convex(mu=1.0, L=10.0, n=4)
    oracle = make(p)
    assert built.count("Philox") == 1
    before = len(built)
    x = np.ones(4)
    for _ in range(200):
        oracle.estimate_with_exact(x)[0]
    assert oracle.queries == 200
    assert len(built) == before


def _compensated_sum_at_precision(values, spec):
    """Scalar reference: Neumaier sum with every elementary op rounded to p bits."""

    def rnd(v):
        return round_to_precision(v, spec)

    total = 0.0
    carry = 0.0
    ties = 0
    for v in values:
        t = rnd(total + v)
        ties += abs(total) == abs(v)
        if abs(total) >= abs(v):
            carry = rnd(carry + rnd(rnd(total - t) + v))
        else:
            carry = rnd(carry + rnd(rnd(v - t) + total))
        total = t
    return rnd(total + carry), ties


def _fp_gradient_reference(A, b, x, spec):
    """The row-at-a-time loop _fp_quadratic vectorises."""
    Ap = round_to_precision(np.asarray(A, dtype=np.float64), spec)
    xp = round_to_precision(np.asarray(x, dtype=np.float64), spec)
    bp = round_to_precision(np.asarray(b, dtype=np.float64), spec)
    out = np.empty(len(b))
    ties = 0
    for i in range(len(b)):
        products = round_to_precision(Ap[i] * xp, spec)
        out[i], row_ties = _compensated_sum_at_precision([bp[i], *products], spec)
        ties += row_ties
    return out, ties


class TestVectorisedPrecisionGradient:
    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("bits", [5, 20, 52])
    def test_bit_identical_to_scalar_loop(self, n, bits):
        spec = PrecisionSpec(bits)
        rng = np.random.default_rng(1000 * n + bits)
        ties = 0
        for case in range(12):
            if case == 0:
                # row i sums 1, then -1 at its diagonal: an exact tie
                A, b, x = -np.eye(n), np.ones(n), np.ones(n)
            elif case % 3 == 0:
                # signed powers of two: many |total| == |v| ties
                A = rng.choice([-1.0, 1.0], size=(n, n)) * 2.0 ** rng.integers(-2, 3, size=(n, n))
                b = rng.choice([-1.0, 1.0], size=n) * 2.0 ** rng.integers(-2, 3, size=n)
                x = np.ones(n)
            else:
                scale = 10.0 ** rng.integers(-4, 5)
                A = rng.standard_normal((n, n)) * scale
                b = rng.standard_normal(n) * scale
                x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            want, case_ties = _fp_gradient_reference(A, b, x, spec)
            ties += case_ties
            got = _fp_quadratic(A, b, x, spec)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert ties > 0

    def test_raises_where_the_loop_raises(self):
        spec = PrecisionSpec(10)
        # only the second row's running sum overflows
        A = np.array([[1.0, 0.0], [1.7e308, 1.7e308]])
        b = np.array([0.5, 0.0])
        x = np.ones(2)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="cannot round non-finite values"):
                _fp_gradient_reference(A, b, x, spec)
            with pytest.raises(ValueError, match="cannot round non-finite values"):
                _fp_quadratic(A, b, x, spec)
        # one row less and neither raises
        want, _ = _fp_gradient_reference(A[:1, :1], b[:1], x[:1], spec)
        assert np.array_equal(_fp_quadratic(A[:1, :1], b[:1], x[:1], spec), want)

    def test_raises_at_the_rounding_that_overflows(self):
        spec = PrecisionSpec(5)
        # row 0 sums two 5-bit products to 1.984375 * 2**1023: finite, but
        # halfway to 2**1024 at 5 bits, where ties to even carries it out
        A = np.array([[2.0**1023, 0.984375 * 2.0**1023], [1.0, 1.0]])
        b, x = np.zeros(2), np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rounding to 5 bits overflows float64"):
                _fp_gradient_reference(A, b, x, spec)
            with pytest.raises(ValueError, match="rounding to 5 bits overflows float64"):
                _fp_quadratic(A, b, x, spec)


# The Neumaier row sums at full precision, through the gate `ngl verify` runs

EPS64 = 2.0**-52


def _exact_sum(values):
    """Exact rational sum (every float64 is an exact rational)."""
    return sum((Fraction(float(v)) for v in values), Fraction(0))


def _naive_sum(values):
    acc = 0.0
    for v in values:
        acc += float(v)
    return acc


def _adversarial_sequence(rng, n):
    """Mixed-magnitude, mixed-sign summands that defeat naive accumulation."""
    seq = 10.0 ** rng.uniform(-8, 8, size=n) * rng.choice([-1.0, 1.0], size=n)
    # interleave a cancelling pair of large values to force carry churn
    big = 10.0 ** rng.uniform(12, 15)
    i, j = rng.choice(n, size=2, replace=False)
    seq[i] = big
    seq[j] = -big
    return seq


def test_row_sums_beat_naive_on_random_trials():
    rng = np.random.default_rng(20240814)
    n, trials = 200, 1000
    sequences = [_adversarial_sequence(rng, n) for _ in range(trials)]
    passed, detail, sums = neumaier_row_sums(sequences)
    assert passed, detail
    wins = 0
    for seq, got in zip(sequences, sums.tolist()):
        exact = _exact_sum(seq)
        err = abs(Fraction(got) - exact)
        wins += err <= abs(Fraction(_naive_sum(seq)) - exact)
        # ordering-independent worst-case bound, C = 4
        assert float(err) <= (EPS64 + n * EPS64**2) * 4 * float(np.sum(np.abs(seq)))
    assert wins >= 990, f"the compensated sum won only {wins}/{trials}"


def test_row_sums_simple_values():
    # the cancellation case: a naive left-to-right sum yields 0.0
    sequences = [[], [1.5], [1.0, 2.0, 3.0], [1e16, 1.0, -1e16], [1.0, 1e100, 1.0, -1e100] * 1000]
    passed, detail, sums = neumaier_row_sums(sequences)
    assert passed, detail
    assert sums.tolist() == [0.0, 1.5, 6.0, 1.0, 2000.0]


def test_row_sums_reject_non_finite():
    with pytest.raises(ValueError):
        neumaier_row_sums([[1.0, np.inf]])
    with pytest.raises(ValueError):
        neumaier_row_sums([[np.nan]])
