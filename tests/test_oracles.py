"""Oracle tests: composite-bound certification, sandwich inequalities,
alignment bound, decomposition, unbiasedness, compressor tie rules,
finite-difference closed forms, reduced-precision error envelopes,
counter-based stream identity, the scalar reference for the
row-vectorised reduced-precision gradient, and its full-precision row
sums against exact rational sums."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ngl.numkit import PrecisionSpec, round_to_precision
from ngl.oracles import (
    CompressedGradientOracle,
    FiniteDifferenceOracle,
    FloatingPointQuadraticOracle,
    NoiseSpec,
    SyntheticNoiseOracle,
    certification_report,
    finite_difference_gradient,
    fp_quadratic_gradient,
    sign_compress,
    sparsify_grid,
    top_k_compress,
)
from ngl.problems import nesterov_strongly_convex, quadratic
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
    assert np.array_equal(o.gradient_estimate(x), p.gradient(x))
    assert o.declared_alpha == 0.0 and o.declared_delta == 0.0


def test_adversarial_pinned_value():
    p = quadratic(np.eye(2), np.zeros(2))  # gradient is x itself
    o = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.5, delta=0.0, mode="adversarial_opposing"))
    assert np.allclose(o.gradient_estimate(np.array([2.0, 0.0])), [1.0, 0.0])
    # with delta: shrink along the gradient direction by alpha*|g| + delta
    o2 = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.5, delta=0.25, mode="adversarial_opposing"))
    assert np.allclose(o2.gradient_estimate(np.array([2.0, 0.0])), [0.75, 0.0])
    # zero gradient: absolute part vanishes rather than dividing by zero
    assert np.allclose(o2.gradient_estimate(np.zeros(2)), [0.0, 0.0])


def test_noiseless_alpha_delta_zero_identity():
    p = nesterov_strongly_convex(mu=1.0, L=10.0, n=4)
    o = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.0, delta=0.0, mode="sampled_unbiased", seed=5))
    x = np.arange(4.0)
    assert np.array_equal(o.gradient_estimate(x), p.gradient(x))


def test_reproducible_and_query_indexed():
    p = nesterov_strongly_convex(mu=1.0, L=10.0, n=6)
    spec = NoiseSpec(alpha=0.3, delta=0.5, mode="sampled_unbiased", seed=42)
    x = np.ones(6)
    a = SyntheticNoiseOracle(p, spec)
    b = SyntheticNoiseOracle(p, spec)
    g1, g2 = a.gradient_estimate(x), a.gradient_estimate(x)
    h1, h2 = b.gradient_estimate(x), b.gradient_estimate(x)
    assert np.array_equal(g1, h1) and np.array_equal(g2, h2)
    assert not np.array_equal(g1, g2)  # distinct queries, distinct draws
    other = SyntheticNoiseOracle(p, NoiseSpec(alpha=0.3, delta=0.5, mode="sampled_unbiased", seed=43))
    assert not np.array_equal(other.gradient_estimate(x), g1)


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
            oracle.gradient_estimate(x)  # certify=True raises on violation


def test_sandwich_inequalities_every_estimate():
    rng = np.random.default_rng(78)
    for oracle in _oracle_zoo(certify=False):
        n = oracle.problem.dim
        for _ in range(60):
            x = rng.standard_normal(n) * rng.uniform(0.05, 10.0)
            est = oracle.gradient_estimate(x)
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
            est = o.gradient_estimate(x)
            g = p.gradient(x)
            lhs = float(est @ g)
            rhs = math.sqrt(1.0 - alpha**2) * float(np.linalg.norm(est)) * float(np.linalg.norm(g))
            assert lhs >= rhs - 1e-12


def test_decomposition_components():
    p = nesterov_strongly_convex(mu=1.0, L=50.0, n=10)
    o = SyntheticNoiseOracle(p, NoiseSpec(0.6, 1.5, "sampled_unbiased", seed=21))
    rng = np.random.default_rng(80)
    for q in range(300):
        x = rng.standard_normal(10) * rng.uniform(0.1, 5.0)
        g = p.gradient(x)
        rel, absolute = o._components(g, q)
        assert float(np.linalg.norm(rel)) <= 0.6 * float(np.linalg.norm(g)) + 1e-15
        assert float(np.linalg.norm(absolute)) <= 1.5 + 1e-15
        # query q draws exactly these parts
        assert np.array_equal(o.gradient_estimate(x), g + rel + absolute)


def test_unbiasedness_mean_within_four_standard_errors():
    p = quadratic(np.diag([2.0, 1.0, 3.0]), np.array([0.5, -1.0, 0.0]))
    o = SyntheticNoiseOracle(p, NoiseSpec(0.5, 1.0, "sampled_unbiased", seed=33))
    x = np.array([1.0, 2.0, -1.0])
    g = p.gradient(x)
    draws = 100_000
    errs = np.empty((draws, 3))
    for q in range(draws):
        rel, absolute = o._components(g, q)
        errs[q] = (g + rel + absolute) - g
    mean = errs.mean(axis=0)
    se = errs.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(mean) <= 4.0 * se), f"bias {mean} vs SE {se}"


class TestTopK:
    def test_pinned(self):
        assert np.array_equal(top_k_compress(np.array([3.0, -1.0, 2.0]), 1), [3.0, 0.0, 0.0])
        g = np.array([3.0, -1.0, 2.0])
        err = np.linalg.norm(top_k_compress(g, 1) - g)
        assert math.isclose(err, math.sqrt(5.0))
        assert math.sqrt(5.0) <= math.sqrt(2.0 / 3.0) * math.sqrt(14.0)

    def test_identity_when_k_equals_n(self):
        g = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(top_k_compress(g, 3), g)

    def test_tie_lowest_index(self):
        out = top_k_compress(np.array([1.0, 1.0]), 1)
        assert np.array_equal(out, [1.0, 0.0])
        # equality case of the bound
        assert math.isclose(float(np.linalg.norm(out - [1.0, 1.0])), math.sqrt(0.5) * math.sqrt(2.0))
        out = top_k_compress(np.array([-2.0, 1.0, 2.0]), 1)
        assert np.array_equal(out, [-2.0, 0.0, 0.0])

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k_compress(np.ones(3), 0)
        with pytest.raises(ValueError):
            top_k_compress(np.ones(3), 4)

    @given(g=finite_vectors, frac=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_error_bound(self, g, frac):
        n = len(g)
        k = max(1, min(n, int(round(frac * n))))
        out = top_k_compress(g, k)
        err = float(np.linalg.norm(out - g))
        assert err <= math.sqrt(1.0 - k / n) * float(np.linalg.norm(g)) + 1e-9 * max(1.0, float(np.linalg.norm(g)))


class TestSign:
    def test_pinned(self):
        assert np.array_equal(sign_compress(np.array([1.0, -1.0])), [1.0, -1.0])
        out = sign_compress(np.array([2.0, 0.0, 0.0]))
        assert np.allclose(out, [2.0 / 3.0, 0.0, 0.0])
        err = float(np.linalg.norm(out - [2.0, 0.0, 0.0]))
        assert math.isclose(err, 4.0 / 3.0)
        assert err <= math.sqrt(2.0 / 3.0) * 2.0
        assert np.array_equal(sign_compress(np.zeros(4)), np.zeros(4))

    @given(g=finite_vectors)
    @settings(max_examples=200)
    def test_error_bound(self, g):
        n = len(g)
        err = float(np.linalg.norm(sign_compress(g) - g))
        assert err <= math.sqrt(1.0 - 1.0 / n) * float(np.linalg.norm(g)) + 1e-9 * max(1.0, float(np.linalg.norm(g)))


class TestGridSparsify:
    def test_pinned(self):
        out = sparsify_grid(np.array([0.4, -0.2]), 1)
        assert np.array_equal(out, [0.0, 0.0])
        assert math.isclose(float(np.linalg.norm(out - [0.4, -0.2])), math.sqrt(0.2))
        assert np.array_equal(sparsify_grid(np.array([3.0, -7.0]), 5), [3.0, -7.0])
        # tie rounds toward even numerator
        assert sparsify_grid(np.array([0.5]), 1)[0] == 0.0
        assert sparsify_grid(np.array([1.5]), 1)[0] == 2.0
        assert sparsify_grid(np.array([0.25]), 2)[0] == 0.0

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sparsify_grid(np.ones(2), 0)

    @given(g=finite_vectors, m=st.integers(1, 1000))
    @settings(max_examples=200)
    def test_error_bound(self, g, m):
        out = sparsify_grid(g, m)
        assert float(np.linalg.norm(out - g)) <= math.sqrt(len(g)) / (2.0 * m) + 1e-12


class TestFiniteDifference:
    def test_quadratic_closed_form(self):
        p = quadratic(np.eye(4), np.zeros(4))
        # dyadic data keeps every evaluation exact: the error is h/2 exactly
        x = np.array([0.25, -0.5, 1.0, 0.0])
        h = 2.0**-10
        g = finite_difference_gradient(p, x, h)
        err = g - p.gradient(x)
        assert np.array_equal(err, np.full(4, h / 2.0))
        # generic point: within 1e-12 of the closed form
        x = np.array([0.3, -1.2, 4.0, 0.0])
        err = finite_difference_gradient(p, x, h) - p.gradient(x)
        assert np.allclose(err, h / 2.0, rtol=0, atol=1e-12)
        assert abs(float(np.linalg.norm(err)) - math.sqrt(4) * h / 2.0) <= 1e-12

    def test_linear_objective_exact(self):
        # zero curvature: forward differences reproduce the gradient exactly
        class Linear:
            dim = 3
            slope = np.array([2.0, -0.5, 0.25])

            def value(self, x):
                return float(self.slope @ x)

        g = finite_difference_gradient(Linear(), np.array([0.5, 1.0, -2.0]), h=0.5)
        assert np.array_equal(g, [2.0, -0.5, 0.25])

    def test_optimal_step_bound(self):
        p = nesterov_strongly_convex(mu=1.0, L=10.0, n=6)
        value_noise = 1e-8
        h = 2.0 * math.sqrt(value_noise / p.L)
        o = FiniteDifferenceOracle(p, h=h, value_noise=value_noise, seed=7, certify=True)
        bound = math.sqrt(6) * 2.0 * math.sqrt(p.L * value_noise)
        assert o.declared_delta <= bound * (1.0 + 1e-9)
        rng = np.random.default_rng(12)
        for _ in range(50):
            o.gradient_estimate(rng.standard_normal(6))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_shift(self):
        # h is the largest float, so x + h*e_j overflows while x stays a
        # finite point with a finite value
        p = quadratic(1e-300 * np.eye(2), np.zeros(2))
        x, h = np.full(2, 1e300), float(np.finfo(np.float64).max)
        assert math.isfinite(p.value(x))
        with pytest.raises(ValueError, match="non-finite"):
            finite_difference_gradient(p, x, h)
        oracle = FiniteDifferenceOracle(p, h=h)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(oracle.gradient_estimate(x)).all()
            with pytest.raises(DivergedError, match="^non-finite gradient estimate at step 0$") as exc:
                gd_run(p, FiniteDifferenceOracle(p, h=h), GDConfig(steps=3, alpha=0.0, L=p.L), x0=x)
        # the guard runs before row 0 is recorded
        assert exc.value.trace.terminal == "diverged"
        assert len(exc.value.trace.k) == 0

    def test_h_validation(self):
        p = quadratic(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            finite_difference_gradient(p, np.zeros(2), h=0.0)
        with pytest.raises(ValueError):
            FiniteDifferenceOracle(p, h=-1.0)
        with pytest.raises(ValueError):
            FiniteDifferenceOracle(p, h=1.0, value_noise=-1e-3)


class TestFloatingPointGradient:
    def test_host_precision_matches_exact(self):
        rng = np.random.default_rng(15)
        n = 10
        A = rng.standard_normal((n, n))
        A = A + A.T
        b = rng.standard_normal(n)
        x = rng.standard_normal(n)
        g = fp_quadratic_gradient(A, b, x, PrecisionSpec(52))
        exact = A @ x + b
        eps = 2.0**-52
        allowed = 4.0 * eps * (np.abs(b).sum() + np.abs(A).sum(axis=0).max() * np.abs(x).sum())
        assert float(np.max(np.abs(g - exact))) <= allowed

    def test_zero_x_rounds_b_only(self):
        b = np.array([1.0 / 3.0, -2.0 / 7.0, 5.0])
        A = np.eye(3)
        spec = PrecisionSpec(12)
        g = fp_quadratic_gradient(A, b, np.zeros(3), spec)
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
        g = fp_quadratic_gradient(A, b, x, spec)
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
                o.gradient_estimate(rng.uniform(-1.0, 1.0, size=n) * 10.0)

    def test_exactness_at_coarse_grid(self):
        # data already on the 5-bit grid passes through with zero error
        A = np.diag([1.0, 2.0])
        b = np.array([0.5, -1.0])
        x = np.array([4.0, 0.25])
        g = fp_quadratic_gradient(A, b, x, PrecisionSpec(5))
        assert np.array_equal(g, A @ x + b)
        got = Fraction(float(g[0]))
        assert got == Fraction(9, 2)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fp_quadratic_gradient(np.eye(2), np.zeros(3), np.zeros(2), PrecisionSpec(8))


def _fresh_rng(seed, q):
    # a uint64 array, since a list holding q >= 2**63 would pass through float64
    counter = np.array([0, 0, 0, q], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _ball_reference(rng, n, radius):
    if radius <= 0.0:
        return np.zeros(n)
    direction = rng.standard_normal(n)
    norm = float(np.linalg.norm(direction))
    return (radius * rng.uniform() ** (1.0 / n) / norm) * direction


# out of order, repeated, and past 2**32
STREAM_QUERIES = (7, 0, 2**33 + 5, 3, 0, 2**40 + 1, 1, 2**64 - 1, np.int64(9))


class TestStreamIdentity:
    """Every draw equals that of a fresh Philox(key=seed, counter=[0,0,0,q])."""

    def test_synthetic_noise(self):
        # n = 6: a query usually draws 14 64-bit words, leaving part of a
        # 4-word Philox block unused, so a buffer carried into the next
        # query would change its draws
        p = nesterov_strongly_convex(mu=1.0, L=50.0, n=6)
        seed, alpha, delta = 123, 0.4, 0.3
        o = SyntheticNoiseOracle(p, NoiseSpec(alpha, delta, "sampled_unbiased", seed=seed))
        rng = np.random.default_rng(3)

        def expected(x, q):
            g = p.gradient(x)
            fresh = _fresh_rng(seed, q)
            rel = _ball_reference(fresh, 6, alpha * float(np.linalg.norm(g)))
            absolute = _ball_reference(fresh, 6, delta)
            return g + rel + absolute, rel, absolute

        for q in STREAM_QUERIES:
            x = rng.standard_normal(6)
            want = expected(x, o.queries)
            assert np.array_equal(o.gradient_estimate(x), want[0])
            g = p.gradient(x)
            rel, absolute = o._components(g, q)
            for a, b in zip((g + rel + absolute, rel, absolute), expected(x, q)):
                assert np.array_equal(a, b)
        assert o.queries == len(STREAM_QUERIES)

    def test_finite_difference(self):
        p = nesterov_strongly_convex(mu=1.0, L=10.0, n=5)
        seed, h, noise = 17, 1e-4, 1e-7
        o = FiniteDifferenceOracle(p, h=h, value_noise=noise, seed=seed)
        rng = np.random.default_rng(4)

        def expected(x, q):
            shifts = _fresh_rng(seed, q).uniform(-noise, noise, size=6)
            f0 = p.value(x) + shifts[0]
            g = np.empty(5)
            for j in range(5):
                step = x.copy()
                step[j] += h
                g[j] = (p.value(step) + shifts[j + 1] - f0) / h
            return g

        for q in STREAM_QUERIES:
            x = rng.standard_normal(5)
            want = expected(x, o.queries)
            assert np.array_equal(o.gradient_estimate(x), want)
            got = finite_difference_gradient(p, x, h, noise, seed=seed, query_index=q)
            assert np.array_equal(got, expected(x, q))

    @pytest.mark.parametrize("bad", [-1, 2**64, True, 1.0, np.float64(2.0), "3"])
    def test_query_index_is_checked_at_the_public_entry_points(self, bad):
        p = nesterov_strongly_convex(mu=1.0, L=10.0, n=5)
        message = "query_index must be .*got " + re.escape(repr(bad))
        with pytest.raises(ValueError, match=message):
            finite_difference_gradient(p, np.ones(5), 1e-4, 1e-8, seed=5, query_index=bad)


@pytest.mark.parametrize("make", [
    lambda p: SyntheticNoiseOracle(p, NoiseSpec(0.3, 0.2, "sampled_unbiased", seed=5)),
    lambda p: FiniteDifferenceOracle(p, h=1e-4, value_noise=1e-8, seed=5),
], ids=["synthetic", "finite_difference"])
def test_one_bit_generator_per_oracle(monkeypatch, make):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    p = nesterov_strongly_convex(mu=1.0, L=10.0, n=4)
    oracle = make(p)
    x = np.ones(4)
    for _ in range(200):
        oracle.gradient_estimate(x)
    assert oracle.queries == 200
    assert len(built) <= 1


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
    """The row-at-a-time loop fp_quadratic_gradient vectorises."""
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
            got = fp_quadratic_gradient(A, b, x, spec)
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
                fp_quadratic_gradient(A, b, x, spec)
        # one row less and neither raises
        want, _ = _fp_gradient_reference(A[:1, :1], b[:1], x[:1], spec)
        assert np.array_equal(fp_quadratic_gradient(A[:1, :1], b[:1], x[:1], spec), want)

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
                fp_quadratic_gradient(A, b, x, spec)


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
