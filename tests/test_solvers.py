"""Solver unit tests: parameter formulas, traces, guards, inner-loop accounting."""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest

from ngl import drivers, numkit, solvers
from ngl.numkit import PrecisionSpec
from ngl.oracles import (
    FiniteDifferenceOracle,
    FloatingPointQuadraticOracle,
    GradientOracle,
    NoiseSpec,
    SyntheticNoiseOracle,
)
from ngl.problems import nesterov_convex, nesterov_strongly_convex, quadratic
from ngl.solvers import (
    INNER_LOOP_CAP,
    AdaptiveGDConfig,
    DivergedError,
    GDConfig,
    InnerLoopStallError,
    ReAgmConfig,
    _adaptive_coefficients,
    adaptive_gd_run,
    gd_run,
    gd_step_size,
    re_agm_calculate_parameters,
    re_agm_run,
)


def exact_oracle(problem):
    return SyntheticNoiseOracle(problem, NoiseSpec(alpha=0.0, delta=0.0, mode="none"))


class ScalingOracle(GradientOracle):
    """Returns factor * exact gradient; used to build misbehaving oracles."""

    def __init__(self, problem, factor, declared_alpha=0.0, declared_delta=0.0):
        super().__init__(problem, declared_alpha, declared_delta)
        self.factor = factor

    def _estimate(self, x, exact):
        return self.factor * exact


def half_sphere_quadratic(dim=2, curvature=1.0):
    return quadratic(curvature * np.eye(dim), np.zeros(dim), name="sphere")


def gd_theoretical_descent_check(trace, problem, cfg) -> bool:
    """Check the per-step descent inequality along a gd_run trace.

    Uses cfg's (alpha, L) for the constants and the trace's declared
    absolute level for the noise term:

        f(x^{k+1}) <= f(x^k) - (1-a)^3/((1+a) 16L) ||grad f(x^k)||^2
                              + 3 delta^2 / (16L (1+a)^2)

    with slack tolerance 1e-9 * max(1, |f(x^k)|) per step.  Expected to
    hold whenever cfg.alpha covers the oracle's true relative level; a
    False return indicates an understated level (or a non-conforming
    oracle).
    """
    a, L = cfg.alpha, cfg.L
    delta = trace.declared_delta
    c1 = (1.0 - a) ** 3 / ((1.0 + a) * 16.0 * L)
    c2 = 3.0 / (16.0 * L * (1.0 + a) ** 2)
    noise_term = c2 * delta * delta
    gaps = trace.f_gap
    gnorms = trace.grad_norm
    for k in range(len(gaps) - 1):
        allowed = gaps[k] - c1 * gnorms[k] ** 2 + noise_term
        slack_scale = 1e-9 * max(1.0, abs(gaps[k] + problem.f_star))
        if gaps[k + 1] > allowed + slack_scale:
            return False
    return True


class TestConfigs:
    def test_gd_config_validation(self):
        with pytest.raises(ValueError):
            GDConfig(steps=-1, alpha=0.0, L=1.0)
        with pytest.raises(ValueError):
            GDConfig(steps=2.5, alpha=0.0, L=1.0)
        with pytest.raises(ValueError):
            GDConfig(steps=True, alpha=0.0, L=1.0)
        with pytest.raises(ValueError):
            GDConfig(steps=1, alpha=1.0, L=1.0)
        with pytest.raises(ValueError):
            GDConfig(steps=1, alpha=-0.1, L=1.0)
        with pytest.raises(ValueError):
            GDConfig(steps=1, alpha=0.0, L=0.0)

    def test_step_size_values(self):
        assert gd_step_size(0.0, 1.0) == 0.25
        # ((1-1/3)/(1+1/3))^{3/2}/400 = 0.5^{1.5}/400
        h = gd_step_size(1.0 / 3.0, 100.0)
        assert math.isclose(h, 0.5**1.5 / 400.0, rel_tol=1e-12)
        assert math.isclose(h, 8.838834764831845e-4, rel_tol=1e-12)
        assert GDConfig(steps=1, alpha=0.0, L=1.0).step_size == 0.25

    @pytest.mark.parametrize("L", [math.inf, math.nan, 0.0])
    def test_step_size_needs_a_positive_finite_L(self, L):
        # an infinite L would give a 0.0 step
        with pytest.raises(ValueError, match="^L must be positive and finite, got"):
            gd_step_size(0.1, L)

    def test_re_agm_config_domain(self):
        ReAgmConfig(steps=1, mu=1.0, L=100.0, alpha=1.0 / 3.0)
        with pytest.raises(ValueError):
            ReAgmConfig(steps=1, mu=0.0, L=100.0, alpha=0.1)
        with pytest.raises(ValueError):
            ReAgmConfig(steps=1, mu=-1.0, L=100.0, alpha=0.1)
        with pytest.raises(ValueError):
            ReAgmConfig(steps=1, mu=101.0, L=100.0, alpha=0.1)
        with pytest.raises(ValueError):
            ReAgmConfig(steps=1, mu=1.0, L=100.0, alpha=0.34)
        with pytest.raises(ValueError):
            ReAgmConfig(steps=-3, mu=1.0, L=100.0, alpha=0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["gap_target", "threshold"])
    def test_declared_stop_must_be_finite(self, name, value):
        # a NaN target would never fire, and an infinite one fires at row 0
        message = f"^{name} must be finite or None, got"
        with pytest.raises(ValueError, match=message):
            GDConfig(steps=1, alpha=0.0, L=1.0, **{name: value})
        with pytest.raises(ValueError, match=message):
            ReAgmConfig(steps=1, mu=1.0, L=100.0, alpha=0.1, **{name: value})

    def test_adaptive_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveGDConfig(steps=1, L0=0.0)
        with pytest.raises(ValueError):
            AdaptiveGDConfig(steps=1, L0=1.0, delta=-0.5)
        cfg = AdaptiveGDConfig(steps=1, L0=1.0)
        assert cfg.delta == 0.0 and cfg.adapt_L is False

    def test_constants_are_computed_once(self, monkeypatch):
        # a config keeps the constants it validated, and its run reads them
        calls = {"re_agm_calculate_parameters": 0, "gd_step_size": 0}
        for name in calls:
            def counting(*args, real=getattr(solvers, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(solvers, name, counting)
        p = nesterov_strongly_convex(1.0, 100.0, 8)
        oracle = SyntheticNoiseOracle(p, NoiseSpec(mode="none"))
        re_agm_run(p, oracle, ReAgmConfig(steps=3, mu=1.0, L=100.0, alpha=0.1))
        assert calls["re_agm_calculate_parameters"] == 1
        calls["gd_step_size"] = 0
        gd_run(p, oracle, GDConfig(steps=3, alpha=0.1, L=100.0))
        assert calls["gd_step_size"] == 1


class TestReAgmParameters:
    def test_worked_example_third(self):
        # mu=1, L=100, alpha=1/3: s=22/9, m=1/9, L_hat=3600, q=1/7200
        p = re_agm_calculate_parameters(1.0, 100.0, 1.0 / 3.0)
        assert abs(p.gamma_star) <= 1e-15
        assert math.isclose(p.s, 22.0 / 9.0, rel_tol=1e-13)
        assert math.isclose(p.m, 1.0 / 9.0, rel_tol=1e-13)
        assert math.isclose(p.L_hat, 3600.0, rel_tol=1e-12)
        assert math.isclose(p.q, 1.0 / 7200.0, rel_tol=1e-12)
        assert 5.952e-5 <= p.omega <= 5.953e-5
        assert p.omega >= (1.0 / 150.0) * (1.0 / 200.0)
        residual = p.m * p.omega**2 + (p.s - p.m) * p.omega - p.q
        assert abs(residual) <= 1e-15

    def test_gamma_star_edges(self):
        assert re_agm_calculate_parameters(1.0, 100.0, 0.0).gamma_star == 0.5
        assert abs(re_agm_calculate_parameters(1.0, 100.0, 1.0 / 3.0).gamma_star) <= 1e-15
        # alpha = (1/3) * ratio^p pins gamma_star = p for p <= 1/2
        ratio = 1.0 / 200.0
        for p_exp in (0.1, 0.3, 0.5):
            alpha = ratio**p_exp / 3.0
            got = re_agm_calculate_parameters(1.0, 100.0, alpha).gamma_star
            assert math.isclose(got, p_exp, rel_tol=1e-12, abs_tol=1e-12)
        # p beyond 1/2 clips at the 1/2 cap
        alpha = ratio**0.7 / 3.0
        assert re_agm_calculate_parameters(1.0, 100.0, alpha).gamma_star == 0.5

    def test_bracket_and_residual_grid(self):
        for ratio in (1e-4, 1e-3, 1e-2, 1e-1, 0.5):
            for alpha in (0.0, 0.01, 0.1, 1.0 / 3.0):
                for L in (1.0, 100.0):
                    mu = ratio * L
                    p = re_agm_calculate_parameters(mu, L, alpha)
                    lower = (1.0 / 150.0) * (mu / (2 * L)) ** (1.0 - p.gamma_star)
                    assert lower * (1 - 1e-12) <= p.omega < 1.0
                    residual = p.m * p.omega**2 + (p.s - p.m) * p.omega - p.q
                    assert abs(residual) <= 1e-12 * max(1.0, p.q)
                    assert p.m >= 1.0 / 9.0 - 1e-12
                    assert p.h == gd_step_size(alpha, L)

    def test_domain_errors_name_the_violation(self):
        with pytest.raises(ValueError, match="alpha"):
            re_agm_calculate_parameters(1.0, 100.0, 0.4)
        with pytest.raises(ValueError, match="mu"):
            re_agm_calculate_parameters(0.0, 100.0, 0.1)
        with pytest.raises(ValueError, match="mu"):
            re_agm_calculate_parameters(200.0, 100.0, 0.1)


class TestGDRun:
    def test_one_exact_step(self):
        prob = half_sphere_quadratic()
        cfg = GDConfig(steps=1, alpha=0.0, L=1.0)
        trace = gd_run(prob, exact_oracle(prob), cfg, x0=[1.0, 0.0])
        assert np.array_equal(trace.x_final, [0.75, 0.0])
        assert len(trace) == 2 and trace.iterations == 1
        assert trace.terminal == "steps_exhausted"
        assert trace.f_gap[0] == 0.5
        assert trace.f_gap[1] == 0.5 * 0.75**2
        assert trace.grad_norm[0] == 1.0
        assert trace.noisy_grad_norm[0] == 1.0
        assert math.isnan(trace.noisy_grad_norm[1])

    def test_zero_steps(self):
        prob = half_sphere_quadratic()
        trace = gd_run(prob, exact_oracle(prob), GDConfig(steps=0, alpha=0.0, L=1.0),
                       x0=[1.0, 0.0])
        assert len(trace) == 1 and trace.iterations == 0
        assert np.array_equal(trace.x_final, [1.0, 0.0])

    def test_default_start_is_origin(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 10)
        trace = gd_run(prob, exact_oracle(prob), GDConfig(steps=2, alpha=0.0, L=100.0))
        assert trace.f_gap[0] == pytest.approx(prob.gap(np.zeros(10)), rel=1e-12)

    def test_understated_alpha_is_flagged_not_rejected(self):
        prob = half_sphere_quadratic()
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(alpha=0.5, delta=0.0, mode="sampled_unbiased", seed=3))
        cfg = GDConfig(steps=5, alpha=0.2, L=1.0)
        with pytest.warns(UserWarning, match="declared relative level"):
            trace = gd_run(prob, oracle, cfg, x0=[1.0, 0.0])
        assert trace.iterations == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_carries_partial_trace(self):
        prob = half_sphere_quadratic()
        oracle = ScalingOracle(prob, -1e8, declared_alpha=0.9)
        cfg = GDConfig(steps=10_000, alpha=0.9, L=1.0)
        with pytest.raises(DivergedError) as exc:
            gd_run(prob, oracle, cfg, x0=[1.0, 0.0])
        trace = exc.value.trace
        assert trace.terminal == "diverged"
        assert 0 < trace.iterations < 10_000
        assert np.all(np.isfinite(trace.f_gap))

    def test_monitor_stops_early(self):
        # a monitor cannot end a run: the runner refuses one, and the
        # declared threshold gives the early stop
        prob = half_sphere_quadratic()
        cfg = GDConfig(steps=100, alpha=0.0, L=1.0)
        with pytest.raises(TypeError, match="take no monitor"):
            gd_run(prob, exact_oracle(prob), cfg, x0=[1.0, 0.0],
                   monitor=lambda trace: "stopping_rule")
        cfg = GDConfig(steps=100, alpha=0.0, L=1.0, threshold=0.3)
        trace = gd_run(prob, exact_oracle(prob), cfg, x0=[1.0, 0.0])
        # |grad| = 0.75^k falls below 0.3 at k = 5
        assert trace.terminal == "stopping_rule"
        assert trace.iterations == 5
        assert len(trace) == 6
        assert trace.final_f_gap == trace.f_gap[-1]
        # the halting row is queried before the threshold is read: it is not the last
        assert not np.any(np.isnan(trace.noisy_grad_norm))

    def test_gap_never_negative_beyond_tolerance(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 30)
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(alpha=0.3, delta=0.05, mode="sampled_unbiased", seed=11))
        trace = gd_run(prob, oracle, GDConfig(steps=500, alpha=0.3, L=100.0))
        assert np.all(trace.f_gap >= -1e-9)

    def test_gap_floor_scales_with_f_star(self):
        # |f_star| ~ 5.8e6, so value(x) - f_star has rounding error of a
        # few 1e-9 near the minimizer: an absolute -1e-9 floor would
        # reject this well-posed run
        prob = nesterov_strongly_convex(1e7, 1e8, 5000)
        trace = gd_run(prob, exact_oracle(prob), GDConfig(steps=1000, alpha=0.0, L=1e8))
        assert trace.terminal == "steps_exhausted"
        assert trace.iterations == 1000
        assert np.all(trace.f_gap >= -1e-9 * abs(prob.f_star))

    def test_wrong_f_star_still_raises(self):
        prob = nesterov_strongly_convex(1.0, 10.0, 8)
        prob.f_star += 1.0  # claims a minimum one unit above the true one
        with pytest.raises(AssertionError, match="bad f_star"):
            gd_run(prob, exact_oracle(prob), GDConfig(steps=50, alpha=0.0, L=10.0))
        with pytest.raises(AssertionError, match="bad f_star"):
            re_agm_run(prob, exact_oracle(prob), ReAgmConfig(steps=50, mu=1.0, L=10.0, alpha=0.0))


class TestDescentCheck:
    def test_exact_gd_passes(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 20)
        cfg = GDConfig(steps=200, alpha=0.0, L=100.0)
        trace = gd_run(prob, exact_oracle(prob), cfg)
        assert gd_theoretical_descent_check(trace, prob, cfg) is True

    def test_adversarial_at_declared_level_passes(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 20)
        oracle = SyntheticNoiseOracle(
            prob, NoiseSpec(alpha=0.25, delta=0.05, mode="adversarial_opposing"))
        cfg = GDConfig(steps=200, alpha=0.25, L=100.0)
        trace = gd_run(prob, oracle, cfg)
        assert gd_theoretical_descent_check(trace, prob, cfg) is True

    def test_sampled_at_declared_level_passes(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 20)
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(alpha=0.25, delta=0.05, mode="sampled_unbiased", seed=7))
        cfg = GDConfig(steps=200, alpha=0.25, L=100.0)
        trace = gd_run(prob, oracle, cfg)
        assert gd_theoretical_descent_check(trace, prob, cfg) is True

    def test_understated_alpha_can_fail(self):
        # oracle shrinks the gradient to 10%: true relative level 0.9,
        # but the config claims 0 and so expects far more progress per step
        prob = half_sphere_quadratic(dim=2, curvature=100.0)
        oracle = SyntheticNoiseOracle(
            prob, NoiseSpec(alpha=0.9, delta=0.0, mode="adversarial_opposing"))
        cfg = GDConfig(steps=20, alpha=0.0, L=100.0)
        with pytest.warns(UserWarning):
            trace = gd_run(prob, oracle, cfg, x0=[1.0, 1.0])
        assert gd_theoretical_descent_check(trace, prob, cfg) is False


class TestReAgmRun:
    def test_first_step_matches_plain_descent(self):
        # u0 = x0 forces y0 = x0, so step one is a plain gradient step
        prob = half_sphere_quadratic(dim=2, curvature=1.0)
        cfg = ReAgmConfig(steps=1, mu=1.0, L=1.0, alpha=0.0)
        trace = re_agm_run(prob, exact_oracle(prob), cfg, x0=[1.0, 1.0])
        assert np.array_equal(trace.x_final, [0.75, 0.75])
        assert trace.y_f_gap[0] == trace.f_gap[0]
        assert trace.y_grad_norm[0] == trace.grad_norm[0]

    def test_zero_steps_trace_is_start_only(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 10)
        cfg = ReAgmConfig(steps=0, mu=1.0, L=100.0, alpha=0.1)
        trace = re_agm_run(prob, exact_oracle(prob), cfg)
        assert len(trace) == 1
        assert trace.y_f_gap.shape == (0,)
        assert np.array_equal(trace.x_final, np.zeros(10))

    def test_converges_fast_noiseless(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 100)
        alpha = math.sqrt(1.0 / 200.0) / 3.0
        cfg = ReAgmConfig(steps=2000, mu=1.0, L=100.0, alpha=alpha)
        trace = re_agm_run(prob, exact_oracle(prob), cfg)
        assert trace.final_f_gap <= 1e-6 * trace.f_gap[0]
        assert len(trace) == 2001
        assert len(trace.y_f_gap) == 2000

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_guard(self):
        prob = half_sphere_quadratic()
        oracle = ScalingOracle(prob, -1e10, declared_alpha=0.3)
        cfg = ReAgmConfig(steps=1000, mu=1.0, L=1.0, alpha=0.3)
        with pytest.raises(DivergedError) as exc:
            re_agm_run(prob, oracle, cfg, x0=[1.0, 0.0])
        assert exc.value.trace.terminal == "diverged"

    @pytest.mark.parametrize("monitored", [False, True], ids=["unmonitored", "monitored"])
    @pytest.mark.parametrize("mode", ["sampled_unbiased", "adversarial_opposing"])
    def test_matches_reference_recursion(self, monkeypatch, mode, monitored):
        # "monitored": in the eager order, a block of one row (see
        # TestMonitorRule), and in one block of 301 rows otherwise
        if monitored:
            monkeypatch.setattr(solvers, "block_rows", lambda dim: 1)
        # mu = 0.7, not a power of two, so dividing by it rounds
        prob = nesterov_strongly_convex(0.7, 70.0, 20)
        spec = NoiseSpec(alpha=0.3, delta=0.05, mode=mode, seed=11)
        cfg = ReAgmConfig(steps=300, mu=0.7, L=70.0, alpha=0.3)
        x0 = np.linspace(-1.0, 2.0, 20)
        oracle = SyntheticNoiseOracle(prob, spec)
        trace = re_agm_run(prob, oracle, cfg, x0=x0)
        want, x_final = reference_run(prob, SyntheticNoiseOracle(prob, spec), cfg, x0)
        for name, column in want.items():
            assert np.array_equal(getattr(trace, name), column, equal_nan=True), name
        assert trace.terminal == "steps_exhausted"
        assert np.array_equal(trace.x_final, x_final)
        assert trace.final_f_gap == want["f_gap"][-1]
        assert oracle.queries == cfg.steps


def reference_run(problem, oracle, cfg, x0):
    """gd, or the accelerated recursion, written out with its literal
    expressions: one query per point the method steps from (the x rows but
    the last; the y points), f from ``problem`` and every gradient norm
    from ``oracle.problem``.  Returns the RunTrace columns and the final x."""
    accelerated = isinstance(cfg, ReAgmConfig)
    names = ("f_gap", "grad_norm", "noisy_grad_norm")
    cols = {name: [] for name in ("k",) + names + (("y_f_gap", "y_grad_norm", "y_noisy_grad_norm")
                                                   if accelerated else ())}

    def evaluate(prefix, z, query):
        gap = problem.value(z) - problem.f_star
        if query:
            est, exact = oracle.estimate_with_exact(z)
            noisy = float(np.linalg.norm(est))
        else:
            est, exact, noisy = None, oracle.problem.gradient(z), math.nan
        for name, value in zip(names, (gap, float(np.linalg.norm(exact)), noisy)):
            cols[prefix + name].append(value)
        return est

    if accelerated:
        params = re_agm_calculate_parameters(cfg.mu, cfg.L, cfg.alpha)
        omega, h, mu = params.omega, params.h, cfg.mu
    else:
        h = gd_step_size(cfg.alpha, cfg.L)
    x = np.array(x0, dtype=np.float64)
    u = x
    for k in range(cfg.steps + 1):
        cols["k"].append(k)
        est = evaluate("", x, not (accelerated or k == cfg.steps))
        if k == cfg.steps:
            break
        if accelerated:
            y = (omega * u + x) / (1.0 + omega)
            est = evaluate("y_", y, True)
            u = (1.0 - omega) * u + omega * y - (2.0 * omega / mu) * est
            x = y - h * est
        else:
            x = x - h * est
    return {name: np.asarray(col) for name, col in cols.items()}, x


class TestAdaptiveRun:
    def test_t1_coefficients(self):
        alpha_hat, L_hat, h, theta = _adaptive_coefficients(1, 4.0, False)
        assert alpha_hat == 0.5
        assert L_hat == 4.0
        assert theta == 1.0 / (96.0 * 4.0)
        assert h == math.sqrt(1.0 / 3.0) / 16.0
        alpha_hat, L_hat, _, theta2 = _adaptive_coefficients(1, 4.0, True)
        assert L_hat == 8.0
        assert theta2 == 1.0 / (96.0 * 8.0)

    def test_noiseless_accepts_first_trial(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 50)
        cfg = AdaptiveGDConfig(steps=300, L0=100.0)
        oracle = exact_oracle(prob)
        trace = adaptive_gd_run(prob, oracle, cfg)
        assert trace.total_inner_loops == 0
        assert oracle.queries == 300
        assert trace.final_f_gap < trace.f_gap[0]
        assert np.all(trace.inner_loops == 0)
        assert math.isnan(trace.alpha_hat[-1])
        assert np.all(trace.alpha_hat[:-1] == 0.5)

    def test_inner_budget_alpha_only(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 50)
        alpha = 0.75
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(alpha=alpha, delta=0.0, mode="sampled_unbiased", seed=5))
        n_steps = 400
        cfg = AdaptiveGDConfig(steps=n_steps, L0=100.0)
        trace = adaptive_gd_run(prob, oracle, cfg, x0=np.ones(50))
        budget = n_steps + math.log2(1.0 / (1.0 - alpha)) + 1.0
        assert trace.total_inner_loops <= budget

    def test_inner_budget_both(self):
        prob = nesterov_strongly_convex(1.0, 100.0, 50)
        alpha = 0.75
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(alpha=alpha, delta=0.0, mode="sampled_unbiased", seed=9))
        n_steps = 400
        cfg = AdaptiveGDConfig(steps=n_steps, L0=100.0 / 8.0, adapt_L=True)
        trace = adaptive_gd_run(prob, oracle, cfg, x0=np.ones(50))
        budget = n_steps + max(math.log2(1.0 / (1.0 - alpha)), 3.0) + 1.0
        assert trace.total_inner_loops <= budget

    def test_stall_on_ascent_oracle(self):
        prob = half_sphere_quadratic()
        oracle = ScalingOracle(prob, -1.0, declared_alpha=0.5)
        cfg = AdaptiveGDConfig(steps=10, L0=1.0)
        with pytest.raises(InnerLoopStallError) as exc:
            adaptive_gd_run(prob, oracle, cfg, x0=[1.0, 0.0])
        trace = exc.value.trace
        assert trace.terminal == "inner_loop_stall"
        assert trace.inner_loops[-1] == INNER_LOOP_CAP

    def test_overflowing_trial_point_counts_as_a_failure(self):
        # at L0 = 1e-300 every trial point x - h*est overflows; its value
        # is not finite, so each trial is rejected until the cap
        prob = nesterov_strongly_convex(1.0, 100.0, 6)
        oracle = ScalingOracle(prob, 1e300)
        cfg = AdaptiveGDConfig(steps=5, L0=1e-300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InnerLoopStallError) as exc:
            adaptive_gd_run(prob, oracle, cfg, x0=np.ones(6))
        trace = exc.value.trace
        assert trace.terminal == "inner_loop_stall"
        assert list(trace.k) == [0]
        assert trace.inner_loops[-1] == INNER_LOOP_CAP
        assert oracle.queries == 1

    def test_delta_margin_allows_acceptance_near_floor(self):
        prob = half_sphere_quadratic(dim=4, curvature=1.0)
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(alpha=0.0, delta=0.2, mode="sampled_unbiased", seed=2))
        cfg = AdaptiveGDConfig(steps=200, L0=1.0, delta=0.2)
        trace = adaptive_gd_run(prob, oracle, cfg, x0=np.full(4, 2.0))
        assert trace.terminal == "steps_exhausted"
        assert trace.iterations == 200


class TestMonitorRule:
    """A runner takes no monitor: its trace is the one record of the run.
    A point is queried only when the method steps from its estimate, or to
    read a threshold; the trace has a NaN noisy norm exactly where nothing
    was queried.  A run's "watched" or "monitored" twin is the same run in
    the eager order, the core's block of one row, which reads each point
    as it comes, as a watched run once did."""

    RUNNERS = {
        "gd": (gd_run, GDConfig(steps=30, alpha=0.25, L=100.0)),
        "re_agm": (re_agm_run, ReAgmConfig(steps=30, mu=1.0, L=100.0, alpha=0.25)),
        "adaptive_gd": (adaptive_gd_run, AdaptiveGDConfig(steps=30, L0=100.0, delta=0.1)),
    }
    ORACLES = {
        "sampled": lambda prob: SyntheticNoiseOracle(
            prob, NoiseSpec(alpha=0.25, delta=0.1, mode="sampled_unbiased", seed=4)),
        "adversarial": lambda prob: SyntheticNoiseOracle(
            prob, NoiseSpec(alpha=0.25, delta=0.1, mode="adversarial_opposing")),
        "fd_value_noise": lambda prob: FiniteDifferenceOracle(prob, h=1e-4, value_noise=1e-9, seed=7),
    }

    @pytest.mark.parametrize("name", ["gd", "re_agm", "adaptive_gd"])
    def test_trace_marks_exactly_the_queried_points(self, name):
        # with no stop, then (gd and re_agm declare one) with a gap target
        # and with a threshold that each end the run at point 15 or before
        run, cfg = self.RUNNERS[name]
        prob = nesterov_strongly_convex(1.0, 100.0, 20)
        full = run(prob, self.ORACLES["sampled"](prob), cfg, x0=np.ones(20))
        stops = [{}]
        if name != "adaptive_gd":
            noisy = full.noisy_grad_norm if name == "gd" else full.y_noisy_grad_norm
            stops += [{"gap_target": float(full.f_gap[15])}, {"threshold": float(noisy[15])}]
        for stop in stops:
            oracle = self.ORACLES["sampled"](prob)
            trace = run(prob, oracle, dataclasses.replace(cfg, **stop), x0=np.ones(20))
            assert trace.terminal == ("stopping_rule" if stop else "steps_exhausted"), stop
            assert (0 < trace.iterations <= 15) if stop else trace.iterations == cfg.steps, stop
            assert np.array_equal(trace.k, np.arange(trace.iterations + 1))
            if name == "re_agm":
                # the accelerated method steps from its y points, never from x rows
                assert np.all(np.isnan(trace.noisy_grad_norm))
                noisy, ends_there = trace.y_noisy_grad_norm, len(trace.y_f_gap) == len(trace.k)
            else:
                noisy, ends_there = trace.noisy_grad_norm, True
            # every point the run stepped from is queried; its terminal point
            # only to read a threshold
            assert np.all(np.isfinite(noisy[:-1] if ends_there else noisy)), stop
            if ends_there:
                assert math.isfinite(noisy[-1]) == ("threshold" in stop), stop
            assert oracle.queries == np.count_nonzero(np.isfinite(noisy)), stop

    @pytest.mark.parametrize("oracle_name", ["sampled", "adversarial", "fd_value_noise"])
    @pytest.mark.parametrize("name", ["gd", "re_agm", "adaptive_gd"])
    def test_watching_a_run_never_changes_it(self, monkeypatch, name, oracle_name):
        # runs evaluate rows in blocks of 2**14 // n = 8 here, so gd's and
        # the adaptive run's 31 rows span 4 blocks and re_agm's 61 points 8:
        # each run is its eager twin, row for row and query for query
        run, cfg = self.RUNNERS[name]
        prob = nesterov_strongly_convex(1.0, 100.0, 2000)
        assert solvers._Core(prob, None).block == solvers._Core(prob, None, adaptive=True).block == 8
        blocked_oracle, eager_oracle = self.ORACLES[oracle_name](prob), self.ORACLES[oracle_name](prob)
        blocked = run(prob, blocked_oracle, cfg, x0=np.ones(2000))
        monkeypatch.setattr(solvers, "block_rows", lambda dim: 1)
        eager = run(prob, eager_oracle, cfg, x0=np.ones(2000))
        assert_same_trace(blocked, eager)
        assert blocked_oracle.queries == eager_oracle.queries == cfg.steps

    @pytest.mark.parametrize("name", ["gd", "re_agm", "adaptive_gd"])
    def test_a_monitor_that_returns_a_value_raises(self, name):
        # a runner refuses any monitor, before its first query: read the
        # returned trace, and end a run early with the config's declared stop
        run, cfg = self.RUNNERS[name]
        prob = nesterov_strongly_convex(1.0, 100.0, 20)
        oracle = self.ORACLES["sampled"](prob)
        with pytest.raises(TypeError, match="^the runners take no monitor; read the returned RunTrace"):
            run(prob, oracle, cfg, x0=np.ones(20), monitor=lambda trace: "stopping_rule")
        assert oracle.queries == 0

    @pytest.mark.parametrize("name", ["gd", "adaptive_gd"])
    def test_unmonitored_final_row_is_unqueried(self, name):
        run, cfg = self.RUNNERS[name]
        prob = nesterov_strongly_convex(1.0, 100.0, 20)
        oracle = self.ORACLES["sampled"](prob)
        trace = run(prob, oracle, cfg, x0=np.ones(20))
        assert oracle.queries == cfg.steps
        assert math.isnan(trace.noisy_grad_norm[-1])
        assert np.all(np.isfinite(trace.noisy_grad_norm[:-1]))


class TestRecordingRule:
    """f_gap is the gap of the runner's problem; grad_norm is the norm of
    the gradient the oracle estimates, queried or not."""

    @pytest.mark.parametrize("name", ["gd", "re_agm"])
    def test_base_run_with_a_ridge_oracle(self, name):
        # 2**14 // 2000 = 8 rows per block: the run spans several
        base = nesterov_convex(1000, 10.0, 2000)
        reg = drivers.RegularizedProblem(base, np.zeros(2000), 0.05)

        def ridge_oracle():
            base_oracle = SyntheticNoiseOracle(base, NoiseSpec(0.1, 0.0, "sampled_unbiased", 3))
            return drivers.RegularizedOracle(base_oracle, np.zeros(2000), 0.05, 1.0)

        if name == "gd":
            run, cfg = gd_run, GDConfig(steps=40, alpha=0.2, L=reg.L)
        else:
            run, cfg = re_agm_run, ReAgmConfig(steps=40, mu=reg.mu, L=reg.L, alpha=0.2)
        trace = run(base, ridge_oracle(), cfg, x0=np.ones(2000))
        want, x_final = reference_run(base, ridge_oracle(), cfg, np.ones(2000))
        for column, values in want.items():
            assert np.array_equal(getattr(trace, column), values, equal_nan=True), column
        assert np.array_equal(trace.x_final, x_final)
        assert len(trace.f_gap) == 41 and len(want.get("y_f_gap", ())) == (40 if name == "re_agm" else 0)
        # the two problems' gradients differ, so the norms tell which one was read
        assert trace.grad_norm[0] != np.linalg.norm(base.gradient(np.ones(2000)))


def assert_same_trace(want, got):
    for field in dataclasses.fields(want):
        a, b = getattr(want, field.name), getattr(got, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), field.name
            # each column is a C-contiguous float64 row (int64 for counts),
            # as a row kernel reads it
            dtype = np.int64 if field.name in ("k", "inner_loops") else np.float64
            for column in (a, b):
                assert column.dtype == dtype and column.flags.c_contiguous, field.name
        else:
            assert a == b, field.name


class TestDeclaredStop:
    """A config's gap_target and threshold end the run inside the core: the
    threshold right after a query, the gap target before it."""

    @staticmethod
    def run(name, steps, **stop):
        # n = 2000: 2**14 // n = 8 rows per block, so a declared stop fires mid-block
        prob = nesterov_strongly_convex(1.0, 50.0, 2000)
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(0.0, 0.5, "sampled_unbiased", seed=5))
        if name == "gd":
            trace = gd_run(prob, oracle, GDConfig(steps, 0.0, prob.L, **stop), x0=np.ones(2000))
        else:
            trace = re_agm_run(prob, oracle, ReAgmConfig(steps, 1.0, prob.L, 0.0, **stop),
                               x0=np.ones(2000))
        # the terminal point's gap, from x_final
        assert prob._value(trace.x_final) - prob.f_star == trace.final_f_gap
        return trace, oracle.queries

    def test_gap_target_keeps_the_block(self):
        # the target reads f(x) at each point, before the query; the
        # gradient norms of unqueried rows still wait for the block
        prob = nesterov_strongly_convex(1.0, 50.0, 2000)
        core = solvers._Core(prob, None, gap_target=1e-3)
        assert core.block == 8 and core.at_point
        assert not solvers._Core(prob, None, threshold=1e-3).at_point

    @pytest.mark.parametrize("name", ["gd", "re_agm"])
    def test_threshold_stop_cuts_the_unstopped_run(self, name):
        # the least noisy norm of the first 21 queries: the stop fires there
        full, _ = self.run(name, 60)
        noisy = full.noisy_grad_norm if name == "gd" else full.y_noisy_grad_norm
        gaps = full.f_gap if name == "gd" else full.y_f_gap
        first = int(np.argmin(noisy[:21]))
        threshold = float(noisy[first])
        # the point's place among the recorded points (x0, y0, x1, ... for
        # re_agm) is not the last of a block of 8: the stop cuts a block short
        assert (first if name == "gd" else 2 * first + 1) % 8 != 7
        trace, queries = self.run(name, 60, threshold=threshold)
        assert trace.terminal == "stopping_rule" and trace.iterations == first
        # the unstopped run up to that point, x rows and y points alike,
        # and that point is the terminal one
        assert trace.final_f_gap == gaps[first]
        for field in dataclasses.fields(full):
            column = getattr(full, field.name)
            if isinstance(column, np.ndarray) and field.name != "x_final":
                assert np.array_equal(getattr(trace, field.name), column[:first + 1],
                                      equal_nan=True), field.name
        assert queries == first + 1

    @pytest.mark.parametrize("name", ["gd", "re_agm"])
    def test_gap_halted_point_is_never_queried(self, name):
        # the target is the gap of the first point below every earlier one,
        # a y point for re_agm: the stop ends the run there, unqueried
        full, _ = self.run(name, 60)
        kind = "x" if name == "gd" else "y"
        # every recorded point's (kind, k, gap) in order: x0, then (y_k, x_{k+1}) for re_agm
        points = [("x", 0, full.f_gap[0])]
        for k in range(1, len(full.k)):
            points += [("y", k - 1, full.y_f_gap[k - 1])] if name == "re_agm" else []
            points.append(("x", k, full.f_gap[k]))
        for i, (point_kind, k, gap) in enumerate(points):
            if point_kind == kind and k > 10 and gap < min(p[2] for p in points[:i]):
                break
        else:
            pytest.fail(f"no {kind} point below every earlier gap")
        trace, queries = self.run(name, 60, gap_target=gap)
        assert trace.terminal == "stopping_rule"
        assert trace.final_f_gap == gap
        assert trace.iterations == k
        if name == "gd":
            noisy, full_noisy = trace.noisy_grad_norm, full.noisy_grad_norm
        else:
            noisy, full_noisy = trace.y_noisy_grad_norm, full.y_noisy_grad_norm
            assert np.array_equal(trace.y_f_gap, full.y_f_gap[:k + 1])
        # every earlier point as in the unstopped run; the halting point unqueried
        assert math.isnan(noisy[-1]) and np.isfinite(full_noisy[k])
        assert np.array_equal(noisy[:-1], full_noisy[:k])
        assert np.array_equal(trace.f_gap, full.f_gap[:k + 1])
        assert np.array_equal(trace.grad_norm, full.grad_norm[:k + 1])
        assert queries == k


class NonFiniteAtQuery(GradientOracle):
    """Exact gradient, except entry ``entry`` of query ``at`` is set to ``value``."""

    def __init__(self, problem, at, value, entry=0):
        super().__init__(problem, 0.0, 0.0)
        self.at = at
        self.value = value
        self.entry = entry

    def _estimate(self, x, exact):
        est = exact.copy()
        if self.queries == self.at:
            est[self.entry] = self.value
        return est


class TestDeferredRows:
    """Runs evaluate f(x) and unqueried gradient norms per block of rows; a
    failure in a block still raises the error of the first bad row, with
    the trace before it, as a run with a block of one row does."""

    class ThenNaN(NonFiniteAtQuery):
        """NonFiniteAtQuery whose query 14 also carries a NaN entry."""

        def _estimate(self, x, exact):
            est = super()._estimate(x, exact)
            if self.queries == 14:
                est[1] = np.nan
            return est

    @classmethod
    def twin_queries(cls, monkeypatch, name, then_nan, **stop):
        """The run's queries, once it raised its eager twin's error and trace.

        The eager twin is the same run with a block of one row
        (``numkit.BLOCK_FLOATS`` = 1), which settles f(x) before each
        query.  A huge estimate at query 12 sends the next point where f(x)
        overflows while x stays finite: row 13, in the second block of 8.
        With a NaN estimate at query 14 too, the estimate guard fails at
        a later point of the same block, and row 13 must still win.
        """
        prob = nesterov_strongly_convex(1.0, 50.0, 2000)
        run, cfg = {"gd": (gd_run, GDConfig(steps=40, alpha=0.0, L=50.0, **stop)),
                    "re_agm": (re_agm_run, ReAgmConfig(steps=40, mu=1.0, L=50.0, alpha=0.0,
                                                       **stop))}[name]
        raised = []
        for block_floats in (numkit.BLOCK_FLOATS, 1):
            monkeypatch.setattr(numkit, "BLOCK_FLOATS", block_floats)
            oracle = (cls.ThenNaN if then_nan else NonFiniteAtQuery)(prob, 12, 1e200)
            with pytest.raises(DivergedError) as exc:
                run(prob, oracle, cfg, x0=np.ones(2000))
            raised.append((str(exc.value), exc.value.trace, oracle.queries))
        (message, trace, queries), (eager_message, eager_trace, eager_queries) = raised
        assert message == eager_message == "non-finite objective value at step 13"
        assert_same_trace(trace, eager_trace)
        assert list(trace.k) == list(range(13))
        assert eager_queries == 13
        return queries

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("then_nan", [False, True], ids=["flushed", "guard_later_in_block"])
    @pytest.mark.parametrize("name", ["gd", "re_agm"])
    def test_divergence_mid_block_matches_the_monitored_twin(self, monkeypatch, name, then_nan):
        queries = self.twin_queries(monkeypatch, name, then_nan)
        # the documented difference: the run queried on to the end of the
        # block before it evaluated row 13
        assert 13 < queries <= 13 + 8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("then_nan", [False, True], ids=["flushed", "guard_later_in_block"])
    @pytest.mark.parametrize("name", ["gd", "re_agm"])
    def test_gap_target_run_queries_as_its_monitored_twin(self, monkeypatch, name, then_nan):
        # a gap target that never fires: the run keeps its block of 8, but
        # settles f(x) at each point, before the query, as its eager twin does
        assert self.twin_queries(monkeypatch, name, then_nan, gap_target=-1.0) == 13

    @staticmethod
    def blocked_and_eager(monkeypatch, make_oracle, run, block_floats=None):
        """``run(oracle)``'s error (None if it returns), message, trace and
        queries, first with the core's blocks (``numkit.BLOCK_FLOATS`` =
        ``block_floats`` if given; 8 rows at n = 2000 by default), then with
        a block of one row; both runs must end alike, with the same trace.
        Returns both runs' queries, the blocked run's first."""
        outcomes = []
        for eager in (False, True):
            with monkeypatch.context() as patch:
                if block_floats is not None:
                    patch.setattr(numkit, "BLOCK_FLOATS", block_floats)
                if eager:
                    patch.setattr(solvers, "block_rows", lambda dim: 1)
                oracle = make_oracle()
                try:
                    kind, message, trace = None, None, run(oracle)
                except Exception as exc:
                    kind, message, trace = type(exc), str(exc), getattr(exc, "trace", None)
            outcomes.append((kind, message, trace, oracle.queries))
        (kind, message, trace, queries), (eager_kind, eager_message, eager_trace, eager_queries) = outcomes
        assert (kind, message) == (eager_kind, eager_message)
        if trace is not None or eager_trace is not None:
            assert_same_trace(trace, eager_trace)
        return kind, message, trace, queries, eager_queries

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["gd", "re_agm"])
    def test_iterate_turning_non_finite_mid_block(self, monkeypatch, name):
        # entry 1999 is a flat direction of the convex chain (k = 500), so f
        # stays finite while a huge estimate there at query 12 sends the
        # point the method queries next to infinity: gd's row 13 (h = 2.5),
        # re_agm's y point 13 through u (2 omega / mu = 819, h = 2.5); the
        # query's validation refuses it mid-block, after the rows before it
        prob = nesterov_convex(500, 0.1, 2000)
        if name == "gd":
            run, cfg, kick = gd_run, GDConfig(steps=40, alpha=0.0, L=0.1), 1e308
        else:
            run, cfg, kick = re_agm_run, ReAgmConfig(steps=40, mu=1e-6, L=0.1, alpha=0.0), 1e307
        kind, message, trace, queries, eager_queries = self.blocked_and_eager(
            monkeypatch, lambda: NonFiniteAtQuery(prob, 12, kick, entry=1999),
            lambda oracle: run(prob, oracle, cfg, x0=np.ones(2000)))
        assert (kind, message) == (DivergedError, "non-finite iterate at step 13")
        assert queries == eager_queries == 13
        if name == "gd":
            assert list(trace.k) == list(range(13))
        else:  # x row 13 is finite, and recorded before its y point
            assert list(trace.k) == list(range(14)) and len(trace.y_f_gap) == 13

    def test_gap_floor_at_a_y_point_mid_block(self, monkeypatch):
        # f_star raised just past the value at y point 37, below every
        # earlier point's and above x row 38's, so both fail the floor; the
        # two are points 75 and 76 of the run, inside the block 72-79, and
        # the first one raises, after the 75 points stored before it
        prob = nesterov_strongly_convex(1.0, 50.0, 2000)
        cfg = ReAgmConfig(steps=38, mu=1.0, L=50.0, alpha=0.0)
        full = re_agm_run(prob, exact_oracle(prob), cfg, x0=np.ones(2000))
        earlier = min(full.f_gap[:38].min(), full.y_f_gap[:37].min())
        assert full.f_gap[38] < full.y_f_gap[37] < earlier - 1.0
        prob.f_star += float(full.y_f_gap[37]) + 1e-3
        kind, message, _, queries, eager_queries = self.blocked_and_eager(
            monkeypatch, lambda: exact_oracle(prob),
            lambda oracle: re_agm_run(prob, oracle, cfg, x0=np.ones(2000)))
        assert kind is AssertionError
        assert message.startswith("f_gap -0.00") and message.endswith(" at y point 37: bad f_star?")
        assert queries == eager_queries == 38

    class AscentFrom(GradientOracle):
        """Exact gradient until query ``at``, its negation from there on."""

        def __init__(self, problem, at):
            super().__init__(problem, 0.0, 0.0)
            self.at = at

        def _estimate(self, x, exact):
            return -exact if self.queries >= self.at else exact

    def test_inner_loop_stall_mid_block(self, monkeypatch):
        # from query 11 on no trial descends, so step 11 stalls: row 11 is
        # still pending, inside the block 8-15, and the trials set its
        # inner_loops before the block is stored
        prob = nesterov_strongly_convex(1.0, 50.0, 2000)
        kind, message, trace, queries, eager_queries = self.blocked_and_eager(
            monkeypatch, lambda: self.AscentFrom(prob, 11),
            lambda oracle: adaptive_gd_run(prob, oracle, AdaptiveGDConfig(steps=40, L0=50.0),
                                           x0=np.ones(2000)))
        assert kind is InnerLoopStallError and message.startswith("step 11: 64 rejected trials")
        assert trace.terminal == "inner_loop_stall"
        assert list(trace.inner_loops) == [0] * 11 + [INNER_LOOP_CAP]
        assert queries == eager_queries == 12

    def test_adaptive_gap_floor_mid_block(self, monkeypatch):
        # f_star raised past row 13's value, below row 12's: an adaptive run
        # checks the floor when row 13's block (8-15) is flushed, so it
        # queries on to the end of that block, where its eager twin stops
        # at row 13's query
        prob = nesterov_strongly_convex(1.0, 50.0, 2000)
        cfg = AdaptiveGDConfig(steps=40, L0=50.0)
        full = adaptive_gd_run(prob, exact_oracle(prob), cfg, x0=np.ones(2000))
        assert full.f_gap[12] > full.f_gap[13] + 1.0
        prob.f_star += float(full.f_gap[13]) + 1.0
        kind, message, _, queries, eager_queries = self.blocked_and_eager(
            monkeypatch, lambda: exact_oracle(prob),
            lambda oracle: adaptive_gd_run(prob, oracle, cfg, x0=np.ones(2000)))
        assert kind is AssertionError
        assert message.startswith("f_gap -1.0") and message.endswith(" at row 13: bad f_star?")
        assert eager_queries == 14
        assert eager_queries < queries <= eager_queries + 8

    @pytest.mark.parametrize("name, stop", [
        ("gd", {}), ("gd", {"threshold": 0.0}), ("re_agm", {}),
        ("gd", {"gap_target": -1.0}), ("re_agm", {"gap_target": -1.0}), ("adaptive_gd", {})])
    def test_one_value_per_row(self, monkeypatch, name, stop):
        # f(x) is read once per row: at the point where an adaptive step or
        # a gap target needs it, else by the row kernel when the block of 8
        # rows flushes; an adaptive run also reads each trial point's
        prob = nesterov_strongly_convex(1.0, 50.0, 2000)
        value, values = prob._value, prob._values
        calls = {"value": 0, "values": 0, "rows": 0}

        def count_value(x):
            calls["value"] += 1
            return value(x)

        def count_values(X):
            calls["values"] += 1
            calls["rows"] += len(X)
            return values(X)

        monkeypatch.setattr(prob, "_value", count_value)
        monkeypatch.setattr(prob, "_values", count_values)
        oracle = SyntheticNoiseOracle(prob, NoiseSpec(0.0, 0.5, "sampled_unbiased", seed=5))
        if name == "gd":
            trace = gd_run(prob, oracle, GDConfig(40, 0.0, prob.L, **stop), x0=np.ones(2000))
        elif name == "re_agm":
            trace = re_agm_run(prob, oracle, ReAgmConfig(40, 1.0, prob.L, 0.0, **stop),
                               x0=np.ones(2000))
        else:
            trace = adaptive_gd_run(prob, oracle, AdaptiveGDConfig(40, L0=prob.L, delta=0.5),
                                    x0=np.ones(2000))
        assert trace.iterations == 40
        # x rows plus y points
        rows = len(trace.f_gap) + (len(trace.y_f_gap) if name == "re_agm" else 0)
        if name == "adaptive_gd":
            assert calls == {"value": 1 + 40 + trace.total_inner_loops, "values": 0, "rows": 0}
        elif "gap_target" in stop:
            assert calls == {"value": rows, "values": 0, "rows": 0}
        else:
            assert calls == {"value": 0, "values": -(-rows // 8), "rows": rows}
            assert (rows, calls["values"]) == ((41, 6) if name == "gd" else (81, 11))


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("name, case", [
        ("gd", "steps"), ("re_agm", "steps"), ("adaptive_gd", "steps"),
        ("gd", "diverges"), ("re_agm", "diverges"), ("adaptive_gd", "diverges"),
        ("gd", "threshold"), ("re_agm", "threshold")])
    def test_reused_rows(self, monkeypatch, name, case, rows):
        # each point is a row of one of two (block, n) buffers that later
        # blocks reuse: at n = 20 with blocks of 1 to 3 rows a run flushes
        # its first block at step 0 (re_agm's u starts as x0, and with one
        # row per block x0's row holds x1), diverges at row 0 of a later
        # block, where x_final is the row before it, flushed one or two
        # blocks back, or halts at a y point, which is then the terminal
        # point; each run is its eager twin, and as the run with the
        # default block of 819 rows, which no run here fills, so no row of
        # it is reused
        if case == "diverges" and name != "adaptive_gd":
            # entry 19 is a flat direction of the convex chain (k = 10): a
            # kick of 1e308 there at query 5 sends x6 to -inf (h = 2.5)
            prob = nesterov_convex(10, 0.1, 20)
            make = functools.partial(NonFiniteAtQuery, prob, 5, 1e308, entry=19)
            cfg = GDConfig(30, 0.0, 0.1) if name == "gd" else ReAgmConfig(30, 1e-6, 0.1, 0.0)
        else:
            prob = nesterov_strongly_convex(1.0, 50.0, 20)
            if case == "diverges":  # a NaN estimate at row 6's query
                make = functools.partial(NonFiniteAtQuery, prob, 6, np.nan)
            else:
                make = functools.partial(SyntheticNoiseOracle, prob,
                                         NoiseSpec(0.25, 0.1, "sampled_unbiased", seed=6))
            cfg = {"gd": GDConfig(30, 0.25, 50.0), "re_agm": ReAgmConfig(30, 1.0, 50.0, 0.25),
                   "adaptive_gd": AdaptiveGDConfig(30, L0=50.0, delta=0.1)}[name]
        run = {"gd": gd_run, "re_agm": re_agm_run, "adaptive_gd": adaptive_gd_run}[name]
        if case == "threshold":
            # the first point after y3 (gd: row 3) below every earlier noisy norm
            full = run(prob, make(), cfg, x0=np.ones(20))
            noisy = full.noisy_grad_norm if name == "gd" else full.y_noisy_grad_norm
            stop = next(k for k in range(4, 30) if noisy[k] < noisy[:k].min())
            cfg = dataclasses.replace(cfg, threshold=float(noisy[stop]))
        (kind, message, trace, queries, eager_queries), unreused = [
            self.blocked_and_eager(monkeypatch, make, lambda oracle: run(prob, oracle, cfg,
                                                                         x0=np.ones(20)), floats)
            for floats in (20 * rows, None)]
        assert unreused[:2] == (kind, message) and unreused[3] == queries == eager_queries
        assert_same_trace(trace, unreused[2])
        # x_final is the terminal point: the last x row's, or the halting y point's
        gaps = trace.y_f_gap if case == "threshold" and name == "re_agm" else trace.f_gap
        assert prob._value(trace.x_final) - prob.f_star == trace.final_f_gap == gaps[-1]
        if case == "steps":
            assert (kind, trace.terminal, queries) == (None, "steps_exhausted", 30)
        elif case == "diverges":
            guard = "gradient estimate" if name == "adaptive_gd" else "iterate"
            assert (kind, message) == (DivergedError, f"non-finite {guard} at step 6")
            assert list(trace.k) == list(range(6)) and np.isfinite(trace.x_final).all()
        else:
            assert trace.terminal == "stopping_rule" and queries == trace.iterations + 1


class TestEstimateGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_ends_the_run(self, bad):
        prob = nesterov_strongly_convex(1.0, 100.0, 10)
        with pytest.raises(DivergedError, match="^non-finite gradient estimate at step 3$") as exc:
            gd_run(prob, NonFiniteAtQuery(prob, 3, bad), GDConfig(steps=20, alpha=0.0, L=100.0),
                   x0=np.ones(10))
        trace = exc.value.trace
        assert trace.terminal == "diverged"
        assert list(trace.k) == [0, 1, 2]
        assert np.all(np.isfinite(trace.noisy_grad_norm))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_estimate_with_overflowing_norm_passes(self):
        # the estimate check reads est.dot(est); entries of 1e200 overflow
        # that sum but are finite, so the point is recorded, as before.
        # Row 0 of one step is queried; the step along that estimate
        # overflows the objective at row 1, whose error carries row 0
        prob = nesterov_strongly_convex(1.0, 100.0, 10)
        oracle = NonFiniteAtQuery(prob, 0, 1e200)
        with pytest.raises(DivergedError, match="^non-finite objective value at step 1$") as exc:
            gd_run(prob, oracle, GDConfig(steps=1, alpha=0.0, L=100.0), x0=np.ones(10))
        trace = exc.value.trace
        assert oracle.queries == 1
        assert list(trace.k) == [0]
        assert trace.noisy_grad_norm[0] == math.inf
        assert math.isfinite(trace.grad_norm[0])


def profiled_dots(run, *args, **kwargs) -> tuple:
    """``run(*args, **kwargs)``'s ``ndarray.dot`` and ``np.vdot`` calls, counted by cProfile."""
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.runcall(run, *args, **kwargs)
    calls = {name: stat[1] for (_, _, name), stat in pstats.Stats(profile).stats.items()}
    return calls.get("<method 'dot' of 'numpy.ndarray' objects>", 0), calls.get("vdot", 0)


def test_each_iterate_is_validated_once(monkeypatch):
    """as_vector runs for start points and public entry points only: the
    core gives every visited point one finiteness test (one
    ``ndarray.dot``) and queries it as checked, and inner calls must not
    re-validate it."""
    prob = nesterov_strongly_convex(1.0, 100.0, 20)
    oracle = SyntheticNoiseOracle(
        prob, NoiseSpec(alpha=0.25, delta=0.1, mode="sampled_unbiased", seed=4))
    calls = []
    as_vector = numkit.as_vector

    def counting_as_vector(*args, **kwargs):
        calls.append(1)
        return as_vector(*args, **kwargs)

    patched = [name for name, module in sys.modules.items()
               if name.split(".")[0] == "ngl" and getattr(module, "as_vector", None) is as_vector]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "as_vector", counting_as_vector)
    assert {"ngl.numkit", "ngl.problems", "ngl.oracles", "ngl.solvers", "ngl.drivers"} <= set(patched)

    # the start's as_vector (its one np.vdot), then one dot per row (and
    # per y point) beside the two of each query (test_dot_calls_per_query)
    dots = profiled_dots(gd_run, prob, oracle, GDConfig(steps=200, alpha=0.25, L=100.0),
                         x0=np.ones(20))
    assert (len(calls), dots) == (1, (201 + 2 * 200, 1))
    calls.clear()
    dots = profiled_dots(re_agm_run, prob, oracle,
                         ReAgmConfig(steps=200, mu=1.0, L=100.0, alpha=0.25), x0=np.ones(20))
    assert (len(calls), dots) == (1, (201 + 200 + 2 * 200, 1))

    # oracles that evaluate the problem themselves: one call per public query
    for evaluating in (FiniteDifferenceOracle(prob, h=1e-5, value_noise=1e-9, seed=3),
                       FloatingPointQuadraticOracle(
                           quadratic(2.0 * np.eye(20), np.ones(20)), PrecisionSpec(20))):
        calls.clear()
        evaluating.estimate_with_exact(np.ones(20))[0]
        assert len(calls) == 1

    # a 5-step accelerated ridge route: none per query (neither the ridge
    # query nor the base query inside it) and none for the base gap, but
    # three to set up (the start, the ridge center and the core's start)
    base = nesterov_convex(5, 10.0, 20)
    oracle = SyntheticNoiseOracle(base, NoiseSpec(alpha=0.1, mode="sampled_unbiased", seed=3))
    calls.clear()
    with pytest.raises(drivers.ConvergenceFailureError):
        drivers._ridge_route("re_agm", base, oracle, 1.0, np.ones(20), 0.05, 0.2, 5, 1e-9)
    assert oracle.queries == 5
    assert len(calls) == 3


@pytest.mark.parametrize("solver", ["gd", "re_agm"])
@pytest.mark.parametrize("mode, alpha, delta, dots", [
    ("adversarial_opposing", 0.25, 0.1, 2),
    ("adversarial_opposing", 0.25, 0.0, 2),
    ("adversarial_opposing", 0.0, 0.1, 2),
    ("sampled_unbiased", 0.25, 0.1, 2),
    ("sampled_unbiased", 0.25, 0.0, 2),
    ("sampled_unbiased", 0.0, 0.1, 1),
    ("none", 0.0, 0.0, 1),
])
def test_dot_calls_per_query(solver, mode, alpha, delta, dots):
    # a query's ndarray.dot calls: the core's est.dot(est) for the
    # estimate guard, and the oracle's exact.dot(exact) where it reads
    # ||g||; the core takes every gradient norm per block, with row_dots,
    # and tests each visited point with one x.dot(x): 301 rows, and for
    # re_agm 300 y points
    prob = nesterov_strongly_convex(1.0, 100.0, 20)
    oracle = SyntheticNoiseOracle(prob, NoiseSpec(alpha=alpha, delta=delta, mode=mode, seed=1))
    if solver == "gd":
        calls, _ = profiled_dots(gd_run, prob, oracle, GDConfig(steps=300, alpha=0.25, L=100.0),
                                 x0=np.ones(20))
    else:
        calls, _ = profiled_dots(re_agm_run, prob, oracle,
                                 ReAgmConfig(steps=300, mu=1.0, L=100.0, alpha=0.25),
                                 x0=np.ones(20))
    assert oracle.queries == 300
    assert calls == dots * oracle.queries + (301 if solver == "gd" else 601)
