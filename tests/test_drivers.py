"""Ridge regularization, stopping rule, restarts: the outer-loop drivers."""

import math

import numpy as np
import pytest

from ngl.bounds import EnvelopeConstants, EnvelopeDomainError, envelope, ridge_level, stopping_level
from ngl.drivers import (
    ConvergenceFailureError,
    RegularizedOracle,
    RegularizedProblem,
    StageFailureError,
    StoppingRule,
    combined_reg_stop,
    plan_combined,
    plan_convex_gd,
    plan_convex_re_agm,
    plan_restart_stages,
    restart_to_convex,
    run_with_stopping,
    solve_convex_gd,
    solve_convex_re_agm,
)
from ngl.oracles import GradientOracle, NoiseSpec, SyntheticNoiseOracle
from ngl.problems import nesterov_convex, nesterov_strongly_convex, quadratic
from ngl.solvers import DivergedError, GDConfig, gd_run


def exact_oracle(problem):
    return SyntheticNoiseOracle(problem, NoiseSpec(mode="none"))


def sampled_oracle(problem, alpha=0.0, delta=0.0, seed=0):
    return SyntheticNoiseOracle(
        problem, NoiseSpec(alpha=alpha, delta=delta, mode="sampled_unbiased",
                           seed=seed))


class RecordingOracle(SyntheticNoiseOracle):
    """Keeps (error norm, exact norm, estimate norm) for every query."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def _estimate(self, x, exact):
        est = super()._estimate(x, exact)
        self.records.append((float(np.linalg.norm(est - exact)),
                             float(np.linalg.norm(exact)),
                             float(np.linalg.norm(est))))
        return est


class ScalingOracle(GradientOracle):
    """Returns factor * exact gradient while claiming to be exact."""

    def __init__(self, problem, factor):
        super().__init__(problem, 0.0, 0.0)
        self.factor = factor

    def _estimate(self, x, exact):
        return self.factor * exact


class TestRegularizedProblem:
    def test_value_identity(self):
        base = nesterov_convex(4, 10.0, 12)
        center = np.linspace(-1, 1, 12)
        reg = RegularizedProblem(base, center, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(12)
            ridge = 0.35 * float((x - center) @ (x - center))
            assert reg.value(x) == pytest.approx(base.value(x) + ridge,
                                                 rel=1e-14, abs=1e-14)

    def test_zero_penalty_at_center(self):
        base = nesterov_convex(4, 10.0, 12)
        center = np.ones(12)
        reg = RegularizedProblem(base, center, 3.0)
        assert reg.value(center) == pytest.approx(base.value(center), rel=1e-15)

    def test_unit_quadratic_example(self):
        base = quadratic(np.eye(3), np.zeros(3))
        reg = RegularizedProblem(base, np.zeros(3), 1.0)
        assert reg.L == 2.0
        assert reg.mu == 2.0
        x = np.array([1.0, 2.0, 3.0])
        assert reg.value(x) == pytest.approx(14.0, rel=1e-15)

    def test_ridge_must_be_positive(self):
        base = nesterov_convex(4, 10.0, 12)
        with pytest.raises(ValueError, match="positive"):
            RegularizedProblem(base, np.zeros(12), 0.0)

    def test_ridge_solution_stays_within_base_radius(self):
        # long exact descent with the ridge oracle on the base problem reaches
        # the ridge minimizer, which lies within R of the center: the
        # contraction behind the alpha*mu*R term of the ridge level
        base = nesterov_convex(10, 100.0, 50)
        center = np.zeros(50)
        R = float(np.linalg.norm(base.x_star - center))
        eps = base.L * R**2 / 100.0
        mu, _ = plan_convex_gd(base.L, R, 0.0, eps)
        oracle = RegularizedOracle(exact_oracle(base), center, mu, R)
        cfg = GDConfig(steps=20000, alpha=0.0, L=oracle.problem.L)
        trace = gd_run(base, oracle, cfg, x0=center)
        ridge_gradient = oracle.problem.gradient(trace.x_final)
        assert float(np.linalg.norm(ridge_gradient)) <= 1e-8 * oracle.problem.L
        assert float(np.linalg.norm(trace.x_final - center)) <= R


class TestRegularizedOracle:
    def test_certified_composite_level(self):
        base = nesterov_convex(10, 100.0, 50)
        center = np.zeros(50)
        R = float(np.linalg.norm(base.x_star - center))
        base_oracle = sampled_oracle(base, alpha=0.2, seed=1)
        oracle = RegularizedOracle(base_oracle, center, 0.5, R)
        assert oracle.declared_alpha == 0.4
        assert oracle.declared_delta == pytest.approx(0.2 * 0.5 * R, rel=1e-15)
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = 3.0 * rng.standard_normal(50)
            est, exact = oracle.estimate_with_exact(x)
            err = float(np.linalg.norm(est - exact))
            allowed = 0.4 * float(np.linalg.norm(exact)) + oracle.declared_delta
            assert err <= allowed + 1e-12

    def test_adversarial_base_noise_stays_certified(self):
        base = nesterov_convex(10, 100.0, 50)
        R = float(np.linalg.norm(base.x_star))
        spec = NoiseSpec(alpha=0.3, delta=0.0, mode="adversarial_opposing",
                         seed=0)
        oracle = RegularizedOracle(SyntheticNoiseOracle(base, spec), np.zeros(50), 0.5, R)
        rng = np.random.default_rng(3)
        for _ in range(200):
            oracle.estimate_with_exact(2.0 * rng.standard_normal(50))[0]
        assert oracle.queries == 200

    def test_estimate_maps_through_the_ridge(self):
        base = nesterov_convex(4, 10.0, 12)
        center = np.full(12, 0.1)
        base_oracle = sampled_oracle(base, alpha=0.1, seed=4)
        twin = sampled_oracle(base, alpha=0.1, seed=4)
        oracle = RegularizedOracle(base_oracle, center, 0.8, 5.0)
        assert oracle.problem.base is base and oracle.problem.mu_reg == 0.8
        x = np.linspace(0, 1, 12)
        est = oracle.estimate_with_exact(x)[0]
        want = twin.estimate_with_exact(x)[0] + 0.8 * (x - center)
        np.testing.assert_array_equal(est, want)

    def test_one_query_evaluates_the_base_gradient_once(self, monkeypatch):
        base = nesterov_convex(4, 10.0, 12)
        center = np.full(12, 0.1)
        oracle = RegularizedOracle(sampled_oracle(base, alpha=0.1, seed=4), center, 0.8, 5.0)
        calls = []
        gradient = base._gradient

        def counting_gradient(x):
            calls.append(1)
            return gradient(x)

        monkeypatch.setattr(base, "_gradient", counting_gradient)
        x = np.linspace(0, 1, 12)
        est, exact = oracle.estimate_with_exact(x)
        assert len(calls) == 1
        # the exact half is the ridge problem's own gradient, bit for bit
        np.testing.assert_array_equal(exact, oracle.problem._gradient(x))
        assert oracle.queries == oracle.base_oracle.queries == 1

    def test_rejects_large_base_level(self):
        base = nesterov_convex(4, 10.0, 12)
        with pytest.raises(ValueError, match="1/2"):
            RegularizedOracle(sampled_oracle(base, alpha=0.5, seed=0), np.zeros(12), 0.5, 1.0)

    @pytest.mark.parametrize("tid,base_tid,alpha", [("GD_REG", "GD_PL", 0.3),
                                                    ("REAGM_REG", "REAGM", 1.0 / 6.0)],
                             ids=["GD_REG", "REAGM_REG"])
    def test_declares_the_level_of_the_ridge_envelopes(self, tid, base_tid, alpha):
        # the ridge envelope is the base guarantee at ridge_level's constants,
        # bit for bit, and the ridge oracle declares exactly that level
        base = nesterov_convex(10, 100.0, 50)
        R = float(np.linalg.norm(base.x_star))
        mu, f0_gap = 0.25, base.gap(np.zeros(50))
        oracle = RegularizedOracle(sampled_oracle(base, alpha=alpha, seed=1), np.zeros(50), mu, R)
        level = ridge_level(alpha, 0.0, mu, R)
        assert (oracle.declared_alpha, oracle.declared_delta) == level
        ridge = envelope(tid, EnvelopeConstants(mu, base.L, alpha, 0.0, f0_gap, R))
        at_level = envelope(base_tid, EnvelopeConstants(
            oracle.problem.mu, oracle.problem.L, *level, f0_gap, R))
        assert (ridge.rate, ridge.start) == (at_level.rate, at_level.start)
        assert ridge.floor == at_level.floor + 0.5 * mu * R**2


class TestStoppingRule:
    def test_threshold_formula(self):
        rule = StoppingRule(K=10.0, delta=1e-3)
        assert rule.threshold(0.0) == pytest.approx(11e-3, rel=1e-15)
        assert rule.threshold(0.25) == pytest.approx((1.25 * 10 + 1) * 1e-3,
                                                     rel=1e-15)

    def test_multiplier_validation(self):
        with pytest.raises(ValueError, match="K"):
            StoppingRule(K=1.0, delta=0.1)
        rule = StoppingRule(K=1.5, delta=0.1)
        with pytest.raises(ValueError, match="K"):
            rule.threshold(0.5)  # needs K > 2


class TestRunWithStopping:
    def test_zero_delta_exhausts_cap(self):
        p = nesterov_strongly_convex(1.0, 100.0, 20)
        rule = StoppingRule(K=10.0, delta=0.0)
        trace = run_with_stopping("gd", p, exact_oracle(p), rule,
                                  alpha_hat=0.1, N_cap=50)
        assert trace.terminal == "steps_exhausted"
        assert trace.iterations == 50

    def test_gd_trigger_is_sound(self):
        p = nesterov_strongly_convex(1.0, 100.0, 30)
        oracle = RecordingOracle(
            p, NoiseSpec(alpha=0.0, delta=1e-3, mode="sampled_unbiased",
                         seed=11))
        rule = StoppingRule(K=10.0, delta=1e-3)
        alpha_hat = 0.1
        trace = run_with_stopping("gd", p, oracle, rule, alpha_hat,
                                  N_cap=60000)
        assert trace.terminal == "stopping_rule"
        level = stopping_level(p.mu, 0.0, 1e-3, 10.0)
        assert trace.final_f_gap <= level * (1 + 1e-9)
        # while the rule had not triggered, the observed error ratio
        # stayed below the inflated relative level
        threshold = rule.threshold(0.0)
        running = [(e, g) for e, g, est in oracle.records if est > threshold]
        assert running
        assert all(e < alpha_hat * g + 1e-12 for e, g in running)

    def test_re_agm_trigger_is_sound(self):
        p = nesterov_strongly_convex(1.0, 25.0, 30)
        oracle = RecordingOracle(
            p, NoiseSpec(alpha=0.0, delta=1e-3, mode="sampled_unbiased",
                         seed=12))
        rule = StoppingRule(K=10.0, delta=1e-3)
        trace = run_with_stopping("re_agm", p, oracle, rule, alpha_hat=0.1,
                                  N_cap=120000)
        assert trace.terminal == "stopping_rule"
        level = stopping_level(p.mu, 0.0, 1e-3, 10.0)
        assert trace.final_f_gap <= level * (1 + 1e-9)
        threshold = rule.threshold(0.0)
        running = [(e, g) for e, g, est in oracle.records if est > threshold]
        assert all(e < 0.1 * g + 1e-12 for e, g in running)

    def test_triggers_immediately_at_minimizer(self):
        p = nesterov_strongly_convex(1.0, 10.0, 8)
        oracle = sampled_oracle(p, delta=1.0, seed=2)
        rule = StoppingRule(K=2.0, delta=1.0)
        trace = run_with_stopping("gd", p, oracle, rule, alpha_hat=0.5,
                                  N_cap=100, x0=p.x_star)
        assert trace.terminal == "stopping_rule"
        assert trace.iterations == 0

    @pytest.mark.parametrize("solver, queries", [("gd", 16), ("re_agm", 16)])
    def test_overflow_is_found_a_block_late(self, solver, queries):
        # the threshold keeps block evaluation (2**14 // 2000 = 8 rows), so
        # the objective overflowing at row 13, while x stays finite, is
        # found when that row's block is evaluated: after 13 queries with
        # a gap target, after the block's last query here
        class HugeAtQuery12(ScalingOracle):
            def _estimate(self, x, exact):
                est = exact.copy()
                if self.queries == 12:
                    est[0] = 1e200
                return est

        p = nesterov_strongly_convex(1.0, 50.0, 2000)
        oracle = HugeAtQuery12(p, 1.0)
        rule = StoppingRule(K=10.0, delta=1e-12)
        with pytest.raises(DivergedError, match="^non-finite objective value at step 13$") as exc:
            run_with_stopping(solver, p, oracle, rule, 0.1, 40, x0=np.ones(2000))
        assert list(exc.value.trace.k) == list(range(13))
        assert oracle.queries == queries

    def test_rejects_convex_problem_and_bad_solver(self):
        p = nesterov_convex(4, 10.0, 12)
        rule = StoppingRule(K=5.0, delta=0.1)
        with pytest.raises(ValueError, match="strongly convex"):
            run_with_stopping("gd", p, exact_oracle(p), rule, 0.1, 10)
        sp = nesterov_strongly_convex(1.0, 10.0, 8)
        with pytest.raises(ValueError, match="solver"):
            run_with_stopping("newton", sp, exact_oracle(sp), rule, 0.1, 10)


class TestSolveConvexGD:
    def test_exact_run_reaches_target_within_budget(self):
        base = nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        eps = base.L * R**2 / 20.0
        _, budget = plan_convex_gd(base.L, R, 0.0, eps)
        trace = solve_convex_gd(base, exact_oracle(base), eps, R)
        assert trace.final_f_gap <= eps
        assert trace.iterations <= budget
        assert trace.terminal == "stopping_rule"
        # the trace reports base-problem gaps
        assert trace.final_f_gap == pytest.approx(base.gap(trace.x_final),
                                                  rel=0, abs=0)
        assert trace.f_gap[0] == pytest.approx(base.gap(np.zeros(20)), rel=1e-15)

    def test_noisy_run_reaches_target(self):
        base = nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        eps = base.L * R**2 / 20.0
        oracle = sampled_oracle(base, alpha=0.25, seed=9)
        _, budget = plan_convex_gd(base.L, R, 0.25, eps)
        trace = solve_convex_gd(base, oracle, eps, R)
        assert trace.final_f_gap <= eps
        assert trace.iterations <= budget

    def test_guards(self):
        base = nesterov_convex(5, 10.0, 20)
        strong = nesterov_strongly_convex(1.0, 10.0, 8)
        R = float(np.linalg.norm(base.x_star))
        with pytest.raises(ValueError, match="convex"):
            solve_convex_gd(strong, exact_oracle(strong), 0.1, 1.0)
        with pytest.raises(ValueError, match="relative"):
            solve_convex_gd(base, sampled_oracle(base, delta=0.1, seed=0),
                            0.1, R)
        with pytest.raises(EnvelopeDomainError, match="1/2"):
            solve_convex_gd(base, sampled_oracle(base, alpha=0.5, seed=0),
                            0.1, R)
        with pytest.raises(EnvelopeDomainError, match="L\\*R\\^2"):
            solve_convex_gd(base, exact_oracle(base), base.L * R**2, R)


class TestSolveConvexReAgm:
    def test_exact_run_reaches_target_within_budget(self):
        base = nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        eps = base.L * R**2 / 20.0
        _, _, budget = plan_convex_re_agm(base.L, R, 0.0, eps, beta=0.5)
        trace = solve_convex_re_agm(base, exact_oracle(base), eps, 0.5, R)
        assert trace.final_f_gap <= eps
        assert trace.iterations <= budget
        assert trace.final_f_gap == base.gap(trace.x_final)

    def test_noisy_run_with_flat_exponent(self):
        base = nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        eps = base.L * R**2 / 20.0
        oracle = sampled_oracle(base, alpha=0.1, seed=8)
        _, _, budget = plan_convex_re_agm(base.L, R, 0.1, eps, beta=0.0)
        trace = solve_convex_re_agm(base, oracle, eps, 0.0, R)
        assert trace.final_f_gap <= eps
        assert trace.iterations <= budget

    def test_boundary_level_is_accepted(self):
        mu, alpha_param, budget = plan_convex_re_agm(1.0, 1.0, 1.0 / 3.0, 0.1,
                                                     beta=0.0)
        assert alpha_param == pytest.approx(1.0 / 3.0, rel=0, abs=0)
        raw = 150.0 * 120.0 * math.log(40.0)
        assert budget == math.ceil(raw) + 1
        assert mu == pytest.approx(0.1 / 6.0, rel=1e-15)

    def test_inadmissible_level_rejected(self):
        base = nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        oracle = sampled_oracle(base, alpha=0.3, seed=0)
        with pytest.raises(EnvelopeDomainError, match="cap"):
            solve_convex_re_agm(base, oracle, base.L * R**2 / 100.0, 0.5, R)


class TestCombined:
    def test_plan_constants(self):
        L, R, alpha, eps, tau = 10.0, 2.0, 0.05, 4.0, 0.0
        mu, K, alpha_hat, threshold, budget = plan_combined(L, R, alpha, eps,
                                                            tau)
        assert mu == pytest.approx(eps / (120.0 * R**2), rel=1e-15)
        assert K == 20.0
        assert alpha_hat == pytest.approx(0.15, rel=1e-15)
        assert threshold == pytest.approx((1.1 * 20 + 1) * 0.05 * mu * R,
                                          rel=1e-15)
        scale = L * R**2
        want = math.ceil(72000.0 * (scale / eps) * math.log(480.0 * scale / eps))
        assert budget == want

    def test_plan_guards(self):
        with pytest.raises(ValueError, match="alpha"):
            plan_combined(10.0, 2.0, 0.2, 4.0, 0.0)  # above 1/9
        with pytest.raises(ValueError, match="alpha"):
            plan_combined(10.0, 2.0, 0.0, 4.0, 0.0)  # needs alpha > 0
        with pytest.raises(ValueError, match="tau"):
            plan_combined(10.0, 2.0, 0.05, 4.0, 0.7)
        with pytest.raises(ValueError, match="accuracy"):
            plan_combined(10.0, 2.0, 0.05, 41.0, 0.0)
        plan_combined(10.0, 2.0, 0.05, 40.0, 0.0)  # eps = L*R^2 allowed

    def test_cap_shrinks_with_tau(self):
        # at eps = L*R^2 the admissible level is (1/9)(1/2)^tau
        for tau in (0.0, 0.25, 0.5):
            cap = (1.0 / 2.0) ** tau / 9.0
            plan_combined(1.0, 1.0, cap, 1.0, tau)
            with pytest.raises(ValueError, match="alpha"):
                plan_combined(1.0, 1.0, cap * (1 + 1e-9), 1.0, tau)

    def test_end_to_end_delivery(self):
        base = nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        # below the starting gap, so the run has to make real progress
        eps = base.L * R**2 / 20.0
        oracle = sampled_oracle(base, alpha=0.05, seed=21)
        trace = combined_reg_stop(base, oracle, eps, 0.0, R)
        assert trace.final_f_gap <= eps
        assert trace.terminal == "stopping_rule"
        assert trace.final_f_gap == base.gap(trace.x_final)

    def test_rejects_absolute_noise(self):
        base = nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        with pytest.raises(ValueError, match="relative"):
            combined_reg_stop(base, sampled_oracle(base, alpha=0.05, delta=0.1,
                                                   seed=0),
                              1.0, 0.0, R)


class TestRestart:
    def test_exact_halving_stage_count(self):
        p = nesterov_strongly_convex(1.0, 10.0, 8)
        gap0 = p.gap(np.zeros(8))
        eps = gap0 / 8.0
        assert plan_restart_stages(gap0, eps) == 3
        result = restart_to_convex("gd", p, exact_oracle(p), eps)
        assert len(result.stages) == 3
        assert not result.floor_reached
        assert result.final_f_gap <= eps
        for i, rep in enumerate(result.stages):
            assert rep.target == pytest.approx(gap0 / 2 ** (i + 1), rel=1e-15)
            assert rep.iterations <= rep.budget
            assert rep.achieved_gap <= rep.target

    def test_concatenated_trace_is_contiguous(self):
        p = nesterov_strongly_convex(1.0, 10.0, 8)
        gap0 = p.gap(np.zeros(8))
        result = restart_to_convex("gd", p, exact_oracle(p), gap0 / 8.0)
        tr = result.trace
        assert np.array_equal(tr.k, np.arange(len(tr.f_gap)))
        assert len(tr) == sum(r.iterations for r in result.stages) + 1
        assert tr.f_gap[0] == pytest.approx(gap0, rel=1e-15)
        assert np.all(np.diff(tr.f_gap) <= 1e-12)  # exact descent

    def test_accelerated_stages(self):
        p = nesterov_strongly_convex(0.1, 10.0, 12)
        gap0 = p.gap(np.zeros(12))
        eps = gap0 / 10.0
        result = restart_to_convex("re_agm", p, exact_oracle(p), eps)
        assert len(result.stages) == plan_restart_stages(gap0, eps) == 4
        assert result.final_f_gap <= eps

    def test_noise_floor_halts_refinement(self):
        p = nesterov_strongly_convex(1.0, 10.0, 8)
        gap0 = p.gap(np.zeros(8))
        # put the descent floor between gap0/16 and gap0/8
        delta = math.sqrt((gap0 / 12.0) * p.mu / 1.5)
        oracle = sampled_oracle(p, delta=delta, seed=6)
        result = restart_to_convex("gd", p, oracle, gap0 / 100.0)
        assert result.floor_reached
        assert len(result.stages) == 3
        assert result.final_f_gap <= gap0 / 8.0

    def test_target_already_met(self):
        p = nesterov_strongly_convex(1.0, 10.0, 8)
        result = restart_to_convex("gd", p, exact_oracle(p), 1.0,
                                   x0=p.x_star)
        assert result.stages == []
        assert not result.floor_reached
        assert abs(result.final_f_gap) <= 1e-14

    def test_nonconforming_oracle_fails_a_stage(self):
        p = nesterov_strongly_convex(1.0, 10.0, 8)
        ascent = ScalingOracle(p, -1.0)
        with pytest.raises(StageFailureError) as exc:
            restart_to_convex("gd", p, ascent, p.gap(np.zeros(8)) / 8.0)
        assert exc.value.stage == 0
        assert exc.value.achieved > exc.value.target
        assert exc.value.trace is not None

    @pytest.mark.parametrize("solver, stages", [("gd", 15), ("re_agm", 13)])
    def test_one_query_per_iteration(self, solver, stages):
        # each stage ends at the first point meeting its target, unqueried,
        # so no stage spends a query on its last point
        p = nesterov_strongly_convex(1.0, 100.0, 100)
        oracle = sampled_oracle(p, alpha=0.1, delta=0.01, seed=0)
        result = restart_to_convex(solver, p, oracle, 1e-4)
        assert len(result.stages) == stages and result.floor_reached
        assert oracle.queries == result.trace.iterations == sum(s.iterations for s in result.stages)
        assert oracle.queries == (1367 if solver == "gd" else 1087)

    def test_input_validation(self):
        p = nesterov_strongly_convex(1.0, 10.0, 8)
        convex = nesterov_convex(4, 10.0, 12)
        with pytest.raises(ValueError, match="solver"):
            restart_to_convex("momentum", p, exact_oracle(p), 0.1)
        with pytest.raises(ValueError, match="strongly convex"):
            restart_to_convex("gd", convex, exact_oracle(convex), 0.1)
        with pytest.raises(ValueError, match="positive"):
            restart_to_convex("gd", p, exact_oracle(p), 0.0)


def test_routes_stop_through_the_config(monkeypatch):
    # every route hands the core a declared stop, never a monitor callback
    import ngl.drivers as drivers

    calls = []
    for name in ("gd_run", "re_agm_run"):
        def runner(problem, oracle, cfg, x0=None, monitor=None, real=getattr(drivers, name)):
            calls.append((cfg.gap_target, cfg.threshold, monitor))
            return real(problem, oracle, cfg, x0=x0, monitor=monitor)
        monkeypatch.setattr(drivers, name, runner)
    base = nesterov_convex(5, 10.0, 20)
    R = float(np.linalg.norm(base.x_star))
    eps = base.L * R**2 / 20.0
    p = nesterov_strongly_convex(1.0, 10.0, 8)
    rule = StoppingRule(K=10.0, delta=1e-3)
    run_with_stopping("re_agm", p, sampled_oracle(p, delta=1e-3, seed=1), rule, 0.1, 500)
    solve_convex_gd(base, exact_oracle(base), eps, R)
    solve_convex_re_agm(base, exact_oracle(base), eps, 0.5, R)
    combined_reg_stop(base, sampled_oracle(base, alpha=0.05, seed=21), eps, 0.0, R)
    restart_to_convex("gd", p, exact_oracle(p), p.gap(np.zeros(8)) / 8.0)
    assert calls[:4] == [(None, rule.threshold(0.0), None), (eps, None, None), (eps, None, None),
                         (eps, plan_combined(base.L, R, 0.05, eps, 0.0)[3], None)]
    targets = [p.gap(np.zeros(8)) / 2 ** i for i in (1, 2, 3)]
    assert [call[2] for call in calls[4:]] == [None] * 3
    assert [call[1] for call in calls[4:]] == [None] * 3
    assert [call[0] for call in calls[4:]] == pytest.approx(targets, rel=1e-15)


class TestFailureSurface:
    def test_understated_radius_defeats_the_guarantee(self):
        # R is a trusted input; understating it makes the ridge far too
        # stiff, and the run parks at the ridge minimizer above target
        base = nesterov_convex(5, 10.0, 20)
        R_true = float(np.linalg.norm(base.x_star))
        R_low = R_true / 10.0
        eps = 0.07  # below L*R_low^2, so the plan accepts it
        with pytest.raises(ConvergenceFailureError) as exc:
            solve_convex_gd(base, exact_oracle(base), eps, R_low)
        assert exc.value.trace is not None
        assert exc.value.trace.final_f_gap > eps
