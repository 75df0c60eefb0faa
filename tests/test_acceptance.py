"""End-to-end acceptance: envelopes, orderings, budgets, certifications.

Each test is one gate, numbered so the -v report reads as a checklist.
Everything runs at desk scale with fixed seeds; the few wall-clock
limits asserted here are part of the gate, not just politeness.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ngl.bounds import (
    EnvelopeConstants,
    envelope,
    iteration_budget,
    stopping_level,
)
from ngl.drivers import (
    StoppingRule,
    plan_convex_gd,
    plan_convex_re_agm,
    run_with_stopping,
    solve_convex_gd,
    solve_convex_re_agm,
)
from ngl.numkit import kahan_sum
from ngl.oracles import (
    NoiseSpec,
    SyntheticNoiseOracle,
    certification_report,
    finite_difference_gradient,
    sign_compress,
    sparsify_grid,
    top_k_compress,
)
from ngl.problems import nesterov_convex, nesterov_strongly_convex, quadratic
from ngl.solvers import (
    AdaptiveGDConfig,
    GDConfig,
    ReAgmConfig,
    adaptive_gd_run,
    gd_run,
    re_agm_run,
    re_agm_calculate_parameters,
)

EPS = np.finfo(np.float64).eps


def oracle_for(problem, alpha=0.0, delta=0.0, mode="none", seed=0,
               certify=False):
    return SyntheticNoiseOracle(
        problem, NoiseSpec(alpha=alpha, delta=delta, mode=mode, seed=seed),
        certify=certify)


def constants_for(problem, alpha, delta, **extra):
    x0 = np.zeros(problem.dim)
    return EnvelopeConstants(
        mu=problem.mu, L=problem.L, alpha=alpha, delta=delta,
        f0_gap=problem.gap(x0),
        R=float(np.linalg.norm(problem.x_star - x0)), **extra)


def steps_to_target(solver, problem, alpha, seed, target, cap=4_000_000):
    """Iterations a tolerance-matched noisy run needs to reach the target.

    The method is configured at the same relative level the oracle
    injects, so each method faces the noise it is rated for.
    """
    oracle = oracle_for(problem, alpha=alpha, mode="sampled_unbiased",
                        seed=seed)

    def monitor(vw):
        return "stopping_rule" if vw.f_gap <= target else None

    if solver == "gd":
        cfg = GDConfig(steps=cap, alpha=alpha, L=problem.L)
        trace = gd_run(problem, oracle, cfg, monitor=monitor)
    else:
        cfg = ReAgmConfig(steps=cap, mu=problem.mu, L=problem.L, alpha=alpha)
        trace = re_agm_run(problem, oracle, cfg, monitor=monitor)
    assert trace.terminal == "stopping_rule", (solver, alpha, trace.terminal)
    return trace.iterations


def test_01_descent_envelope_grid():
    """Every iterate of noisy descent stays under its printed bound.

    Twelve runs: three relative levels, two absolute levels, both noise
    modes, ten thousand steps each, all inside a ten-second budget.
    """
    t0 = time.perf_counter()
    problem = nesterov_strongly_convex(1.0, 100.0, 100)
    for alpha in (0.0, 0.25, 0.5):
        for delta in (0.0, 0.1):
            for mode in ("sampled_unbiased", "adversarial_opposing"):
                oracle = oracle_for(problem, alpha, delta, mode, seed=0)
                cfg = GDConfig(steps=10_000, alpha=alpha, L=problem.L)
                trace = gd_run(problem, oracle, cfg)
                env = envelope("GD_PL", constants_for(problem, alpha, delta))
                excess = np.max(env.excess(trace.k, trace.f_gap))
                assert excess <= 0.0, (alpha, delta, mode, excess)
    assert time.perf_counter() - t0 < 10.0


def test_02_descent_noise_floor():
    """At the worst grid point the run actually reaches its noise floor."""
    problem = nesterov_strongly_convex(1.0, 100.0, 100)
    env = envelope("GD_PL", constants_for(problem, 0.5, 0.1))
    for mode in ("sampled_unbiased", "adversarial_opposing"):
        oracle = oracle_for(problem, 0.5, 0.1, mode, seed=0)
        cfg = GDConfig(steps=10_000, alpha=0.5, L=problem.L)
        trace = gd_run(problem, oracle, cfg)
        assert trace.f_gap.min() <= env.floor * (1.0 + 1e-6), mode


def test_03_accelerated_parameter_certificates():
    """Momentum roots stay in their bracket with near-zero residual."""
    t0 = time.perf_counter()
    L = 100.0
    for ratio in (1e-4, 1e-3, 1e-2, 1e-1, 0.5):
        for alpha in (0.0, 0.01, 0.1, 1.0 / 3.0):
            mu = ratio * L
            p = re_agm_calculate_parameters(mu, L, alpha)
            lower = (1.0 / 150.0) * (mu / (2.0 * L)) ** (1.0 - p.gamma_star)
            assert lower <= p.omega < 1.0, (ratio, alpha, p.omega)
            residual = abs(p.m * p.omega**2 + (p.s - p.m) * p.omega - p.q)
            assert residual <= 1e-12 * max(1.0, p.q), (ratio, alpha)
    assert time.perf_counter() - t0 < 1.0


def test_04_accelerated_envelope_and_floors():
    """Accelerated runs respect their bounds; floors rank by exponent.

    Large absolute noise makes the floor the whole story: smaller
    relative levels buy a faster rate at the price of a higher floor,
    and the measured plateaus must sit at or below the printed ones.
    """
    t0 = time.perf_counter()
    problem = nesterov_strongly_convex(0.01, 100.0, 100)
    alphas = ((1.0 / 3.0) * math.sqrt(problem.mu / (2 * problem.L)),
              0.028, 1.0 / 3.0)
    floors = []
    exponents = []
    for i, alpha in enumerate(alphas):
        oracle = oracle_for(problem, alpha, 100.0, "sampled_unbiased", seed=i)
        cfg = ReAgmConfig(steps=100_000, mu=problem.mu, L=problem.L,
                          alpha=alpha)
        trace = re_agm_run(problem, oracle, cfg)
        env = envelope("REAGM", constants_for(problem, alpha, 100.0))
        assert np.max(env.excess(trace.k, trace.f_gap)) <= 0.0, alpha
        floors.append(env.floor)
        exponents.append(re_agm_calculate_parameters(
            problem.mu, problem.L, alpha).gamma_star)
        tail = trace.f_gap[-len(trace.f_gap) // 4:]
        assert tail.max() <= env.floor, alpha
    # gamma_star decreases along the alpha list, floors with it
    assert exponents[0] > exponents[1] > exponents[2]
    assert floors[0] > floors[1] > floors[2]
    assert time.perf_counter() - t0 < 60.0


def test_05_method_ordering_under_relative_noise():
    """Low relative noise buys acceleration; at the cap the methods tie.

    Each method is configured for, and fed, the same relative level;
    counts are iterations to one-millionth of the starting gap.  The
    two accelerated low-noise runs beat even the fastest descent run,
    and the capped accelerated run lands within a factor of four of
    every descent count.
    """
    problem = nesterov_strongly_convex(0.01, 100.0, 16)
    target = 1e-6 * problem.gap(np.zeros(problem.dim))
    alphas = (2.36e-3, 0.0137, 1.0 / 3.0)
    n_re = [steps_to_target("re_agm", problem, a, 1, target) for a in alphas]
    n_gd = [steps_to_target("gd", problem, a, 1, target) for a in alphas]
    assert n_re[0] < n_re[1] < min(n_gd), (n_re, n_gd)
    assert n_re[2] <= 4 * min(n_gd), (n_re[2], n_gd)
    assert n_re[2] >= min(n_gd) / 4.0, (n_re[2], n_gd)


def test_06_adaptive_trial_ledger_and_envelope():
    """Backtracking spends at most its promised extra trials.

    With the smoothness guess pinned at the truth the overhead is the
    level-search term alone; guessing an eighth of it adds at most the
    doubling ledger.  The known-smoothness bound also holds per-iterate.
    """
    problem = nesterov_strongly_convex(1.0, 100.0, 50)
    steps = 2000
    alpha = 0.3
    for delta in (0.0, 0.1):
        oracle = oracle_for(problem, alpha, delta, "adversarial_opposing",
                            seed=6)
        cfg = AdaptiveGDConfig(steps=steps, L0=problem.L, delta=delta,
                               adapt_L=False)
        trace = adaptive_gd_run(problem, oracle, cfg)
        total = trace.iterations + trace.total_inner_loops
        assert total <= steps + math.log2(1.0 / (1.0 - alpha)) + 1.0, delta
        env = envelope("ADAPT_ALPHA",
                       constants_for(problem, alpha, delta, L0=problem.L))
        assert np.max(env.excess(trace.k, trace.f_gap)) <= 0.0, delta

        oracle = oracle_for(problem, alpha, delta, "adversarial_opposing",
                            seed=6)
        cfg = AdaptiveGDConfig(steps=steps, L0=problem.L / 8.0, delta=delta,
                               adapt_L=True)
        trace = adaptive_gd_run(problem, oracle, cfg)
        total = trace.iterations + trace.total_inner_loops
        cap = steps + max(math.log2(1.0 / (1.0 - alpha)), 3.0) + 1.0
        assert total <= cap, delta


def test_07_stopping_rule_exit_level_and_budget():
    """A rule-triggered exit lands under its level within the budget."""
    problem = nesterov_strongly_convex(1.0, 100.0, 30)
    delta = 1e-3
    K = 10.0
    oracle = oracle_for(problem, 0.0, delta, "sampled_unbiased", seed=9)
    budget = iteration_budget("REAGM_STOP",
                              constants_for(problem, 0.0, delta, K=K))
    rule = StoppingRule(K=K, delta=delta)
    trace = run_with_stopping("re_agm", problem, oracle, rule,
                              alpha_hat=1.0 / K, N_cap=budget)
    assert trace.terminal == "stopping_rule"
    level = stopping_level(mu=problem.mu, alpha=0.0, delta=delta, K=K)
    assert level == 122.0 * delta**2
    assert trace.final_f_gap <= level + 1e-12
    assert trace.iterations <= budget


def test_08_ridge_routes_hit_target_within_budget():
    """Both ridge routes reach the convex target inside their budgets."""
    problem = nesterov_convex(10, 100.0, 50)
    R = float(np.linalg.norm(problem.x_star))
    epsilon = problem.L * R**2 / 100.0

    for alpha in (0.0, 0.25):
        oracle = oracle_for(problem, alpha, 0.0, "sampled_unbiased", seed=2)
        trace = solve_convex_gd(problem, oracle, epsilon, R)
        assert trace.final_f_gap <= epsilon, alpha
        _, budget = plan_convex_gd(problem.L, R, alpha, epsilon)
        assert trace.iterations <= budget, alpha

    for beta, alphas in ((0.0, (0.0, 0.25)), (0.5, (0.0, 0.009))):
        for alpha in alphas:
            oracle = oracle_for(problem, alpha, 0.0, "sampled_unbiased",
                                seed=2)
            trace = solve_convex_re_agm(problem, oracle, epsilon, beta, R)
            assert trace.final_f_gap <= epsilon, (beta, alpha)
            _, _, budget = plan_convex_re_agm(problem.L, R, alpha, epsilon,
                                              beta)
            assert trace.iterations <= budget, (beta, alpha)


def test_09_oracle_certification_sweep():
    """No estimate escapes its certificate across modes and compressors."""
    problem = nesterov_strongly_convex(1.0, 100.0, 40)
    rng = np.random.default_rng(17)

    # certified queries raise on any composite-bound breach
    for mode in ("sampled_unbiased", "adversarial_opposing"):
        oracle = oracle_for(problem, 0.3, 0.05, mode, seed=1, certify=True)
        for _ in range(1000):
            oracle.estimate_with_exact(rng.standard_normal(problem.dim))

    # norm sandwiches, squared-norm decomposition, and the pure-relative
    # alignment bound, each with at most 1e-12 of slack
    for alpha, delta in ((0.25, 0.1), (0.25, 0.0)):
        oracle = oracle_for(problem, alpha, delta, "sampled_unbiased", seed=3)
        worst = math.inf
        for _ in range(1000):
            x = rng.standard_normal(problem.dim)
            est, exact = oracle.estimate_with_exact(x)
            report = certification_report(est, exact, alpha, delta)
            if delta == 0.0:
                assert "alignment" in report
            worst = min(worst, min(report.values()))
        assert worst >= -1e-12, (alpha, delta, worst)

    declared = {
        "top_k": (math.sqrt(1.0 - 10.0 / 50.0), 0.0),
        "sign": (math.sqrt(1.0 - 1.0 / 50.0), 0.0),
        "grid": (0.0, math.sqrt(50.0) / 64.0),
    }
    compress = {
        "top_k": lambda v: top_k_compress(v, 10),
        "sign": sign_compress,
        "grid": lambda v: sparsify_grid(v, 32),
    }
    for kind, (ca, cd) in declared.items():
        for _ in range(1000):
            v = rng.standard_normal(50)
            err = np.linalg.norm(compress[kind](v) - v)
            bound = ca * np.linalg.norm(v) + cd
            assert err <= bound + 1e-12, kind


def test_10_brute_force_cross_checks():
    """Closed forms agree with slow reference computations."""
    # analytic minimizer vs exact descent run to a bitwise fixed point
    problem = nesterov_strongly_convex(1.0, 100.0, 40)
    x = np.zeros(problem.dim)
    h = 1.0 / problem.L
    for _ in range(1_000_000):
        x_next = x - h * problem.gradient(x)
        if np.array_equal(x_next, x):
            break
        x = x_next
    assert abs(problem.gap(x)) <= 1e-8

    # compensated summation vs exact rational arithmetic
    rng = np.random.default_rng(5)
    magnitudes = np.array([1e16, 1e8, 1.0, 1e-8, 1e-16])
    for _ in range(1000):
        seq = (rng.choice(magnitudes, size=60)
               * rng.choice([-1.0, 1.0], size=60))
        exact = sum(Fraction(v) for v in seq)
        err = abs(Fraction(kahan_sum(seq)) - exact)
        bound = (2.0 * EPS + 60 * EPS * EPS) * float(np.abs(seq).sum())
        assert err <= bound

    # difference-quotient error on the identity quadratic is exactly
    # sqrt(n) * h / 2 when every evaluation is dyadic
    n = 25
    prob = quadratic(np.eye(n), np.zeros(n))
    h = 2.0**-10
    expect = math.sqrt(n) * h / 2.0
    for _ in range(10):
        x = rng.integers(-32, 33, size=n) / 16.0
        est = finite_difference_gradient(prob, x, h)
        err = np.linalg.norm(est - prob.gradient(x))
        assert abs(err - expect) <= 1e-12


def test_11_sampled_noise_is_unbiased():
    """The sampled mode's empirical mean matches the true gradient.

    One hundred thousand draws per point; every component must land
    within four standard errors.
    """
    problem = nesterov_strongly_convex(1.0, 100.0, 10)
    rng = np.random.default_rng(23)
    draws = 100_000
    for point in range(3):
        x = rng.standard_normal(problem.dim)
        grad = problem.gradient(x)
        oracle = oracle_for(problem, 0.25, 0.1, "sampled_unbiased",
                            seed=100 + point)
        samples = np.empty((draws, problem.dim))
        for i in range(draws):
            samples[i] = oracle.estimate_with_exact(x)[0]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
        assert np.all(np.abs(mean - grad) <= 4.0 * se), point
