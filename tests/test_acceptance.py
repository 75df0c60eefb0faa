"""End-to-end acceptance: envelopes, orderings, budgets, certifications.

Each test is one gate, numbered so the -v report reads as a checklist.
Most gates are the functions behind `ngl verify` (``ngl.verify``),
called here at full scale; a test asserts the gate's verdict and then
whatever more it needs about the runs the gate returns.  Everything
runs at desk scale with fixed seeds; the few wall-clock limits asserted
here are part of the gate, not just politeness.
"""

import math
import time

import numpy as np

from ngl import verify
from ngl.bounds import envelope, iteration_budget, start_constants
from ngl.oracles import NoiseSpec, SyntheticNoiseOracle
from ngl.problems import nesterov_convex, nesterov_strongly_convex
from ngl.solvers import GDConfig, ReAgmConfig, gd_run, re_agm_calculate_parameters, re_agm_run


def oracle_for(problem, alpha=0.0, delta=0.0, mode="none", seed=0):
    return SyntheticNoiseOracle(
        problem, NoiseSpec(alpha=alpha, delta=delta, mode=mode, seed=seed))


def steps_to_target(solver, problem, alpha, seed, target, cap=4_000_000):
    """Iterations a tolerance-matched noisy run needs to reach the target.

    The method is configured at the same relative level the oracle
    injects, so each method faces the noise it is rated for.
    """
    oracle = oracle_for(problem, alpha=alpha, mode="sampled_unbiased",
                        seed=seed)
    if solver == "gd":
        cfg = GDConfig(steps=cap, alpha=alpha, L=problem.L, gap_target=target)
        trace = gd_run(problem, oracle, cfg)
    else:
        cfg = ReAgmConfig(steps=cap, mu=problem.mu, L=problem.L, alpha=alpha,
                          gap_target=target)
        trace = re_agm_run(problem, oracle, cfg)
    assert trace.terminal == "stopping_rule", (solver, alpha, trace.terminal)
    return trace.iterations


def test_01_descent_envelope_grid():
    """Every iterate of noisy descent stays under its printed bound.

    Twelve runs: three relative levels, two absolute levels, both noise
    modes, ten thousand steps each, all inside a ten-second budget.
    """
    t0 = time.perf_counter()
    problem = nesterov_strongly_convex(1.0, 100.0, 100)
    levels = [(alpha, delta) for alpha in (0.0, 0.25, 0.5) for delta in (0.0, 0.1)]
    passed, detail, _ = verify.gd_envelope(problem, levels, steps=10_000, seed=0)
    assert passed, detail
    assert time.perf_counter() - t0 < 10.0


def test_02_descent_noise_floor():
    """At the worst grid point the run actually reaches its noise floor."""
    problem = nesterov_strongly_convex(1.0, 100.0, 100)
    env = envelope("GD_PL", start_constants(problem, 0.5, 0.1))
    for mode in ("sampled_unbiased", "adversarial_opposing"):
        oracle = oracle_for(problem, 0.5, 0.1, mode, seed=0)
        cfg = GDConfig(steps=10_000, alpha=0.5, L=problem.L)
        trace = gd_run(problem, oracle, cfg)
        assert trace.f_gap.min() <= env.floor * (1.0 + 1e-6), mode


def test_03_accelerated_parameter_certificates():
    """Momentum roots stay in their bracket with near-zero residual."""
    t0 = time.perf_counter()
    passed, detail, _ = verify.re_agm_parameter_bracket(
        100.0, (1e-4, 1e-3, 1e-2, 1e-1, 0.5), (0.0, 0.01, 0.1, 1.0 / 3.0))
    assert passed, detail
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
    passed, detail, runs = verify.re_agm_envelope(problem, alphas, 100.0, steps=100_000,
                                                  seeds=(0, 1, 2))
    assert passed, detail
    floors = []
    exponents = []
    for alpha, (trace, env) in zip(alphas, runs):
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
    alpha = 0.3
    passed, detail, runs = verify.adaptive_inner_ledger(
        problem, alpha, (0.0, 0.1), "adversarial_opposing", steps=2000, seed=6)
    assert passed, detail
    for delta, adapt_L, trace in runs:
        if not adapt_L:
            env = envelope("ADAPT_ALPHA",
                           start_constants(problem, alpha, delta, L0=problem.L))
            assert np.max(env.excess(trace.k, trace.f_gap)) <= 0.0, delta


def test_07_stopping_rule_exit_level_and_budget():
    """A rule-triggered exit lands under its level within the budget."""
    problem = nesterov_strongly_convex(1.0, 100.0, 30)
    delta = 1e-3
    K = 10.0
    budget = iteration_budget("REAGM_STOP",
                              start_constants(problem, 0.0, delta, K=K))
    passed, detail, (trace, level) = verify.stopping_rule_level(
        "re_agm", problem, delta, K, seed=9, N_cap=budget)
    assert passed, detail
    assert level == 122.0 * delta**2
    assert trace.iterations <= budget


def test_08_ridge_routes_hit_target_within_budget():
    """Both ridge routes reach the convex target inside their budgets."""
    routes = [("gd", None, 0.0), ("gd", None, 0.25),
              ("re_agm", 0.0, 0.0), ("re_agm", 0.0, 0.25),
              ("re_agm", 0.5, 0.0), ("re_agm", 0.5, 0.009)]
    passed, detail, _ = verify.regularize_route(
        nesterov_convex(10, 100.0, 50), 100.0, routes, seed=2)
    assert passed, detail


def test_09_oracle_certification_sweep():
    """No estimate escapes its certificate across modes and compressors."""
    problem = nesterov_strongly_convex(1.0, 100.0, 40)
    rng = np.random.default_rng(17)

    # certified queries raise on any composite-bound breach
    passed, detail, _ = verify.oracle_certification(
        problem, 0.3, 0.05, seed=1, queries=1000, spread=1.0, rng=rng)
    assert passed, detail

    # norm sandwiches, squared-norm decomposition, and the pure-relative
    # alignment bound, each with at most 1e-12 of slack
    passed, detail, _ = verify.sandwich_inequalities(
        problem, ((0.25, 0.1), (0.25, 0.0)), seed=3, queries=1000, spread=1.0, rng=rng)
    assert passed, detail

    # the compressors' declared levels are their closed-form worst cases
    passed, detail, oracles = verify.compressor_levels(
        nesterov_strongly_convex(1.0, 100.0, 50),
        (("top_k", 10), ("sign", None), ("grid", 32)), queries=1000, spread=1.0, rng=rng)
    assert passed, detail
    declared = {
        "top_k": (math.sqrt(1.0 - 10.0 / 50.0), 0.0),
        "sign": (math.sqrt(1.0 - 1.0 / 50.0), 0.0),
        "grid": (0.0, math.sqrt(50.0) / 64.0),
    }
    for oracle in oracles:
        assert (oracle.declared_alpha, oracle.declared_delta) == declared[oracle.kind]


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

    # compensated row sums vs the correctly rounded math.fsum
    rng = np.random.default_rng(5)
    magnitudes = np.array([1e16, 1e8, 1.0, 1e-8, 1e-16])
    sequences = [rng.choice(magnitudes, size=60) * rng.choice([-1.0, 1.0], size=60)
                 for _ in range(1000)]
    passed, detail, _ = verify.neumaier_row_sums(sequences)
    assert passed, detail

    # difference-quotient error on the identity quadratic is exactly
    # sqrt(n) * h / 2 when every evaluation is dyadic
    passed, detail, _ = verify.finite_difference_error(25, 2.0**-10, 10, rng)
    assert passed, detail


def test_11_sampled_noise_is_unbiased():
    """The sampled mode's empirical mean matches the true gradient.

    One hundred thousand draws per point, taken as one block query whose
    rows are the one-point queries' bits; every component must land
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
        samples = oracle._query_rows(np.tile(x, (draws, 1)))[0]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
        assert np.all(np.abs(mean - grad) <= 4.0 * se), point
