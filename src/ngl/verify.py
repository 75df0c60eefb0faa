"""Built-in invariant suite behind the `verify` subcommand, and its gates.

A gate is a function of its instance (problem, levels, steps, seeds)
that runs one seeded experiment and returns an ``Outcome``: a verdict,
a one-line detail, and the runs a caller may assert more about.
``CHECKS`` binds the small instances `ngl verify` runs, and
``tests/test_acceptance.py`` calls the same gates at full scale.  All
checks are deterministic, so a pass table is reproducible bit for bit.

``run_all_checks`` runs finite-difference-error in the calling process
and then every other gate on forked workers, one per usable CPU (within
the cgroup's CPU quota) and at most four, each handed the next gate
when it is free; the workers share the caller's imports and ``CHECKS``,
and rows come back in ``CHECKS`` order.  The workers are the bare forks
of ``lanes._fork_map``, which `ngl sweep --jobs` runs its experiments
on too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .bounds import (EnvelopeConstants, certification_report, envelope, start_constants,
                     stopping_level)
from .drivers import (
    StoppingRule,
    plan_convex_gd,
    plan_convex_re_agm,
    restart_to_convex,
    run_with_stopping,
    solve_convex_gd,
    solve_convex_re_agm,
)
from .lanes import _fork_map, _lane_count
from .numkit import PrecisionSpec
from .oracles import (
    CompressedGradientOracle,
    FiniteDifferenceOracle,
    NoiseSpec,
    SyntheticNoiseOracle,
    _fp_quadratic,
)
from .problems import nesterov_convex, nesterov_strongly_convex, quadratic
from .solvers import (
    AdaptiveGDConfig,
    GDConfig,
    ReAgmConfig,
    adaptive_gd_run,
    gd_run,
    re_agm_calculate_parameters,
    re_agm_run,
)

_SLACK = 1e-12
_NOISE_MODES = ("sampled_unbiased", "adversarial_opposing")
Levels = Sequence[Tuple[float, float]]


class Outcome(NamedTuple):
    """A gate's verdict, its one-line detail, and what it ran."""

    passed: bool
    detail: str
    data: Any = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def oracle_certification(problem, alpha: float, delta: float, seed: int, queries: int,
                         spread: float, rng: np.random.Generator) -> Outcome:
    """Certified queries in both noise modes at spread * N(0, I) points; a breach raises."""
    for mode in _NOISE_MODES:
        oracle = SyntheticNoiseOracle(problem, NoiseSpec(alpha, delta, mode, seed), certify=True)
        oracle._query_rows(spread * rng.standard_normal((queries, problem.dim)))
    return Outcome(True, f"{len(_NOISE_MODES) * queries} certified queries, no violation")


def sandwich_inequalities(problem, levels: Levels, seed: int, queries: int, spread: float,
                          rng: np.random.Generator) -> Outcome:
    """Every certification_report slack of sampled estimates is >= -1e-12, and
    a purely relative level (delta = 0) reports the alignment bound."""
    worst = math.inf
    for alpha, delta in levels:
        oracle = SyntheticNoiseOracle(problem, NoiseSpec(alpha, delta, "sampled_unbiased", seed))
        E, G = oracle._query_rows(spread * rng.standard_normal((queries, problem.dim)))
        report = certification_report(E, G, alpha, delta)
        if delta == 0.0 and "alignment" not in report:
            return Outcome(False, f"no alignment bound at alpha={alpha}")
        worst = min(worst, *(float(v.min()) for v in report.values()))
    return Outcome(worst >= -_SLACK, f"minimum slack {worst:.3e}")


def compressor_levels(problem, compressors: Sequence[Tuple[str, Any]], queries: int,
                      spread: float, rng: np.random.Generator) -> Outcome:
    """Each (kind, param) compressor errs within its declared levels; data: the oracles."""
    oracles = [CompressedGradientOracle(problem, kind, param) for kind, param in compressors]
    worst = math.inf
    for oracle in oracles:
        E, G = oracle._query_rows(spread * rng.standard_normal((queries, problem.dim)))
        report = certification_report(E, G, oracle.declared_alpha, oracle.declared_delta)
        worst = min(worst, float(report["composite"].min()))
    return Outcome(worst >= -_SLACK, f"minimum slack {worst:.3e}", oracles)


def re_agm_parameter_bracket(L: float, ratios: Sequence[float],
                             alphas: Sequence[float]) -> Outcome:
    """At mu = ratio * L, omega lies in [(mu/2L)^(1-gamma*)/150, 1) and solves its
    quadratic to a residual of 1e-12 * max(1, q)."""
    worst_res = 0.0
    for ratio in ratios:
        for alpha in alphas:
            mu = ratio * L
            prm = re_agm_calculate_parameters(mu, L, alpha)
            lower = (1.0 / 150.0) * (mu / (2.0 * L)) ** (1.0 - prm.gamma_star)
            if not lower <= prm.omega < 1.0:
                return Outcome(False, f"omega {prm.omega} outside bracket at "
                                      f"ratio={ratio}, alpha={alpha}")
            residual = prm.m * prm.omega**2 + (prm.s - prm.m) * prm.omega - prm.q
            worst_res = max(worst_res, abs(residual) / max(1.0, prm.q))
    return Outcome(worst_res <= _SLACK, f"max scaled residual {worst_res:.3e}")


def gd_envelope(problem, levels: Levels, steps: int, seed: int) -> Outcome:
    """gd from the origin stays under GD_PL at every level, in both noise modes."""
    worst = -math.inf
    for alpha, delta in levels:
        for mode in _NOISE_MODES:
            oracle = SyntheticNoiseOracle(problem, NoiseSpec(alpha, delta, mode, seed))
            trace = gd_run(problem, oracle, GDConfig(steps=steps, alpha=alpha, L=problem.L))
            env = envelope("GD_PL", start_constants(problem, oracle.declared_alpha,
                                                    oracle.declared_delta))
            worst = max(worst, float(np.max(env.excess(trace.k, trace.f_gap))))
    return Outcome(worst <= 0.0, f"max excess over bound {worst:.3e}")


def re_agm_envelope(problem, alphas: Sequence[float], delta: float, steps: int,
                    seeds: Sequence[int]) -> Outcome:
    """re_agm under sampled noise, one seed per alpha, stays under REAGM;
    data: a (trace, envelope) pair per alpha."""
    worst, runs = -math.inf, []
    for alpha, seed in zip(alphas, seeds):
        oracle = SyntheticNoiseOracle(problem, NoiseSpec(alpha, delta, "sampled_unbiased", seed))
        cfg = ReAgmConfig(steps=steps, mu=problem.mu, L=problem.L, alpha=alpha)
        trace = re_agm_run(problem, oracle, cfg)
        env = envelope("REAGM", start_constants(problem, oracle.declared_alpha,
                                                oracle.declared_delta))
        worst = max(worst, float(np.max(env.excess(trace.k, trace.f_gap))))
        runs.append((trace, env))
    return Outcome(worst <= 0.0, f"max excess over bound {worst:.3e}", runs)


def adaptive_inner_ledger(problem, alpha: float, deltas: Sequence[float], mode: str,
                          steps: int, seed: int) -> Outcome:
    """Backtracking spends at most its promised extra trials: log2(1/(1-alpha)) + 1 at
    L0 = L, max(that log, 3) + 1 at L0 = L/8 with adapt_L; data: (delta, adapt_L, trace)s."""
    level_term = math.log2(1.0 / (1.0 - alpha))
    details, runs = [], []
    for delta in deltas:
        for adapt_L, L0, extra in ((False, problem.L, level_term + 1.0),
                                   (True, problem.L / 8.0, max(level_term, 3.0) + 1.0)):
            oracle = SyntheticNoiseOracle(problem, NoiseSpec(alpha, delta, mode, seed))
            cfg = AdaptiveGDConfig(steps=steps, L0=L0, delta=delta, adapt_L=adapt_L)
            trace = adaptive_gd_run(problem, oracle, cfg)
            budget = trace.iterations + extra
            total = trace.iterations + trace.total_inner_loops
            if total > budget:
                return Outcome(False, f"inner-loop total {total} exceeds ledger "
                                      f"{budget:.2f} (delta={delta}, adapt_L={adapt_L})")
            details.append(f"{total}<={budget:.2f}")
            runs.append((delta, adapt_L, trace))
    return Outcome(True, "trial ledger held: " + ", ".join(details), runs)


def stopping_rule_level(solver: str, problem, delta: float, K: float, seed: int,
                        N_cap: int) -> Outcome:
    """Under absolute noise, with alpha_hat = 1/K, the rule fires and the exit gap
    is within a relative 1e-9 of the rule's level; data: (trace, level)."""
    oracle = SyntheticNoiseOracle(problem, NoiseSpec(0.0, delta, "sampled_unbiased", seed))
    rule = StoppingRule(K=K, delta=delta)
    trace = run_with_stopping(solver, problem, oracle, rule, alpha_hat=1.0 / K, N_cap=N_cap)
    if trace.terminal != "stopping_rule":
        return Outcome(False, f"rule never fired in {trace.iterations} steps")
    level = stopping_level(problem.mu, 0.0, delta, K)
    ok = trace.final_f_gap <= level * (1.0 + 1e-9)
    return Outcome(ok, f"exit gap {trace.final_f_gap:.3e} vs level {level:.3e} "
                       f"after {trace.iterations} steps", (trace, level))


def regularize_route(problem, divisor: float, routes: Sequence[Tuple[str, Any, float]],
                     seed: int) -> Outcome:
    """Each (solver, beta, alpha) ridge route, fed sampled relative noise at alpha,
    reaches epsilon = L*R^2/divisor within its budget (gd ignores beta)."""
    L, R = problem.L, float(np.linalg.norm(problem.x_star))
    eps = L * R**2 / divisor
    ok, parts = True, []
    for solver, beta, alpha in routes:
        oracle = SyntheticNoiseOracle(problem, NoiseSpec(alpha, 0.0, "sampled_unbiased", seed))
        if solver == "gd":
            _, budget = plan_convex_gd(L, R, alpha, eps)
            trace = solve_convex_gd(problem, oracle, eps, R)
        else:
            _, _, budget = plan_convex_re_agm(L, R, alpha, eps, beta)
            trace = solve_convex_re_agm(problem, oracle, eps, beta, R)
        ok &= trace.final_f_gap <= eps and trace.iterations <= budget
        parts.append(f"base gap {trace.final_f_gap:.3e} <= {eps:.3e} in "
                     f"{trace.iterations}/{budget} steps")
    return Outcome(ok, "; ".join(parts))


def finite_difference_error(n: int, h: float, points: int,
                            rng: np.random.Generator) -> Outcome:
    """Forward differences on the identity quadratic err by sqrt(n)h/2 within 1e-12:
    at dyadic points every value is exact, leaving the curvature term alone."""
    p = quadratic(np.eye(n), np.zeros(n))
    oracle = FiniteDifferenceOracle(p, h)
    worst = 0.0
    for _ in range(points):
        x = rng.integers(-32, 33, size=n) / 16.0
        # the reference is the problem's gradient, not the oracle's own report
        err = float(np.linalg.norm(oracle.estimate_with_exact(x)[0] - p.gradient(x)))
        worst = max(worst, abs(err - math.sqrt(n) * h / 2.0))
    return Outcome(worst <= _SLACK, f"max deviation from sqrt(n)h/2: {worst:.3e}")


def neumaier_row_sums(sequences: Sequence[Sequence[float]]) -> Outcome:
    """The reduced-precision kernel's row sums lie within 2 * 2**-53 * sum|v| of fsum.

    Sequence i, zero-padded, is row i: b_i then A_i. at x = 1 and 52 bits, where the
    kernel is a float64 Neumaier sum; data: the sums.  A non-finite summand raises
    ValueError.
    """
    width = max([2] + [len(seq) for seq in sequences])
    table = np.zeros((len(sequences), width))
    for row, seq in zip(table, sequences):
        row[:len(seq)] = seq
    sums = _fp_quadratic(table[:, 1:], table[:, 0], np.ones(width - 1), PrecisionSpec(52))
    err = np.abs(sums - [math.fsum(row) for row in table.tolist()])
    bound = 2.0 * 2.0**-53 * np.abs(table).sum(axis=1) + 1e-300
    bad = np.flatnonzero(err > bound)
    if bad.size:
        return Outcome(False, f"error {err[bad[0]]:.3e} above bound {bound[bad[0]]:.3e}", sums)
    worst = float(np.max(err / bound, initial=0.0))
    return Outcome(True, f"{len(sequences)} sequences, worst error {worst:.2f}x bound", sums)


def _mingrad_envelope() -> Outcome:
    p = nesterov_convex(10, 100.0, 50)
    oracle = SyntheticNoiseOracle(
        p, NoiseSpec(alpha=0.25, delta=0.1, mode="sampled_unbiased", seed=5))
    trace = gd_run(p, oracle, GDConfig(steps=1000, alpha=0.25, L=p.L))
    env = envelope("GD_MINGRAD", start_constants(p, 0.25, 0.1))
    sq = trace.grad_norm[:-1] ** 2  # final row is unqueried bookkeeping
    running_min = np.minimum.accumulate(sq)
    worst = float(np.max(env.excess(np.arange(len(sq)), running_min)))
    return Outcome(worst <= 0.0, f"max excess over bound {worst:.3e}")


def _restart_route() -> Outcome:
    p = nesterov_strongly_convex(1.0, 10.0, 8)
    oracle = SyntheticNoiseOracle(p, NoiseSpec(mode="none"))
    gap0 = p.gap(np.zeros(8))
    result = restart_to_convex("gd", p, oracle, gap0 / 8.0)
    ok = (len(result.stages) == 3 and not result.floor_reached
          and result.final_f_gap <= gap0 / 8.0)
    return Outcome(ok, f"{len(result.stages)} stages to gap {result.final_f_gap:.3e}")


def _envelope_shapes() -> Outcome:
    common = dict(mu=1.0, L=100.0, alpha=0.25, delta=0.1, f0_gap=10.0, R=1.0)
    cases = [
        ("GD_PL", {}), ("GD_MINGRAD", dict(mu=0.0)),
        ("REAGM", dict(mu=0.01, alpha=0.028, delta=100.0)), ("GD_REG", dict(delta=0.0)),
        ("REAGM_REG", dict(alpha=0.1, delta=0.0)), ("ADAPT_BOTH", dict(L0=25.0)),
        ("ADAPT_ALPHA", {}), ("STOP_GENERIC", dict(alpha=0.0, delta=1e-3, K=10.0)),
        ("REAGM_STOP", dict(alpha=0.0, delta=1e-3, K=10.0)),
    ]
    N = np.arange(201)
    for tid, kw in cases:
        env = envelope(tid, EnvelopeConstants(**{**common, **kw}))
        curve = env.curve(N)
        scale = max(1.0, float(curve[0]))
        if np.any(np.diff(curve) > 1e-15 * scale):
            return Outcome(False, f"{tid}: curve not non-increasing")
        if np.any(curve < env.floor - 1e-15 * scale):
            return Outcome(False, f"{tid}: curve dips below its floor")
    return Outcome(True, f"{len(cases)} envelope curves monotone and floored")


def _adversarial_sequences(count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of 1e12..1e16 terms with random signs, each followed by one in (-1, 1)."""
    values = np.empty((count, 100))
    values[:, 0::2] = (rng.uniform(1e12, 1e16, size=(count, 50))
                       * rng.choice([-1.0, 1.0], size=(count, 50)))
    values[:, 1::2] = rng.uniform(-1.0, 1.0, size=(count, 50))
    return values


CHECKS: List[Tuple[str, Callable[[], Outcome]]] = [
    ("oracle-certification", lambda: oracle_certification(
        nesterov_strongly_convex(1.0, 100.0, 30), 0.3, 0.05, seed=7, queries=1000, spread=2.0,
        rng=np.random.default_rng(0))),
    ("sandwich-inequalities", lambda: sandwich_inequalities(
        nesterov_strongly_convex(1.0, 100.0, 30), ((0.25, 0.1), (0.25, 0.0)), seed=8,
        queries=500, spread=2.0, rng=np.random.default_rng(1))),
    ("compressor-levels", lambda: compressor_levels(
        nesterov_strongly_convex(1.0, 100.0, 50), (("top_k", 10), ("sign", None), ("grid", 16)),
        queries=500, spread=3.0, rng=np.random.default_rng(2))),
    ("re-agm-parameter-bracket", lambda: re_agm_parameter_bracket(
        1.0, (1e-4, 1e-3, 1e-2, 1e-1, 0.5), (0.0, 0.01, 0.1, 1.0 / 3.0))),
    ("gd-envelope", lambda: gd_envelope(
        nesterov_strongly_convex(1.0, 100.0, 50), ((0.25, 0.1),), steps=2000, seed=3)),
    ("re-agm-envelope", lambda: re_agm_envelope(
        nesterov_strongly_convex(0.01, 100.0, 50), (0.028,), 100.0, steps=3000, seeds=(4,))),
    ("mingrad-envelope", _mingrad_envelope),
    ("adaptive-inner-ledger", lambda: adaptive_inner_ledger(
        nesterov_strongly_convex(1.0, 100.0, 50), 0.3, (0.0,), "sampled_unbiased", steps=500,
        seed=6)),
    ("stopping-rule-level", lambda: stopping_rule_level(
        "gd", nesterov_strongly_convex(1.0, 100.0, 30), 1e-3, 10.0, seed=9, N_cap=60_000)),
    ("regularize-route", lambda: regularize_route(
        nesterov_convex(5, 10.0, 20), 20.0, (("gd", None, 0.0),), seed=0)),
    ("restart-route", _restart_route),
    ("envelope-shapes", _envelope_shapes),
    ("finite-difference-error", lambda: finite_difference_error(
        16, 2.0**-12, 20, np.random.default_rng(10))),
    ("neumaier-row-sums", lambda: neumaier_row_sums(
        _adversarial_sequences(200, np.random.default_rng(11)))),
]


def _run_check(name: str, fn: Callable[[], Outcome]) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, detail, _ = fn()
    except Exception as exc:  # a raising check is a failing check
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


# A worker's trace spans die with it.  This check's p.gradient(x) is the
# suite's one call of a problem's public gradient, so it runs in the
# caller, where a tracer sees it at every lane count.
_CALLER_CHECKS = frozenset({"finite-difference-error"})


def _run_index(i: int) -> CheckResult:
    return _run_check(*CHECKS[i])


def run_all_checks() -> List[CheckResult]:
    """Run every invariant check, catching failures as FAIL rows.

    Rows are in ``CHECKS`` order, each with its gate's own seconds.  The
    ``_CALLER_CHECKS`` run here first, so the workers fork with what they
    imported (numpy.random, about 10 ms a process) already loaded; the
    rest run on ``_lane_count()`` forked workers, or here with one.
    """
    here = {name: _run_check(name, fn) for name, fn in CHECKS if name in _CALLER_CHECKS}
    pooled = [i for i, (name, _) in enumerate(CHECKS) if name not in here]
    rows = iter(_fork_map(_run_index, pooled, _lane_count()))
    return [here[name] if name in here else next(rows) for name, _ in CHECKS]
