"""Built-in invariant suite behind the `verify` subcommand.

Each check is a small seeded experiment asserting one guarantee the
package ships: oracle certification, the derived norm inequalities,
compressor error levels, the accelerated parameter bracket, envelope
soundness on live runs, adaptive inner-loop accounting, the stopping
rule's exit level, driver delivery, and the numerical helpers.  All
checks are deterministic, so a pass table is reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .bounds import EnvelopeConstants, envelope
from .drivers import (
    StoppingRule,
    plan_convex_gd,
    restart_to_convex,
    run_with_stopping,
    solve_convex_gd,
)
from .numkit import kahan_sum
from .oracles import (
    CompressedGradientOracle,
    NoiseSpec,
    SyntheticNoiseOracle,
    certification_report,
    finite_difference_gradient,
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

__all__ = ["CheckResult", "run_all_checks", "CHECKS"]

_SLACK = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _strongly_convex_envelope_constants(problem, oracle, x0):
    gap0 = problem.gap(x0)
    R = float(np.linalg.norm(x0 - problem.x_star))
    return EnvelopeConstants(mu=problem.mu, L=problem.L,
                             alpha=oracle.declared_alpha,
                             delta=oracle.declared_delta,
                             f0_gap=gap0, R=R)


def _check_oracle_certification() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(1.0, 100.0, 30)
    rng = np.random.default_rng(0)
    total = 0
    for mode in ("sampled_unbiased", "adversarial_opposing"):
        oracle = SyntheticNoiseOracle(
            p, NoiseSpec(alpha=0.3, delta=0.05, mode=mode, seed=7),
            certify=True)
        for _ in range(1000):
            oracle.gradient_estimate(2.0 * rng.standard_normal(30))
            total += 1
    return True, f"{total} certified queries, no violation"


def _check_sandwich_inequalities() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(1.0, 100.0, 30)
    rng = np.random.default_rng(1)
    worst = math.inf
    for alpha, delta in ((0.25, 0.1), (0.25, 0.0)):
        oracle = SyntheticNoiseOracle(
            p, NoiseSpec(alpha=alpha, delta=delta, mode="sampled_unbiased",
                         seed=8))
        for _ in range(500):
            x = 2.0 * rng.standard_normal(30)
            est, exact = oracle.estimate_with_exact(x)
            report = certification_report(est, exact, alpha, delta)
            worst = min(worst, min(report.values()))
    return worst >= -_SLACK, f"minimum slack {worst:.3e}"


def _check_compressor_levels() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(1.0, 100.0, 50)
    oracles = [
        CompressedGradientOracle(p, "top_k", 10),
        CompressedGradientOracle(p, "sign"),
        CompressedGradientOracle(p, "grid", 16),
    ]
    rng = np.random.default_rng(2)
    worst = math.inf
    for oracle in oracles:
        for _ in range(500):
            x = 3.0 * rng.standard_normal(50)
            est, exact = oracle.estimate_with_exact(x)
            err = float(np.linalg.norm(est - exact))
            allowed = (oracle.declared_alpha * float(np.linalg.norm(exact))
                       + oracle.declared_delta)
            worst = min(worst, allowed - err)
    return worst >= -_SLACK, f"minimum slack {worst:.3e}"


def _check_re_agm_bracket() -> Tuple[bool, str]:
    worst_res = 0.0
    for ratio in (1e-4, 1e-3, 1e-2, 1e-1, 0.5):
        for alpha in (0.0, 0.01, 0.1, 1.0 / 3.0):
            prm = re_agm_calculate_parameters(ratio, 1.0, alpha)
            lower = (1.0 / 150.0) * (ratio / 2.0) ** (1.0 - prm.gamma_star)
            if not (lower * (1.0 - _SLACK) <= prm.omega < 1.0):
                return False, (f"omega {prm.omega} outside bracket at "
                               f"ratio={ratio}, alpha={alpha}")
            residual = prm.m * prm.omega**2 + (prm.s - prm.m) * prm.omega - prm.q
            worst_res = max(worst_res, abs(residual) / max(1.0, prm.q))
    return worst_res <= _SLACK, f"max scaled residual {worst_res:.3e}"


def _check_gd_envelope() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(1.0, 100.0, 50)
    worst = -math.inf
    for mode in ("sampled_unbiased", "adversarial_opposing"):
        oracle = SyntheticNoiseOracle(
            p, NoiseSpec(alpha=0.25, delta=0.1, mode=mode, seed=3))
        cfg = GDConfig(steps=2000, alpha=0.25, L=p.L)
        trace = gd_run(p, oracle, cfg)
        env = envelope("GD_PL",
                       _strongly_convex_envelope_constants(p, oracle,
                                                           np.zeros(50)))
        worst = max(worst, float(np.max(env.excess(trace.k, trace.f_gap))))
    return worst <= 0.0, f"max excess over bound {worst:.3e}"


def _check_re_agm_envelope() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(0.01, 100.0, 50)
    oracle = SyntheticNoiseOracle(
        p, NoiseSpec(alpha=0.028, delta=100.0, mode="sampled_unbiased",
                     seed=4))
    cfg = ReAgmConfig(steps=3000, mu=p.mu, L=p.L, alpha=0.028)
    trace = re_agm_run(p, oracle, cfg)
    env = envelope("REAGM",
                   _strongly_convex_envelope_constants(p, oracle,
                                                       np.zeros(50)))
    worst = float(np.max(env.excess(trace.k, trace.f_gap)))
    return worst <= 0.0, f"max excess over bound {worst:.3e}"


def _check_mingrad_envelope() -> Tuple[bool, str]:
    p = nesterov_convex(10, 100.0, 50)
    oracle = SyntheticNoiseOracle(
        p, NoiseSpec(alpha=0.25, delta=0.1, mode="sampled_unbiased", seed=5))
    cfg = GDConfig(steps=1000, alpha=0.25, L=p.L)
    trace = gd_run(p, oracle, cfg)
    env = envelope("GD_MINGRAD", EnvelopeConstants(
        mu=0.0, L=p.L, alpha=0.25, delta=0.1, f0_gap=p.gap(np.zeros(50)),
        R=float(np.linalg.norm(p.x_star))))
    sq = trace.grad_norm[:-1] ** 2  # final row is unqueried bookkeeping
    running_min = np.minimum.accumulate(sq)
    worst = float(np.max(env.excess(np.arange(len(sq)), running_min)))
    return worst <= 0.0, f"max excess over bound {worst:.3e}"


def _check_adaptive_ledger() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(1.0, 100.0, 50)
    details = []
    for adapt_L, L0, extra in ((False, 100.0, math.log2(1.0 / 0.7) + 1.0),
                               (True, 12.5, max(math.log2(1.0 / 0.7), 3.0) + 1.0)):
        oracle = SyntheticNoiseOracle(
            p, NoiseSpec(alpha=0.3, delta=0.0, mode="sampled_unbiased",
                         seed=6))
        cfg = AdaptiveGDConfig(steps=500, L0=L0, delta=0.0, adapt_L=adapt_L)
        trace = adaptive_gd_run(p, oracle, cfg)
        budget = trace.iterations + extra
        total = trace.iterations + trace.total_inner_loops
        if total > budget:
            return False, (f"inner-loop total {total} exceeds ledger "
                           f"{budget:.2f} (adapt_L={adapt_L})")
        details.append(f"{total}<={budget:.2f}")
    return True, "trial ledger held: " + ", ".join(details)


def _check_stopping_level() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(1.0, 100.0, 30)
    oracle = SyntheticNoiseOracle(
        p, NoiseSpec(alpha=0.0, delta=1e-3, mode="sampled_unbiased", seed=9))
    rule = StoppingRule(K=10.0, delta=1e-3)
    trace = run_with_stopping("gd", p, oracle, rule, alpha_hat=0.1,
                              N_cap=60_000)
    if trace.terminal != "stopping_rule":
        return False, f"rule never fired in {trace.iterations} steps"
    level = rule.level(p.mu, 0.0)
    ok = trace.final_f_gap <= level * (1.0 + 1e-9)
    return ok, (f"exit gap {trace.final_f_gap:.3e} vs level {level:.3e} "
                f"after {trace.iterations} steps")


def _check_regularize_route() -> Tuple[bool, str]:
    base = nesterov_convex(5, 10.0, 20)
    R = float(np.linalg.norm(base.x_star))
    eps = base.L * R**2 / 20.0
    oracle = SyntheticNoiseOracle(base, NoiseSpec(mode="none"))
    _, budget = plan_convex_gd(base.L, R, 0.0, eps)
    trace = solve_convex_gd(base, oracle, eps, R)
    ok = trace.final_f_gap <= eps and trace.iterations <= budget
    return ok, (f"base gap {trace.final_f_gap:.3e} <= {eps:.3e} in "
                f"{trace.iterations}/{budget} steps")


def _check_restart_route() -> Tuple[bool, str]:
    p = nesterov_strongly_convex(1.0, 10.0, 8)
    oracle = SyntheticNoiseOracle(p, NoiseSpec(mode="none"))
    gap0 = p.gap(np.zeros(8))
    result = restart_to_convex("gd", p, oracle, gap0 / 8.0)
    ok = (len(result.stages) == 3 and not result.floor_reached
          and result.final_f_gap <= gap0 / 8.0)
    return ok, (f"{len(result.stages)} stages to gap "
                f"{result.final_f_gap:.3e}")


def _check_envelope_shapes() -> Tuple[bool, str]:
    cases = [
        ("GD_PL", dict(mu=1.0, L=100.0, alpha=0.25, delta=0.1, f0_gap=10.0,
                       R=1.0)),
        ("GD_MINGRAD", dict(mu=0.0, L=100.0, alpha=0.25, delta=0.1,
                            f0_gap=10.0, R=1.0)),
        ("REAGM", dict(mu=0.01, L=100.0, alpha=0.028, delta=100.0,
                       f0_gap=10.0, R=1.0)),
        ("GD_REG", dict(mu=1.0, L=100.0, alpha=0.25, delta=0.0, f0_gap=10.0,
                        R=1.0)),
        ("REAGM_REG", dict(mu=1.0, L=100.0, alpha=0.1, delta=0.0,
                           f0_gap=10.0, R=1.0)),
        ("ADAPT_BOTH", dict(mu=1.0, L=100.0, alpha=0.25, delta=0.1,
                            f0_gap=10.0, R=1.0, L0=25.0)),
        ("ADAPT_ALPHA", dict(mu=1.0, L=100.0, alpha=0.25, delta=0.1,
                             f0_gap=10.0, R=1.0)),
        ("STOP_GENERIC", dict(mu=1.0, L=100.0, alpha=0.0, delta=1e-3,
                              f0_gap=10.0, R=1.0, K=10.0)),
        ("REAGM_STOP", dict(mu=1.0, L=100.0, alpha=0.0, delta=1e-3,
                            f0_gap=10.0, R=1.0, K=10.0)),
    ]
    N = np.arange(201)
    for tid, kw in cases:
        env = envelope(tid, EnvelopeConstants(**kw))
        curve = env.curve(N)
        scale = max(1.0, float(curve[0]))
        if np.any(np.diff(curve) > 1e-15 * scale):
            return False, f"{tid}: curve not non-increasing"
        if np.any(curve < env.floor - 1e-15 * scale):
            return False, f"{tid}: curve dips below its floor"
    return True, f"{len(cases)} envelope curves monotone and floored"


def _check_fd_error() -> Tuple[bool, str]:
    n = 16
    p = quadratic(np.eye(n), np.zeros(n))
    h = 2.0**-12
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        # dyadic points keep every value evaluation exact, so the
        # forward-difference error is the curvature term h/2 alone
        x = rng.integers(-32, 33, size=n) / 16.0
        est = finite_difference_gradient(p, x, h)
        err = float(np.linalg.norm(est - p.gradient(x)))
        worst = max(worst, abs(err - math.sqrt(n) * h / 2.0))
    return worst <= _SLACK, f"max deviation from sqrt(n)h/2: {worst:.3e}"


def _check_kahan_sum() -> Tuple[bool, str]:
    rng = np.random.default_rng(11)
    eps = 2.0**-53
    worst = 0.0
    for _ in range(200):
        big = rng.uniform(1e12, 1e16, size=50)
        tiny = rng.uniform(-1.0, 1.0, size=50)
        values = np.empty(100)
        values[0::2] = big * rng.choice([-1.0, 1.0], size=50)
        values[1::2] = tiny
        got = kahan_sum(values)
        want = math.fsum(values)
        bound = 2.0 * eps * float(np.sum(np.abs(values))) + 1e-300
        if abs(got - want) > bound:
            return False, f"error {abs(got - want):.3e} above bound {bound:.3e}"
        worst = max(worst, abs(got - want) / bound)
    return True, f"200 adversarial sequences, worst error {worst:.2f}x bound"


CHECKS: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("oracle-certification", _check_oracle_certification),
    ("sandwich-inequalities", _check_sandwich_inequalities),
    ("compressor-levels", _check_compressor_levels),
    ("re-agm-parameter-bracket", _check_re_agm_bracket),
    ("gd-envelope", _check_gd_envelope),
    ("re-agm-envelope", _check_re_agm_envelope),
    ("mingrad-envelope", _check_mingrad_envelope),
    ("adaptive-inner-ledger", _check_adaptive_ledger),
    ("stopping-rule-level", _check_stopping_level),
    ("regularize-route", _check_regularize_route),
    ("restart-route", _check_restart_route),
    ("envelope-shapes", _check_envelope_shapes),
    ("finite-difference-error", _check_fd_error),
    ("kahan-summation", _check_kahan_sum),
]


def run_all_checks() -> List[CheckResult]:
    """Run every invariant check, catching failures as FAIL rows."""
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a raising check is a failing check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed,
                                   detail, time.perf_counter() - t0))
    return results
