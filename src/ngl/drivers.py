"""Outer-loop strategies on top of the core solvers.

Three reductions, each ending in a strongly convex run: ridge
regularization makes a convex problem strongly convex and transfers the
guarantee back within a controlled offset; the gradient-norm stopping
rule treats absolute noise as relative noise for as long as the
estimate stays informative, stopping once it no longer is; restarts
chain strongly convex stages that halve the gap geometrically.

All radii R are user inputs bounding ||start - minimizer||: the
guarantees assume R is known, so the drivers require it rather than
peeking at the problem's analytic minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .bounds import EnvelopeConstants, envelope, iteration_budget, stopping_level
from .numkit import as_vector
from .oracles import GradientOracle
from .problems import ObjectiveProblem
from .solvers import (
    TERMINAL_STOPPING_RULE,
    GDConfig,
    IterateView,
    ReAgmConfig,
    RunTrace,
    gd_run,
    re_agm_run,
)

__all__ = [
    "RegularizedProblem",
    "RegularizedOracle",
    "regularize",
    "StoppingRule",
    "run_with_stopping",
    "solve_convex_gd",
    "solve_convex_re_agm",
    "combined_reg_stop",
    "restart_to_convex",
    "RestartResult",
    "StageReport",
    "ConvergenceFailureError",
    "StageFailureError",
    "plan_convex_gd",
    "plan_convex_re_agm",
    "plan_combined",
    "plan_restart_stages",
]


class ConvergenceFailureError(RuntimeError):
    """A driver exhausted its budget without certifying its target."""

    def __init__(self, message: str, trace: Optional[RunTrace] = None):
        super().__init__(message)
        self.trace = trace


class StageFailureError(ConvergenceFailureError):
    """A restart stage missed its half-gap target within its budget."""

    def __init__(self, message: str, stage: int, target: float,
                 achieved: float, trace: RunTrace):
        super().__init__(message, trace)
        self.stage = stage
        self.target = target
        self.achieved = achieved


class RegularizedProblem(ObjectiveProblem):
    """base objective plus a ridge (mu_reg/2)*||x - center||^2.

    Strong convexity grows to base.mu + mu_reg and smoothness to
    base.L + mu_reg; the minimizer comes from the base problem's exact
    ridge solve, so gap() stays exact.
    """

    def __init__(self, base: ObjectiveProblem, center, mu_reg: float):
        if not (mu_reg > 0.0 and math.isfinite(mu_reg)):
            raise ValueError(f"ridge modulus must be positive, got {mu_reg}")
        super().__init__(f"{base.name}+ridge", base.dim,
                         base.mu + mu_reg, base.L + mu_reg)
        self.base = base
        self.center = as_vector(center, base.dim).copy()
        self.mu_reg = float(mu_reg)
        self.x_star = base.shifted_minimizer(self.mu_reg, self.center)
        self.f_star = self.value(self.x_star)

    value = ObjectiveProblem.value  # named in the class body: see ObjectiveProblem
    gradient = ObjectiveProblem.gradient

    def _value(self, x: np.ndarray) -> float:
        d = x - self.center
        return self.base._value(x) + 0.5 * self.mu_reg * float(d @ d)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        return self.base._gradient(x) + self.mu_reg * d

    def shifted_minimizer(self, ridge: float, center) -> np.ndarray:
        if ridge == 0.0:
            return self.x_star.copy()
        # two ridges merge into one around their weighted center
        total = self.mu_reg + ridge
        c2 = as_vector(center, self.dim)
        merged = (self.mu_reg * self.center + ridge * c2) / total
        return self.base.shifted_minimizer(total, merged)


class RegularizedOracle(GradientOracle):
    """Noisy oracle for a RegularizedProblem reusing the base oracle's noise.

    Each estimate is base_estimate(x) + mu_reg*(x - center); the
    composite level certifiable against the ridge gradient becomes
    (2*alpha, alpha*mu_reg*R + delta) where (alpha, delta) is the base
    oracle's declared level and R bounds ||center - base minimizer||.
    Certification is on by default because the doubled level is a
    derived claim worth checking on every query.
    """

    def __init__(self, problem: RegularizedProblem, base_oracle: GradientOracle,
                 R: float, certify: bool = True):
        if not isinstance(problem, RegularizedProblem):
            raise TypeError("RegularizedOracle needs a RegularizedProblem")
        if base_oracle.problem is not problem.base:
            raise ValueError("base oracle must query the ridge problem's base")
        if not (R > 0.0 and math.isfinite(R)):
            raise ValueError(f"radius R must be positive, got {R}")
        a = base_oracle.declared_alpha
        if 2.0 * a >= 1.0:
            raise ValueError(
                f"base relative level {a} is too large; the ridge oracle can "
                "only be certified for alpha < 1/2")
        super().__init__(problem, 2.0 * a,
                         a * problem.mu_reg * R + base_oracle.declared_delta,
                         certify=certify)
        self.base_oracle = base_oracle
        self.R = float(R)

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        est = self.base_oracle.gradient_estimate(x)
        return est + self.problem.mu_reg * (x - self.problem.center)


def regularize(base: ObjectiveProblem, center, mu_reg: float) -> RegularizedProblem:
    """Wrap base with a ridge of modulus mu_reg around center."""
    return RegularizedProblem(base, center, mu_reg)


@dataclass(frozen=True)
class StoppingRule:
    """Stop once the noisy gradient norm drops to ((1+alpha)K + 1)*delta."""

    K: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.K) and self.K > 1.0):
            raise ValueError(f"stopping multiplier K must exceed 1, got {self.K}")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"absolute level delta must be >= 0, got {self.delta}")

    def threshold(self, alpha: float) -> float:
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"relative level alpha must be in [0, 1), got {alpha}")
        if not self.K > 1.0 / (1.0 - alpha):
            raise ValueError(
                f"stopping multiplier K={self.K} must exceed 1/(1-alpha)="
                f"{1.0 / (1.0 - alpha)}")
        return ((1.0 + alpha) * self.K + 1.0) * self.delta

    def level(self, mu: float, alpha: float) -> float:
        """Gap guaranteed at a rule-triggered exit."""
        return stopping_level(mu, alpha, self.delta, self.K)


def run_with_stopping(solver: str, problem: ObjectiveProblem,
                      oracle: GradientOracle, rule: StoppingRule,
                      alpha_hat: float, N_cap: int, x0=None) -> RunTrace:
    """Run gd or re_agm with the gradient-norm stopping rule attached.

    alpha_hat is the inflated relative level (base alpha + 1/K) handed
    to the solver's parameter calculation.  Exits with terminal
    "stopping_rule" on a trigger, "steps_exhausted" at N_cap (the normal
    outcome when rule.delta = 0 and the threshold is never reachable).
    """
    if not problem.mu > 0.0:
        raise ValueError("the stopping rule needs a strongly convex problem")
    threshold = rule.threshold(oracle.declared_alpha)
    return _run_solver(solver, problem, oracle, N_cap, alpha_hat, x0,
                       _halt_rule(threshold=threshold))


def _run_solver(solver: str, problem: ObjectiveProblem, oracle: GradientOracle,
                steps: int, alpha: float, x0, monitor) -> RunTrace:
    """gd or re_agm on problem's own (mu, L) at relative level alpha."""
    if solver == "gd":
        cfg = GDConfig(steps=steps, alpha=alpha, L=problem.L)
        return gd_run(problem, oracle, cfg, x0=x0, monitor=monitor)
    if solver == "re_agm":
        cfg = ReAgmConfig(steps=steps, mu=problem.mu, L=problem.L, alpha=alpha)
        return re_agm_run(problem, oracle, cfg, x0=x0, monitor=monitor)
    raise ValueError(f"unknown solver {solver!r}; expected 'gd' or 're_agm'")


def _halt_rule(gap_target: Optional[float] = None,
               threshold: Optional[float] = None,
               gap: Callable[[IterateView], float] = lambda vw: vw.f_gap):
    """Monitor that stops once gap(view) <= gap_target or once the noisy
    gradient norm <= threshold; either may be None (never stops on it)."""

    def monitor(vw):
        if gap_target is not None and gap(vw) <= gap_target:
            return TERMINAL_STOPPING_RULE
        if threshold is not None and vw.noisy_grad_norm <= threshold:
            return TERMINAL_STOPPING_RULE
        return None

    return monitor


def _check_convex_inputs(op: str, base: ObjectiveProblem,
                         oracle: GradientOracle, epsilon: float,
                         R: float) -> None:
    if base.mu != 0.0:
        raise ValueError(f"{op} expects a convex base problem (mu = 0), "
                         f"got mu={base.mu}")
    if oracle.problem is not base:
        raise ValueError("oracle must query the base problem")
    if oracle.declared_delta != 0.0:
        raise ValueError(f"{op} requires a purely relative noise model, got "
                         f"declared delta={oracle.declared_delta}")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"target accuracy must be positive, got {epsilon}")
    if not (R > 0.0 and math.isfinite(R)):
        raise ValueError(f"radius R must be positive, got {R}")


def _ridge_route(solver: str, base: ObjectiveProblem, oracle: GradientOracle,
                 R: float, x0, mu: float, alpha: float, budget: int,
                 epsilon: float, threshold: Optional[float] = None) -> RunTrace:
    """The ridge routes' shared body.

    Adds a ridge of modulus mu around the start point, certifies the
    ridge oracle and runs the solver at level alpha for the budget.  The
    run sees the ridge objective; callers care about the base one, so
    the base gap is measured at every monitored point (halting once it
    reaches epsilon, or once the noisy gradient norm reaches threshold),
    replaces the trace's gap columns, and is checked against epsilon.
    """
    center = np.zeros(base.dim) if x0 is None else as_vector(x0, base.dim)
    reg = regularize(base, center, mu)
    reg_oracle = RegularizedOracle(reg, oracle, R)
    # the accelerated runner does not monitor row 0
    gaps = {"x": [base.gap(center)] if solver == "re_agm" else [], "y": []}

    def base_gap(vw):
        gaps[vw.kind].append(base.gap(vw.x))
        return gaps[vw.kind][-1]

    trace = _run_solver(solver, reg, reg_oracle, budget, alpha, center,
                        _halt_rule(epsilon, threshold, gap=base_gap))
    with_y = trace.y_f_gap is not None
    if (len(gaps["x"]) != len(trace.f_gap)
            or (with_y and len(gaps["y"]) != len(trace.y_f_gap))):
        raise AssertionError("recorded base gaps misaligned with trace rows")
    halted_at_y = with_y and len(trace.y_f_gap) == len(trace.f_gap)
    trace.f_gap = np.asarray(gaps["x"], dtype=np.float64)
    if with_y:
        trace.y_f_gap = np.asarray(gaps["y"], dtype=np.float64)
    trace.final_f_gap = float(gaps["y" if halted_at_y else "x"][-1])
    if trace.final_f_gap > epsilon:
        raise ConvergenceFailureError(
            f"{solver} ridge route missed target {epsilon:.3e}: base gap "
            f"{trace.final_f_gap:.3e} after {trace.iterations} iterations "
            f"(budget {budget})", trace)
    return trace


def plan_convex_gd(L: float, R: float, alpha: float, epsilon: float):
    """Ridge modulus and budget of the plain-descent convex route."""
    c = EnvelopeConstants(mu=1.0, L=L, alpha=alpha, delta=0.0, f0_gap=0.0, R=R)
    budget = iteration_budget("GD_REG", c, epsilon)  # validates alpha, epsilon
    mu = (2.0 / 3.0) * (1.0 - alpha) ** 3 / (1.0 + alpha) * epsilon / R**2
    return mu, budget


def solve_convex_gd(base: ObjectiveProblem, oracle: GradientOracle,
                    epsilon: float, R: float, x0=None) -> RunTrace:
    """Reach base-gap <= epsilon on a convex problem via ridge descent.

    Adds the recipe ridge around the start point, runs plain descent at
    the doubled relative level for the route's full budget (stopping as
    soon as the measured base gap reaches epsilon), and returns a trace
    whose gap columns are measured on the base objective.
    """
    _check_convex_inputs("solve_convex_gd", base, oracle, epsilon, R)
    alpha = oracle.declared_alpha
    mu, budget = plan_convex_gd(base.L, R, alpha, epsilon)
    return _ridge_route("gd", base, oracle, R, x0, mu, 2.0 * alpha, budget,
                        epsilon)


def plan_convex_re_agm(L: float, R: float, alpha: float, epsilon: float,
                       beta: float):
    """Ridge modulus, solver level, and budget of the accelerated route."""
    c = EnvelopeConstants(mu=1.0, L=L, alpha=alpha, delta=0.0, f0_gap=0.0, R=R)
    budget = iteration_budget("REAGM_REG", c, epsilon, beta=beta)
    mu = epsilon / (6.0 * R**2)
    # the ridge doubles the level; the solver's parameter domain caps it
    alpha_param = min(2.0 * alpha, 1.0 / 3.0)
    return mu, alpha_param, budget


def solve_convex_re_agm(base: ObjectiveProblem, oracle: GradientOracle,
                        epsilon: float, beta: float, R: float,
                        x0=None) -> RunTrace:
    """Reach base-gap <= epsilon on a convex problem via the accelerated route.

    beta in [0, 1/2] trades a stronger cap on alpha for a budget that
    scales as (L R^2 / eps)^(1-beta).  At the boundary alpha = 1/3 the
    ridge-doubled level exceeds the accelerated parameter domain; the
    solver then runs at its edge level 1/3, which is the route's own
    prescription.
    """
    _check_convex_inputs("solve_convex_re_agm", base, oracle, epsilon, R)
    alpha = oracle.declared_alpha
    mu, alpha_param, budget = plan_convex_re_agm(base.L, R, alpha, epsilon, beta)
    return _ridge_route("re_agm", base, oracle, R, x0, mu, alpha_param, budget,
                        epsilon)


def plan_combined(L: float, R: float, alpha: float, epsilon: float,
                  tau: float):
    """Constants of the regularize-then-stop route.

    Returns (mu, K, alpha_hat, threshold, budget).
    """
    if not 0.0 <= tau <= 0.5:
        raise ValueError(f"exponent tau must lie in [0, 1/2], got {tau}")
    scale = L * R**2
    if not (0.0 < epsilon <= scale and math.isfinite(epsilon)):
        raise ValueError(f"target accuracy must lie in (0, L*R^2={scale}], "
                         f"got {epsilon}")
    cap = (epsilon / (2.0 * scale)) ** tau / 9.0
    if not 0.0 < alpha <= cap:
        raise ValueError(f"relative level alpha={alpha} outside (0, {cap}] "
                         "required by the combined route")
    mu = epsilon / (120.0 * R**2)
    K = 1.0 / alpha
    # min() absorbs float roundoff when alpha sits exactly at the cap
    alpha_hat = min(2.0 * alpha + 1.0 / K, 1.0 / 3.0)
    threshold = ((1.0 + 2.0 * alpha) * K + 1.0) * alpha * mu * R
    budget = int(math.ceil(72000.0 * (scale / epsilon) ** (1.0 - tau)
                           * math.log(480.0 * scale / epsilon)))
    return mu, K, alpha_hat, threshold, budget


def combined_reg_stop(base: ObjectiveProblem, oracle: GradientOracle,
                      epsilon: float, tau: float, R: float,
                      x0=None) -> RunTrace:
    """Regularize, then run the accelerated solver under the stopping rule.

    The ridge turns the relative-only base noise into a composite level
    (2*alpha, alpha*mu*R); the rule reads that absolute part as relative
    with multiplier K = 1/alpha, so the solver runs at level
    2*alpha + 1/K and stops once the noisy gradient norm falls to
    ((1+2*alpha)K + 1)*alpha*mu*R, or earlier if the measured base gap
    reaches epsilon.
    """
    _check_convex_inputs("combined_reg_stop", base, oracle, epsilon, R)
    alpha = oracle.declared_alpha
    mu, K, alpha_hat, threshold, budget = plan_combined(
        base.L, R, alpha, epsilon, tau)
    return _ridge_route("re_agm", base, oracle, R, x0, mu, alpha_hat, budget,
                        epsilon, threshold)


@dataclass(frozen=True)
class StageReport:
    """One restart stage: its target, budget, and measured outcome."""

    index: int
    target: float
    budget: int
    iterations: int
    achieved_gap: float


@dataclass
class RestartResult:
    """Outcome of a restart schedule.

    trace concatenates the stage traces (duplicate boundary rows
    collapsed; a stage halted at an extrapolation point keeps that point
    only in the y arrays).  floor_reached marks an early exit because
    the next stage target fell below the solver's noise floor.
    """

    trace: RunTrace
    stages: List[StageReport]
    floor_reached: bool

    @property
    def final_f_gap(self) -> float:
        return self.trace.final_f_gap


def plan_restart_stages(gap0: float, epsilon: float) -> int:
    """Number of gap-halving stages from gap0 down to epsilon."""
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"target accuracy must be positive, got {epsilon}")
    if not math.isfinite(gap0) or gap0 <= epsilon:
        return 0
    return int(math.ceil(math.log2(gap0 / epsilon)))


def _invert_envelope(env, target: float) -> int:
    """Smallest N with env.curve(N) <= target; env must decay to below it."""
    head = target - env.floor
    if head <= 0.0:
        raise ValueError("target is at or below the envelope floor")
    if env.start <= head:
        return 0
    return int(math.ceil(math.log(head / env.start) / math.log1p(-env.rate)))


def _concat_traces(traces: List[RunTrace]) -> RunTrace:
    if len(traces) == 1:
        return traces[0]

    def cat(name):
        head = getattr(traces[0], name)
        return np.concatenate([head] + [getattr(t, name)[1:] for t in traces[1:]])

    def cat_y(name):
        parts = [getattr(t, name) for t in traces]
        if any(p is None for p in parts):
            return None
        return np.concatenate(parts)

    f_gap = cat("f_gap")
    last = traces[-1]
    return RunTrace(
        k=np.arange(len(f_gap)),
        f_gap=f_gap,
        grad_norm=cat("grad_norm"),
        noisy_grad_norm=cat("noisy_grad_norm"),
        terminal=last.terminal,
        x_final=last.x_final,
        final_f_gap=last.final_f_gap,
        declared_alpha=last.declared_alpha,
        declared_delta=last.declared_delta,
        y_f_gap=cat_y("y_f_gap"),
        y_grad_norm=cat_y("y_grad_norm"),
        y_noisy_grad_norm=cat_y("y_noisy_grad_norm"),
    )


def restart_to_convex(solver: str, problem: ObjectiveProblem,
                      oracle: GradientOracle, epsilon: float,
                      x0=None) -> RestartResult:
    """Drive the gap below epsilon by geometric halving stages.

    Each stage budgets the inner solver by inverting its envelope at the
    current gap bound, runs until the measured gap reaches half of it,
    and seeds the next stage with the terminal point.  Chaining the
    linear-rate stages this way is what converts a strongly convex rate
    into a convex-case complexity, hence the name.  Stages stop early
    (floor_reached) once the next target dips under the noise floor.
    """
    if solver not in ("gd", "re_agm"):
        raise ValueError(f"unknown solver {solver!r}; expected 'gd' or 're_agm'")
    if not problem.mu > 0.0:
        raise ValueError("restart stages need a strongly convex problem")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"target accuracy must be positive, got {epsilon}")

    alpha = oracle.declared_alpha
    delta = oracle.declared_delta
    theorem = "GD_PL" if solver == "gd" else "REAGM"
    x = np.zeros(problem.dim) if x0 is None else as_vector(x0, problem.dim)
    gap_bound = problem.gap(x)
    n_stages = plan_restart_stages(gap_bound, epsilon)

    traces: List[RunTrace] = []
    reports: List[StageReport] = []
    floor_reached = False
    for stage in range(n_stages):
        target = gap_bound / 2.0
        radius = math.sqrt(2.0 * gap_bound / problem.mu)
        env = envelope(theorem, EnvelopeConstants(
            mu=problem.mu, L=problem.L, alpha=alpha, delta=delta,
            f0_gap=gap_bound, R=radius))
        if target <= env.floor:
            floor_reached = True
            break
        budget = _invert_envelope(env, target)
        trace = _run_solver(solver, problem, oracle, budget, alpha, x,
                            _halt_rule(gap_target=target))
        if trace.final_f_gap > target:
            raise StageFailureError(
                f"stage {stage} missed target {target:.3e}: gap "
                f"{trace.final_f_gap:.3e} after its budget of {budget} steps "
                "(envelope inversion can under-budget when delta > 0)",
                stage, target, trace.final_f_gap, trace)
        traces.append(trace)
        reports.append(StageReport(stage, target, budget, trace.iterations,
                                   trace.final_f_gap))
        x = trace.x_final
        gap_bound = target

    if not traces:
        # no stage ran: report the start point as a zero-step trace
        return RestartResult(_run_solver("gd", problem, oracle, 0, alpha, x, None),
                             reports, floor_reached)
    return RestartResult(_concat_traces(traces), reports, floor_reached)
