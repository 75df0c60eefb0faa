"""Outer-loop strategies on top of the core solvers.

Three reductions, each ending in a strongly convex run: ridge
regularization makes a convex problem strongly convex and transfers the
guarantee back within a controlled offset; the gradient-norm stopping
rule treats absolute noise as relative noise for as long as the
estimate stays informative, stopping once it no longer is; restarts
chain strongly convex stages that halve the gap geometrically.  The
ridge's level and the rule's multiplier come from ``bounds.ridge_level``
and ``bounds.stop_multiplier``.

Every route stops through the solver config's declared stop, which the
stepping core checks itself: the stopping rule's threshold, the ridge
routes' target on the base gap (and the combined route's threshold),
and each restart stage's half-gap target.  A gap target is checked
before the point is queried, so a route that halts on its gap ends at
an unqueried point (a NaN noisy norm) and spends no query on it.

All radii R are user inputs bounding ||start - minimizer||: the
guarantees assume R is known, so the drivers require it rather than
peeking at the problem's analytic minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .bounds import (EnvelopeConstants, EnvelopeDomainError, _whole_steps, envelope,
                     iteration_budget, ridge_level, stop_multiplier)
from .numkit import as_vector, row_dots
from .oracles import GradientOracle
from .problems import ObjectiveProblem
from .solvers import (
    _X_COLUMNS,
    _Y_COLUMNS,
    GDConfig,
    ReAgmConfig,
    RunTrace,
    _TraceError,
    gd_run,
    re_agm_run,
)

__all__ = [
    "RegularizedProblem",
    "RegularizedOracle",
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
]


class ConvergenceFailureError(_TraceError):
    """A driver exhausted its budget without certifying its target; carries its trace."""


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
    base.L + mu_reg.  It is the ridge oracle's gradient model, not a
    runner's problem: a ridge route runs on the base problem, so the
    ridge minimizer is never computed and x_star, f_star and gap() are
    undefined.
    """

    def __init__(self, base: ObjectiveProblem, center, mu_reg: float):
        if not (mu_reg > 0.0 and math.isfinite(mu_reg)):
            raise ValueError(f"ridge modulus must be positive, got {mu_reg}")
        super().__init__(f"{base.name}+ridge", base.dim,
                         base.mu + mu_reg, base.L + mu_reg)
        self.base = base
        self.center = as_vector(center, base.dim).copy()
        self.mu_reg = float(mu_reg)
        self._mu_reg_0d = np.array(self.mu_reg)  # a 0-d factor: see oracles._ZERO

    def _value(self, x: np.ndarray) -> float:
        d = x - self.center
        return self.base._value(x) + 0.5 * self.mu_reg * float(d @ d)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        return self.base._gradient(x) + self._mu_reg_0d * d

    def _values(self, X: np.ndarray) -> np.ndarray:
        D = X - self.center
        return self.base._values(X) + 0.5 * self.mu_reg * row_dots(D, D)

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        return self.base._gradients(X) + self.mu_reg * (X - self.center)


class RegularizedOracle(GradientOracle):
    """Noisy oracle for the ridge of modulus mu_reg around center on the base
    oracle's problem, reusing the base oracle's noise.

    Each estimate is base_estimate(x) + mu_reg*(x - center), and its
    problem is the ``RegularizedProblem`` it estimates the gradient of;
    the ridge's exact gradient adds the same term to the base query's
    exact gradient, so a query evaluates the base gradient once.
    The declared level is ``ridge_level`` of the base oracle's (alpha,
    delta), where R bounds ||center - base minimizer||.  Every query is
    certified, because the doubled level is a derived claim.
    """

    def __init__(self, base_oracle: GradientOracle, center, mu_reg: float, R: float):
        problem = RegularizedProblem(base_oracle.problem, center, mu_reg)
        if not (R > 0.0 and math.isfinite(R)):
            raise ValueError(f"radius R must be positive, got {R}")
        a = base_oracle.declared_alpha
        alpha, delta = ridge_level(a, base_oracle.declared_delta, problem.mu_reg, R)
        if alpha >= 1.0:
            raise ValueError(
                f"base relative level {a} is too large; the ridge oracle can "
                "only be certified for alpha < 1/2")
        super().__init__(problem, alpha, delta, certify=True)
        self.base_oracle = base_oracle
        self.R = float(R)

    def _evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x is validated by this query; the base query still counts and
        # certifies, and its exact gradient is the base half of the ridge's
        est, exact = self.base_oracle._query(x)
        ridge = self.problem._mu_reg_0d * (x - self.problem.center)
        return est + ridge, exact + ridge


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
        return stop_multiplier(alpha, self.K) * self.delta


def run_with_stopping(solver: str, problem: ObjectiveProblem,
                      oracle: GradientOracle, rule: StoppingRule,
                      alpha_hat: float, N_cap: int, x0=None) -> RunTrace:
    """Run gd or re_agm with the gradient-norm stopping rule attached.

    alpha_hat is the inflated relative level (base alpha + 1/K) handed
    to the solver's parameter calculation.  Exits with terminal
    "stopping_rule" on a trigger, "steps_exhausted" at N_cap (the normal
    outcome when rule.delta = 0 and the threshold is never reachable).

    The threshold is the config's declared stop, read right after each
    query: the x rows of gd, the y points of re_agm, which then ends at
    that y.  ``stopping_level(mu, alpha, rule.delta, rule.K)`` bounds the
    gap at any point whose noisy norm meets the threshold, so it holds
    wherever the rule fires.

    A threshold reads only the noisy norm, so f(x) waits for the core's
    block of ``numkit.block_rows(dim)`` rows: an objective that overflows
    while the iterate stays finite is found when its block is evaluated,
    after up to a block more queries than with a gap target (which reads
    f(x) at the point), and ``oracle.queries`` counts them.
    """
    if not problem.mu > 0.0:
        raise ValueError("the stopping rule needs a strongly convex problem")
    threshold = rule.threshold(oracle.declared_alpha)
    return _run_solver(solver, problem, oracle, N_cap, alpha_hat, x0, threshold=threshold)


def _run_solver(solver: str, problem: ObjectiveProblem, oracle: GradientOracle,
                steps: int, alpha: float, x0, gap_target: Optional[float] = None,
                threshold: Optional[float] = None) -> RunTrace:
    """gd or re_agm on problem at relative level alpha, tuned to the (mu, L)
    of the problem the oracle estimates (a ridge route's ridge problem),
    with the declared stop (gap_target, threshold); None never stops."""
    tuned = oracle.problem
    stop = {"gap_target": gap_target, "threshold": threshold}
    if solver == "gd":
        return gd_run(problem, oracle, GDConfig(steps, alpha, tuned.L, **stop), x0=x0)
    if solver == "re_agm":
        return re_agm_run(problem, oracle, ReAgmConfig(steps, tuned.mu, tuned.L, alpha, **stop),
                          x0=x0)
    raise ValueError(f"unknown solver {solver!r}; expected 'gd' or 're_agm'")


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

    Adds a ridge of modulus mu around the start point through the
    certified ridge oracle and runs the solver with it on the base problem at
    level alpha for the budget: it steps on the ridge objective and
    records base gaps (and ridge gradient norms).  Its declared stop
    halts once the base gap reaches epsilon, before that point is
    queried, or once the noisy gradient norm reaches threshold; the
    final base gap is checked against epsilon.
    """
    center = np.zeros(base.dim) if x0 is None else as_vector(x0, base.dim)
    reg_oracle = RegularizedOracle(oracle, center, mu, R)
    trace = _run_solver(solver, base, reg_oracle, budget, alpha, center, epsilon, threshold)
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
    soon as the measured base gap reaches epsilon, at an unqueried
    point), and returns a trace whose gap columns are measured on the
    base objective.
    """
    _check_convex_inputs("solve_convex_gd", base, oracle, epsilon, R)
    alpha = oracle.declared_alpha
    mu, budget = plan_convex_gd(base.L, R, alpha, epsilon)
    return _ridge_route("gd", base, oracle, R, x0, mu,
                        ridge_level(alpha, 0.0, mu, R)[0], budget, epsilon)


def plan_convex_re_agm(L: float, R: float, alpha: float, epsilon: float,
                       beta: float):
    """Ridge modulus, solver level, and budget of the accelerated route."""
    c = EnvelopeConstants(mu=1.0, L=L, alpha=alpha, delta=0.0, f0_gap=0.0, R=R)
    budget = iteration_budget("REAGM_REG", c, epsilon, beta=beta)
    mu = epsilon / (6.0 * R**2)
    # the ridge doubles the level; the solver's parameter domain caps it
    alpha_param = min(ridge_level(alpha, 0.0, mu, R)[0], 1.0 / 3.0)
    return mu, alpha_param, budget


def solve_convex_re_agm(base: ObjectiveProblem, oracle: GradientOracle,
                        epsilon: float, beta: float, R: float,
                        x0=None) -> RunTrace:
    """Reach base-gap <= epsilon on a convex problem via the accelerated route.

    beta in [0, 1/2] trades a stronger cap on alpha for a budget that
    scales as (L R^2 / eps)^(1-beta).  At the boundary alpha = 1/3 the
    ridge-doubled level exceeds the accelerated parameter domain; the
    solver then runs at its edge level 1/3, which is the route's own
    prescription.  The run stops, unqueried, at the first x row or y
    point whose base gap reaches epsilon.
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
    ridge_alpha, ridge_delta = ridge_level(alpha, 0.0, mu, R)
    # min() absorbs float roundoff when alpha sits exactly at the cap
    alpha_hat = min(ridge_alpha + 1.0 / K, 1.0 / 3.0)
    threshold = StoppingRule(K, ridge_delta).threshold(ridge_alpha)
    budget = _whole_steps("combined", 72000.0 * (scale / epsilon) ** (1.0 - tau)
                          * math.log(480.0 * scale / epsilon), scale)
    return mu, K, alpha_hat, threshold, budget


def combined_reg_stop(base: ObjectiveProblem, oracle: GradientOracle,
                      epsilon: float, tau: float, R: float,
                      x0=None) -> RunTrace:
    """Regularize, then run the accelerated solver under the stopping rule.

    The ridge turns the relative-only base noise into a composite level
    (2*alpha, alpha*mu*R); the rule reads that absolute part as relative
    with multiplier K = 1/alpha, so the solver runs at level
    2*alpha + 1/K and stops once the noisy gradient norm falls to
    ((1+2*alpha)K + 1)*alpha*mu*R, or earlier, at an unqueried point, if
    the measured base gap reaches epsilon.
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


def _invert_envelope(env, target: float) -> int:
    """Smallest N with env.curve(N) <= target; env must decay to below it."""
    head = target - env.floor
    if head <= 0.0:
        raise ValueError("target is at or below the envelope floor")
    if env.start <= head:
        return 0
    decay = math.log1p(-env.rate)  # 0 when the rate underflows
    steps = math.log(head / env.start) / decay if decay < 0.0 else math.inf
    if not math.isfinite(steps):
        raise EnvelopeDomainError(
            f"{env.theorem_id}: contraction rate {env.rate} at L={env.constants.L} "
            "leaves floating range; no finite stage budget exists")
    return int(math.ceil(steps))


def _concat_traces(traces: List[RunTrace]) -> RunTrace:
    """The stages' rows spliced into the last stage's trace and renumbered;
    a later stage's row 0 repeats the row before it and is dropped."""
    cols = {name: np.concatenate([getattr(traces[0], name)]
                                 + [getattr(t, name)[1:] for t in traces[1:]])
            for name in _X_COLUMNS}
    if traces[-1].y_f_gap is not None:
        cols.update((name, np.concatenate([getattr(t, name) for t in traces]))
                    for name in _Y_COLUMNS)
    return replace(traces[-1], k=np.arange(len(cols["f_gap"])), **cols)


def restart_to_convex(solver: str, problem: ObjectiveProblem,
                      oracle: GradientOracle, epsilon: float,
                      x0=None) -> RestartResult:
    """Drive the gap below epsilon by geometric halving stages.

    Each stage budgets the inner solver by inverting its envelope at the
    current gap bound, runs until the measured gap reaches half of it
    (a declared gap target, so the stage's last point is not queried and
    the stages query once per iteration), and seeds the next stage with
    the terminal point.  Chaining the linear-rate stages this way is what
    converts a strongly convex rate into a convex-case complexity, hence
    the name.  Stages stop early
    (floor_reached) once the next target dips under the noise floor.
    """
    if solver not in ("gd", "re_agm"):
        raise ValueError(f"unknown solver {solver!r}; expected 'gd' or 're_agm'")
    if not problem.mu > 0.0:
        raise ValueError("restart stages need a strongly convex problem")

    alpha = oracle.declared_alpha
    delta = oracle.declared_delta
    theorem = "GD_PL" if solver == "gd" else "REAGM"
    x = np.zeros(problem.dim) if x0 is None else as_vector(x0, problem.dim)
    gap_bound = problem.gap(x)
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"target accuracy must be positive, got {epsilon}")
    # gap-halving stages down to epsilon: none from a start gap that is not
    # finite or already meets it
    n_stages = math.ceil(math.log2(gap_bound / epsilon)) if epsilon < gap_bound < math.inf else 0

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
        trace = _run_solver(solver, problem, oracle, budget, alpha, x, gap_target=target)
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
        return RestartResult(_run_solver("gd", problem, oracle, 0, alpha, x),
                             reports, floor_reached)
    return RestartResult(_concat_traces(traces), reports, floor_reached)
