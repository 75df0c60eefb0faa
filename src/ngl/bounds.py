"""Convergence envelopes and iteration budgets for the noisy-gradient methods.

Each guarantee is turned into an explicit curve N -> upper bound on the
optimality gap (squared gradient norm for the min-gradient variant),
split into a geometrically decaying term and a noise floor.  Everything
here is pure arithmetic on declared constants; nothing runs a solver.

Curve evaluation uses exp(N * log1p(-rate)) so that rates far below
float epsilon still decay correctly at large N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .solvers import re_agm_calculate_parameters

__all__ = [
    "THEOREM_IDS",
    "EnvelopeConstants",
    "start_constants",
    "Envelope",
    "EnvelopeDomainError",
    "envelope",
    "iteration_budget",
    "ridge_level",
    "stop_multiplier",
    "stopping_level",
]

class EnvelopeDomainError(ValueError):
    """The constants violate a hypothesis of the requested guarantee."""


@dataclass(frozen=True)
class EnvelopeConstants:
    """Constants an envelope is evaluated at.

    mu and L are the strong-convexity and smoothness moduli, alpha and
    delta the relative and absolute noise levels, f0_gap the starting
    optimality gap, R the starting distance to a minimizer.

    L0 is the initial smoothness guess (ADAPT_BOTH only; defaults to L).
    K is the gradient-norm stopping multiplier (STOP_GENERIC and
    REAGM_STOP only).

    For GD_REG and REAGM_REG, mu is the *added* ridge modulus while L
    stays the smoothness of the unregularized objective; the curve they
    produce bounds the gap of the unregularized objective.
    """

    mu: float
    L: float
    alpha: float
    delta: float
    f0_gap: float
    R: float
    L0: Optional[float] = None
    K: Optional[float] = None


def start_constants(problem, alpha: float, delta: float, **extra) -> EnvelopeConstants:
    """Constants of a run of ``problem`` from the origin: f0_gap = gap(0) and
    R = ||x_star||; ``extra`` passes L0 or K through."""
    return EnvelopeConstants(mu=problem.mu, L=problem.L, alpha=alpha, delta=delta,
                             f0_gap=problem.gap(np.zeros(problem.dim)),
                             R=float(np.linalg.norm(problem.x_star)), **extra)


@dataclass(frozen=True)
class Envelope:
    """Explicit bound curve with its noise floor exposed.

    rate is the per-step contraction of the decaying term and start its
    coefficient, so curve(N) = start*(1-rate)^N + floor for the
    geometric envelopes.  Both are None for curves of another shape
    (GD_MINGRAD decays hyperbolically, STOP_GENERIC is constant).
    """

    theorem_id: str
    constants: EnvelopeConstants
    floor: float
    rate: Optional[float]
    start: Optional[float]
    _eval: Callable = field(repr=False, compare=False)

    def curve(self, N):
        """Bound after N steps; N may be a scalar or an integer array."""
        n = np.asarray(N, dtype=np.float64)
        if n.size and (np.any(n < 0.0) or np.any(n != np.floor(n))):
            raise ValueError("iteration count must be a nonnegative integer")
        out = self._eval(n)
        if np.ndim(N) == 0:
            return float(out)
        return out

    __call__ = curve

    def excess(self, k, f_gap):
        """Signed overshoot of f_gap over the bound at step k, after slack.

        The slack is 1e-9 * max(1, curve(0)); a row violates the bound
        exactly when its excess is positive.  k and f_gap may be arrays.
        """
        return f_gap - (self.curve(k) + 1e-9 * max(1.0, self.curve(0)))


def _fail(theorem_id: str, message: str) -> None:
    raise EnvelopeDomainError(f"{theorem_id}: {message}")


def _check_common(tid: str, c: EnvelopeConstants) -> None:
    for name in ("mu", "L", "alpha", "delta", "f0_gap", "R"):
        v = getattr(c, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            _fail(tid, f"{name} must be a finite number, got {v!r}")
    if c.L <= 0.0:
        _fail(tid, f"smoothness constant L must be positive, got {c.L}")
    if c.alpha < 0.0:
        _fail(tid, f"relative noise level alpha must be >= 0, got {c.alpha}")
    if c.delta < 0.0:
        _fail(tid, f"absolute noise level delta must be >= 0, got {c.delta}")
    if c.f0_gap < 0.0:
        _fail(tid, f"starting gap f0_gap must be >= 0, got {c.f0_gap}")
    if c.R < 0.0:
        _fail(tid, f"starting radius R must be >= 0, got {c.R}")


class _Theorem(NamedTuple):
    """A guarantee's hypotheses on (mu, L, alpha, K) and the builder of its curve."""

    strongly_convex: bool  # 0 < mu <= L
    alpha_cap: float
    cap_label: str
    cap_inclusive: bool  # alpha may equal the cap
    needs_K: bool
    build: Callable


def _check_domain(tid: str, c: EnvelopeConstants) -> None:
    t = _THEOREMS[tid]
    if t.strongly_convex:
        if not c.mu > 0.0:
            _fail(tid, f"strong convexity modulus mu must be positive, got {c.mu}")
        if c.mu > c.L:
            _fail(tid, f"mu must not exceed L, got mu={c.mu} > L={c.L}")
    if not (c.alpha <= t.alpha_cap if t.cap_inclusive else c.alpha < t.alpha_cap):
        op = "<=" if t.cap_inclusive else "<"
        _fail(tid, f"relative noise level alpha must be {op} {t.cap_label}, got {c.alpha}")
    if t.needs_K and c.K is None:
        _fail(tid, "a stopping multiplier K is required")


def _build(tid: str, c: EnvelopeConstants) -> Envelope:
    """The guarantee's curve once its hypotheses hold."""
    _check_domain(tid, c)
    return _THEOREMS[tid].build(tid, c)


def _geometric(tid: str, c: EnvelopeConstants, floor: float, rate: float,
               start: float) -> Envelope:
    decay = math.log1p(-rate)

    def _eval(n):
        return start * np.exp(n * decay) + floor

    return Envelope(tid, c, floor, rate, start, _eval)


def _build_gd_pl(tid: str, c: EnvelopeConstants) -> Envelope:
    a = c.alpha
    rate = (1.0 - a) ** 3 / (1.0 + a) * c.mu / (8.0 * c.L)
    floor = 1.5 * (1.0 + a) / (1.0 - a) ** 3 * c.delta**2 / c.mu
    return _geometric(tid, c, floor, rate, c.f0_gap)


def _build_gd_mingrad(tid: str, c: EnvelopeConstants) -> Envelope:
    a = c.alpha
    coef = (1.0 + a) / (1.0 - a) ** 3 * 16.0 * c.L * c.f0_gap
    floor = 3.0 / ((1.0 - a) ** 3 * (1.0 + a)) * c.delta**2

    def _eval(n):
        return coef / (n + 1.0) + floor

    return Envelope(tid, c, floor, None, None, _eval)


def _gamma_star(tid: str, mu: float, L: float, alpha: float) -> float:
    """The accelerated method's gamma*; a parameter guard is a domain error."""
    try:
        return re_agm_calculate_parameters(mu, L, alpha).gamma_star
    except ValueError as exc:  # e.g. q = mu/(2*L_hat) leaving floating range
        raise EnvelopeDomainError(f"{tid}: {exc}") from exc


def _build_reagm(tid: str, c: EnvelopeConstants) -> Envelope:
    g = _gamma_star(tid, c.mu, c.L, c.alpha)
    rate = (c.mu / c.L) ** (1.0 - g) / 300.0
    start = c.f0_gap + c.mu * c.R**2 / 4.0
    floor = (2.0 * (c.L / c.mu) ** g + 5.0) * c.delta**2 / c.mu
    return _geometric(tid, c, floor, rate, start)


def _build_ridge(tid: str, c: EnvelopeConstants) -> Envelope:
    """GD_REG and REAGM_REG: the base guarantee (GD_PL or REAGM) on the ridge
    problem, plus the ridge's own offset at the base minimizer."""
    if not c.mu > 0.0:
        _fail(tid, f"ridge modulus mu must be positive, got {c.mu}")
    if c.delta != 0.0:
        _fail(tid, "the regularization route assumes a purely relative noise "
                    f"model (delta = 0), got delta={c.delta}")
    if not c.R > 0.0:
        _fail(tid, f"a positive starting radius R is required, got {c.R}")
    alpha, delta = ridge_level(c.alpha, c.delta, c.mu, c.R)
    ridge = replace(c, L=c.L + c.mu, alpha=alpha, delta=delta)
    base = _build("GD_PL" if tid == "GD_REG" else "REAGM", ridge)
    return _geometric(tid, c, base.floor + 0.5 * c.mu * c.R**2, base.rate, base.start)


def _build_adapt_both(tid: str, c: EnvelopeConstants) -> Envelope:
    L0 = c.L if c.L0 is None else float(c.L0)
    if not (L0 > 0.0 and math.isfinite(L0)):
        _fail(tid, f"initial smoothness guess L0 must be positive, got {L0}")
    a = c.alpha
    rate = ((1.0 - a) ** 2 / 256.0
            * min((1.0 - a) ** 2, (L0 / c.L) ** 2) * c.mu / L0)
    if not rate < 1.0:
        _fail(tid, f"degenerate constants, contraction rate {rate} >= 1")
    floor = (200.0 / (1.0 - a) ** 2
             * max((1.0 - a) ** -2, (c.L / L0) ** 2) * c.delta**2 / c.mu)
    return _geometric(tid, c, floor, rate, c.f0_gap)


def _build_adapt_alpha(tid: str, c: EnvelopeConstants) -> Envelope:
    if c.L0 is not None and c.L0 != c.L:
        _fail(tid, "the level-only adaptive guarantee fixes the initial "
                   f"smoothness guess at L, got L0={c.L0}")
    a = c.alpha
    rate = (1.0 - a) ** 3 * c.mu / (128.0 * c.L)
    floor = 100.0 / (1.0 - a) ** 3 * c.delta**2 / c.mu
    return _geometric(tid, c, floor, rate, c.f0_gap)


def _build_stop_generic(tid: str, c: EnvelopeConstants) -> Envelope:
    level = stopping_level(c.mu, c.alpha, c.delta, c.K)

    def _eval(n):
        return np.full_like(n, level, dtype=np.float64)

    return Envelope(tid, c, level, None, None, _eval)


def _stop_beta(tid: str, mu: float, L: float, K: float) -> float:
    # exponent implied by K = 6*(2L/mu)^beta; must land in [0, 1/2]
    if not (K > 0.0 and math.isfinite(K)):
        _fail(tid, f"stopping multiplier K must be positive, got {K}")
    beta = math.log(K / 6.0) / math.log(2.0 * L / mu)
    if beta < 0.0 or beta > 0.5:
        _fail(tid, "stopping multiplier K must lie between 6 and "
                   f"6*sqrt(2L/mu) for this envelope, got K={K}")
    return beta


def _build_reagm_stop(tid: str, c: EnvelopeConstants) -> Envelope:
    K = float(c.K)
    _stop_beta(tid, c.mu, c.L, K)
    level = stopping_level(c.mu, c.alpha, c.delta, K)
    # REAGM at the inflated level alpha + 1/K, down to the stopping level
    base = _build("REAGM", replace(c, alpha=c.alpha + 1.0 / K))
    return _geometric(tid, c, level, base.rate, base.start)


# One row per guarantee.  For the ridge routes mu is the added ridge, whose
# own checks live in _build_ridge; STOP_GENERIC's mu > 0 is stopping_level's.
_THEOREMS = {
    "GD_PL": _Theorem(True, 1.0, "1", False, False, _build_gd_pl),
    "GD_MINGRAD": _Theorem(False, 1.0, "1", False, False, _build_gd_mingrad),
    "REAGM": _Theorem(True, 1.0 / 3.0, "1/3", True, False, _build_reagm),
    "GD_REG": _Theorem(False, 0.5, "1/2", False, False, _build_ridge),
    "REAGM_REG": _Theorem(False, 1.0 / 6.0, "1/6", True, False, _build_ridge),
    "ADAPT_BOTH": _Theorem(True, 1.0, "1", False, False, _build_adapt_both),
    "ADAPT_ALPHA": _Theorem(True, 1.0, "1", False, False, _build_adapt_alpha),
    "STOP_GENERIC": _Theorem(False, 1.0, "1", False, True, _build_stop_generic),
    "REAGM_STOP": _Theorem(True, 1.0 / 6.0, "1/6", True, True, _build_reagm_stop),
}
THEOREM_IDS = tuple(_THEOREMS)


def envelope(theorem_id: str, constants: EnvelopeConstants) -> Envelope:
    """Build the bound curve for one guarantee at the given constants.

    Raises EnvelopeDomainError naming the violated hypothesis when the
    constants fall outside the guarantee's domain.
    """
    if theorem_id not in _THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"expected one of {THEOREM_IDS}")
    _check_common(theorem_id, constants)
    return _build(theorem_id, constants)


def ridge_level(alpha: float, delta: float, mu: float, R: float) -> tuple[float, float]:
    """The level (2*alpha, alpha*mu*R + delta) that a base estimate at level
    (alpha, delta) plus a ridge of modulus mu meets against the ridge gradient;
    R bounds the distance from the ridge's center to the base minimizer."""
    return 2.0 * alpha, alpha * mu * R + delta


def stop_multiplier(alpha: float, K: float) -> float:
    """(1+alpha)K + 1: the stopping rule fires once the noisy gradient norm is
    at most this many times delta.  Requires alpha in [0, 1) and K > 1/(1-alpha)."""
    if not 0.0 <= alpha < 1.0:
        raise EnvelopeDomainError(
            f"relative noise level alpha must be in [0, 1), got {alpha}")
    if not (math.isfinite(K) and K > 1.0 / (1.0 - alpha)):
        raise EnvelopeDomainError(
            f"stopping multiplier K must exceed 1/(1-alpha), got K={K}")
    return (1.0 + alpha) * K + 1.0


def stopping_level(mu: float, alpha: float, delta: float, K: float) -> float:
    """Guaranteed gap when stopping on noisy-gradient norm <= ((1+alpha)K+1)*delta.

    Requires K > 1/(1-alpha); returns 0 for delta = 0.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise EnvelopeDomainError(
            f"stopping level needs a positive strong convexity modulus, got {mu}")
    k_eff = stop_multiplier(alpha, K)
    if delta < 0.0:
        raise EnvelopeDomainError(
            f"absolute noise level delta must be >= 0, got {delta}")
    return (k_eff**2 + 1.0) * delta**2 / ((1.0 - alpha) ** 2 * mu)


def _whole_steps(tid: str, raw: float, scale: float) -> int:
    """ceil(raw), once the budget raw is finite; scale is L*R^2."""
    if not math.isfinite(raw):
        _fail(tid, f"the iteration budget leaves floating range at L*R^2 = {scale}")
    return int(math.ceil(raw))


def _budget_gd_reg(c: EnvelopeConstants, epsilon: float) -> int:
    a = c.alpha
    scale = c.L * c.R**2
    raw = (12.0 * (1.0 + a) ** 2 / (1.0 - a) ** 6
           * (scale / epsilon) * math.log(2.0 * scale / epsilon))
    return _whole_steps("GD_REG", raw, scale) + 1


def _budget_reagm_reg(c: EnvelopeConstants, epsilon: float, beta: float) -> int:
    tid = "REAGM_REG"
    if beta is None:
        _fail(tid, "an exponent beta in [0, 1/2] is required")
    if not 0.0 <= beta <= 0.5:
        _fail(tid, f"exponent beta must lie in [0, 1/2], got {beta}")
    scale = c.L * c.R**2
    cap = (epsilon / (12.0 * scale)) ** beta / 3.0
    if c.alpha > cap:
        _fail(tid, f"relative noise level {c.alpha} exceeds the admissible "
                   f"cap {cap} for this accuracy and exponent")
    raw = (150.0 * (12.0 * scale / epsilon) ** (1.0 - beta)
           * math.log(4.0 * scale / epsilon))
    return _whole_steps(tid, raw, scale) + 1


def _budget_reagm_stop(c: EnvelopeConstants) -> int:
    tid = "REAGM_STOP"
    if not c.delta > 0.0:
        _fail(tid, "a positive absolute noise level is required; with delta = 0 "
                   "the rule never triggers and no budget exists")
    K = float(c.K)
    beta = _stop_beta(tid, c.mu, c.L, K)
    gamma0 = _gamma_star(tid, c.mu, c.L, 2.0 * c.alpha)
    k_eff = stop_multiplier(c.alpha, K)
    arg = ((1.0 - c.alpha) ** 2 / (k_eff**2 + 1.0)
           * c.L * c.R**2 * c.mu / c.delta**2)
    if not arg > 1.0:
        _fail(tid, "the stopping level is not below the initial scale L*R^2; "
                   "nothing to budget")
    raw = 300.0 * (c.L / c.mu) ** (1.0 - min(gamma0, beta)) * math.log(arg)
    return _whole_steps(tid, raw, c.L * c.R**2)


def iteration_budget(theorem_id: str, constants: EnvelopeConstants,
                     epsilon: Optional[float] = None,
                     beta: Optional[float] = None) -> int:
    """Worst-case iteration count promised by one of the meta-theorems.

    GD_REG and REAGM_REG budget the regularization route to target
    accuracy epsilon (REAGM_REG also needs the exponent beta);
    REAGM_STOP budgets the gradient-norm stopping rule, whose target is
    set by the noise level rather than epsilon (epsilon is ignored).
    """
    _check_common(theorem_id, constants)
    if theorem_id not in ("GD_REG", "REAGM_REG", "REAGM_STOP"):
        raise ValueError(f"no iteration budget is defined for {theorem_id!r}")
    if theorem_id != "REAGM_REG":
        # REAGM_REG's budget caps alpha by the accuracy, not by its envelope's 1/6
        _check_domain(theorem_id, constants)
    if theorem_id == "REAGM_STOP":
        return _budget_reagm_stop(constants)
    if epsilon is None or not (math.isfinite(epsilon) and epsilon > 0.0):
        _fail(theorem_id, f"a positive target accuracy is required, got {epsilon}")
    scale = constants.L * constants.R**2
    if not epsilon < scale:
        _fail(theorem_id, f"target accuracy must be below L*R^2 = {scale}, "
                          f"got {epsilon}")
    if theorem_id == "GD_REG":
        return _budget_gd_reg(constants, epsilon)
    return _budget_reagm_reg(constants, epsilon, beta)
