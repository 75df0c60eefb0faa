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
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    "stopping_level",
]

THEOREM_IDS = (
    "GD_PL",
    "GD_MINGRAD",
    "REAGM",
    "GD_REG",
    "REAGM_REG",
    "ADAPT_BOTH",
    "ADAPT_ALPHA",
    "STOP_GENERIC",
    "REAGM_STOP",
)


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


def _require_strongly_convex(tid: str, mu: float, L: float) -> None:
    if not mu > 0.0:
        _fail(tid, f"strong convexity modulus mu must be positive, got {mu}")
    if mu > L:
        _fail(tid, f"mu must not exceed L, got mu={mu} > L={L}")


def _gamma_star(mu: float, L: float, alpha: float) -> float:
    # also re-validates the parameter bracket for these constants
    return re_agm_calculate_parameters(mu, L, alpha).gamma_star


def _geometric(start: float, rate: float, floor: float) -> Callable:
    decay = math.log1p(-rate)

    def _eval(n):
        return start * np.exp(n * decay) + floor

    return _eval


def _build_gd_pl(c: EnvelopeConstants) -> Envelope:
    tid = "GD_PL"
    _require_strongly_convex(tid, c.mu, c.L)
    if c.alpha >= 1.0:
        _fail(tid, f"relative noise level alpha must be < 1, got {c.alpha}")
    a = c.alpha
    rate = (1.0 - a) ** 3 / (1.0 + a) * c.mu / (8.0 * c.L)
    floor = 1.5 * (1.0 + a) / (1.0 - a) ** 3 * c.delta**2 / c.mu
    return Envelope(tid, c, floor, rate, c.f0_gap, _geometric(c.f0_gap, rate, floor))


def _build_gd_mingrad(c: EnvelopeConstants) -> Envelope:
    tid = "GD_MINGRAD"
    if c.alpha >= 1.0:
        _fail(tid, f"relative noise level alpha must be < 1, got {c.alpha}")
    a = c.alpha
    coef = (1.0 + a) / (1.0 - a) ** 3 * 16.0 * c.L * c.f0_gap
    floor = 3.0 / ((1.0 - a) ** 3 * (1.0 + a)) * c.delta**2

    def _eval(n):
        return coef / (n + 1.0) + floor

    return Envelope(tid, c, floor, None, None, _eval)


def _build_reagm(c: EnvelopeConstants) -> Envelope:
    tid = "REAGM"
    _require_strongly_convex(tid, c.mu, c.L)
    if c.alpha > 1.0 / 3.0:
        _fail(tid, f"the accelerated method requires alpha <= 1/3, got {c.alpha}")
    g = _gamma_star(c.mu, c.L, c.alpha)
    rate = (c.mu / c.L) ** (1.0 - g) / 300.0
    start = c.f0_gap + c.mu * c.R**2 / 4.0
    floor = (2.0 * (c.L / c.mu) ** g + 5.0) * c.delta**2 / c.mu
    return Envelope(tid, c, floor, rate, start, _geometric(start, rate, floor))


def _check_reg_common(tid: str, c: EnvelopeConstants) -> None:
    if not c.mu > 0.0:
        _fail(tid, f"ridge modulus mu must be positive, got {c.mu}")
    if c.delta != 0.0:
        _fail(tid, "the regularization route assumes a purely relative noise "
                    f"model (delta = 0), got delta={c.delta}")
    if not c.R > 0.0:
        _fail(tid, f"a positive starting radius R is required, got {c.R}")


def _build_gd_reg(c: EnvelopeConstants) -> Envelope:
    tid = "GD_REG"
    _check_reg_common(tid, c)
    if c.alpha >= 0.5:
        _fail(tid, "plain-descent regularization requires alpha < 1/2, "
                   f"got {c.alpha}")
    # the ridge doubles the relative level and adds an absolute one
    a2 = 2.0 * c.alpha
    Lr = c.L + c.mu
    d2 = c.alpha * c.mu * c.R
    rate = (1.0 - a2) ** 3 / (1.0 + a2) * c.mu / (8.0 * Lr)
    floor = (1.5 * (1.0 + a2) / (1.0 - a2) ** 3 * d2**2 / c.mu
             + 0.5 * c.mu * c.R**2)
    return Envelope(tid, c, floor, rate, c.f0_gap, _geometric(c.f0_gap, rate, floor))


def _build_reagm_reg(c: EnvelopeConstants) -> Envelope:
    tid = "REAGM_REG"
    _check_reg_common(tid, c)
    if c.alpha > 1.0 / 6.0:
        _fail(tid, "accelerated regularization needs alpha <= 1/6 so the "
                   f"doubled level stays within its domain, got {c.alpha}")
    a2 = 2.0 * c.alpha
    Lr = c.L + c.mu
    d2 = c.alpha * c.mu * c.R
    g = _gamma_star(c.mu, Lr, a2)
    rate = (c.mu / Lr) ** (1.0 - g) / 300.0
    start = c.f0_gap + c.mu * c.R**2 / 4.0
    floor = ((2.0 * (Lr / c.mu) ** g + 5.0) * d2**2 / c.mu
             + 0.5 * c.mu * c.R**2)
    return Envelope(tid, c, floor, rate, start, _geometric(start, rate, floor))


def _build_adapt_both(c: EnvelopeConstants) -> Envelope:
    tid = "ADAPT_BOTH"
    _require_strongly_convex(tid, c.mu, c.L)
    if c.alpha >= 1.0:
        _fail(tid, f"relative noise level alpha must be < 1, got {c.alpha}")
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
    return Envelope(tid, c, floor, rate, c.f0_gap, _geometric(c.f0_gap, rate, floor))


def _build_adapt_alpha(c: EnvelopeConstants) -> Envelope:
    tid = "ADAPT_ALPHA"
    _require_strongly_convex(tid, c.mu, c.L)
    if c.alpha >= 1.0:
        _fail(tid, f"relative noise level alpha must be < 1, got {c.alpha}")
    if c.L0 is not None and c.L0 != c.L:
        _fail(tid, "the level-only adaptive guarantee fixes the initial "
                   f"smoothness guess at L, got L0={c.L0}")
    a = c.alpha
    rate = (1.0 - a) ** 3 * c.mu / (128.0 * c.L)
    floor = 100.0 / (1.0 - a) ** 3 * c.delta**2 / c.mu
    return Envelope(tid, c, floor, rate, c.f0_gap, _geometric(c.f0_gap, rate, floor))


def _build_stop_generic(c: EnvelopeConstants) -> Envelope:
    tid = "STOP_GENERIC"
    if c.K is None:
        _fail(tid, "a stopping multiplier K is required")
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


def _build_reagm_stop(c: EnvelopeConstants) -> Envelope:
    tid = "REAGM_STOP"
    _require_strongly_convex(tid, c.mu, c.L)
    if c.alpha > 1.0 / 6.0:
        _fail(tid, f"the stopping envelope requires alpha <= 1/6, got {c.alpha}")
    if c.K is None:
        _fail(tid, "a stopping multiplier K is required")
    K = float(c.K)
    _stop_beta(tid, c.mu, c.L, K)
    level = stopping_level(c.mu, c.alpha, c.delta, K)
    alpha_hat = c.alpha + 1.0 / K
    g = _gamma_star(c.mu, c.L, alpha_hat)
    rate = (c.mu / c.L) ** (1.0 - g) / 300.0
    start = c.f0_gap + c.mu * c.R**2 / 4.0
    return Envelope(tid, c, level, rate, start, _geometric(start, rate, level))


_BUILDERS = {
    "GD_PL": _build_gd_pl,
    "GD_MINGRAD": _build_gd_mingrad,
    "REAGM": _build_reagm,
    "GD_REG": _build_gd_reg,
    "REAGM_REG": _build_reagm_reg,
    "ADAPT_BOTH": _build_adapt_both,
    "ADAPT_ALPHA": _build_adapt_alpha,
    "STOP_GENERIC": _build_stop_generic,
    "REAGM_STOP": _build_reagm_stop,
}


def envelope(theorem_id: str, constants: EnvelopeConstants) -> Envelope:
    """Build the bound curve for one guarantee at the given constants.

    Raises EnvelopeDomainError naming the violated hypothesis when the
    constants fall outside the guarantee's domain.
    """
    if theorem_id not in _BUILDERS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"expected one of {THEOREM_IDS}")
    _check_common(theorem_id, constants)
    return _BUILDERS[theorem_id](constants)


def stopping_level(mu: float, alpha: float, delta: float, K: float) -> float:
    """Guaranteed gap when stopping on noisy-gradient norm <= ((1+alpha)K+1)*delta.

    Requires K > 1/(1-alpha); returns 0 for delta = 0.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise EnvelopeDomainError(
            f"stopping level needs a positive strong convexity modulus, got {mu}")
    if not 0.0 <= alpha < 1.0:
        raise EnvelopeDomainError(
            f"relative noise level alpha must be in [0, 1), got {alpha}")
    if delta < 0.0:
        raise EnvelopeDomainError(
            f"absolute noise level delta must be >= 0, got {delta}")
    if not (math.isfinite(K) and K > 1.0 / (1.0 - alpha)):
        raise EnvelopeDomainError(
            f"stopping multiplier K must exceed 1/(1-alpha), got K={K}")
    k_eff = (1.0 + alpha) * K + 1.0
    return (k_eff**2 + 1.0) * delta**2 / ((1.0 - alpha) ** 2 * mu)


def _budget_gd_reg(c: EnvelopeConstants, epsilon: float) -> int:
    tid = "GD_REG"
    if c.alpha >= 0.5:
        _fail(tid, f"plain-descent regularization requires alpha < 1/2, got {c.alpha}")
    a = c.alpha
    scale = c.L * c.R**2
    raw = (12.0 * (1.0 + a) ** 2 / (1.0 - a) ** 6
           * (scale / epsilon) * math.log(2.0 * scale / epsilon))
    return int(math.ceil(raw)) + 1


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
    return int(math.ceil(raw)) + 1


def _budget_reagm_stop(c: EnvelopeConstants) -> int:
    tid = "REAGM_STOP"
    _require_strongly_convex(tid, c.mu, c.L)
    if c.alpha > 1.0 / 6.0:
        _fail(tid, f"the stopping budget requires alpha <= 1/6, got {c.alpha}")
    if c.K is None:
        _fail(tid, "a stopping multiplier K is required")
    if not c.delta > 0.0:
        _fail(tid, "a positive absolute noise level is required; with delta = 0 "
                   "the rule never triggers and no budget exists")
    K = float(c.K)
    beta = _stop_beta(tid, c.mu, c.L, K)
    if c.alpha == 0.0:
        gamma0 = 0.5
    else:
        gamma0 = min(0.5, math.log(6.0 * c.alpha) / math.log(c.mu / (2.0 * c.L)))
        if gamma0 < 0.0:
            _fail(tid, f"alpha={c.alpha} is too large for these moduli")
    k_eff = (1.0 + c.alpha) * K + 1.0
    arg = ((1.0 - c.alpha) ** 2 / (k_eff**2 + 1.0)
           * c.L * c.R**2 * c.mu / c.delta**2)
    if not arg > 1.0:
        _fail(tid, "the stopping level is not below the initial scale L*R^2; "
                   "nothing to budget")
    raw = 300.0 * (c.L / c.mu) ** (1.0 - min(gamma0, beta)) * math.log(arg)
    return int(math.ceil(raw))


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
    if theorem_id == "REAGM_STOP":
        return _budget_reagm_stop(constants)
    if theorem_id not in ("GD_REG", "REAGM_REG"):
        raise ValueError(f"no iteration budget is defined for {theorem_id!r}")
    if epsilon is None or not (math.isfinite(epsilon) and epsilon > 0.0):
        _fail(theorem_id, f"a positive target accuracy is required, got {epsilon}")
    scale = constants.L * constants.R**2
    if not epsilon < scale:
        _fail(theorem_id, f"target accuracy must be below L*R^2 = {scale}, "
                          f"got {epsilon}")
    if theorem_id == "GD_REG":
        return _budget_gd_reg(constants, epsilon)
    return _budget_reagm_reg(constants, epsilon, beta)
