"""Closed forms the benchmark checks ngl's outputs against.

Everything here is written from the formulas alone, with numpy and the
math module; nothing imports ngl.  Each ``check_*`` function returns
``None`` when the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Relative slack for comparing a program-computed gap with a bound; the
# acceptance gates use the same 1e-9 * max(1, bound at row 0).
ENVELOPE_SLACK = 1e-9

TRACE_HEADER = "k,f_gap,grad_norm,noisy_grad_norm,bound,inner_loops"


# --- problems -------------------------------------------------------------

def strongly_convex_chain(mu: float, L: float, n: int):
    """Dense Hessian and minimizer of nesterov_strongly_convex(mu, L, n).

    f(x) = 1/2 x'Hx - c x_1 with H = c B + mu I, c = mu (L/mu - 1) / 4 and
    B = tridiag(-1, 2, -1) except B_nn = 1; so x* solves H x = c e_1.
    """
    c = mu * (L / mu - 1.0) / 4.0
    B = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    B[n - 1, n - 1] = 1.0
    H = c * B + mu * np.eye(n)
    rhs = np.zeros(n)
    rhs[0] = c
    return H, np.linalg.solve(H, rhs)


def convex_chain(k: int, L: float, n: int):
    """Dense Hessian and minimizer of nesterov_convex(k, L, n).

    H is (L/4) tridiag(-1, 2, -1) on the first k coordinates and zero
    elsewhere; x*_j = 1 - j/(k+1) for j <= k and zero after.
    """
    H = np.zeros((n, n))
    H[:k, :k] = L / 4.0 * (2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1))
    x_star = np.zeros(n)
    x_star[:k] = 1.0 - np.arange(1, k + 1) / (k + 1.0)
    return H, x_star


def gap(H, x_star, x) -> float:
    """Exact optimality gap 1/2 (x - x*)' H (x - x*) of a quadratic."""
    d = np.asarray(x, dtype=np.float64) - x_star
    return 0.5 * float(d @ (H @ d))


# --- envelopes and budgets ------------------------------------------------

def gamma_star(mu: float, L: float, alpha: float) -> float:
    """Accelerated exponent log(3 alpha) / log(mu / 2L), capped at 1/2."""
    if alpha == 0.0:
        return 0.5
    return min(math.log(3.0 * alpha) / math.log(mu / (2.0 * L)), 0.5)


def gd_pl(mu, L, alpha, delta, f0):
    """(start, rate, floor) of the plain-descent envelope GD_PL."""
    rate = (1.0 - alpha) ** 3 / (1.0 + alpha) * mu / (8.0 * L)
    floor = 1.5 * (1.0 + alpha) / (1.0 - alpha) ** 3 * delta**2 / mu
    return f0, rate, floor


def reagm(mu, L, alpha, delta, f0, R):
    """(start, rate, floor) of the accelerated envelope REAGM."""
    g = gamma_star(mu, L, alpha)
    rate = (mu / L) ** (1.0 - g) / 300.0
    floor = (2.0 * (L / mu) ** g + 5.0) * delta**2 / mu
    return f0 + mu * R**2 / 4.0, rate, floor


def curve(env, k) -> np.ndarray:
    start, rate, floor = env
    return start * (1.0 - rate) ** np.asarray(k, dtype=np.float64) + floor


def stopping_level(mu, alpha, delta, K) -> float:
    """Gap at a gradient-norm stop: (((1+a)K+1)^2 + 1) delta^2 / ((1-a)^2 mu)."""
    k_eff = (1.0 + alpha) * K + 1.0
    return (k_eff**2 + 1.0) * delta**2 / ((1.0 - alpha) ** 2 * mu)


def reagm_stop_budget(mu, L, alpha, delta, K, R) -> int:
    """Iteration budget of the accelerated solver under the stopping rule."""
    beta = math.log(K / 6.0) / math.log(2.0 * L / mu)
    gamma0 = 0.5 if alpha == 0.0 else min(
        0.5, math.log(6.0 * alpha) / math.log(mu / (2.0 * L)))
    k_eff = (1.0 + alpha) * K + 1.0
    arg = (1.0 - alpha) ** 2 / (k_eff**2 + 1.0) * L * R**2 * mu / delta**2
    return math.ceil(300.0 * (L / mu) ** (1.0 - min(gamma0, beta)) * math.log(arg))


def gd_reg_budget(L, R, alpha, epsilon) -> int:
    """Iteration budget of the plain-descent ridge route."""
    s = L * R**2
    return math.ceil(12.0 * (1.0 + alpha) ** 2 / (1.0 - alpha) ** 6
                     * (s / epsilon) * math.log(2.0 * s / epsilon)) + 1


def reagm_reg_budget(L, R, epsilon, beta) -> int:
    """Iteration budget of the accelerated ridge route."""
    s = L * R**2
    return math.ceil(150.0 * (12.0 * s / epsilon) ** (1.0 - beta)
                     * math.log(4.0 * s / epsilon)) + 1


# --- checks ---------------------------------------------------------------

def check_under(f_gap, k, env, what: str):
    """Every row's gap lies under the envelope, with the gates' slack."""
    bound = curve(env, k)
    tol = ENVELOPE_SLACK * max(1.0, float(bound[0]))
    excess = np.asarray(f_gap) - bound - tol
    worst = int(np.argmax(excess))
    if excess[worst] > 0.0:
        return (f"{what}: row {int(k[worst])} gap {f_gap[worst]:.17g} above "
                f"envelope {bound[worst]:.17g}")
    return None


def check_same_curve(program_curve, k, env, what: str):
    """The program's printed envelope equals the recomputed one."""
    ours = curve(env, k)
    diff = float(np.max(np.abs(np.asarray(program_curve) - ours)))
    if not diff <= 1e-9 * max(1.0, float(ours[0])):
        return f"{what}: printed envelope differs from the closed form by {diff:.3e}"
    return None


def check_final_gap(program_gap: float, exact_gap: float, scale: float, what: str):
    """A reported final gap matches the quadratic-form gap.

    The program subtracts f_star from f(x), so it may lose about
    machine epsilon times the objective's scale; 1e-12 * scale allows it.
    """
    if not abs(program_gap - exact_gap) <= 1e-12 * max(1.0, scale):
        return (f"{what}: reported final gap {program_gap:.17g} but "
                f"1/2 (x-x*)'H(x-x*) = {exact_gap:.17g}")
    return None


def read_trace_csv(path: Path):
    """(k, f_gap, bound) columns of a trace.csv, or a reason it is malformed."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return None, f"{path.name}: unexpected header"
    k, f_gap, bound = [], [], []
    for line in lines[1:]:
        cols = line.split(",")
        if len(cols) != 6:
            return None, f"{path.name}: row with {len(cols)} fields"
        try:
            k.append(int(cols[0]))
            f_gap.append(float(cols[1]))
            bound.append(float(cols[4]))
        except ValueError:
            return None, f"{path.name}: unparsable row {line!r}"
    return (np.array(k), np.array(f_gap), np.array(bound)), None


def check_trace_csv(path: Path):
    """(accepted steps, reason or None) for one run's trace.csv.

    Rows must count k = 0, 1, 2, ... and every finite bound must hold.
    """
    if not path.is_file():
        return 0, f"{path}: missing"
    cols, err = read_trace_csv(path)
    if err:
        return 0, err
    k, f_gap, bound = cols
    if len(k) == 0 or not np.array_equal(k, np.arange(len(k))):
        return 0, f"{path.name}: k is not consecutive from 0"
    finite = np.isfinite(bound)
    if finite.any():
        tol = ENVELOPE_SLACK * max(1.0, float(bound[finite][0]))
        over = np.nonzero(finite & (f_gap > bound + tol))[0]
        if over.size:
            return 0, f"{path.name}: row {int(over[0])} gap above its bound column"
    return len(k) - 1, None


def check_verify_output(stdout: str, expected: int = 14):
    """`ngl verify` printed every check as PASS and an overall PASS."""
    rows = [line.split() for line in stdout.splitlines() if line.strip()]
    checks = [r for r in rows if r and r[0] != "overall"]
    passed = sum(1 for r in checks if len(r) > 1 and r[1] == "PASS")
    overall = [r for r in rows if r and r[0] == "overall"]
    if passed != expected or len(checks) != expected or not overall or overall[0][1:] != ["PASS"]:
        return f"verify: {passed}/{len(checks)} PASS, expected {expected}/{expected}"
    return None
