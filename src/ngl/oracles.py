"""Gradient estimators with declared composite error levels.

Every oracle promises ||estimate - grad f(x)|| <= declared_alpha *
||grad f(x)|| + declared_delta and can certify each emitted estimate
against that promise (debug mode). Sources of error: ball-sampled or
adversarial synthetic noise, deterministic compression (top-k, sign,
grid), forward finite differences of noisy values, and reduced-precision
arithmetic for explicit quadratics.

Noise stream ``NOISE_STREAM`` (2): every noisy oracle reads sequential
Philox streams keyed by its seed, and its q-th query takes the q-th
fixed-size slice of each, so a run's noise depends only on (seed, query
index).  A sampled oracle draws directions from ``Philox(key=seed)`` and
radii from that generator's ``jumped()`` twin, which never overlaps it.
Query q takes, for each ball of positive declared level (relative, then
absolute), the next n normals and the next double ``u``; the ball is
``(u ** (1/n) / ||normals||) * normals`` scaled by its radius, the zero
vector when the normals are.  A relative ball at a zero gradient still
takes its draws.  A finite-difference oracle with value noise takes the
next n+1 ``uniform(-v, v)`` draws of one such generator.  The draws are
made a block of queries at a time, at most ``max(numkit.BLOCK_FLOATS,
one query)`` floats, and numpy's block draws equal its one-at-a-time
draws bit for bit, so the block size is not part of the stream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numkit import PrecisionSpec, as_vector, block_rows, round_to_precision, row_dots
from .problems import ObjectiveProblem

MODES = ("sampled_unbiased", "adversarial_opposing", "none")
CERT_SLACK = 1e-12
NOISE_STREAM = 2  # the noise stream's version, written into summary.json
# a query's fixed terms are 0-d float64 arrays: numpy adds or multiplies
# one to a vector faster than a Python float, with the same IEEE result
_ZERO = np.array(0.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Composite noise levels and generation mode for synthetic oracles."""

    alpha: float = 0.0
    delta: float = 0.0
    mode: str = "none"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.delta < 0.0 or not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


class _Blocks:
    """Per-query draws of shape ``shape``, made a block of queries at a time.

    ``draw(size)`` returns the next ``size[0]`` queries' draws as one array
    of shape ``size``; ``next()`` hands out one query's row.
    """

    def __init__(self, draw, shape: tuple):
        self._draw = draw
        self._size = (block_rows(math.prod(shape)), *shape)
        self._rows = ()
        self._next = 0

    def next(self) -> np.ndarray:
        if self._next == len(self._rows):
            self._rows = self._draw(self._size)
            self._next = 0
        row = self._rows[self._next]
        self._next += 1
        return row


def _draw_balls(directions: np.random.Generator, radii: np.random.Generator,
                radius: np.ndarray, size: tuple) -> np.ndarray:
    """Draws uniform in the balls of radii ``radius``: size (m, balls, n), in stream order.

    Each is ``radius * ((u ** (1/n) / ||d||) * d)`` for the next n
    normals d and the next double u; the zero vector when d is.
    """
    n = size[-1]
    D = directions.standard_normal(size).reshape(-1, n)
    norms = np.sqrt(row_dots(D, D))
    # a Python float's ** is C pow, whose bits numpy's array power need not match
    e = 1.0 / n
    r = np.array([u ** e for u in radii.random(D.shape[0]).tolist()])
    D *= np.divide(r, norms, out=np.zeros_like(r), where=norms > 0.0)[:, None]
    D = D.reshape(size)
    D *= radius[:, None]
    return D


class GradientOracle:
    """Base estimator: exact problem reference plus declared error levels.

    ``certify=True`` re-checks the composite bound on every query and
    raises on violation; tests and the verification harness use it.
    The stepping core keeps the exact gradient a query returns until it
    flushes its block of rows, where it reads that gradient's norm, so a
    query must return a fresh array, and nothing may write to it after.
    """

    def __init__(self, problem: ObjectiveProblem, declared_alpha: float, declared_delta: float,
                 certify: bool = False):
        if not 0.0 <= declared_alpha < 1.0:
            raise ValueError(f"declared_alpha must be in [0, 1), got {declared_alpha}")
        if not 0.0 <= declared_delta < math.inf:
            raise ValueError(f"declared_delta must be finite and >= 0, got {declared_delta}")
        self.problem = problem
        self.declared_alpha = float(declared_alpha)
        self.declared_delta = float(declared_delta)
        self.certify = bool(certify)
        self.queries = 0

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def estimate_with_exact(self, x, checked: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """One query: returns (estimate, exact gradient).

        Exposing the exact gradient saves solvers a second gradient
        evaluation per step when recording traces.  x is validated
        unless ``checked`` says it is already a finite 1-D float64
        vector of dimension dim, as the stepping core's iterates are.
        """
        return self._query(x if checked else as_vector(x, self.problem.dim))

    def _evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(estimate, exact gradient) at a validated x; an oracle built on
        another oracle's query overrides it to take both from that query."""
        exact = self.problem._gradient(x)
        return self._estimate(x, exact), exact

    def _query(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One query at an already validated 1-D float64 x of dimension dim."""
        est, exact = self._evaluate(x)
        self.queries += 1
        if self.certify:
            diff = est - exact
            err = math.sqrt(diff.dot(diff))
            allowed = self.declared_alpha * math.sqrt(exact.dot(exact)) + self.declared_delta
            if err > allowed + CERT_SLACK:
                raise AssertionError(
                    f"composite bound violated: error {err} > {allowed} (query {self.queries})"
                )
        return est, exact


class SyntheticNoiseOracle(GradientOracle):
    """Additive noise at declared levels, sampled or adversarial."""

    def __init__(self, problem: ObjectiveProblem, spec: NoiseSpec, certify: bool = False):
        alpha, delta = spec.alpha, spec.delta
        if spec.mode == "none":
            alpha, delta = 0.0, 0.0
        super().__init__(problem, alpha, delta, certify)
        self.spec = spec
        self._minus_alpha = np.array(-self.declared_alpha)  # a 0-d factor: see _ZERO
        # the relative ball is drawn at radius 1 and scaled by alpha*||g|| per query
        radius = np.array([1.0] * (alpha > 0.0) + [delta] * (delta > 0.0))
        self._balls = None
        if spec.mode == "sampled_unbiased" and radius.size:
            directions = _generator(spec.seed)
            radii = np.random.Generator(directions.bit_generator.jumped())
            draw = partial(_draw_balls, directions, radii, radius)
            self._balls = _Blocks(draw, (radius.size, problem.dim))

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        alpha, delta = self.declared_alpha, self.declared_delta
        if self._balls is not None:
            rows = self._balls.next()  # the relative ball first, the absolute one last
            if alpha == 0.0:
                return exact + rows[0]
            # exact + rel + abs, added in place
            est = (alpha * math.sqrt(exact.dot(exact))) * rows[0]
            est += exact
            if delta > 0.0:
                est += rows[1]
            return est
        if self.spec.mode != "adversarial_opposing" or (alpha == 0.0 and delta == 0.0):
            return exact + _ZERO  # a zero noise vector's bits: -0.0 becomes 0.0
        gnorm = math.sqrt(exact.dot(exact))
        rel = self._minus_alpha * exact
        if gnorm == 0.0:
            return exact + rel + 0.0
        return exact + rel + (-delta / gnorm) * exact


def _top_k(g: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries (ties: lowest index), zero the rest; 1 <= k <= len(g)."""
    if k == g.shape[0]:
        return g.copy()
    # stable sort on -|g| keeps the earliest index first among ties
    order = np.argsort(-np.abs(g), kind="stable")
    out = np.zeros_like(g)
    keep = order[:k]
    out[keep] = g[keep]
    return out


def _sign(g: np.ndarray) -> np.ndarray:
    """Mean magnitude times the sign pattern; sign(0) = 0."""
    return float(np.mean(np.abs(g))) * np.sign(g)


_ON_GRID = 2.0**52  # |g*m| from which a float lies within float precision of the grid


def _grid(g: np.ndarray, m: int) -> np.ndarray:
    """Round each coordinate to the nearest s/m grid point, ties toward even s; m >= 1.

    A coordinate with |g*m| >= 2**52 lies within float precision of its
    grid point and is kept as it is, so no product g*m overflows.
    """
    if math.sqrt(g.dot(g)) * m < _ON_GRID:  # every |g_i|*m is below 2**52
        return np.rint(g * m) / m  # rint ties to even
    with np.errstate(over="ignore"):
        scaled = g * m
    return np.where(np.abs(scaled) < _ON_GRID, np.rint(scaled) / m, g)


class CompressedGradientOracle(GradientOracle):
    """Deterministic compression of the exact gradient.

    kind: "top_k" (param k), "sign" (no param), "grid" (param m).
    Declared levels are the worst-case compression errors.
    """

    def __init__(self, problem: ObjectiveProblem, kind: str, param: int | None = None,
                 certify: bool = False):
        n = problem.dim
        if kind == "top_k":
            if param is None:
                raise ValueError("top_k compression needs k")
            alpha, delta = math.sqrt(max(0.0, 1.0 - param / n)), 0.0
            if not 1 <= param <= n:
                raise ValueError(f"need 1 <= k <= n={n}, got k={param}")
        elif kind == "sign":
            alpha, delta = math.sqrt(1.0 - 1.0 / n), 0.0
        elif kind == "grid":
            # an m past the float range cannot scale a float gradient
            if param is None or not 1 <= param <= sys.float_info.max:
                raise ValueError(f"grid sparsification needs m in [1, {sys.float_info.max!r}], "
                                 f"got {param}")
            # not sqrt(n) / (2*m): 2*m overflows near the float maximum
            alpha, delta = 0.0, 0.5 * math.sqrt(n) / param
        else:
            raise ValueError(f"unknown compressor kind {kind!r}")
        super().__init__(problem, alpha, delta, certify)
        self.kind = kind
        self.param = param

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        # param was checked above and exact is the problem's own float64
        # gradient, so the kernels check nothing
        if self.kind == "top_k":
            return _top_k(exact, self.param)
        if self.kind == "sign":
            return _sign(exact)
        return _grid(exact, self.param)


def _forward_differences(values, x: np.ndarray, h: float, shifts: np.ndarray | None) -> np.ndarray:
    """Forward differences at a validated x along the basis.

    ``values`` is a row kernel (``ObjectiveProblem._values``): it
    evaluates x and its n shifted points, row j+1 being x with x_j + h
    in entry j, in chunks of ``numkit.block_rows(n)`` rows, so a chunk
    holds at most max(``numkit.BLOCK_FLOATS``, n) floats.  Value j (x
    itself first) is shifted by ``shifts[j]``, the value noise; with no
    shifts, by 0.0.  With shifts drawn from [-value_noise, value_noise],
    the worst-case error is sqrt(n) * (L*h/2 + 2*value_noise/h).
    """
    n = x.shape[0]
    if shifts is None:
        shifts = np.zeros(n + 1)
    rows = block_rows(n)
    v = np.empty(n + 1)
    # a shifted point that overflows makes g non-finite, for the caller to catch
    with np.errstate(over="ignore"):
        for start in range(0, n + 1, rows):
            stop = min(start + rows, n + 1)
            X = np.tile(x, (stop - start, 1))
            i = np.arange(max(start, 1), stop)  # row i shifts entry i - 1
            X[i - start, i - 1] = x[i - 1] + h
            v[start:stop] = values(X)
        f0 = v[0] + shifts[0]
        return (v[1:] + shifts[1:] - f0) / h


class FiniteDifferenceOracle(GradientOracle):
    """Gradient from forward differences of noisy values; absolute error only."""

    def __init__(self, problem: ObjectiveProblem, h: float, value_noise: float = 0.0,
                 seed: int = 0, certify: bool = False):
        if not h > 0.0:
            raise ValueError(f"h must be > 0, got {h}")
        if not 0.0 <= value_noise < math.inf:
            raise ValueError(f"value_noise must be finite and >= 0, got {value_noise}")
        delta = math.sqrt(problem.dim) * (problem.L * h / 2.0 + 2.0 * value_noise / h)
        super().__init__(problem, 0.0, delta, certify)
        self.h = float(h)
        self.value_noise = float(value_noise)
        self.seed = int(seed)
        self._shifts = None
        if value_noise > 0.0:
            draw = partial(_generator(seed).uniform, -self.value_noise, self.value_noise)
            self._shifts = _Blocks(draw, (problem.dim + 1,))

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        # the trusted kernel: a shifted point that overflows gives a
        # non-finite estimate, which a runner ends in DivergedError
        shifts = None if self._shifts is None else self._shifts.next()
        return _forward_differences(self.problem._values, x, self.h, shifts)


def _fp_quadratic(A: np.ndarray, b: np.ndarray, x: np.ndarray, spec: PrecisionSpec) -> np.ndarray:
    """Ax + b in simulated p-bit arithmetic with compensated row sums.

    Takes validated float64 inputs: A (m, n), b (m,), x (n,).  Inputs
    are stored (rounded) at p bits; every product and every accumulation
    op rounds to p bits. Error stays within the C*(eps + n*eps^2)*(|b_i|
    + sum_j |A_ij x_j|) envelope, C <= 8.

    Row i is the Neumaier-compensated sum of b_i, A_i1 x_1, ..., A_in x_n
    in that order.  All rows advance together, one term at a time, and
    each picks its compensation branch with ``np.where`` before rounding,
    so every element goes through exactly the p-bit roundings of a
    scalar loop over its row, and a non-finite value raises where that
    loop would.  At ``PrecisionSpec(52)`` the p-bit roundings change
    nothing, so with x = 1 row i is the float64 Neumaier sum of b_i,
    A_i1, ..., A_in.
    """
    Ap = round_to_precision(A, spec)
    xp = round_to_precision(x, spec)
    bp = round_to_precision(b, spec)
    products = round_to_precision(Ap * xp, spec)
    total = np.zeros(bp.shape[0])
    carry = np.zeros(bp.shape[0])
    for v in (bp, *np.ascontiguousarray(products.T)):
        t = round_to_precision(total + v, spec)
        big = np.abs(total) >= np.abs(v)
        err = round_to_precision(np.where(big, total - t, v - t), spec)
        err = round_to_precision(np.where(big, err + v, err + total), spec)
        carry = round_to_precision(carry + err, spec)
        total = t
    return round_to_precision(total + carry, spec)


class FloatingPointQuadraticOracle(GradientOracle):
    """Reduced-precision gradient of an explicit quadratic problem.

    The declared absolute level covers every query with ||x|| <=
    domain_radius; certification additionally checks the sharp
    x-dependent per-row envelope on each query.
    """

    ERROR_CONSTANT = 8.0

    def __init__(self, problem, spec: PrecisionSpec, domain_radius: float = 1.0,
                 certify: bool = False):
        if not hasattr(problem, "A") or not hasattr(problem, "b"):
            raise ValueError("reduced-precision oracle needs an explicit quadratic problem")
        if not domain_radius > 0.0:
            raise ValueError("domain_radius must be > 0")
        self.precision = spec
        # |x_j| <= ||x||_2 <= radius, so |b_i| + sum_j |A_ij||x_j| is bounded
        # rowwise; a bound that overflows is rejected here, not warned about
        with np.errstate(over="ignore"):
            per_row = np.abs(problem.b) + domain_radius * np.abs(problem.A).sum(axis=1)
            delta = self._error_bound(per_row)
        if not math.isfinite(delta):
            raise ValueError(f"domain_radius = {domain_radius} leaves floating range: "
                             f"the declared level is {delta}")
        super().__init__(problem, 0.0, delta, certify=certify)
        self.domain_radius = float(domain_radius)

    def _error_bound(self, per_row: np.ndarray) -> float:
        """C*(eps + n*eps^2)*||per_row||, the l2 bound from per-row envelopes."""
        eps = self.precision.eps
        return self.ERROR_CONSTANT * (eps + per_row.shape[0] * eps**2) * float(np.linalg.norm(per_row))

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        # A and b were validated when the problem was built, x by the query
        est = _fp_quadratic(self.problem.A, self.problem.b, x, self.precision)
        if self.certify:
            err = float(np.linalg.norm(est - exact))
            # l2 bound from the per-row envelope at this x
            allowed = self._error_bound(np.abs(self.problem.b) + np.abs(self.problem.A) @ np.abs(x))
            if err > allowed + CERT_SLACK:
                raise AssertionError(f"precision bound violated: {err} > {allowed}")
        return est


def certification_report(estimate, exact, alpha: float, delta: float) -> dict:
    """Slacks of the composite bound and its derived sandwich inequalities.

    Every entry is (non-negative means satisfied): value = lhs-to-rhs slack.
    Derived bounds: norm sandwich both ways, squared-norm sandwich both
    ways, and the alignment (cosine) bound when delta = 0.
    """
    est = as_vector(estimate)
    g = as_vector(exact)
    ge = float(np.linalg.norm(est))
    gn = float(np.linalg.norm(g))
    err = float(np.linalg.norm(est - g))
    report = {
        "composite": alpha * gn + delta - err,
        "norm_upper": (1.0 + alpha) * gn + delta - ge,
        "norm_lower": ge - ((1.0 - alpha) * gn - delta),
        "exact_norm_upper": (ge + delta) / (1.0 - alpha) - gn,
        "exact_norm_lower": gn - (ge - delta) / (1.0 + alpha),
        "sq_upper": 2.0 * (1.0 + alpha) ** 2 * gn**2 + 2.0 * delta**2 - ge**2,
        "sq_lower": ge**2 - (0.5 * (1.0 - alpha) ** 2 * gn**2 - delta**2),
        "exact_sq_upper": 2.0 / (1.0 - alpha) ** 2 * ge**2 + 2.0 / (1.0 - alpha) ** 2 * delta**2 - gn**2,
        "exact_sq_lower": gn**2 - (ge**2 / (2.0 * (1.0 + alpha) ** 2) - delta**2 / (1.0 + alpha) ** 2),
    }
    if delta == 0.0:
        report["alignment"] = float(est @ g) - math.sqrt(max(0.0, 1.0 - alpha**2)) * ge * gn
    return report
