"""Gradient estimators with declared composite error levels.

Every oracle promises ||estimate - grad f(x)|| <= declared_alpha *
||grad f(x)|| + declared_delta and can certify each emitted estimate
against that promise (debug mode). Sources of error: ball-sampled or
adversarial synthetic noise, deterministic compression (top-k, sign,
grid), forward finite differences of noisy values, and reduced-precision
arithmetic for explicit quadratics.

Randomness is counter-based (Philox keyed by seed, counter = query
index), so any run is bit-reproducible from (seed, query index) and
queries never share stream state.  Each oracle builds one Philox bit
generator and resets its whole state to counter [0, 0, 0, q] before
query q, so its draws equal those of a fresh ``Philox(key=seed,
counter=[0, 0, 0, q])`` in any query order, without paying for a new
generator per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import PrecisionSpec, as_vector, round_to_precision
from .problems import ObjectiveProblem

MODES = ("sampled_unbiased", "adversarial_opposing", "none")
CERT_SLACK = 1e-12


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


def _check_query_index(query_index) -> int:
    """A Philox counter word: an integer in [0, 2**64), bools excluded."""
    if isinstance(query_index, bool) or not isinstance(query_index, (int, np.integer)):
        raise ValueError(f"query_index must be an integer, got {query_index!r}")
    if not 0 <= int(query_index) < 2**64:
        raise ValueError(f"query_index must be in [0, 2**64), got {query_index}")
    return int(query_index)


class _QueryStream:
    """Independent stream per query: Philox counter block = query index.

    One bit generator serves every query; ``at(q)`` sets its full state
    (counter [0, 0, 0, q], empty output buffer, no cached 32-bit half),
    which is the state of a fresh ``Philox(key, counter=[0, 0, 0, q])``.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=int(seed) & (2**64 - 1))
        self._rng = np.random.Generator(self._bitgen)
        self._counter = [0, 0, 0, 0]
        # a fresh generator's state, holding lists, which the setter reads fastest
        state = self._bitgen.state
        state["state"] = {"counter": self._counter, "key": state["state"]["key"].tolist()}
        state["buffer"] = state["buffer"].tolist()
        self._state = state

    def at(self, query_index: int) -> np.random.Generator:
        self._counter[3] = query_index
        self._bitgen.state = self._state
        return self._rng


def _uniform_ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    if radius <= 0.0:
        return np.zeros(n)
    direction = rng.standard_normal(n)
    # np.linalg.norm's own formula for a real 1-D vector, minus its overhead
    norm = math.sqrt(direction.dot(direction))
    if norm == 0.0:
        return np.zeros(n)
    # random() is the double uniform() scales by 1.0 and shifts by 0.0,
    # bit for bit, without uniform()'s argument handling
    r = radius * rng.random() ** (1.0 / n)
    return (r / norm) * direction


class GradientOracle:
    """Base estimator: exact problem reference plus declared error levels.

    ``certify=True`` re-checks the composite bound on every query and
    raises on violation; tests and the verification harness use it.
    """

    def __init__(self, problem: ObjectiveProblem, declared_alpha: float, declared_delta: float,
                 certify: bool = False):
        if not 0.0 <= declared_alpha < 1.0:
            raise ValueError(f"declared_alpha must be in [0, 1), got {declared_alpha}")
        if declared_delta < 0.0:
            raise ValueError(f"declared_delta must be >= 0, got {declared_delta}")
        self.problem = problem
        self.declared_alpha = float(declared_alpha)
        self.declared_delta = float(declared_delta)
        self.certify = bool(certify)
        self.queries = 0

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def estimate_with_exact(self, x) -> tuple[np.ndarray, np.ndarray]:
        """One query: returns (estimate, exact gradient).

        Exposing the exact gradient saves solvers a second gradient
        evaluation per step when recording traces.
        """
        x = as_vector(x, self.problem.dim)
        exact = self.problem._gradient(x)
        est = self._estimate(x, exact)
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

    def gradient_estimate(self, x) -> np.ndarray:
        return self.estimate_with_exact(x)[0]


class SyntheticNoiseOracle(GradientOracle):
    """Additive noise at declared levels, sampled or adversarial."""

    def __init__(self, problem: ObjectiveProblem, spec: NoiseSpec, certify: bool = False):
        alpha, delta = spec.alpha, spec.delta
        if spec.mode == "none":
            alpha, delta = 0.0, 0.0
        super().__init__(problem, alpha, delta, certify)
        self.spec = spec
        self._stream = _QueryStream(spec.seed) if spec.mode == "sampled_unbiased" else None

    def _components(self, exact: np.ndarray, query_index: int):
        """(relative part, absolute part) of query ``query_index``'s noise at ``exact``."""
        n = exact.shape[0]
        gnorm = math.sqrt(exact.dot(exact))
        mode = self.spec.mode
        if mode == "none" or (self.declared_alpha == 0.0 and self.declared_delta == 0.0):
            return np.zeros(n), np.zeros(n)
        if mode == "adversarial_opposing":
            rel = -self.declared_alpha * exact
            absolute = np.zeros(n) if gnorm == 0.0 else -self.declared_delta / gnorm * exact
            return rel, absolute
        rng = self._stream.at(query_index)
        rel = _uniform_ball(rng, n, self.declared_alpha * gnorm)
        absolute = _uniform_ball(rng, n, self.declared_delta)
        return rel, absolute

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        rel, absolute = self._components(exact, self.queries)
        return exact + rel + absolute


def top_k_compress(g, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries (ties: lowest index), zero the rest."""
    g = as_vector(g)
    n = g.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n={n}, got k={k}")
    return _top_k(g, k)


def _top_k(g: np.ndarray, k: int) -> np.ndarray:
    """top_k_compress of a validated vector, 1 <= k <= len(g)."""
    if k == g.shape[0]:
        return g.copy()
    # stable sort on -|g| keeps the earliest index first among ties
    order = np.argsort(-np.abs(g), kind="stable")
    out = np.zeros_like(g)
    keep = order[:k]
    out[keep] = g[keep]
    return out


def sign_compress(g) -> np.ndarray:
    """Mean magnitude times the sign pattern; sign(0) = 0."""
    return _sign(as_vector(g))


def _sign(g: np.ndarray) -> np.ndarray:
    return float(np.mean(np.abs(g))) * np.sign(g)


def sparsify_grid(g, m: int) -> np.ndarray:
    """Round each coordinate to the nearest s/m grid point, ties toward even s."""
    g = as_vector(g)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _grid(g, m)


def _grid(g: np.ndarray, m: int) -> np.ndarray:
    return np.rint(g * m) / m  # rint ties to even


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
            if param is None or param < 1:
                raise ValueError("grid sparsification needs m >= 1")
            alpha, delta = 0.0, math.sqrt(n) / (2.0 * param)
        else:
            raise ValueError(f"unknown compressor kind {kind!r}")
        super().__init__(problem, alpha, delta, certify)
        self.kind = kind
        self.param = param

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        # param was checked above and exact is the problem's own float64
        # gradient, so the kernels skip the public functions' checks
        if self.kind == "top_k":
            return _top_k(exact, self.param)
        if self.kind == "sign":
            return _sign(exact)
        return _grid(exact, self.param)


def finite_difference_gradient(problem: ObjectiveProblem, x, h: float, value_noise: float = 0.0,
                               seed: int = 0, query_index: int = 0) -> np.ndarray:
    """Forward differences of (optionally perturbed) values along the basis.

    Each of the n+1 evaluations is shifted by an independent uniform draw
    in [-value_noise, value_noise]. Worst-case error:
    sqrt(n) * (L*h/2 + 2*value_noise/h).
    """
    x = as_vector(x, problem.dim)
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    if value_noise < 0.0:
        raise ValueError(f"value_noise must be >= 0, got {value_noise}")
    query_index = _check_query_index(query_index)
    stream = _QueryStream(seed) if value_noise > 0.0 else None
    # the public value: a shifted point that overflows raises ValueError
    return _forward_differences(problem.value, x, h, value_noise, stream, query_index)


def _forward_differences(value, x: np.ndarray, h: float, value_noise: float,
                         stream: _QueryStream | None, query_index: int) -> np.ndarray:
    """finite_difference_gradient of ``value`` at a validated x; no stream: no value noise."""
    n = x.shape[0]
    if stream is not None:
        shifts = stream.at(query_index).uniform(-value_noise, value_noise, size=n + 1)
    else:
        shifts = np.zeros(n + 1)
    g = np.empty(n)
    # an overflow is caught downstream: the public value rejects the
    # non-finite point, and the trusted one makes g non-finite
    with np.errstate(over="ignore"):
        f0 = value(x) + shifts[0]
        for j in range(n):
            step = x.copy()
            step[j] += h
            g[j] = (value(step) + shifts[j + 1] - f0) / h
    return g


class FiniteDifferenceOracle(GradientOracle):
    """Gradient from forward differences of noisy values; absolute error only."""

    def __init__(self, problem: ObjectiveProblem, h: float, value_noise: float = 0.0,
                 seed: int = 0, certify: bool = False):
        if h <= 0.0:
            raise ValueError(f"h must be > 0, got {h}")
        if value_noise < 0.0:
            raise ValueError(f"value_noise must be >= 0, got {value_noise}")
        delta = math.sqrt(problem.dim) * (problem.L * h / 2.0 + 2.0 * value_noise / h)
        super().__init__(problem, 0.0, delta, certify)
        self.h = float(h)
        self.value_noise = float(value_noise)
        self.seed = int(seed)
        self._stream = _QueryStream(seed) if value_noise > 0.0 else None

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        # the trusted kernel: a shifted point that overflows gives a
        # non-finite estimate, which a runner ends in DivergedError
        return _forward_differences(
            self.problem._value, x, self.h, self.value_noise, self._stream, self.queries
        )


def fp_quadratic_gradient(A, b, x, spec: PrecisionSpec) -> np.ndarray:
    """Ax + b in simulated p-bit arithmetic with compensated row sums.

    Inputs are stored (rounded) at p bits; every product and every
    accumulation op rounds to p bits. Error stays within the
    C*(eps + n*eps^2)*(|b_i| + sum_j |A_ij x_j|) envelope, C <= 8.

    Row i is the Neumaier-compensated sum of b_i, A_i1 x_1, ..., A_in x_n
    in that order.  All rows advance together, one term at a time, and
    each picks its compensation branch with ``np.where`` before rounding,
    so every element goes through exactly the p-bit roundings of a
    scalar loop over its row, and a non-finite value raises where that
    loop would.
    """
    A = np.asarray(A, dtype=np.float64)
    x = as_vector(x)
    b = as_vector(b)
    n = x.shape[0]
    if A.shape != (n, n) or b.shape[0] != n:
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}, x {x.shape}")
    return _fp_quadratic(A, b, x, spec)


def _fp_quadratic(A: np.ndarray, b: np.ndarray, x: np.ndarray, spec: PrecisionSpec) -> np.ndarray:
    """fp_quadratic_gradient of validated float64 inputs: A (m, n), b (m,), x (n,).

    At ``PrecisionSpec(52)`` the p-bit roundings change nothing, so with
    x = 1 row i is the float64 Neumaier sum of b_i, A_i1, ..., A_in.
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
        if domain_radius <= 0.0:
            raise ValueError("domain_radius must be > 0")
        n = problem.dim
        eps = spec.eps
        # |x_j| <= ||x||_2 <= radius, so |b_i| + sum_j |A_ij||x_j| is bounded rowwise
        per_row = np.abs(problem.b) + domain_radius * np.abs(problem.A).sum(axis=1)
        delta = self.ERROR_CONSTANT * (eps + n * eps**2) * float(np.linalg.norm(per_row))
        super().__init__(problem, 0.0, delta, certify=certify)
        self.precision = spec
        self.domain_radius = float(domain_radius)

    def row_error_bound(self, x) -> float:
        """l2 bound from the per-row envelope at this x."""
        x = as_vector(x, self.problem.dim)
        n = self.problem.dim
        eps = self.precision.eps
        per_row = np.abs(self.problem.b) + np.abs(self.problem.A) @ np.abs(x)
        return self.ERROR_CONSTANT * (eps + n * eps**2) * float(np.linalg.norm(per_row))

    def _estimate(self, x: np.ndarray, exact: np.ndarray) -> np.ndarray:
        # A and b were validated when the problem was built, x by the query
        est = _fp_quadratic(self.problem.A, self.problem.b, x, self.precision)
        if self.certify:
            err = float(np.linalg.norm(est - exact))
            allowed = self.row_error_bound(x)
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
