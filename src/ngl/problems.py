"""Benchmark objectives with exact gradients and certified constants.

Three families, all quadratic: the chained "worst-case" convex function,
its strongly convex variant, and explicit quadratics ``1/2 x'Ax + b'x``.
Each problem carries (mu, L, x_star, f_star); minimizers are analytic or
come from a direct symmetric tridiagonal solve, never from an iterative
run. Every family can also produce the exact minimizer of a proximally
shifted copy ``f + ridge/2 ||x - center||^2``, which the accuracy drivers
rely on for ground truth.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solveh_banded


def _solve_spd_tridiagonal(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """solveh_banded with a scalar fallback (scipy rejects 1x1 systems)."""
    if rhs.shape[0] == 1:
        return rhs / ab[1, 0]
    return solveh_banded(ab, rhs)

from .numkit import as_vector


class ObjectiveProblem:
    """Differentiable objective with known smoothness/convexity constants.

    Attributes: dim, mu (strong-convexity modulus, 0 for merely convex),
    L (smoothness), x_star (a minimizer), f_star (minimum value), name.
    """

    def __init__(self, name: str, dim: int, mu: float, L: float):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 0.0 <= mu <= L:
            raise ValueError(f"need 0 <= mu <= L, got mu={mu}, L={L}")
        if L <= 0.0:
            raise ValueError(f"L must be > 0, got {L}")
        self.name = name
        self.dim = int(dim)
        self.mu = float(mu)
        self.L = float(L)
        self.x_star: np.ndarray
        self.f_star: float

    @property
    def chi(self) -> float:
        """Condition ratio L/mu (inf when mu = 0)."""
        return self.L / self.mu if self.mu > 0 else float("inf")

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def gap(self, x) -> float:
        """value(x) - f_star."""
        return self.value(x) - self.f_star

    def shifted_minimizer(self, ridge: float, center) -> np.ndarray:
        """Exact minimizer of f(x) + (ridge/2)*||x - center||^2, ridge > 0."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, n={self.dim}, mu={self.mu}, L={self.L})"


class ChainedConvex(ObjectiveProblem):
    """Chained quadratic with a k-link difference chain; mu = 0.

    f(x) = (L/8)(x_1^2 + sum_{j=1}^{k-1}(x_j - x_{j+1})^2 + x_k^2) - (L/4) x_1.
    Only the first k coordinates enter; the rest are flat directions.
    Minimizer: x*_j = 1 - j/(k+1) for j <= k, zero after.
    """

    def __init__(self, k: int, L: float, n: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        super().__init__(f"chained_convex(k={k},L={L},n={n})", n, 0.0, L)
        self.k = int(k)
        j = np.arange(1, k + 1, dtype=np.float64)
        x_star = np.zeros(n)
        x_star[:k] = 1.0 - j / (k + 1)
        self.x_star = x_star
        self.f_star = self.value(x_star)

    def value(self, x) -> float:
        x = as_vector(x, self.dim)
        h = x[: self.k]
        chain = h[0] ** 2 + h[-1] ** 2
        if self.k > 1:
            d = h[1:] - h[:-1]
            chain += float(d @ d)
        return self.L / 8.0 * float(chain) - self.L / 4.0 * float(h[0])

    def gradient(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        h = x[: self.k]
        g = np.zeros(self.dim)
        # tridiag(-1, 2, -1) applied to the active head
        Ah = 2.0 * h
        Ah[:-1] -= h[1:]
        Ah[1:] -= h[:-1]
        g[: self.k] = self.L / 4.0 * Ah
        g[0] -= self.L / 4.0
        return g

    def shifted_minimizer(self, ridge: float, center) -> np.ndarray:
        if ridge <= 0.0:
            raise ValueError("ridge must be > 0")
        center = as_vector(center, self.dim)
        c = self.L / 4.0
        k = self.k
        ab = np.zeros((2, k))
        ab[0, 1:] = -c
        ab[1, :] = 2.0 * c + ridge
        rhs = ridge * center[:k].copy()
        rhs[0] += c
        out = np.empty(self.dim)
        out[:k] = _solve_spd_tridiagonal(ab, rhs)
        # flat directions feel only the ridge pull
        out[k:] = center[k:]
        return out


class ChainedStronglyConvex(ObjectiveProblem):
    """Chained quadratic plus an l2 term; mu-strongly convex and L-smooth.

    f(x) = (mu(chi-1)/8)(x_1^2 + sum_{j=1}^{n-1}(x_j - x_{j+1})^2 - 2 x_1)
           + (mu/2)||x||^2,   chi = L/mu.
    """

    def __init__(self, mu: float, L: float, n: int):
        if not 0.0 < mu < L:
            raise ValueError(f"need 0 < mu < L, got mu={mu}, L={L}")
        super().__init__(f"chained_strongly_convex(mu={mu},L={L},n={n})", n, mu, L)
        # Hessian = c * B + mu * I with B the chain matrix (B_nn = 1)
        self._c = mu * (self.chi - 1.0) / 4.0
        self.x_star = self.shifted_minimizer(0.0, None)
        self.f_star = self.value(self.x_star)

    def value(self, x) -> float:
        x = as_vector(x, self.dim)
        chain = x[0] ** 2
        if self.dim > 1:
            d = x[1:] - x[:-1]
            chain += float(d @ d)
        quarter = self._c / 2.0  # mu(chi-1)/8
        return quarter * (float(chain) - 2.0 * float(x[0])) + self.mu / 2.0 * float(x @ x)

    def gradient(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        Bx = 2.0 * x
        Bx[-1] -= x[-1]
        if self.dim > 1:
            Bx[:-1] -= x[1:]
            Bx[1:] -= x[:-1]
        g = self._c * Bx + self.mu * x
        g[0] -= self._c
        return g

    def shifted_minimizer(self, ridge: float, center) -> np.ndarray:
        if ridge < 0.0 or (ridge == 0.0 and center is not None):
            raise ValueError("ridge must be > 0 for an off-origin shift")
        n, c = self.dim, self._c
        ab = np.zeros((2, n))
        ab[0, 1:] = -c
        ab[1, :] = 2.0 * c + self.mu + ridge
        ab[1, -1] = c + self.mu + ridge
        rhs = np.zeros(n)
        rhs[0] = c
        if center is not None:
            rhs += ridge * as_vector(center, n)
        return _solve_spd_tridiagonal(ab, rhs)


class Quadratic(ObjectiveProblem):
    """Explicit quadratic f(x) = 1/2 x'Ax + b'x with symmetric PSD A."""

    def __init__(self, A, b, name: str | None = None):
        A = np.asarray(A, dtype=np.float64)
        b = as_vector(b)
        n = b.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n} to match b, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A contains non-finite entries")
        scale = float(np.abs(A).max()) or 1.0
        if float(np.abs(A - A.T).max()) > 1e-12 * scale:
            raise ValueError("A must be symmetric")
        A = (A + A.T) / 2.0
        eigs = np.linalg.eigvalsh(A)
        mu_eff, L_eff = float(eigs[0]), float(eigs[-1])
        if L_eff <= 0.0:
            raise ValueError("A must have a positive largest eigenvalue")
        if mu_eff < -1e-12 * scale:
            raise ValueError(f"A is not positive semi-definite (min eig {mu_eff})")
        super().__init__(name or f"quadratic(n={n})", n, max(mu_eff, 0.0), L_eff)
        self.A = A
        self.b = b
        if mu_eff > 1e-12 * scale:
            self.x_star = np.linalg.solve(A, -b)
        else:
            x_star, *_ = np.linalg.lstsq(A, -b, rcond=None)
            if float(np.linalg.norm(A @ x_star + b)) > 1e-9 * max(1.0, float(np.linalg.norm(b))):
                raise ValueError("quadratic is unbounded below: b has a component outside range(A)")
            self.x_star = x_star
        self.f_star = self.value(self.x_star)

    def value(self, x) -> float:
        x = as_vector(x, self.dim)
        return 0.5 * float(x @ (self.A @ x)) + float(self.b @ x)

    def gradient(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        return self.A @ x + self.b

    def shifted_minimizer(self, ridge: float, center) -> np.ndarray:
        if ridge <= 0.0:
            raise ValueError("ridge must be > 0")
        center = as_vector(center, self.dim)
        return np.linalg.solve(self.A + ridge * np.eye(self.dim), ridge * center - self.b)


def nesterov_convex(k: int, L: float, n: int) -> ObjectiveProblem:
    """Worst-case convex chain problem (mu = 0) with analytic minimizer."""
    return ChainedConvex(k, L, n)


def nesterov_strongly_convex(mu: float, L: float, n: int) -> ObjectiveProblem:
    """Worst-case strongly convex chain problem; minimizer from a tridiagonal solve."""
    return ChainedStronglyConvex(mu, L, n)


def quadratic(A, b, name: str | None = None) -> ObjectiveProblem:
    """Explicit symmetric PSD quadratic."""
    return Quadratic(A, b, name)
