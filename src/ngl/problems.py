"""Benchmark objectives with exact gradients and certified constants.

Three families, all quadratic: the chained "worst-case" convex function,
its strongly convex variant, and explicit quadratics ``1/2 x'Ax + b'x``.
Each problem carries (mu, L, x_star, f_star); minimizers are analytic or
come from a direct solve, never from an iterative run.  The strongly
convex chain's minimizer is one symmetric tridiagonal solve,
``_solve_spd_tridiagonal``: LAPACK's ``dptsv`` (``dpttrf`` then ``dptts2``)
written out in Python floats, which gives scipy's ``solveh_banded`` bits
with numpy as the only import.

The public ``value`` and ``gradient`` validate their input (a finite 1-D
vector of the problem's dimension) and raise ValueError otherwise.  The
private kernels ``_value`` and ``_gradient`` hold the arithmetic and
trust their input to be such a vector, already float64: the stepping
core and the oracles call them on iterates they have validated once.
The row kernels ``_values``/``_gradients`` give each row of a 2-D X its bits.
"""

from __future__ import annotations

import math

import numpy as np

from .numkit import as_vector, row_dots

# a kernel's fixed factors are 0-d float64 arrays: numpy multiplies a
# vector by one faster than by a Python float, with the same IEEE product
_TWO = np.array(2.0)
_ZERO = np.array(0.0)


def _solve_spd_tridiagonal(d: np.ndarray, e: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve T x = rhs for the SPD tridiagonal T with diagonal d and off-diagonal e.

    Reference LAPACK ``dptsv``: the factorization T = L D L' of ``dpttrf``,
    then the two sweeps of ``dptts2``, step for step in Python floats, so x
    has the bits of ``scipy.linalg.solveh_banded`` on the same band.  A
    non-finite input raises ValueError; a pivot failing LAPACK's ``<= 0``
    test raises LinAlgError naming its 1-based leading minor.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    d, e, b = d.tolist(), e.tolist(), rhs.tolist()
    n = len(d)
    for i in range(n - 1):
        if d[i] <= 0.0:
            raise np.linalg.LinAlgError(f"{i + 1}th leading minor not positive definite")
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] = d[i + 1] - e[i] * ei
    if d[n - 1] <= 0.0:
        raise np.linalg.LinAlgError(f"{n}th leading minor not positive definite")
    for i in range(1, n):
        b[i] = b[i] - b[i - 1] * e[i - 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = b[i] / d[i] - b[i + 1] * e[i]
    return np.array(b)


def _padded(buf: np.ndarray) -> tuple:
    """The views (x's slot, right, left) of a buffer [0, x, x_n] along axis 0."""
    return buf[1:-1], buf[2:], buf[:-2]


class ObjectiveProblem:
    """Differentiable objective with known smoothness/convexity constants.

    Attributes: dim, mu (strong-convexity modulus, 0 for merely convex),
    L (smoothness), x_star (a minimizer), f_star (minimum value), name.

    A subclass implements the kernels ``_value`` and ``_gradient`` and
    their row forms ``_values`` and ``_gradients``; ``__init_subclass__``
    binds ``value`` and ``gradient`` to these validating wrappers in the
    own class dict of each direct subclass, so that tools reading a
    class's own attributes (the benchmark's tracer) find both.  A
    subclass of one of those (``DiagonalQuadratic``) takes its parent's,
    so a tool wrapping the parent's wraps both classes.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if ObjectiveProblem in cls.__bases__:
            cls.value = ObjectiveProblem.value
            cls.gradient = ObjectiveProblem.gradient

    def __init__(self, name: str, dim: int, mu: float, L: float):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 0.0 <= mu <= L:
            raise ValueError(f"need 0 <= mu <= L, got mu={mu}, L={L}")
        if not 0.0 < L < np.inf:
            raise ValueError(f"L must be positive and finite, got {L}")
        self.name = name
        self.dim = int(dim)
        self.mu = float(mu)
        self.L = float(L)
        self.x_star: np.ndarray
        self.f_star: float

    def value(self, x) -> float:
        """f(x); raises ValueError unless x is a finite vector of dimension dim."""
        return self._value(as_vector(x, self.dim))

    def gradient(self, x) -> np.ndarray:
        """grad f(x); raises ValueError unless x is a finite vector of dimension dim."""
        return self._gradient(as_vector(x, self.dim))

    def _value(self, x: np.ndarray) -> float:
        """f(x) for a validated 1-D float64 x of dimension dim."""
        raise NotImplementedError

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        """grad f(x) for a validated 1-D float64 x of dimension dim."""
        raise NotImplementedError

    def _values(self, X: np.ndarray) -> np.ndarray:
        """f at each row of X; row i is ``_value(X[i])`` bit for bit."""
        raise NotImplementedError

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        """grad f at each row of X; row i is ``_gradient(X[i])`` bit for bit."""
        raise NotImplementedError

    def gap(self, x) -> float:
        """value(x) - f_star."""
        return self.value(x) - self.f_star

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
        self._quarter_L = np.array(self.L / 4.0)  # a 0-d constant: see _TWO

    def _value(self, x: np.ndarray) -> float:
        h = x[: self.k]
        chain = h[0] ** 2 + h[-1] ** 2
        if self.k > 1:
            d = h[1:] - h[:-1]
            chain += float(d @ d)
        return self.L / 8.0 * float(chain) - self.L / 4.0 * float(h[0])

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        # tridiag(-1, 2, -1) applied to the active head, along axis 0.
        # Order F lays out _gradients' X.T so that its rows stay contiguous:
        # row_dots on strided rows need not give the 1-D dot's bits
        h = x[: self.k]
        g = np.zeros(x.shape, order="F")
        Ah = _TWO * h
        Ah[:-1] -= h[1:]
        Ah[1:] -= h[:-1]
        g[: self.k] = self._quarter_L * Ah
        g[0] -= self.L / 4.0
        return g

    def _values(self, X: np.ndarray) -> np.ndarray:
        H = X[:, : self.k]
        # h[0] ** 2 on a scalar is C pow, which can differ from the array square
        chain = np.array([a ** 2 for a in H[:, 0]]) + np.array([b ** 2 for b in H[:, -1]])
        if self.k > 1:
            D = H[:, 1:] - H[:, :-1]
            chain += row_dots(D, D)
        return self.L / 8.0 * chain - self.L / 4.0 * H[:, 0]

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        # the 1-D kernel on X.T's axis 0
        return self._gradient(X.T).T


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
        c = self._c = mu * (self.L / self.mu - 1.0) / 4.0
        self._c_0d, self._mu_0d = np.array(c), np.array(self.mu)  # see _TWO
        self._pad = _padded(np.zeros(n + 2))
        d = np.full(n, 2.0 * c + self.mu)
        d[-1] = c + self.mu
        rhs = np.zeros(n)
        rhs[0] = c
        self.x_star = _solve_spd_tridiagonal(d, np.full(n - 1, -c), rhs)
        self.f_star = self.value(self.x_star)

    def _value(self, x: np.ndarray) -> float:
        chain = x[0] ** 2
        if self.dim > 1:
            d = x[1:] - x[:-1]
            chain += float(d @ d)
        quarter = self._c / 2.0  # mu(chi-1)/8
        return quarter * (float(chain) - 2.0 * float(x[0])) + self.mu / 2.0 * float(x @ x)

    def __setstate__(self, state):
        # a copy's views were copied apart from each other: give it a buffer of its own
        self.__dict__.update(state, _pad=_padded(np.zeros(state["dim"] + 2)))

    def _gradient(self, x: np.ndarray, pad: tuple | None = None) -> np.ndarray:
        # Bx = (2x - right) - left along axis 0, per element in that order,
        # with right = [x_2..x_n, x_n] and left = [0, x_1..x_{n-1}] read from
        # ``pad``, views of a buffer [0, x, x_n] (``_padded``); subtracting
        # the left pad's 0.0 keeps every bit, -0.0 included
        mid, right, left = self._pad if pad is None else pad
        mid[...] = x
        right[-1] = x[-1]
        Bx = _TWO * x
        Bx -= right
        Bx -= left
        g = self._c_0d * Bx
        g += self._mu_0d * x
        g[0] -= self._c
        return g

    def _values(self, X: np.ndarray) -> np.ndarray:
        # x[0] ** 2 on a scalar is C pow, which can differ from the array square
        chain = np.array([x0 ** 2 for x0 in X[:, 0]])
        D = X[:, 1:] - X[:, :-1]  # no columns at n = 1: then chain gains an exact 0.0
        chain += row_dots(D, D)
        return self._c / 2.0 * (chain - 2.0 * X[:, 0]) + self.mu / 2.0 * row_dots(X, X)

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        # the 1-D kernel on X.T's axis 0; elementwise ops keep rows contiguous
        pad = _padded(np.zeros((self.dim + 2, len(X)), order="F"))
        return self._gradient(X.T, pad).T


class Quadratic(ObjectiveProblem):
    """Explicit quadratic f(x) = 1/2 x'Ax + b'x with symmetric PSD A, held dense.

    mu and L are LAPACK's extreme eigenvalues of A, and x_star its solve
    (least squares where A is singular to 1e-12 of its largest entry).
    ``quadratic`` and ``diagonal_quadratic`` build the O(n)
    ``DiagonalQuadratic`` instead wherever it has this class's bits.
    """

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

    def _value(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ (self.A @ x)) + float(self.b @ x)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.b

    # matmul of A with a stack of columns makes one gemv per row, as A @ x does
    def _values(self, X: np.ndarray) -> np.ndarray:
        return 0.5 * row_dots(X, np.matmul(self.A, X[:, :, None])[:, :, 0]) + row_dots(X, self.b)

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        return np.matmul(self.A, X[:, :, None])[:, :, 0] + self.b


# eigvalsh rescales a matrix whose largest entry lies outside about
# [1.5e-146, 6.7e145], which moves its eigenvalues' last bits
# (1e-300 * I gives 9.999999999999999e-301); inside, a diagonal's
# eigenvalues are its entries
_DIAGONAL_RANGE = (1e-140, 1e140)


def _diagonal_fits(d: np.ndarray) -> bool:
    """Whether the diagonal quadratic of entries ``d`` keeps the dense class's bits:
    d lies in ``_DIAGONAL_RANGE`` and its least entry exceeds 1e-12 times its
    largest, where the dense class solves (rather than takes least squares)."""
    if not d.size:
        return False
    lo, hi = float(d.min()), float(d.max())
    low, high = _DIAGONAL_RANGE
    return low <= lo and hi <= high and lo > 1e-12 * hi


class DiagonalQuadratic(Quadratic):
    """f(x) = 1/2 x'Dx + b'x with D = diag(d), held as the vector d: O(n) in time and memory.

    Built by ``quadratic`` and ``diagonal_quadratic`` where
    ``_diagonal_fits(d)``, with the dense class's bits.  mu and L are
    d's extreme entries (LAPACK's eigenvalues of a diagonal), and x_star
    is -b/d (its solve; only where b holds +0.0 may -b/d's -0.0 meet the
    blocked solve's +0.0).  D @ x is d * x, except that the zero
    products a gemv adds make its -0.0 entries +0.0: the gradient adds
    b with its -0.0 entries made +0.0, which gives the same sum, and no
    value shows the sign of a zero x'Dx term.  In a row with a
    non-finite entry the gemv's 0 * inf and 0 * NaN make every other
    entry NaN; ``_spread`` gives that row the same NaN where its
    non-finite entries make NaNs of one bit pattern (inf beside NaN
    leaves the gemv a pick of two).  An overflow warns from multiply
    where the dense class's warns from matmul.
    """

    def __init__(self, d: np.ndarray, b: np.ndarray, name: str | None = None):
        n = d.shape[0]
        ObjectiveProblem.__init__(self, name or f"quadratic(n={n})", n, float(d.min()),
                                  float(d.max()))
        self.diagonal = d
        self.b = b
        self._b_plus = b + _ZERO  # b with -0.0 made +0.0, as adding D @ x's +0.0 does
        self.x_star = -b / d
        self.f_star = self.value(self.x_star)

    def _spread(self, R: np.ndarray) -> np.ndarray:
        """D @ r for rows r that each hold a non-finite entry, NaN where the gemv spreads it."""
        bad = ~np.isfinite(R)
        others = bad.sum(axis=1, keepdims=True) - bad > 0  # another entry is not finite
        first = R[np.arange(len(R)), bad.argmax(axis=1)]
        # 0 * that entry in a matmul, as the zero entries of D make it, and with its warning
        return np.where(others, np.matmul(first[:, None], np.zeros((1, 1))), self.diagonal * R)

    def _value(self, x: np.ndarray) -> float:
        v = 0.5 * float(x @ (self.diagonal * x)) + float(self.b @ x)
        if math.isfinite(v):  # so x is finite
            return v
        return 0.5 * float(x @ self._spread(x[None])[0]) + float(self.b @ x)

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        g = self.diagonal * x
        g += self._b_plus
        # vdot, unlike dot, warns of no overflow; a finite g means a finite x
        if math.isfinite(np.vdot(g, g)) or np.isfinite(x).all():
            return g
        return self._spread(x[None])[0] + self.b

    def _values(self, X: np.ndarray) -> np.ndarray:
        v = 0.5 * row_dots(X, self.diagonal * X) + row_dots(X, self.b)
        rows = ~np.isfinite(v)  # finite values mean finite rows
        if rows.any():
            rows[rows] = ~np.isfinite(X[rows]).all(axis=1)
            R = X[rows]
            v[rows] = 0.5 * row_dots(R, self._spread(R)) + row_dots(R, self.b)
        return v

    def _gradients(self, X: np.ndarray) -> np.ndarray:
        G = self.diagonal * X
        G += self._b_plus
        rows = ~np.isfinite(X).all(axis=1)
        if rows.any():
            G[rows] = self._spread(X[rows]) + self.b
        return G


def nesterov_convex(k: int, L: float, n: int) -> ObjectiveProblem:
    """Worst-case convex chain problem (mu = 0) with analytic minimizer."""
    return ChainedConvex(k, L, n)


def nesterov_strongly_convex(mu: float, L: float, n: int) -> ObjectiveProblem:
    """Worst-case strongly convex chain problem; minimizer from a tridiagonal solve."""
    return ChainedStronglyConvex(mu, L, n)


def quadratic(A, b, name: str | None = None) -> ObjectiveProblem:
    """Explicit symmetric PSD quadratic; a diagonal A that ``_diagonal_fits`` is held as
    its diagonal (``DiagonalQuadratic``), any other A dense (``Quadratic``)."""
    A = np.asarray(A, dtype=np.float64)
    b = as_vector(b)
    n = b.shape[0]
    if A.shape == (n, n):
        d = A.diagonal()
        if _diagonal_fits(d) and np.count_nonzero(A) == n:
            return DiagonalQuadratic(d.copy(), b, name)
    return Quadratic(A, b, name)


def diagonal_quadratic(d, b, name: str | None = None) -> ObjectiveProblem:
    """``quadratic(np.diag(d), b, name)``, built without the matrix where ``_diagonal_fits(d)``."""
    d, b = np.asarray(d, dtype=np.float64), as_vector(b)
    if d.shape == b.shape and _diagonal_fits(d):
        return DiagonalQuadratic(d, b, name)
    return Quadratic(np.diag(d), b, name)
