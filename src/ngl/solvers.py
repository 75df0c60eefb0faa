"""Iterative gradient methods driven by inexact gradient oracles.

Three runners share one trace format:

- ``gd_run``: fixed-step descent whose step size is shrunk according to
  the declared relative error level.
- ``re_agm_run``: an accelerated two-sequence method for strongly convex
  objectives; its momentum weight is the largest root of a small
  quadratic and tolerates relative error up to 1/3.
- ``adaptive_gd_run``: backtracking descent that doubles its error-level
  guess (optionally the smoothness guess too) until a descent predicate
  accepts the step; no relative level needs to be known up front.

Trace convention: row 0 is the starting point before any step; row k is
the iterate after k accepted steps.  The returned ``RunTrace`` is the
one record of a run.  A declared stop is the one way to end a run
early: ``GDConfig`` and ``ReAgmConfig`` may declare one, which the core
checks itself.  ``gap_target`` ends the run at the first point whose
gap is at most the target, ``threshold`` at the first queried point
whose noisy gradient norm is at most the threshold.
Either ends the run at that point (an accelerated run's y point
included) with terminal "stopping_rule"; the drivers' stopping, ridge
and restart routes stop this way.

Recording rule: ``f_gap`` columns are gaps of the problem passed to the
runner; every ``grad_norm`` is the norm of ``oracle.problem``'s gradient.
They differ on a ridge route, which runs on the base problem with the
ridge oracle, so it records base gaps with nothing rewritten afterwards.

Each runner holds only its parameters and its update rule; one private
stepping core (``_Core``) does the rest for all three: the start point,
the finiteness guards that raise ``DivergedError`` or
``InnerLoopStallError`` with the partial trace, the gap-floor check,
the x rows, y rows and adaptive columns and the final ``RunTrace``.
The core validates each iterate once, with its own finiteness test of
every visited point, and evaluates it with the problem's trusted
kernels.  It queries the oracle with
``GradientOracle.estimate_with_exact(x, checked=True)``, which trusts
that test and validates nothing again.

Its query rule: a point is queried only when the method steps from its
estimate, and a gap target is checked before the query, so a point
whose gap meets the target ends the run unqueried.  A threshold is
checked right after the query, so it reads the point's noisy norm and
needs no f(x).  The trace records every visited point, with a NaN
noisy norm where nothing was queried.

Its evaluation rule: the update rule writes every point into the next
free row of one of the core's two (block, dim) row buffers, and the
point pends with what the method needed at once (the x check, the
query, the estimate guard, a queried point's noisy norm) in per-field
lists, and a queried point's exact gradient beside them; a full block
of ``numkit.block_rows(dim)`` pending rows is flushed when the next
point arrives, and the next block fills the other buffer.  A flush
reads the block's points as a slice of its buffer and fills one
(field x row) float64 array: every gradient norm is taken at once, a
queried row's from the stacked exact gradients and an unqueried one's
from the row kernel, and the row kernels fill in the deferred f(x),
all with the one-point bits; f(x) becomes the gap in place, which
is tested for finiteness and against the floor once, and the checked
rows are stored as one array per kind of row, which the trace joins
once.  When a test fails, the rows before the first failing one are
stored and that row's error is raised.  f(x) is read at the point,
before the query, where the adaptive predicate reads it, where a gap
target checks it, and where the block is one row (dim > 8192).  A
threshold reads only the noisy norm: when it fires, the core records
the block up to that point and ends the run there.  Failures settle
earlier rows first, so errors and traces do not depend on the block.
Queries may: a run may query up to a block more than its eager twin (a
block of one row) when its objective overflows at a deferred f(x), and
when a wrong f_star fails the gap floor, which is checked only when the
row's block is flushed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numkit import as_vector, block_rows, row_norms
from .oracles import GradientOracle
from .problems import ObjectiveProblem

TERMINAL_STEPS_EXHAUSTED = "steps_exhausted"
TERMINAL_STOPPING_RULE = "stopping_rule"
# only attached to traces carried by errors, never returned normally
_TERMINAL_DIVERGED = "diverged"
_TERMINAL_STALLED = "inner_loop_stall"

INNER_LOOP_CAP = 64
_GAP_FLOOR = -1e-9  # relative: scaled by max(1, |f_star|)


def _check_steps(steps) -> int:
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return int(steps)


def _check_stop(cfg) -> None:
    """A declared stop is None or a finite number: a NaN target never fires."""
    for name in ("gap_target", "threshold"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite or None, got {value}")


@dataclass(frozen=True)
class GDConfig:
    """Fixed-step descent: N steps at the level-alpha step size.

    ``gap_target`` and ``threshold`` declare a stop (see the module
    docstring); None never stops on it.
    """

    steps: int
    alpha: float
    L: float
    gap_target: Optional[float] = None
    threshold: Optional[float] = None
    step_size: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _check_steps(self.steps))
        _check_stop(self)
        # validates alpha and L
        object.__setattr__(self, "step_size", gd_step_size(self.alpha, self.L))


@dataclass(frozen=True)
class ReAgmConfig:
    """Accelerated method config; requires strong convexity (mu > 0).

    ``gap_target`` and ``threshold`` declare a stop, as in ``GDConfig``;
    the threshold reads the queried y points.
    """

    steps: int
    mu: float
    L: float
    alpha: float
    gap_target: Optional[float] = None
    threshold: Optional[float] = None
    parameters: ReAgmParameters = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _check_steps(self.steps))
        _check_stop(self)
        # validates mu, L and alpha
        object.__setattr__(self, "parameters",
                           re_agm_calculate_parameters(self.mu, self.L, self.alpha))


@dataclass(frozen=True)
class AdaptiveGDConfig:
    """Backtracking descent config.

    ``L0`` is the initial smoothness guess; ``adapt_L`` additionally
    doubles the smoothness guess with the error-level guess.  ``delta``
    is the absolute error level, assumed known (the acceptance predicate
    needs it).
    """

    steps: int
    L0: float
    delta: float = 0.0
    adapt_L: bool = False

    def __post_init__(self):
        object.__setattr__(self, "steps", _check_steps(self.steps))
        if not (self.L0 > 0.0 and math.isfinite(self.L0)):
            raise ValueError(f"L0 must be positive and finite, got {self.L0}")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be >= 0 and finite, got {self.delta}")


def gd_step_size(alpha: float, L: float) -> float:
    """Step size ((1-alpha)/(1+alpha))^{3/2} / (4L)."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"L must be positive and finite, got {L}")
    return ((1.0 - alpha) / (1.0 + alpha)) ** 1.5 / (4.0 * L)


@dataclass(frozen=True)
class ReAgmParameters:
    """Derived constants of the accelerated method.

    ``omega`` is the largest root of  m*w^2 + (s - m)*w - q = 0, computed
    with the cancellation-free rearrangement and certified against the
    residual and its lower bracket (1/150)*(mu/2L)^(1-gamma_star).
    """

    h: float
    L_hat: float
    gamma_star: float
    s: float
    m: float
    q: float
    omega: float


def re_agm_calculate_parameters(mu: float, L: float, alpha: float) -> ReAgmParameters:
    """Derive (h, L_hat, gamma_star, s, m, q, omega) for given constants.

    Valid for 0 < mu <= L and 0 <= alpha <= 1/3.  gamma_star interpolates
    between 1/2 (alpha = 0) and 0 (alpha = 1/3); the momentum weight
    omega shrinks with it.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be > 0 (strongly convex only), got {mu}")
    if not (L >= mu and math.isfinite(L)):
        raise ValueError(f"need L >= mu > 0, got mu={mu}, L={L}")
    if not 0.0 <= alpha <= 1.0 / 3.0:
        raise ValueError(f"alpha must be in [0, 1/3], got {alpha}")
    L_hat = 8.0 * (1.0 + alpha) * L / (1.0 - alpha) ** 3
    q = mu / (2.0 * L_hat)
    if not q > 0.0:
        raise ValueError(f"q = mu/(2*L_hat) = {q} leaves floating range at "
                         f"L_hat = 8(1+alpha)L/(1-alpha)^3 = {L_hat}")
    ratio = mu / (2.0 * L)
    if alpha == 0.0:
        gamma_star = 0.5
    else:
        # log base ratio of 3*alpha; ratio < 1 so both logs are <= 0
        gamma_star = min(math.log(3.0 * alpha) / math.log(ratio), 0.5)
    pw = ratio**gamma_star
    s = (1.0 + 0.25 * pw) * (1.0 + alpha) ** 2 + 2.0 * alpha**2
    m = (1.0 - 0.25 * pw) * (1.0 - alpha) ** 2 - 2.0 * alpha**2
    h = gd_step_size(alpha, L)
    # largest root of m*w^2 + (s-m)*w - q = 0; s > m > 0 here, so the
    # conjugate form below avoids cancellation when s - m >> q
    b = s - m
    omega = 2.0 * q / (b + math.sqrt(b * b + 4.0 * m * q))

    if not m > 0.0:
        raise AssertionError(f"derived m must be positive, got m={m}")
    residual = m * omega * omega + b * omega - q
    if abs(residual) > 1e-12 * max(1.0, q):
        raise AssertionError(f"omega residual {residual} out of tolerance (q={q})")
    lower = (1.0 / 150.0) * ratio ** (1.0 - gamma_star)
    if not (omega >= lower * (1.0 - 1e-12) and omega < 1.0):
        raise AssertionError(f"omega={omega} outside [{lower}, 1)")
    return ReAgmParameters(h=h, L_hat=L_hat, gamma_star=gamma_star, s=s, m=m, q=q, omega=omega)


@dataclass
class RunTrace:
    """Per-iteration record of a single run.

    Arrays ``k``, ``f_gap``, ``grad_norm``, ``noisy_grad_norm`` all have
    length (executed iterations + 1); row 0 is the starting point.
    ``f_gap`` is the gap of the runner's problem and ``grad_norm`` the
    norm of the gradient the oracle estimates (``oracle.problem``'s);
    ``noisy_grad_norm`` is NaN where the runner made no oracle query at
    that row.  Adaptive runs fill ``inner_loops`` (failed trials while
    leaving row k), ``alpha_hat`` and ``L_hat`` (accepted values for that
    step; NaN on the final row).  Accelerated runs fill the ``y_*``
    arrays with one row per extrapolation point evaluated.

    ``x_final``/``final_f_gap`` give the terminal point, which for an
    accelerated run halted by a declared stop can be an extrapolation
    point rather than the last main-sequence row.
    """

    k: np.ndarray
    f_gap: np.ndarray
    grad_norm: np.ndarray
    noisy_grad_norm: np.ndarray
    terminal: str
    x_final: np.ndarray
    final_f_gap: float
    declared_alpha: float
    declared_delta: float
    inner_loops: Optional[np.ndarray] = None
    alpha_hat: Optional[np.ndarray] = None
    L_hat: Optional[np.ndarray] = None
    y_f_gap: Optional[np.ndarray] = None
    y_grad_norm: Optional[np.ndarray] = None
    y_noisy_grad_norm: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        """Number of executed steps (rows minus one)."""
        return len(self.k) - 1

    @property
    def total_inner_loops(self) -> int:
        if self.inner_loops is None:
            return 0
        return int(self.inner_loops.sum())

    def __len__(self) -> int:
        return len(self.k)


class _TraceError(RuntimeError):
    """An end of a run that carries its trace."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


class DivergedError(_TraceError):
    """A non-finite iterate appeared; carries the trace up to the last finite row."""


class InnerLoopStallError(_TraceError):
    """Backtracking failed INNER_LOOP_CAP trials in one step.

    Indicates an oracle whose error conforms to no (alpha, delta) with
    alpha < 1 at the queried point.  Carries the trace so far.
    """


class _Halt(_TraceError):
    """A declared stop ended the run; carries the finished trace."""


_X_COLUMNS = ("f_gap", "grad_norm", "noisy_grad_norm")
_ADAPTIVE_COLUMNS = ("inner_loops", "alpha_hat", "L_hat")
_Y_COLUMNS = ("y_f_gap", "y_grad_norm", "y_noisy_grad_norm")


class _Core:
    """The stepping core: one run's loop, guards, stops and trace rows.

    A runner supplies only its update rule, ``step(k, x, f_val, est,
    noisy_norm) -> (next x, its f or NaN)``, which writes every point it
    makes into ``row()`` with ``out=``, and ``run`` visits rows 0..steps
    around it.  The pending points are rows of one of two (block, dim)
    buffers, ``block_rows(dim)`` rows each, used in turn: ``row()`` is the
    next free row, row 0 of the other buffer when the block is full, and
    ``visit`` flushes the full block when that point arrives.  A block's
    rows are written again only after the next block is flushed, so an
    update rule reads its x and y rows freely, and what outlives that is
    copied (``last_x``; re_agm rebinds its first u before then).
    ``visit`` does what the method needs to go on and pends the row in
    per-field lists: its noisy norm (NaN if unqueried), f(x) if
    ``at_point`` and whether it is a y point if ``accelerated``, and
    beside them a queried row's exact gradient in ``exacts``; the row's
    place gives its k.  ``adaptive`` keeps the inner_loops/alpha_hat/L_hat
    columns, which ``trials`` sets for the step leaving the latest row;
    ``accelerated`` keeps the y columns, which the update rule fills by
    visiting its extrapolation points.  ``flush`` fills a (field x row)
    array from the lists and the block's slice of its buffer: the
    gradient norms, the queried ones' from the exact gradients, and what
    else the rows lack from the row kernels; it tests the block's gaps
    once and stores its checked rows as one array per kind of row.  A
    failing row raises its error after the rows before it are stored, so
    a deferred overflowing f or a wrong f_star is found up to a block of
    queries late.  ``at_point`` settles f(x) in ``visit``, before the
    query, where the adaptive predicate, a block of one row or a gap
    target reads it; otherwise every f(x) is deferred.  f(x), its
    finiteness and the gap floor are the run's problem's; the gradient
    norms are those of the problem the oracle estimates.
    """

    def __init__(self, problem: ObjectiveProblem, oracle: GradientOracle,
                 adaptive: bool = False, accelerated: bool = False,
                 gap_target: Optional[float] = None, threshold: Optional[float] = None):
        self.problem = problem
        self.oracle = oracle
        self.gap_target = gap_target
        self.threshold = threshold
        self.block = block_rows(problem.dim)
        self.at_point = adaptive or self.block == 1 or gap_target is not None
        # the points of the pending rows, n of them, are X[:n]; their fields
        # are lists: noisy norms (n), f(x) if at_point, is_y if accelerated
        # and the adaptive fields; beside them the queried rows' exact gradients
        self.X, self.spare = np.empty((2, self.block, problem.dim))
        self.noisy, self.values, self.is_y, *self.trial = self.fields = [
            [] for _ in range(6 if adaptive else 3)]
        self.exacts = []
        # relative, like the package's other 1e-9 tolerances: the computed
        # f(x) - f_star carries rounding error on the scale of |f_star|
        self.floor = _GAP_FLOOR * max(1.0, abs(problem.f_star))
        self.x_names = _X_COLUMNS + (_ADAPTIVE_COLUMNS if adaptive else ())
        # each kind's stored (field x row) blocks, after an empty one so
        # that a run with no stored row joins to empty columns
        self.x_blocks = [np.empty((len(self.x_names), 0))]
        self.y_blocks = [np.empty((len(_Y_COLUMNS), 0))] if accelerated else None

    def run(self, steps: int, x0, step: Callable[..., tuple]) -> RunTrace:
        dim = self.problem.dim
        self.estimated = self.oracle.problem  # gives every row's grad_norm
        x = self.row()
        x[:] = self.last_x = np.zeros(dim) if x0 is None else as_vector(x0, dim)
        f_val = math.nan
        accelerated = self.y_blocks is not None
        # an overflow ends in DivergedError or a failed trial, not a warning
        with np.errstate(over="ignore"):
            try:
                for k in range(steps + 1):
                    last = k == steps
                    # the accelerated method steps from its y points
                    f_val, est, noisy_norm = self.visit(k, x, not (last or accelerated), f_val)
                    if last:  # no step leaves the last row
                        self.trials(0, math.nan, math.nan)
                        break
                    x, f_val = step(k, x, f_val, est, noisy_norm)
                self.flush()
            except _Halt as halt:
                return halt.trace
        # the last x row is the final point; the buffers go before the columns are joined
        x = self.X = self.spare = None
        return self.build(TERMINAL_STEPS_EXHAUSTED, self.last_x)

    def row(self) -> np.ndarray:
        """The next point's row, for the update rule to write: row 0 of the
        spare buffer when the block is full, which ``visit`` then flushes."""
        n = len(self.noisy)
        return self.X[n] if n < self.block else self.spare[0]

    def visit(self, k: int, x: np.ndarray, query: bool, f_val: float = math.nan,
              is_y: bool = False) -> tuple:
        """Check and query row k's x or y point, the one ``row()`` gave
        (``f_val``: f(x), NaN if not evaluated), pend it and return its
        (f_val, estimate, noisy norm)."""
        if len(self.noisy) == self.block:  # its errors come before this point's
            self.flush()
        # the one validation of x, a float64 row of the problem's dimension:
        # a finite sum of squares means finite entries, and under run's
        # errstate a sum that overflows raises no warning
        if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
            raise self.abort(DivergedError, f"non-finite iterate at step {k}")
        halt, est, noisy_norm = False, None, math.nan
        if self.at_point:  # f(x) is checked before the query
            f_val = self.settle(k, x, f_val)
            # a gap target ends the run here, before a query
            halt = self.gap_target is not None and f_val - self.problem.f_star <= self.gap_target
            query = query and not halt
        if query:
            try:
                est, exact = self.oracle.estimate_with_exact(x, checked=True)
            except Exception:  # an earlier row's error, or this f(x)'s, comes first
                self.settle(k, x, f_val)
                self.flush()
                raise
            # sqrt(v.dot(v)) is np.linalg.norm's formula for a real 1-D v;
            # a finite sum of squares means finite entries, and a finite
            # estimate whose sum overflows still passes, so a queried
            # row's noisy norm is never NaN
            est_sq = est.dot(est)
            if not math.isfinite(est_sq) and not np.isfinite(est).all():
                self.settle(k, x, f_val)
                raise self.abort(DivergedError, f"non-finite gradient estimate at step {k}")
            noisy_norm = math.sqrt(est_sq)
            halt = self.threshold is not None and noisy_norm <= self.threshold
            self.exacts.append(exact)
        self.noisy.append(noisy_norm)
        if self.at_point:
            self.values.append(f_val)
        if self.y_blocks is not None:
            self.is_y.append(is_y)
        if halt:
            self.flush()
            raise _Halt("declared stop", self.build(TERMINAL_STOPPING_RULE, x, is_y))
        return f_val, est, noisy_norm

    def settle(self, k: int, x: np.ndarray, f_val: float) -> float:
        """f(x) at point k; if it is not finite, raise that (after any earlier row's error)."""
        if math.isnan(f_val):
            f_val = self.problem._value(x)
        if not math.isfinite(f_val):
            raise self.abort(DivergedError, f"non-finite objective value at step {k}")
        return f_val

    def flush(self) -> None:
        """Take the pending rows' gradient norms, evaluate what else they lack
        with the row kernels, test the block once and store it; a failing
        row raises after the rows before it."""
        n = len(self.noisy)
        if not n:
            return
        # the block's points; the next block's go to the other buffer
        X, self.X, self.spare = self.X[:n], self.spare, self.X
        block = np.empty((len(self.x_names), n))  # (field x row) float64
        block[2:] = [self.noisy, *self.trial]  # the rows the lists hold
        values, grads, noisy = block[:3]
        unqueried = np.isnan(noisy)
        if self.exacts:  # stacked, C-contiguous rows: the 1-D norm's bits; freed at once
            grads[~unqueried], self.exacts = row_norms(np.array(self.exacts)), []
        values[:] = self.values if self.at_point else self.problem._values(X)
        if unqueried.any():
            grads[unqueried] = row_norms(self.estimated._gradients(X[unqueried]))
        is_y = np.array(self.is_y, dtype=bool)
        for column in self.fields:
            column.clear()
        gaps = np.subtract(values, self.problem.f_star, out=values)  # the f row, in place
        bad = ~(np.isfinite(gaps) & (gaps >= self.floor))
        stop = int(bad.argmax()) if bad.any() else n
        if stop:  # the checked rows, x rows and y points apart
            rows, x_at = block[:, :stop], range(stop)
            if self.y_blocks is not None:
                self.y_blocks.append(rows[:, is_y[:stop]])
                rows, x_at = rows[:, ~is_y[:stop]], np.flatnonzero(~is_y[:stop])
            self.x_blocks.append(rows)
            if len(x_at):  # x_final for abort, copied: its buffer row is reused
                self.last_x = X[x_at[-1]].copy()
        if stop < n:
            y = stop < len(is_y) and is_y[stop]
            k = sum(b.shape[1] for b in (self.y_blocks if y else self.x_blocks))  # stored before it
            if not math.isfinite(gaps[stop]):
                raise self.abort(DivergedError, f"non-finite objective value at step {k}")
            where = f"{'y point' if y else 'row'} {k}"
            raise AssertionError(f"f_gap {float(gaps[stop])} below {self.floor} at {where}: bad f_star?")

    def trials(self, fails: int, alpha_hat: float, L_hat: float) -> None:
        """Set the adaptive fields of the latest row, still pending, to the step leaving it."""
        for column, value in zip(self.trial, (fails, alpha_hat, L_hat)):
            column.append(value)

    def abort(self, error, message: str) -> RuntimeError:
        """``error`` carrying the rows so far, to the last x row (a failing pending row raises first)."""
        self.flush()
        terminal = _TERMINAL_STALLED if error is InnerLoopStallError else _TERMINAL_DIVERGED
        return error(message, self.build(terminal, self.last_x))

    def build(self, terminal: str, x_final: np.ndarray, is_y: bool = False) -> RunTrace:
        """The trace so far; its final gap is that of the last x row, or y point if ``is_y``."""
        columns = dict(zip(self.x_names, np.concatenate(self.x_blocks, axis=1)))
        if self.y_blocks is not None:
            columns.update(zip(_Y_COLUMNS, np.concatenate(self.y_blocks, axis=1)))
        if "inner_loops" in columns:  # cast in place: a copy would keep the table's float row alive
            loops = columns["inner_loops"] = columns["inner_loops"].view(np.int64)
            loops[:] = loops.view(np.float64)
        gaps = columns["y_f_gap" if is_y else "f_gap"]
        return RunTrace(
            k=np.arange(len(columns["f_gap"]), dtype=np.int64),
            terminal=terminal,
            x_final=np.array(x_final, dtype=np.float64, copy=True),
            final_f_gap=float(gaps[-1]) if len(gaps) else math.nan,
            declared_alpha=self.oracle.declared_alpha,
            declared_delta=self.oracle.declared_delta,
            **columns,
        )


# benchmarks/tracer.py still calls each runner with monitor=None: the keyword
# goes with the tracer's _monitored wrapper (ROADMAP item 2)
def _no_monitor(monitor) -> None:
    if monitor is not None:
        raise TypeError("the runners take no monitor; read the returned RunTrace's columns")


def gd_run(problem: ObjectiveProblem, oracle: GradientOracle, cfg: GDConfig,
           x0=None, monitor=None) -> RunTrace:
    """Run N fixed steps x <- x - h * estimate(x).

    The step size comes from cfg.alpha/cfg.L; if cfg.alpha understates
    the oracle's declared relative level the run proceeds but is flagged
    with a warning, since the descent guarantees no longer apply.
    """
    _no_monitor(monitor)
    if cfg.alpha < oracle.declared_alpha:
        warnings.warn(
            f"config alpha={cfg.alpha} is below the oracle's declared "
            f"relative level {oracle.declared_alpha}; descent guarantees do not apply",
            stacklevel=2,
        )
    h = np.array(cfg.step_size)  # a 0-d factor: see re_agm_run
    core = _Core(problem, oracle, gap_target=cfg.gap_target, threshold=cfg.threshold)
    return core.run(cfg.steps, x0, lambda k, x, f_val, est, noisy_norm: (
        np.subtract(x, h * est, out=core.row()), math.nan))


def re_agm_run(problem: ObjectiveProblem, oracle: GradientOracle, cfg: ReAgmConfig,
               x0=None, monitor=None) -> RunTrace:
    """Run the accelerated two-sequence recursion.

    Starting from u = x, each iteration extrapolates
    y = (omega*u + x)/(1 + omega), queries the oracle at y, then updates
    u <- (1-omega)u + omega*y - (2 omega/mu) estimate and takes the
    descent step x <- y - h*estimate.  Row k of the trace is x^k; the
    y_* arrays record every extrapolation point.

    The x rows are never queried, so their noisy norms are NaN, and a
    declared stop at y makes that y the terminal point (see RunTrace).
    """
    _no_monitor(monitor)
    w = cfg.parameters.omega
    # the step's factors, fixed for the run, as 0-d float64 arrays: numpy
    # multiplies a vector by one faster than by a Python float, with the
    # same IEEE product
    omega, y_div, u_keep, u_grad, h = map(np.array, (
        w, 1.0 + w, 1.0 - w, 2.0 * w / cfg.mu, cfg.parameters.h))
    core = _Core(problem, oracle, accelerated=True, gap_target=cfg.gap_target,
                 threshold=cfg.threshold)
    u = None

    def step(k, x, f_val, est, noisy_norm) -> tuple:
        nonlocal u
        if u is None:  # x0's row is not written again before u is
            u = x
        y = np.divide(omega * u + x, y_div, out=core.row())
        est = core.visit(k, y, True, is_y=True)[1]
        u = u_keep * u + omega * y - u_grad * est
        return np.subtract(y, h * est, out=core.row()), math.nan

    return core.run(cfg.steps, x0, step)


def _adaptive_coefficients(t: int, L0: float, adapt_L: bool):
    alpha_hat = 1.0 - 2.0 ** (-t)
    L_hat = L0 * 2.0**t if adapt_L else L0
    ratio = (1.0 - alpha_hat) / (1.0 + alpha_hat)
    h = math.sqrt(ratio) / (4.0 * L_hat)
    theta = ratio / (32.0 * L_hat)
    return alpha_hat, L_hat, h, theta


def adaptive_gd_run(problem: ObjectiveProblem, oracle: GradientOracle,
                    cfg: AdaptiveGDConfig, x0=None, monitor=None) -> RunTrace:
    """Backtracking descent with doubling error-level guesses.

    Each outer step reuses one oracle query and retries the step with
    t = J, J+1, ... (alpha_hat = 1 - 2^-t; L_hat = L0 * 2^t when adapt_L)
    until exact function values satisfy the acceptance predicate

        f(x+) <= f(x) - theta ||estimate||^2 + 3 delta^2/(4 (1+alpha_hat)^2 L_hat).

    After acceptance J decreases by one (floored at 1), so the failed
    trial count telescopes: across N steps it stays within
    N + max(log2(1/(1-alpha)), log2(L/L0)) + 1 for conforming oracles.
    inner_loops[k] records failed trials while leaving row k.
    """
    _no_monitor(monitor)
    core = _Core(problem, oracle, adaptive=True)
    J = 1
    delta_sq = cfg.delta * cfg.delta

    def step(k, x, f_val, est, noisy_norm) -> tuple:
        nonlocal J
        est_sq = noisy_norm * noisy_norm
        fails = 0
        t = J
        while True:
            alpha_hat, L_hat, h, theta = _adaptive_coefficients(t, cfg.L0, cfg.adapt_L)
            x_next = np.subtract(x, h * est, out=core.row())  # the accepted trial stays
            # the trusted kernel: a trial point that overflows gets a
            # non-finite value and fails below like any rejected trial
            f_next = problem._value(x_next)
            allowed = f_val - theta * est_sq + 3.0 * delta_sq / (4.0 * (1.0 + alpha_hat) ** 2 * L_hat)
            # h == 0 means alpha_hat hit 1 in floats; such a "step" can
            # only pass vacuously, so count it as a failure to let
            # violating oracles reach the cap instead of freezing
            if h > 0.0 and math.isfinite(f_next) and f_next <= allowed:
                break
            fails += 1
            if fails >= INNER_LOOP_CAP:
                core.trials(fails, alpha_hat, L_hat)
                raise core.abort(
                    InnerLoopStallError,
                    f"step {k}: {fails} rejected trials (last alpha_hat={alpha_hat}, "
                    f"L_hat={L_hat}); oracle error fits no alpha < 1")
            t += 1
        core.trials(fails, alpha_hat, L_hat)
        J = max(1, t - 1)
        # the accepted trial's value is the next row's: the core reuses it
        return x_next, f_next

    return core.run(cfg.steps, x0, step)
