"""The three workloads: inputs generated from a seed, one timed round, checks.

A round is a fixed list of operations.  Each operation's program call is
timed on its own; its checks run after the clock stops and use only
closed_forms, never ngl.  Rounds of one workload and seed repeat the
same operations on the same inputs: oracles are rebuilt from their
specs in every round, so every round replays the same noise stream.

The host is shared, and the same code runs up to 2-3x slower from one
minute to the next.  So each operation is also timed against a fixed
reference kernel run before, during and after it, which uses numpy but
nothing of ngl, and Round.ref_wall rescales each operation's time by
the kernel's speed while it ran.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import closed_forms as cf

KNOWN_FAULT = (
    "large-scale f_gap floor: `ngl run` of noiseless gd on "
    "nesterov_strongly_convex(1e7, 1e8, 5000) exits 1 with AssertionError "
    "'f_gap -1.86e-09 below -1e-09 at row 644', because solvers._GAP_FLOOR is "
    "an absolute floor on value(x) - f_star while |f_star| is about 5.8e6"
)
SUBPROCESS_TIMEOUT_S = 120.0
SRC = Path(__file__).resolve().parent.parent / "src"
SAMPLED, ADVERSARIAL = "sampled_unbiased", "adversarial_opposing"

_KERNEL_N, _KERNEL_ITERS = 100, 200
_KERNEL_A = 2.0 * np.eye(_KERNEL_N) - np.eye(_KERNEL_N, k=1) - np.eye(_KERNEL_N, k=-1)
_KERNEL_B = np.ones(_KERNEL_N)
# the kernel's time on the reference host (README), so that rescaled times
# read as seconds on that host at its usual speed
KERNEL_REF_S = 1.6e-3
SAMPLE_PERIOD_S = 0.05
SAMPLING = True  # off while traced: the samples would count as self time of ngl spans


@dataclass
class Op:
    name: str
    seconds: float = 0.0
    steps: int = 0
    error: str | None = None
    known_fault: bool = False
    kernel_s: float = KERNEL_REF_S

    @property
    def ref_seconds(self) -> float:
        """``seconds`` at the reference host's speed."""
        return self.seconds * KERNEL_REF_S / self.kernel_s


@dataclass
class Round:
    ops: list
    extra: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def ref_wall(self) -> float:
        return sum(op.ref_seconds for op in self.ops)

    @property
    def steps(self) -> int:
        return sum(op.steps for op in self.ops)


def derived_seeds(seed: int, count: int) -> list:
    """Oracle seeds for one workload, a pure function of the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def kernel_s() -> float:
    """One timing of the reference kernel: small numpy calls in a Python loop."""
    t0 = time.perf_counter()
    x = np.zeros(_KERNEL_N)
    for _ in range(_KERNEL_ITERS):
        x = x - 0.01 * (_KERNEL_A @ x - _KERNEL_B)
    return time.perf_counter() - t0


def clocked(op: Op, call):
    """``call()``, its wall time in ``op.seconds`` and the kernel's beside it in ``op.kernel_s``.

    The kernel's time is the mean of its timings: two just before the
    call, two just after it and, while SAMPLING is on, one every
    SAMPLE_PERIOD_S during it, from a SIGALRM handler that runs between
    the call's own bytecodes.  The time the handler takes is not counted
    in ``op.seconds``.
    """
    samples, spent = [kernel_s(), kernel_s()], [0.0]

    def sample(signum, frame):
        t0 = time.perf_counter()
        samples.append(kernel_s())
        spent[0] += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample) if SAMPLING else None
    if SAMPLING:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        return call()
    finally:
        if SAMPLING:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        op.seconds = time.perf_counter() - t0 - spent[0]
        if SAMPLING:
            signal.signal(signal.SIGALRM, previous)
        samples += [kernel_s(), kernel_s()]
        op.kernel_s = sum(samples) / len(samples)


def timed(name, call, check) -> Op:
    """Run ``call`` under the clock, then ``check(output) -> (steps, error)``."""
    op = Op(name)
    try:
        out = clocked(op, call)
    except Exception as exc:  # a crash is this operation's failure, not the run's
        op.error = f"{type(exc).__name__}: {exc}"
        return op
    op.steps, op.error = check(out)
    return op


def spawn(argv, cwd, timeout=SUBPROCESS_TIMEOUT_S):
    """(exit code, stdout, stderr, seconds) of a child process group.

    The child imports ngl from this checkout's src and sees no NGL_SEED.
    On timeout the whole group is killed and reaped, so no pool worker
    outlives the benchmark.
    """
    env = {k: v for k, v in os.environ.items() if k != "NGL_SEED"}
    env["PYTHONPATH"] = str(SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, err + f"\ntimed out after {timeout} s", time.perf_counter() - t0
    return proc.returncode, out, err, time.perf_counter() - t0


def _first(*errors):
    return next((e for e in errors if e), None)


class DescentGrid:
    """test_01's shape: twelve fixed-step gd runs and their GD_PL envelopes."""

    name = "descent_grid"
    MU, L, N = 1.0, 100.0, 100

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.steps = 3000
        levels = [(a, d, m) for a in (0.0, 0.25, 0.5) for d in (0.0, 0.1)
                  for m in (SAMPLED, ADVERSARIAL)]
        if small:
            levels = [lv for lv in levels if (lv[0], lv[1]) in ((0.0, 0.0), (0.5, 0.1))]
        self.levels = [lv + (s,) for lv, s in zip(levels, derived_seeds(seed, len(levels)))]
        self.H, self.x_star = cf.strongly_convex_chain(self.MU, self.L, self.N)
        self.f0 = cf.gap(self.H, self.x_star, np.zeros(self.N))
        self.R = float(np.linalg.norm(self.x_star))

    def setup(self) -> None:
        import ngl
        self.ngl = ngl
        self.problem = ngl.nesterov_strongly_convex(self.MU, self.L, self.N)
        self.specs = [ngl.NoiseSpec(alpha=a, delta=d, mode=m, seed=s)
                      for a, d, m, s in self.levels]

    def _descend(self, spec):
        ngl, p = self.ngl, self.problem
        oracle = ngl.SyntheticNoiseOracle(p, spec)
        trace = ngl.gd_run(p, oracle, ngl.GDConfig(steps=self.steps, alpha=spec.alpha, L=p.L))
        env = ngl.envelope("GD_PL", ngl.EnvelopeConstants(
            mu=p.mu, L=p.L, alpha=spec.alpha, delta=spec.delta, f0_gap=self.f0, R=self.R))
        return trace, env.curve(trace.k)

    def check(self, spec, out):
        trace, printed = out
        what = f"gd alpha={spec.alpha} delta={spec.delta} {spec.mode}"
        env = cf.gd_pl(self.MU, self.L, spec.alpha, spec.delta, self.f0)
        floor_miss = None
        if (spec.alpha, spec.delta) == (0.5, 0.1) and not trace.f_gap.min() <= env[2] * (1.0 + 1e-6):
            floor_miss = f"{what}: never reached the floor {env[2]:.6g}"
        return trace.iterations, _first(
            cf.check_under(trace.f_gap, trace.k, env, what),
            cf.check_same_curve(printed, trace.k, env, what),
            floor_miss,
            cf.check_final_gap(trace.final_f_gap, cf.gap(self.H, self.x_star, trace.x_final),
                               self.f0, what))

    def run_round(self) -> Round:
        return Round([timed(f"gd/{s.mode}/a{s.alpha}/d{s.delta}",
                            lambda s=s: self._descend(s), lambda out, s=s: self.check(s, out))
                      for s in self.specs])


class AccelRoutes:
    """The accelerated solver under every drivers route, plus floor runs."""

    name = "accel_routes"
    STOP_DELTA, STOP_K = 1e-3, 10.0
    RESTART_ALPHA, RESTART_DELTA, RESTART_EPS = 0.1, 0.01, 1e-4
    FLOOR_DELTA = 100.0

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.floor_steps = 300 if small else 3000
        s = derived_seeds(seed, 6)
        self.seeds = s
        # test_07: nesterov_strongly_convex(1, 100, 30), sampled delta = 1e-3
        self.stop = self._reference("sc", 1.0, 100.0, 30)
        # test_08: nesterov_convex(10, 100, 50), epsilon = L R^2 / 100
        self.ridge = self._reference("c", 10, 100.0, 50)
        self.epsilon = 100.0 * self.ridge["R"] ** 2 / 100.0
        self.restart = self._reference("sc", 1.0, 100.0, 100)
        # test_04: nesterov_strongly_convex(0.01, 100, 100), delta = 100
        self.floor = self._reference("sc", 0.01, 100.0, 100)
        self.floor_alphas = ((1.0 / 3.0) * (0.01 / 200.0) ** 0.5, 0.028, 1.0 / 3.0)

    @staticmethod
    def _reference(kind, a, L, n):
        H, x_star = (cf.strongly_convex_chain if kind == "sc" else cf.convex_chain)(a, L, n)
        return {"args": (a, L, n), "H": H, "x_star": x_star,
                "f0": cf.gap(H, x_star, np.zeros(n)), "R": float(np.linalg.norm(x_star))}

    def setup(self) -> None:
        import ngl
        self.ngl = ngl
        self.p_stop = ngl.nesterov_strongly_convex(*self.stop["args"])
        self.p_ridge = ngl.nesterov_convex(*self.ridge["args"])
        self.p_restart = ngl.nesterov_strongly_convex(*self.restart["args"])
        self.p_floor = ngl.nesterov_strongly_convex(*self.floor["args"])

    def _oracle(self, problem, alpha, delta, seed):
        ngl = self.ngl
        return ngl.SyntheticNoiseOracle(problem, ngl.NoiseSpec(alpha=alpha, delta=delta,
                                                               mode=SAMPLED, seed=seed))

    def _gap(self, ref, x):
        return cf.gap(ref["H"], ref["x_star"], x)

    # stopping rule, test_07 shape
    def _stopping(self):
        ngl, p, ref = self.ngl, self.p_stop, self.stop
        budget = ngl.iteration_budget("REAGM_STOP", ngl.EnvelopeConstants(
            mu=p.mu, L=p.L, alpha=0.0, delta=self.STOP_DELTA, f0_gap=ref["f0"], R=ref["R"],
            K=self.STOP_K))
        trace = ngl.run_with_stopping(
            "re_agm", p, self._oracle(p, 0.0, self.STOP_DELTA, self.seeds[0]),
            ngl.StoppingRule(K=self.STOP_K, delta=self.STOP_DELTA),
            alpha_hat=1.0 / self.STOP_K, N_cap=budget)
        return budget, trace

    def _check_stopping(self, out):
        budget, trace = out
        mu, L, _ = self.stop["args"]
        ours = cf.reagm_stop_budget(mu, L, 0.0, self.STOP_DELTA, self.STOP_K, self.stop["R"])
        level = cf.stopping_level(mu, 0.0, self.STOP_DELTA, self.STOP_K)
        exact = self._gap(self.stop, trace.x_final)
        what = "stopping/re_agm"
        return trace.iterations, _first(
            None if budget == ours else f"{what}: budget {budget}, closed form {ours}",
            None if trace.terminal == "stopping_rule" else f"{what}: ended by {trace.terminal}",
            None if trace.iterations <= ours else f"{what}: {trace.iterations} > budget {ours}",
            None if exact <= level + 1e-12 else f"{what}: exit gap {exact:.6g} above 122 delta^2 = {level:.6g}",
            cf.check_final_gap(trace.final_f_gap, exact, self.stop["f0"], what))

    # ridge routes, test_08 shape
    def _check_ridge(self, what, budget, trace):
        exact = self._gap(self.ridge, trace.x_final)
        return trace.iterations, _first(
            None if trace.iterations <= budget else f"{what}: {trace.iterations} > budget {budget}",
            None if exact <= self.epsilon * (1.0 + 1e-12) else
            f"{what}: base gap {exact:.6g} misses epsilon {self.epsilon:.6g}",
            cf.check_final_gap(trace.final_f_gap, exact, self.ridge["f0"], what))

    def _ridge_ops(self):
        ngl, p, R, eps = self.ngl, self.p_ridge, self.ridge["R"], self.epsilon
        L = self.ridge["args"][1]
        ops = []
        for alpha in (0.0, 0.25):
            what = f"ridge/gd/a{alpha}"
            ops.append(timed(
                what,
                lambda a=alpha: ngl.solve_convex_gd(p, self._oracle(p, a, 0.0, self.seeds[1]), eps, R),
                lambda tr, w=what, a=alpha: self._check_ridge(w, cf.gd_reg_budget(L, R, a, eps), tr)))
        for beta, alpha in ((0.0, 0.0), (0.0, 0.25), (0.5, 0.0), (0.5, 0.009)):
            what = f"ridge/re_agm/b{beta}/a{alpha}"
            ops.append(timed(
                what,
                lambda a=alpha, b=beta: ngl.solve_convex_re_agm(
                    p, self._oracle(p, a, 0.0, self.seeds[2]), eps, b, R),
                lambda tr, w=what, b=beta: self._check_ridge(w, cf.reagm_reg_budget(L, R, eps, b), tr)))
        return ops

    # geometric restarts
    def _check_restart(self, solver, result):
        mu, L, _ = self.restart["args"]
        alpha, delta = self.RESTART_ALPHA, self.RESTART_DELTA
        exact = self._gap(self.restart, result.trace.x_final)
        what = f"restart/{solver}"
        missed = [s.index for s in result.stages if not s.achieved_gap <= s.target]
        if result.floor_reached:
            last = result.stages[-1].target if result.stages else self.restart["f0"]
            env = (cf.gd_pl(mu, L, alpha, delta, 0.0) if solver == "gd"
                   else cf.reagm(mu, L, alpha, delta, 0.0, 0.0))
            end = (None if last / 2.0 <= env[2] * (1.0 + 1e-12) else
                   f"{what}: floor_reached with next target {last / 2.0:.6g} above floor {env[2]:.6g}")
        else:
            end = (None if exact <= self.RESTART_EPS * (1.0 + 1e-12) else
                   f"{what}: final gap {exact:.6g} above epsilon")
        return result.trace.iterations, _first(
            f"{what}: stages {missed} missed their targets" if missed else None,
            end,
            cf.check_final_gap(result.final_f_gap, exact, self.restart["f0"], what))

    # unmonitored floor runs, test_04 levels
    def _floor_run(self, alpha, seed):
        ngl, p, ref = self.ngl, self.p_floor, self.floor
        trace = ngl.re_agm_run(p, self._oracle(p, alpha, self.FLOOR_DELTA, seed),
                               ngl.ReAgmConfig(steps=self.floor_steps, mu=p.mu, L=p.L, alpha=alpha))
        env = ngl.envelope("REAGM", ngl.EnvelopeConstants(
            mu=p.mu, L=p.L, alpha=alpha, delta=self.FLOOR_DELTA, f0_gap=ref["f0"], R=ref["R"]))
        return trace, env.curve(trace.k)

    def _check_floor(self, alpha, out):
        trace, printed = out
        mu, L, _ = self.floor["args"]
        env = cf.reagm(mu, L, alpha, self.FLOOR_DELTA, self.floor["f0"], self.floor["R"])
        what = f"floor/re_agm/a{alpha:.6g}"
        return trace.iterations, _first(
            cf.check_under(trace.f_gap, trace.k, env, what),
            cf.check_same_curve(printed, trace.k, env, what),
            cf.check_final_gap(trace.final_f_gap, self._gap(self.floor, trace.x_final),
                               self.floor["f0"], what))

    def run_round(self) -> Round:
        ngl = self.ngl
        ops = [timed("stopping/re_agm", self._stopping, self._check_stopping)]
        ops += self._ridge_ops()
        for solver in ("gd", "re_agm"):
            ops.append(timed(
                f"restart/{solver}",
                lambda s=solver: ngl.restart_to_convex(
                    s, self.p_restart,
                    self._oracle(self.p_restart, self.RESTART_ALPHA, self.RESTART_DELTA, self.seeds[3]),
                    self.RESTART_EPS),
                lambda res, s=solver: self._check_restart(s, res)))
        for i, alpha in enumerate(self.floor_alphas):
            ops.append(timed(f"floor/re_agm/{i}",
                             lambda a=alpha, s=self.seeds[4] + i: self._floor_run(a, s),
                             lambda out, a=alpha: self._check_floor(a, out)))
        return Round(ops)


class CliMix:
    """`ngl run`, `ngl sweep` and `ngl verify`, through ``ngl.cli.main`` in this process.

    A fresh `python -m ngl.cli` per operation would spend most of the round
    on interpreter start-up, whose time the reference kernel does not
    track; start-up is timed instead as this workload's set-up.
    """

    name = "cli_mix"

    def __init__(self, seed: int, small: bool = False, workdir: Path | None = None):
        self.workdir = Path(workdir)
        self.cfg_dir = self.workdir / "configs"
        self.out = self.workdir / "out"
        s = derived_seeds(seed, 3)

        def n(full, reduced):
            return reduced if small else full

        quad = {"problem.family": "quadratic", "problem.mu": 1.0, "problem.L": 10.0,
                "problem.n": 16, "solver.name": "gd"}
        chain = {"problem.family": "nesterov_strongly_convex", "problem.mu": 1.0,
                 "problem.L": 100.0, "problem.n": 50, "oracle.mode": ADVERSARIAL,
                 "oracle.alpha": 0.3, "oracle.seed": s[0], "solver.name": "adaptive_gd",
                 "solver.N": n(1000, 100)}
        self.runs = {
            "top_k": {**quad, "oracle.mode": "top_k", "oracle.k": 4, "solver.N": n(2000, 200)},
            "sign": {**quad, "oracle.mode": "sign", "solver.N": n(2000, 200)},
            "grid": {**quad, "oracle.mode": "grid", "oracle.m": 64, "solver.N": n(2000, 200)},
            "finite_difference": {**quad, "oracle.mode": "finite_difference", "oracle.h": 1e-4,
                                  "oracle.value_noise": 1e-9, "oracle.seed": s[1],
                                  "solver.N": n(500, 50)},
            "reduced_precision": {**quad, "oracle.mode": "reduced_precision",
                                  "oracle.precision_bits": 20, "oracle.domain_radius": 8.0,
                                  "solver.N": n(20, 3)},
            "adaptive_adapt_L": {**chain, "solver.L0": 12.5, "solver.tau": True},
            "adaptive_fixed_L": {**chain, "solver.tau": False},
        }
        self.sweep = {"problem.family": "nesterov_strongly_convex", "problem.mu": 0.01,
                      "problem.L": 100.0, "problem.n": 100, "oracle.mode": SAMPLED,
                      "oracle.alpha": [(1.0 / 3.0) * (0.01 / 200.0) ** 0.5, 0.028, 1.0 / 3.0],
                      "oracle.delta": 100.0, "oracle.seed": s[2], "solver.name": "re_agm",
                      "solver.N": n(1000, 100)}
        # noiseless, so the same on every seed; see KNOWN_FAULT
        self.fault = {"problem.family": "nesterov_strongly_convex", "problem.mu": 1e7,
                      "problem.L": 1e8, "problem.n": 5000, "oracle.mode": "none",
                      "solver.name": "gd", "solver.N": 1000}

    def _config(self, name, cfg) -> str:
        path = self.cfg_dir / f"{name}.json"
        path.write_text(json.dumps({**cfg, "output.dir": str(self.out / name)}, indent=1))
        return str(path)

    def setup(self) -> None:
        import ngl.cli
        self.cli = ngl.cli
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {name: self._config(name, cfg) for name, cfg in self.runs.items()}
        for jobs in (1, 2):
            self.configs[f"sweep_jobs{jobs}"] = self._config(f"sweep_jobs{jobs}", self.sweep)
        self.configs["fault_large_scale"] = self._config("fault_large_scale", self.fault)

    def _ngl(self, name, argv):
        """Op plus (code, stdout, stderr) for one ngl invocation."""
        op = Op(name)
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is what `ngl` would exit 1 with
                err.write(traceback.format_exc())
                return 1

        code = clocked(op, call)
        return op, (code, out.getvalue(), err.getvalue())

    @staticmethod
    def _exit_error(name, code, stderr):
        tail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"{name}: exit {code} {tail}"

    def _check_run(self, name, result):
        code, _, stderr = result
        if code != 0:
            return 0, self._exit_error(name, code, stderr)
        steps, err = cf.check_trace_csv(self.out / name / "trace.csv")
        if err:
            return 0, f"{name}: {err}"
        try:
            summary = json.loads((self.out / name / "summary.json").read_text())
            agrees = summary["iterations"] == steps and summary["envelope_violations"] == 0
        except (OSError, ValueError, KeyError) as exc:
            return steps, f"{name}: summary.json unreadable: {exc!r}"
        return steps, None if agrees else f"{name}: summary.json disagrees with trace.csv"

    def _check_sweep(self, jobs, result):
        code, _, stderr = result
        name = f"sweep_jobs{jobs}"
        if code != 0:
            return 0, self._exit_error(name, code, stderr)
        steps = 0
        for i in range(3):
            s, err = cf.check_trace_csv(self.out / name / f"run_{i:03d}" / "trace.csv")
            if err:
                return steps, f"{name}: {err}"
            steps += s
        if jobs == 2:
            for i in range(3):
                one = (self.out / "sweep_jobs1" / f"run_{i:03d}" / "trace.csv").read_bytes()
                two = (self.out / "sweep_jobs2" / f"run_{i:03d}" / "trace.csv").read_bytes()
                if one != two:
                    return steps, f"run_{i:03d}/trace.csv differs between --jobs 1 and --jobs 2"
        return steps, None

    def _check_fault(self, op, result):
        code, _, stderr = result
        if code == 0:
            op.steps, op.error = self._check_run("fault_large_scale", result)
        elif code == 1 and "AssertionError: f_gap" in stderr and "below -1e-09" in stderr:
            op.known_fault = True
            op.error = "known fault: " + KNOWN_FAULT
        else:
            op.error = self._exit_error("fault_large_scale", code, stderr)

    def run_round(self) -> Round:
        shutil.rmtree(self.out, ignore_errors=True)
        ops, extra = [], {"artifact_s": []}
        for name in self.runs:
            op, result = self._ngl(name, ["run", self.configs[name]])
            op.steps, op.error = self._check_run(name, result)
            if op.error is None:
                summary = json.loads((self.out / name / "summary.json").read_text())
                extra["artifact_s"].append(op.seconds - summary["wall_time_s"])
            ops.append(op)
        for jobs in (1, 2):
            name = f"sweep_jobs{jobs}"
            op, result = self._ngl(name, ["sweep", self.configs[name], "--jobs", str(jobs)])
            op.steps, op.error = self._check_sweep(jobs, result)
            extra[f"{name}_s"] = op.seconds
            ops.append(op)
        op, (code, stdout, stderr) = self._ngl("verify", ["verify"])
        if code != 0:
            op.error = self._exit_error("verify", code, stderr)
        else:
            op.error = cf.check_verify_output(stdout)
        extra["verify_s"] = op.seconds
        ops.append(op)
        op, result = self._ngl("fault_large_scale", ["run", self.configs["fault_large_scale"]])
        self._check_fault(op, result)
        ops.append(op)
        return Round(ops, extra)


WORKLOADS = {w.name: w for w in (DescentGrid, AccelRoutes, CliMix)}
