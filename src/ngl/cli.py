"""Command-line harness: run experiments, sweep grids, verify, print bounds.

Subcommands:

  run <config>       execute one experiment, write trace.csv + summary.json
  sweep <config>     cross-product of list-valued fields, one run per combo,
                     aggregated into comparison.csv (on --jobs forked
                     workers; serial where the platform cannot fork)
  verify             run the built-in invariant suite, print a pass table
  bounds <theorem> <key=value...>  print an envelope table for constants

Exit codes: 0 success, 1 malformed config or input (or artifacts that
cannot be written: one "output error" line), 2 a guarantee was
violated at run time (an envelope row, a diverged iterate, a driver
missing its certified target, a failed verify check), 3 a mathematical
hypothesis guard rejected the configuration (for example alpha > 1/3
with re_agm).
The environment variable NGL_SEED overrides the config's oracle seed.
A warning a run raises (gd with solver.alpha_param below the declared
level) is one stderr line, "warning: <message>", after "run N: " in a
sweep.

trace.csv columns are k, f_gap, grad_norm, noisy_grad_norm, bound,
inner_loops; floats are rendered with 17 significant digits so offline
re-verification reproduces the in-process comparison bit for bit.
Fields with no defined value on a row (an unqueried noisy norm, a run
with no printed bound, a non-adaptive solver's inner loops) are "nan".
Only plain runs (driver.name none) print a bound: GD_PL for gd and
REAGM for re_agm on a strongly convex problem, at solver.alpha_param
when it is at or above the oracle's declared level (none below it);
ADAPT_ALPHA for adaptive_gd, or ADAPT_BOTH with solver.tau; none
where the start's constants fall outside the theorem's domain.  Driver
runs, and gd on a merely convex problem, print none.

summary.json keys: final_f_gap (objective gap at the terminal point),
iterations (accepted steps), inner_loop_total (extra backtracking
trials, 0 unless adaptive), envelope_violations (rows exceeding the
bound column, 0 for any conforming run), terminal (reason the run
ended), noise_stream (the version of the noise stream the oracle drew
from, ``oracles.NOISE_STREAM``), wall_time_s (seconds to build and run
the experiment, its printed bound included).  Identical config and seed
give a byte-identical trace.csv under one noise stream; summary.json
differs only in wall_time_s.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .bounds import (THEOREM_IDS, EnvelopeConstants, EnvelopeDomainError, envelope,
                     start_constants)
from .config import (
    ConfigError,
    ExperimentConfig,
    _typed,
    build_oracle,
    build_problem,
    expand_sweep,
    load_config_file,
    parse_config,
)
from .drivers import (
    ConvergenceFailureError,
    StoppingRule,
    _run_solver,
    combined_reg_stop,
    restart_to_convex,
    run_with_stopping,
    solve_convex_gd,
    solve_convex_re_agm,
)
from .lanes import _fork_map
from .numkit import block_rows
from .oracles import NOISE_STREAM
from .solvers import (
    AdaptiveGDConfig,
    DivergedError,
    InnerLoopStallError,
    adaptive_gd_run,
)
from .verify import run_all_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_GUARD = 3

# `ngl bounds` constants: EnvelopeConstants' fields, required where they have no default
_CONSTANTS = {f.name: f.default is dataclasses.MISSING for f in dataclasses.fields(EnvelopeConstants)}
# the columns comparison.csv takes from each run's record
_COMPARED = ("final_f_gap", "iterations", "terminal", "floor", "iters_to_10x_floor")


def _load(path: str) -> dict:
    """The config file's dict, with NGL_SEED, when set, as its oracle.seed."""
    raw = load_config_file(path)
    seed = os.environ.get("NGL_SEED")
    if seed is not None:
        try:
            raw["oracle.seed"] = int(seed)
        except ValueError:
            raise ConfigError(f"NGL_SEED: expected an integer, got {seed!r}")
    return raw


def _printed_bound(tid: str, problem, alpha: float, delta: float, **extra):
    """Theorem ``tid``'s envelope from the run's start, or None outside its domain."""
    try:
        return envelope(tid, start_constants(problem, alpha, delta, **extra))
    except EnvelopeDomainError:
        return None


def _run_experiment(cfg: ExperimentConfig):
    """Assemble and execute one experiment; returns (trace, printed bound or None).

    The branch that picks the run picks its bound.  Driver runs report
    base-problem gaps, which no single printed curve bounds; plain gd on
    a merely convex problem has a gradient-norm bound but no gap bound;
    a step-size level below the declared one voids the envelope.
    """
    problem = build_problem(cfg)
    oracle = build_oracle(cfg, problem)
    x0 = np.zeros(problem.dim)
    radius = float(np.linalg.norm(problem.x_star - x0))
    alpha, delta = oracle.declared_alpha, oracle.declared_delta

    if cfg.driver == "regularize":
        if cfg.solver == "gd":
            return solve_convex_gd(problem, oracle, cfg.epsilon, radius, x0=x0), None
        return solve_convex_re_agm(problem, oracle, cfg.epsilon, cfg.beta, radius, x0=x0), None
    if cfg.driver == "stopping":
        rule = StoppingRule(K=cfg.K, delta=delta)
        return run_with_stopping(cfg.solver, problem, oracle, rule, alpha + 1.0 / cfg.K,
                                 cfg.steps, x0=x0), None
    if cfg.driver == "restart":
        return restart_to_convex(cfg.solver, problem, oracle, cfg.epsilon, x0=x0).trace, None
    if cfg.driver == "combined":
        return combined_reg_stop(problem, oracle, cfg.epsilon, cfg.tau, radius, x0=x0), None
    if cfg.solver == "adaptive_gd":
        L0 = cfg.L0 if cfg.L0 is not None else problem.L
        run_cfg = AdaptiveGDConfig(steps=cfg.steps, L0=L0, delta=delta, adapt_L=cfg.adapt_L)
        trace = adaptive_gd_run(problem, oracle, run_cfg, x0=x0)
        tid = "ADAPT_BOTH" if cfg.adapt_L else "ADAPT_ALPHA"
        return trace, _printed_bound(tid, problem, alpha, delta, L0=L0)
    run_alpha = alpha if cfg.alpha_param is None else cfg.alpha_param
    trace = _run_solver(cfg.solver, problem, oracle, cfg.steps, run_alpha, x0)
    if problem.mu <= 0.0 or run_alpha < alpha:
        return trace, None
    tid = "GD_PL" if cfg.solver == "gd" else "REAGM"
    return trace, _printed_bound(tid, problem, run_alpha, delta)


def _format_float(v: float) -> str:
    return format(float(v), ".17g")


def _write_trace_csv(path: Path, trace, bound) -> None:
    # one %-format per row; "%.17g" % v is format(v, ".17g") for a float.
    # Written a block of rows at a time: a long run's lines are never all held
    columns = [trace.k, trace.f_gap, trace.grad_norm, trace.noisy_grad_norm]
    row = "%d,%.17g,%.17g,%.17g"
    if bound is not None:
        columns.append(np.asarray(bound, dtype=np.float64))
        row += ",%.17g"
    else:
        row += ",nan"
    if trace.inner_loops is not None:
        columns.append(trace.inner_loops)
        row += ",%d"
    else:
        row += ",nan"
    row += "\n"
    rows = block_rows(len(columns))
    with path.open("w", encoding="utf-8") as out:
        out.write("k,f_gap,grad_norm,noisy_grad_norm,bound,inner_loops\n")
        for start in range(0, len(trace.k), rows):
            block = zip(*(col[start:start + rows].tolist() for col in columns))
            out.write("".join([row % values for values in block]))


def _execute_core(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Run one experiment and write its artifacts.

    Returns a merge-friendly record: exit code, error, the messages of
    the warnings the run raised, summary fields, the envelope floor and
    the first iteration at or below ten times it.  A field the run never
    reached (no bound, no noise floor, a failed run's summary) is
    absent, and comparison.csv reads it as nan.
    """
    record = {"code": EXIT_OK, "error": "", "terminal": ""}
    t0 = time.perf_counter()
    # each warning is reported as one line of its run, not in Python's
    # two-line form; the active filters still decide which are raised
    with warnings.catch_warnings(record=True) as caught:
        try:
            trace, env = _run_experiment(cfg)
        except ValueError as exc:
            record["code"] = EXIT_GUARD
            record["error"] = f"hypothesis guard: {exc}"
        except (ConvergenceFailureError, DivergedError, InnerLoopStallError) as exc:
            record["code"] = EXIT_VIOLATION
            record["error"] = f"guarantee violated: {exc}"
    record["warnings"] = [str(w.message) for w in caught]
    if record["code"] != EXIT_OK:
        return record
    wall = time.perf_counter() - t0

    bound = None
    violations = 0
    if env is not None:
        bound = env.curve(trace.k)
        violations = int(np.count_nonzero(env.excess(trace.k, trace.f_gap) > 0.0))
        record["floor"] = env.floor
        if env.floor > 0.0:
            hits = np.nonzero(trace.f_gap <= 10.0 * env.floor)[0]
            if hits.size:
                record["iters_to_10x_floor"] = int(trace.k[hits[0]])

    summary = {
        "final_f_gap": float(trace.final_f_gap),
        "iterations": int(trace.iterations),
        "inner_loop_total": int(trace.total_inner_loops),
        "envelope_violations": violations,
        "terminal": trace.terminal,
        "noise_stream": NOISE_STREAM,
        "wall_time_s": wall,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_trace_csv(out_dir / "trace.csv", trace, bound)
        with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        record["code"] = EXIT_CONFIG
        record["error"] = f"output error: {exc}"
        return record

    record.update(summary)
    record.pop("wall_time_s", None)
    if violations:
        record["code"] = EXIT_VIOLATION
        record["error"] = (f"{violations} trace row(s) exceed the printed "
                           "bound")
    return record


def cmd_run(args) -> int:
    try:
        cfg = parse_config(_load(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    record = _execute_core(cfg, Path(cfg.out_dir))
    for message in record["warnings"]:
        print(f"warning: {message}", file=sys.stderr)
    if record["error"]:
        print(record["error"], file=sys.stderr)
    if record["code"] == EXIT_OK:
        print(f"{cfg.out_dir}: {record['iterations']} iterations, final gap "
              f"{record['final_f_gap']:.6e}, terminal {record['terminal']}")
    return record["code"]


def _sweep_task(item) -> dict:
    index, cfg = item
    record = _execute_core(cfg, Path(cfg.out_dir) / f"run_{index:03d}")
    record["index"] = index
    return record


def _comparison_value(record, key):
    v = record.get(key, math.nan)
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return format(int(v), "d")
    return _format_float(v)


def cmd_sweep(args) -> int:
    try:
        raw = _load(args.config)
        if isinstance(raw.get("output.dir"), list):
            raise ConfigError("output.dir: cannot be swept; runs are placed "
                              "in numbered subdirectories")
        varied, run_dicts = expand_sweep(raw)
        configs = []
        for i, d in enumerate(run_dicts):
            try:
                configs.append(parse_config(d))
            except ConfigError as exc:
                raise ConfigError(f"run {i}: {exc}")
        out_root = Path(configs[0].out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    records = _fork_map(_sweep_task, list(enumerate(configs)), args.jobs)

    lines = [",".join(["run", *varied, *_COMPARED])]
    for record, run_raw in zip(records, run_dicts):
        row = [format(record["index"], "d")]
        for key in varied:
            v = run_raw[key]
            row.append(str(v) if isinstance(v, (str, bool))
                       else _format_float(v))
        row += [_comparison_value(record, key) for key in _COMPARED]
        lines.append(",".join(row))

    worst = EXIT_OK
    for record in records:
        for message in record["warnings"]:
            print(f"run {record['index']}: warning: {message}", file=sys.stderr)
        if record.get("error"):
            print(f"run {record['index']}: {record['error']}",
                  file=sys.stderr)
        worst = max(worst, record["code"])
    try:
        out_root.mkdir(parents=True, exist_ok=True)
        (out_root / "comparison.csv").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return max(worst, EXIT_CONFIG)
    print(f"{out_root}: {len(records)} runs, comparison.csv written")
    return worst


def cmd_verify(args) -> int:
    results = run_all_checks()
    name_w = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{r.name:<{name_w}}  {status}  {r.seconds:7.2f}s  {r.detail}")
    print(f"{'overall':<{name_w}}  {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VIOLATION


def _parse_constants(pairs):
    values = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or key not in _CONSTANTS:
            raise ConfigError(f"expected key=value with key in "
                              f"{sorted(_CONSTANTS)}, got {pair!r}")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
        values[key] = _typed(key, value, float)
    missing = sorted(k for k, required in _CONSTANTS.items() if required and k not in values)
    if missing:
        raise ConfigError(f"missing constant(s): {', '.join(missing)}")
    return EnvelopeConstants(**values)


def cmd_bounds(args) -> int:
    try:
        constants = _parse_constants(args.constants)
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        env = envelope(args.theorem, constants)
    except EnvelopeDomainError as exc:
        print(f"hypothesis guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    # row 0, then log-spaced rows up to N; N = 0 asks for row 0 alone
    steps = np.geomspace(1, args.N, args.points).astype(np.int64) if args.N else []
    grid = np.unique(np.concatenate([[0], steps]))

    def opt(v):
        return "none" if v is None else _format_float(v)

    print(f"theorem {args.theorem}: rate {opt(env.rate)}, "
          f"start {opt(env.start)}, floor {_format_float(env.floor)}")
    print("N,bound")
    for n in grid:
        print(f"{int(n)},{_format_float(env.curve(int(n)))}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngl",
        description="first-order methods under relative-plus-absolute "
                    "gradient noise: runs, sweeps, and bound tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config", help="path to a flat JSON config")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep",
                             help="cross-product of list-valued config fields")
    p_sweep.add_argument("config", help="path to a flat JSON sweep config")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (default 1)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in invariant suite")
    p_verify.set_defaults(fn=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="print an envelope table")
    p_bounds.add_argument("theorem", choices=list(THEOREM_IDS))
    p_bounds.add_argument("constants", nargs="*",
                          help="key=value pairs: " + " ".join(
                              k if required else f"[{k}]" for k, required in _CONSTANTS.items()))
    p_bounds.add_argument("--N", type=int, default=10_000,
                          help="largest iteration in the table")
    p_bounds.add_argument("--points", type=int, default=15,
                          help="table rows (log-spaced)")
    p_bounds.set_defaults(fn=cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sweep" and args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "bounds" and (args.points < 1 or args.N < 0):
        print("--points must be >= 1 and --N >= 0", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "bounds" and args.N > 2**53:
        # past 2**53 the log-spaced grid's floats no longer hold every integer
        print(f"--N must be <= 2**53, got {args.N}", file=sys.stderr)
        return EXIT_CONFIG
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
