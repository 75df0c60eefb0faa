#!/usr/bin/env python3
"""Benchmark of ngl: three workloads, timed end to end and, traced, per module.

    python3 benchmarks/run.py --workload descent_grid --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program under test is that
checkout's src/ngl, and the run fails when it is missing.  One run
repeats whole rounds of the workload until --seconds have passed and at
least --repeats rounds are done, checks every output against closed
forms (closed_forms.py), and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with
--trace 1 they are the per-layer ones from a traced run.  A fuller
record, with the machine's facts, goes to benchmarks/results/.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # a --setup-only child times its imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("descent_grid", "accel_routes", "cli_mix")
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
RUN_CAP_S = 140.0  # no round starts that could end after this; runs must end within 180 s

END_TO_END = (("setup_s", "s"), ("ref_wall_s", "s"), ("ref_steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for at least this long (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=2,
                        help="least number of timed rounds (default 2)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.seconds > 0:
        parser.error("--repeats must be >= 1 and --seconds > 0")
    return args


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def _fresh_interpreter(*argv):
    """(stdout, wall seconds) of a fresh interpreter run from the checkout root."""
    from workloads import spawn
    code, out, err, wall = spawn([sys.executable, *argv], cwd=ROOT)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err.strip()[-500:]}")
    return out, wall


def _rounds(step, args, between=lambda: None):
    """Results of ``step()`` until --seconds and --repeats are both met (or the cap).

    ``between`` runs after each step, outside the timed part.
    """
    results, start = [], time.perf_counter()
    while True:
        results.append(step())
        between()
        now = time.perf_counter()
        mean = (now - start) / len(results)
        if len(results) >= args.repeats and now - start >= args.seconds:
            return results
        if now - _T0 + mean > RUN_CAP_S:
            return results


def _tally(rounds):
    ops = [op for r in rounds for op in r.ops]
    unexpected = sorted({op.error for op in ops if op.error and not op.known_fault})
    return {"attempted": len(ops), "failed": sum(op.error is not None for op in ops),
            "known_fault_failed": sum(op.known_fault for op in ops),
            "unexpected_failures": unexpected}


def _untraced(args, workdir):
    import workloads
    setup = []

    def set_up_once():
        # spread over the run, so that setup_s samples the machine as the rounds do
        if len(setup) < SETUP_REPEATS:
            out, _ = _fresh_interpreter(__file__, "--setup-only", "--workload", args.workload,
                                        "--seed", str(args.seed))
            setup.append(float(out))

    w = workloads.WORKLOADS[args.workload](args.seed, workdir=workdir)
    w.setup()
    rounds = _rounds(w.run_round, args, between=set_up_once)
    while len(setup) < SETUP_REPEATS:
        set_up_once()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "ref_wall_s": statistics.median(r.ref_wall for r in rounds),
        "ref_steps_per_s": statistics.median(r.steps / r.ref_wall for r in rounds),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return rounds, metrics, {"setup_runs_s": setup}


def _traced(args, workdir):
    import layers
    import ngl
    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[args.workload](args.seed, workdir=workdir)
    w.setup()
    tracer = Tracer()

    def traced(fn):
        tracer.install()
        tracer.on, workloads.SAMPLING = True, False
        try:
            return fn()
        finally:
            tracer.on, workloads.SAMPLING = False, True
            tracer.uninstall()

    # untraced and traced rounds alternate, so the overhead compares like with like
    pairs = _rounds(lambda: (w.run_round(),
                             traced(lambda: w.run_round())), args)
    untraced, rounds = [p[0] for p in pairs], [p[1] for p in pairs]
    metrics = layers.workload_metrics(tracer.take(), len(rounds), [r.extra for r in rounds])
    sources = {name: "workload" for name, value in metrics.items() if value is not None}
    probe_rounds = []
    if len(sources) < len(metrics):
        # layers this workload never runs: small rounds of the other two
        for name in WORKLOADS:
            if name != args.workload:
                other = workloads.WORKLOADS[name](args.seed, small=True,
                                                  workdir=workdir / "probe" / name)
                other.setup()
                probe_rounds.append(traced(lambda o=other: o.run_round()))
        probe = layers.workload_metrics(tracer.take(), len(probe_rounds),
                                        [r.extra for r in probe_rounds])
        for name, value in metrics.items():
            if value is None:
                metrics[name], sources[name] = probe[name], "probe"
    reference = traced(lambda: layers.reference_metrics(ngl, tracer))
    metrics.update(reference)
    sources.update({name: "reference" for name in reference})
    metrics["cli.startup_s"] = statistics.median(
        _fresh_interpreter("-c", "import ngl.cli")[1] for _ in range(STARTUP_REPEATS))
    sources["cli.startup_s"] = "reference"
    untraced_wall = statistics.median(r.wall for r in untraced)
    traced_wall = statistics.median(r.wall for r in rounds)
    metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    sources["trace.overhead_pct"] = "workload"
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        raise RuntimeError(f"no spans for layer metrics {missing}")
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{args.workload}-seed{args.seed}-trace1.spans.csv"
    tracer.write_spans(spans)
    details = {"metric_sources": sources, "untraced_round_wall_s": [r.wall for r in untraced],
               "traced_round_wall_s": [r.wall for r in rounds], "spans_file": spans.name,
               "probe_failures": _tally(probe_rounds)["unexpected_failures"]}
    return untraced + rounds, metrics, details


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ngl" / "__init__.py").is_file():
        print(f"ngl sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one BLAS thread in this process and, inherited, in every child
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    os.environ.pop("NGL_SEED", None)
    sys.path[:0] = [str(HERE), str(SRC)]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    try:
        if args.setup_only:
            import workloads
            workloads.WORKLOADS[args.workload](args.seed, workdir=workdir).setup()
            print(repr(time.perf_counter() - _T0))
            return 0
        rounds, metrics, details = (_traced if args.trace else _untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import layers
    from workloads import KNOWN_FAULT
    tally = _tally(rounds)
    probe_failures = details.get("probe_failures", [])
    units = dict(END_TO_END) if not args.trace else layers.UNITS
    result = {
        "correct": not tally["unexpected_failures"] and not probe_failures,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repeats": args.repeats, "machine": _machine(),
        "attempted": tally["attempted"], "failed": tally["failed"],
        "failed_by_known_fault": {"count": tally["known_fault_failed"], "fault": KNOWN_FAULT},
        "unexpected_failures": tally["unexpected_failures"],
        "rounds": [{"wall_s": r.wall, "ref_wall_s": r.ref_wall, "steps": r.steps,
                    "ops": len(r.ops)} for r in rounds],
        **details, "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
