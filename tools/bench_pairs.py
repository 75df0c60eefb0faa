"""Alternating parent/change pairs of the benchmark, summarised into a BENCH file.

    python tools/bench_pairs.py PARENT CHANGE OUT --pairs P --seed S

PARENT and CHANGE are two clean git checkouts.  For every workload that
CHANGE's BENCHMARK.json lists, each pair runs ``python3 benchmarks/run.py
--workload W --seed S --seconds T --trace 0`` once in each checkout, T
being BENCHMARK.json's ``run_seconds``, the parent first in even pairs
and the change first in odd ones, and reads the JSON object each run
prints last.  Beside those end-to-end metrics each run records
``raw_wall_s``, lower being better: the median of its rounds' wall times
(``rounds[].wall_s`` in the results file the run writes), unlike
``ref_wall_s`` not rescaled by the reference kernel's speed, and
``setup_runs_s``, the fresh-interpreter samples whose median is its
``setup_s``, so that a move of ``setup_s`` can be read against its
spread within one run.  A run also keeps, as ``op_s``, the median over
its rounds of each operation time a round reports beside its ops
(``cli_mix``'s ``verify_s``, ``sweep_jobs1_s`` and ``sweep_jobs2_s``),
lower being better: ``run.py`` runs as ``__main__`` under a wrapper that
keeps each round's ``extra``, which the results file does not hold.  OUT
holds, per workload, every run's metrics, each metric's median and
quartiles per side, and the pairs the change won by the metric's
direction (ties count for neither side), with the seed, each checkout's
HEAD commit and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


# Runs benchmarks/run.py as __main__ (argv: the file for the extras, then
# run.py's own argv) after wrapping every workload's run_round to keep its
# round's ``extra``, and writes the list of them as JSON
_KEEP_EXTRAS = """
import json, runpy, sys
from pathlib import Path
out, sys.argv = sys.argv[1], sys.argv[2:]
sys.path[:0] = [str(Path(d).resolve()) for d in ("benchmarks", "src")]
import workloads
extras = []
def keeping(run_round):
    def run(self):
        done = run_round(self)
        extras.append(done.extra)
        return done
    return run
for workload in workloads.WORKLOADS.values():
    workload.run_round = keeping(workload.run_round)
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
finally:
    Path(out).write_text(json.dumps(extras))
"""
# run.py sets these before its first numpy import; the wrapper imports numpy first
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's printed result, with ``raw_wall_s`` and ``setup_runs_s`` from the results file
    it wrote, and ``op_s``, the median of each operation time its rounds report."""
    with tempfile.TemporaryDirectory() as tmp:
        kept = Path(tmp) / "extras.json"
        cmd = [sys.executable, "-c", _KEEP_EXTRAS, str(kept), "benchmarks/run.py",
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                             env=os.environ | _ONE_BLAS_THREAD).stdout
        extras = json.loads(kept.read_text())
    result = json.loads(out.strip().splitlines()[-1])
    record = root / "benchmarks" / "results" / f"{workload}-seed{seed}-trace0.json"
    details = json.loads(record.read_text())
    ops = {name: statistics.median(e[name] for e in extras)
           for name, value in extras[0].items() if isinstance(value, float)} if extras else {}
    return result | {"raw_wall_s": statistics.median(r["wall_s"] for r in details["rounds"]),
                     "setup_runs_s": details["setup_runs_s"], "op_s": ops}


def commit(root: Path) -> str:
    """The checkout's HEAD; a checkout whose tracked files differ from it is refused."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    if git("status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"{root}: tracked files differ from HEAD, so no commit names the run")
    return git("rev-parse", "HEAD")


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def host() -> dict:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:  # not Linux
        lines = []
    cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
               platform.processor())
    return {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


def pairs(parent: Path, change: Path, workload: str, count: int, seed: int, seconds: float,
          better: dict) -> dict:
    runs = {"parent": [], "change": []}
    ops = None  # the operation times every run reports
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(parent if side == "parent" else change, workload, seed, seconds)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            values["raw_wall_s"] = result["raw_wall_s"]
            values |= result["op_s"]
            ops = set(result["op_s"]) if ops is None else ops & set(result["op_s"])
            kept = ("correct", "attempted", "failed", "setup_runs_s")
            runs[side].append({k: result[k] for k in kept} | values)
            print(f"{workload} pair {i} {side}: {json.dumps(values)}", file=sys.stderr)

    metrics = {}
    for name, direction in (better | dict.fromkeys(sorted(ops or ()), "lower")).items():
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        won = sum(ci < pi if direction == "lower" else ci > pi for pi, ci in zip(p, c))
        lost = sum(ci > pi if direction == "lower" else ci < pi for pi, ci in zip(p, c))
        metrics[name] = {"better": direction, "parent": quartiles(p), "change": quartiles(c),
                         "pairs_won": won, "pairs_lost": lost}
    return {"seed": seed, "seconds": seconds, "pairs": count,
            "order": "parent first in even pairs, change first in odd pairs",
            "metrics": metrics, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]} | {"raw_wall_s": "lower"}
    record = {"host": host(),
              "commits": {"parent": commit(args.parent), "change": commit(args.change)},
              "workloads": {w["name"]: pairs(args.parent, args.change, w["name"], args.pairs,
                                             args.seed, float(bench["run_seconds"]), better)
                            for w in bench["workloads"]}}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
