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
``ref_wall_s`` not rescaled by the reference kernel's speed.  OUT
holds, per workload, every run's metrics, each metric's median and
quartiles per side, and the pairs the change won by the metric's
direction (ties count for neither side), with the seed, each checkout's
HEAD commit and the host.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's printed result, with ``raw_wall_s`` from the results file it wrote."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    record = root / "benchmarks" / "results" / f"{workload}-seed{seed}-trace0.json"
    rounds = json.loads(record.read_text())["rounds"]
    return result | {"raw_wall_s": statistics.median(r["wall_s"] for r in rounds)}


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
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(parent if side == "parent" else change, workload, seed, seconds)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            values["raw_wall_s"] = result["raw_wall_s"]
            runs[side].append({k: result[k] for k in ("correct", "attempted", "failed")} | values)
            print(f"{workload} pair {i} {side}: {json.dumps(values)}", file=sys.stderr)

    metrics = {}
    for name, direction in better.items():
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
