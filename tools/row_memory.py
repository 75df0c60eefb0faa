"""Peak memory that a run's trace adds per row, for one or more checkouts.

    python tools/row_memory.py CHECKOUT [CHECKOUT ...]

Every figure comes from a fresh interpreter that imports ``ngl`` from
``CHECKOUT/src``, warms up with a 100-step run of the case, reads its
peak RSS (``ru_maxrss``), runs the case, reads it again and takes the
difference in bytes divided by the trace's rows.  It then runs the case
once more under ``tracemalloc`` and takes that run's peak of traced
memory divided by the rows.  The RSS figure is what the process costs,
but a run that fits in heap the allocator already holds adds little or
nothing to it, and how much does depends on the interpreter's earlier
allocations (the checkout's path among them); the ``tracemalloc`` peak
counts every block the run allocates, Python objects and numpy buffers
alike, and does not.  Each of ``ROUNDS`` rounds runs every case once in
each checkout, the checkouts in the order given in even rounds and
reversed in odd ones, so that a drift of the host's load falls on all
of them alike.  Prints one line per case and checkout: the median over
the rounds and each round's figure of both, in bytes per row.

The cases run on ``nesterov_strongly_convex(1, 50, n)`` from the all-ones
start, with noise level (alpha, delta) = (0.25, 0.1):

- ``gd_n2``: 300,000 gd steps, adversarial noise, n = 2;
- ``adaptive_n2``: 100,000 adaptive_gd steps (``L0`` 50, ``delta`` 0.1),
  sampled noise, n = 2;
- ``gd_n100``: 20,000 gd steps, adversarial noise, n = 100.

``ru_maxrss`` is in KiB on Linux, which this tool assumes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CASES = {
    "gd_n2": {"solver": "gd", "mode": "adversarial_opposing", "n": 2, "steps": 300_000},
    "adaptive_n2": {"solver": "adaptive_gd", "mode": "sampled_unbiased", "n": 2, "steps": 100_000},
    "gd_n100": {"solver": "gd", "mode": "adversarial_opposing", "n": 100, "steps": 20_000},
}
ROUNDS = 5

# argv: the checkout's src directory and the case as JSON
_CHILD = """
import json, resource, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
import ngl

case = json.loads(sys.argv[2])
n = case["n"]
problem = ngl.nesterov_strongly_convex(1.0, 50.0, n)


def run(steps):
    oracle = ngl.SyntheticNoiseOracle(problem, ngl.NoiseSpec(0.25, 0.1, case["mode"], seed=1))
    if case["solver"] == "gd":
        return ngl.gd_run(problem, oracle, ngl.GDConfig(steps, 0.25, 50.0), x0=np.ones(n))
    return ngl.adaptive_gd_run(problem, oracle, ngl.AdaptiveGDConfig(steps, L0=50.0, delta=0.1),
                               x0=np.ones(n))


run(100)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
trace = run(case["steps"])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rows = len(trace.k)
del trace
tracemalloc.start()
run(case["steps"])
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([(after - before) * 1024 / rows, peak / rows]))
"""


def run_once(root: Path, case: dict) -> tuple:
    """Bytes per trace row of one run of ``case`` in a fresh interpreter:
    (peak RSS added, ``tracemalloc`` peak)."""
    out = subprocess.run([sys.executable, "-c", _CHILD, str(root / "src"), json.dumps(case)],
                         capture_output=True, text=True, check=True).stdout
    rss, traced = json.loads(out.strip().splitlines()[-1])
    return float(rss), float(traced)


def measure(roots: list, cases: dict) -> dict:
    """``{case: {checkout: [(RSS, traced) bytes per row, one per round]}}``, the checkouts alternating."""
    figures = {name: {str(root): [] for root in roots} for name in cases}
    for name, case in cases.items():
        for i in range(ROUNDS):
            for root in (roots if i % 2 == 0 else roots[::-1]):
                figures[name][str(root)].append(run_once(root, case))
    return figures


def _summary(values) -> str:
    runs = " ".join(f"{v:.1f}" for v in values)
    return f"median {statistics.median(values):.1f} B/row ({runs})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args(argv)
    for name, sides in measure(args.checkouts, CASES).items():
        for root, figures in sides.items():
            rss, traced = zip(*figures)
            print(f"{name} {root}: peak RSS {_summary(rss)}, tracemalloc peak {_summary(traced)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
