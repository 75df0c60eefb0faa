"""Per-layer metrics from the traced run's span aggregates.

A metric is ``None`` when the spans it needs never ran; run.py then
takes it from a probe (small rounds of the other workloads).  "Per
step" divides by the accepted iterations the runners returned, and
"us" is self time per call in microseconds.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import CALLS, NESTED, SELF, STEPS, TRIALS

MODES = ("none", "sampled_unbiased", "adversarial_opposing", "top_k", "sign", "grid",
         "finite_difference", "reduced_precision", "regularized")
SOLVERS = ("gd", "re_agm", "adaptive_gd")
SIZES = (16, 100, 1000)
REFERENCE_MODES = ("sampled_unbiased", "adversarial_opposing", "none")

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    [("numkit.as_vector.calls_per_step", "count", "lower"),
     ("problems.value.us", "us", "lower"),
     ("problems.gradient.us", "us", "lower"),
     ("problems.evals_per_step", "count", "lower")]
    + [(f"oracles.query.us.{m}", "us", "lower") for m in MODES]
    + [("oracles.queries_per_step", "count", "lower")]
    + [(f"solvers.{s}.us_per_step", "us", "lower") for s in SOLVERS]
    + [("solvers.adaptive_gd.trials_per_step", "count", "lower"),
       ("bounds.self_s", "s", "lower"),
       ("drivers.self_s", "s", "lower"),
       ("config.parse.us", "us", "lower"),
       ("cli.startup_s", "s", "lower"),
       ("cli.artifact_s", "s", "lower"),
       ("cli.sweep.jobs2_speedup", "ratio", "higher"),
       ("verify.wall_s", "s", "lower")]
    + [(f"problems.{f}.us.n{n}", "us", "lower") for f in ("value", "gradient") for n in SIZES]
    + [(f"oracles.query.us.{m}.n{n}", "us", "lower") for m in REFERENCE_MODES for n in SIZES]
    + [("bounds.curve.us_per_1e5", "us", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _self_us(stats, name):
    entry = stats.get(name)
    if not entry or not entry[CALLS]:
        return None
    return entry[SELF] / entry[CALLS] * 1e6


def _sum(stats, prefix, index):
    return sum(e[index] for n, e in stats.items() if n.startswith(prefix))


def _median(values):
    return statistics.median(values) if values else None


def workload_metrics(stats: dict, rounds: int, extras: list) -> dict:
    """Layer metrics of one set of traced rounds; None where a layer never ran."""
    steps = sum(stats[f"solvers.{s}"][STEPS] for s in SOLVERS if f"solvers.{s}" in stats)

    def per_step(count):
        return count / steps if steps else None

    def calls(name):
        return stats[name][CALLS] if name in stats else 0

    def per_round(prefix):
        return _sum(stats, prefix, SELF) / rounds if _sum(stats, prefix, CALLS) else None

    m = {
        "numkit.as_vector.calls_per_step": per_step(calls("numkit.as_vector")),
        "problems.value.us": _self_us(stats, "problems.value"),
        "problems.gradient.us": _self_us(stats, "problems.gradient"),
        "problems.evals_per_step": per_step(calls("problems.value") + calls("problems.gradient")),
        "oracles.queries_per_step": per_step(
            _sum(stats, "oracles.query.", CALLS) - _sum(stats, "oracles.query.", NESTED)),
        "bounds.self_s": per_round("bounds."),
        "drivers.self_s": per_round("drivers."),
        "config.parse.us": _self_us(stats, "config.parse_config"),
        "cli.artifact_s": _median([a for e in extras for a in e.get("artifact_s", [])]),
        "cli.sweep.jobs2_speedup": _median([e["sweep_jobs1_s"] / e["sweep_jobs2_s"]
                                            for e in extras if "sweep_jobs2_s" in e]),
        "verify.wall_s": _median([e["verify_s"] for e in extras if "verify_s" in e]),
    }
    for mode in MODES:
        m[f"oracles.query.us.{mode}"] = _self_us(stats, f"oracles.query.{mode}")
    for s in SOLVERS:
        entry = stats.get(f"solvers.{s}")
        m[f"solvers.{s}.us_per_step"] = entry[SELF] / entry[STEPS] * 1e6 if entry and entry[STEPS] else None
    adaptive = stats.get("solvers.adaptive_gd")
    m["solvers.adaptive_gd.trials_per_step"] = (
        (adaptive[STEPS] + adaptive[TRIALS]) / adaptive[STEPS] if adaptive and adaptive[STEPS] else None)
    return m


def reference_metrics(ngl, tracer, batches: int = 7, calls: int = 50) -> dict:
    """Isolated calls at n = 16, 100, 1000, and a 1e5-point envelope curve.

    Each figure is the median over batches of the batch's self time per
    call, so one burst of contention moves one batch, not the figure.
    """

    def median_us(call, name, n_calls=calls):
        per_batch = []
        for _ in range(batches):
            tracer.take()
            for _ in range(n_calls):
                call()
            per_batch.append(_self_us(tracer.take(), name))
        return statistics.median(per_batch)

    out = {}
    for n in SIZES:
        p = ngl.nesterov_strongly_convex(1.0, 100.0, n)
        x = np.linspace(-1.0, 1.0, n)
        out[f"problems.value.us.n{n}"] = median_us(lambda: p.value(x), "problems.value")
        out[f"problems.gradient.us.n{n}"] = median_us(lambda: p.gradient(x), "problems.gradient")
        for mode in REFERENCE_MODES:
            oracle = ngl.SyntheticNoiseOracle(p, ngl.NoiseSpec(alpha=0.25, delta=0.1, mode=mode))
            out[f"oracles.query.us.{mode}.n{n}"] = median_us(
                lambda: oracle.estimate_with_exact(x), f"oracles.query.{mode}")
    env = ngl.envelope("GD_PL", ngl.EnvelopeConstants(mu=1.0, L=100.0, alpha=0.25, delta=0.1,
                                                      f0_gap=10.0, R=1.0))
    k = np.arange(100_000)
    out["bounds.curve.us_per_1e5"] = median_us(lambda: env.curve(k), "bounds.curve", 3)
    return out
