"""Spans around ngl's public entry points, installed at run time.

The tracer replaces each entry point, in every ngl module that holds a
reference to it, with a wrapper that records a span: name, start, end
and parent.  Per-name call counts, total time and self time (duration
minus the time covered by child spans) are aggregated as spans close;
the first ``keep`` spans are also kept whole, to be written out when
the run ends.  Nothing under src/ is edited: the wrappers live only in
the benchmark's process (and in the workers it forks).
"""

from __future__ import annotations

import time
from pathlib import Path

# stats entry: [calls, total_s, self_s, steps, trials, nested_calls]
CALLS, TOTAL, SELF, STEPS, TRIALS, NESTED = range(6)

_ORACLE_KIND = {
    "FiniteDifferenceOracle": "finite_difference",
    "FloatingPointQuadraticOracle": "reduced_precision",
    "RegularizedOracle": "regularized",
}


def oracle_mode(oracle) -> str:
    """Query mode of an oracle: its noise mode, compressor kind or class."""
    spec = getattr(oracle, "spec", None)
    if spec is not None:
        return spec.mode
    kind = getattr(oracle, "kind", None)
    if kind is not None:
        return kind
    return _ORACLE_KIND.get(type(oracle).__name__, type(oracle).__name__)


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.on = False
        self.stats: dict = {}
        self.stack: list = []
        self.spans: list = []
        self.keep = keep
        self.next_id = 0
        self._patched: list = []

    def take(self) -> dict:
        """Return the aggregates so far and start a fresh set."""
        stats, self.stats = self.stats, {}
        return stats

    def wrap(self, name, fn, namer=None, on_result=None, nested_prefix=None):
        """A span-recording stand-in for ``fn``.

        ``namer(args)`` names the span per call; ``on_result(entry,
        result)`` adds step counts from a runner's trace;
        ``nested_prefix`` counts calls made inside a span whose name
        starts with it (an oracle queried by another oracle).
        """
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            label = namer(args) if namer is not None else name
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, 0.0, label]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                entry = tracer.stats.get(label)
                if entry is None:
                    entry = tracer.stats[label] = [0, 0.0, 0.0, 0, 0, 0]
                entry[CALLS] += 1
                entry[TOTAL] += dur
                entry[SELF] += dur - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                    if nested_prefix is not None and parent[2].startswith(nested_prefix):
                        entry[NESTED] += 1
                if len(tracer.spans) < tracer.keep:
                    tracer.spans.append((sid, parent[0] if parent else -1, label, t0, t1))
            if on_result is not None:
                on_result(entry, result)
            return result

        return wrapper

    def _rebind(self, modules, fn, wrapper) -> None:
        """Point every module attribute that is ``fn`` at ``wrapper``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every ngl module."""
        import ngl
        from ngl import bounds, cli, config, drivers, numkit, oracles, problems, solvers, verify

        modules = (ngl, numkit, problems, oracles, solvers, bounds, drivers, config, cli, verify)

        self._rebind(modules, numkit.as_vector, self.wrap("numkit.as_vector", numkit.as_vector))

        for cls in (problems.ChainedConvex, problems.ChainedStronglyConvex, problems.Quadratic):
            for attr in ("value", "gradient"):
                self._patch_method(cls, attr, self.wrap(f"problems.{attr}", cls.__dict__[attr]))
        for attr in ("value", "gradient"):
            fn = drivers.RegularizedProblem.__dict__[attr]
            self._patch_method(drivers.RegularizedProblem, attr,
                               self.wrap(f"drivers.ridge_{attr}", fn))

        query = oracles.GradientOracle.estimate_with_exact
        self._patch_method(oracles.GradientOracle, "estimate_with_exact", self.wrap(
            "oracles.query", query, namer=lambda args: "oracles.query." + oracle_mode(args[0]),
            nested_prefix="oracles.query."))

        for short in ("gd", "re_agm", "adaptive_gd"):
            fn = getattr(solvers, f"{short}_run")
            self._rebind(modules, fn, self.wrap(f"solvers.{short}", self._monitored(fn),
                                                on_result=_count_steps))

        for fname in drivers.__all__:
            fn = getattr(drivers, fname)
            if callable(fn) and not isinstance(fn, type):
                self._rebind(modules, fn, self.wrap(f"drivers.{fname}", fn))

        for fn in (bounds.envelope, bounds.iteration_budget):
            self._rebind(modules, fn, self.wrap(f"bounds.{fn.__name__}", fn))
        curve = self.wrap("bounds.curve", bounds.Envelope.__dict__["curve"])
        self._patch_method(bounds.Envelope, "curve", curve)
        self._patch_method(bounds.Envelope, "__call__", curve)

        for fn in (config.parse_config, config.expand_sweep, config.build_problem,
                   config.build_oracle):
            self._rebind(modules, fn, self.wrap(f"config.{fn.__name__}", fn))
        self._rebind(modules, verify.run_all_checks,
                     self.wrap("verify.run_all_checks", verify.run_all_checks))

    def _monitored(self, runner):
        """Runner whose monitor callback, if any, runs inside its own span."""
        tracer = self

        def run(problem, oracle, cfg, x0=None, monitor=None):
            if monitor is not None:
                owner = getattr(monitor, "__module__", "") or ""
                monitor = tracer.wrap(owner.replace("ngl.", "") + ".monitor", monitor)
            return runner(problem, oracle, cfg, x0=x0, monitor=monitor)

        return run

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as CSV: id, parent, name, start_s, end_s."""
        lines = ["id,parent,name,start_s,end_s"]
        lines += [f"{s},{p},{n},{t0!r},{t1!r}" for s, p, n, t0, t1 in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _count_steps(entry, trace) -> None:
    entry[STEPS] += len(trace.k) - 1
    if trace.inner_loops is not None:
        entry[TRIALS] += int(trace.inner_loops.sum())
