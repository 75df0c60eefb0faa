"""Digest every observable output of ngl, to show that a change keeps them bit-identical.

    python tools/trace_identity.py [--root CHECKOUT] [--no-cli] [--write]

Imports ``ngl`` from ``CHECKOUT/src`` (default: the checkout holding
this file) and prints one line per case, sorted: the case name, its
outcome (``ok`` or the exception's type) and the first 16 hex digits of
a sha256 over everything the case can observe.  ``--write`` rewrites
``CHECKOUT/tests/identity_listing.txt`` with the ``--no-cli`` cases
under a header naming the Python version, the numpy version and the
CPU features numpy dispatches to, the three things the digests depend
on besides the code; a tier-1 test compares the listing case by case.

- A solver case digests every ``RunTrace`` field, ``oracle.queries``,
  the exception it raised (type, message and carried trace, and the
  queries its oracles made before it) and the warnings it raised.  It
  returns ``(trace, queries, None)``: the listing's digests were
  recorded with the None in that place.
- Cases cover gd, re_agm and adaptive_gd (``adapt_L`` off and on) at 0
  and 40 steps; a run without a declared stop (``nomon``) and (gd,
  re_agm) a run that declares a gap target (``gaptarget``, 0.3 of the
  start gap); synthetic noise in every mode with
  certification off and on, finite differences with and without value
  noise, the three compressors and reduced precision; three problems.
  At n = 2000 (8 rows per evaluation block), every runner with sampled
  noise spans several blocks (``blocks:``); at n = 2, sampled gd,
  re_agm and adaptive_gd runs of 10,000 to 30,000 steps span several
  8,192-row blocks (``long:``).
- The config's ``quadratic`` family at n = 1000 (``quadcfg:``), built by
  ``build_problem`` and ``build_oracle``: gd, re_agm and adaptive_gd
  with sampled noise, and gd with the reduced-precision oracle; each
  digests the problem's mu, L, x_star and f_star beside the run.
- Error cases: non-finite and huge estimates at queries 0-5, exploding
  steps, an ascent stall, bad starts, a wrong ``f_star``, and at
  n = 2000 an objective that overflows mid-block in a later block.
- The five driver routes on two seeds, and the ridge routes'
  ``ConvergenceFailureError`` traces under a 5-step budget.
- gd and re_agm run on a ridge's base problem with the ridge oracle at
  n = 2000 (``edge:ridge_base:``).
- The chains' tridiagonal solve: ``x_star`` and ``f_star`` at n = 1, 2
  and 5000, and the ``L = inf`` construction error.
- Guards (``guard:``): the error of each budget, plan, parameter
  computation and route whose constants leave floating range at
  ``L = 1e308``.
- Helpers: problem values and gradients, the sampled noise of queries
  0-7 and of the first query past a refill (``noise:``), the
  reduced-precision and compressor kernels, rounding, validation,
  certification reports.
- ``parse_config``: the config's fields or the error's message, for
  every run of every ``configs/*.json`` and for each single-fault config
  in ``tests/config_faults.py`` (read from this tool's checkout).
- ``ngl verify``: its exit code and, per printed row, the row name, its
  status and its detail text; the seconds column is dropped.
- ``ngl run`` in process (``cli_run:``), one small config per route:
  gd, re_agm and adaptive_gd (``solver.tau`` off and on) on a strongly
  convex chain, gd with ``solver.alpha_param`` above and below the
  declared level, gd on a convex chain, every driver route with each
  solver it takes, re_agm above alpha = 1/3 (exit 3), and gd with grid
  resolutions past float precision (``grid_fine``); each digests
  the exit code, stderr, the ``trace.csv`` bytes and ``summary.json``
  without ``wall_time_s``.
- Unless ``--no-cli``: ``ngl run`` on every ``configs/*.json`` without a
  list-valued key and ``ngl sweep --jobs 2`` on the others, run in a
  temporary directory; every artifact is digested, ``summary.json``
  without ``wall_time_s``.

Cases whose name starts with ``edge:`` are points where a change is
expected to alter behaviour on purpose (the verify summation row is
one); the last two lines give one digest over the other cases and one
over the edge cases.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np


class Digest:
    """sha256 over a typed, length-prefixed encoding of plain values."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, obj) -> None:
        h = self.h
        if obj is None:
            h.update(b"N")
        elif isinstance(obj, (bool, np.bool_)):
            h.update(b"B1" if obj else b"B0")
        elif isinstance(obj, (int, np.integer)):
            h.update(b"I" + str(int(obj)).encode() + b";")
        elif isinstance(obj, (float, np.floating)):
            h.update(b"F" + struct.pack("<d", float(obj)))
        elif isinstance(obj, str):
            data = obj.encode()
            h.update(b"S%d:" % len(data) + data)
        elif isinstance(obj, bytes):
            h.update(b"Y%d:" % len(obj) + obj)
        elif isinstance(obj, np.ndarray):
            h.update(f"A{obj.dtype.str}{obj.shape}:".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            h.update(b"D%d:" % len(obj))
            for key in sorted(obj):
                self.add(key)
                self.add(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"L%d:" % len(obj))
            for item in obj:
                self.add(item)
        elif dataclasses.is_dataclass(obj):
            self.add(type(obj).__name__)
            self.add({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
        else:
            raise TypeError(f"cannot digest {type(obj).__name__}")

    def hex(self) -> str:
        return self.h.hexdigest()[:16]


class Cases:
    def __init__(self):
        self.lines = []
        self.watched = []  # the oracles the running case made

    def watch(self, oracle):
        """Keep ``oracle`` so that a raising case digests its query count."""
        self.watched.append(oracle)
        return oracle

    def run(self, name: str, fn) -> None:
        """Call fn() and digest its result, or its exception, and the warnings."""
        d = Digest()
        outcome = "ok"
        self.watched = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                d.add(("ok", fn()))
            except Exception as exc:  # every exception is an observable outcome
                outcome = type(exc).__name__
                d.add(("raised", outcome, str(exc)))
                for attr in ("trace", "stage", "target", "achieved"):
                    if hasattr(exc, attr):
                        d.add((attr, getattr(exc, attr)))
                d.add(("queries", [oracle.queries for oracle in self.watched]))
        d.add(sorted({(w.category.__name__, str(w.message)) for w in caught}))
        self.lines.append(f"{name} {outcome} {d.hex()}")


def solver_cases(cases: Cases) -> None:
    from ngl import oracles as O
    from ngl import problems as P
    from ngl import solvers as S
    from ngl.numkit import PrecisionSpec

    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 8))
    problems = {
        "scvx": P.nesterov_strongly_convex(1.0, 50.0, 12),
        "cvx": P.nesterov_convex(6, 50.0, 12),
        "quad": P.quadratic(M @ M.T / 8.0 + 0.5 * np.eye(8), rng.standard_normal(8)),
    }
    oracles = {
        "none": lambda p: O.SyntheticNoiseOracle(p, O.NoiseSpec(mode="none")),
        "sampled": lambda p: O.SyntheticNoiseOracle(p, O.NoiseSpec(0.2, 0.05, "sampled_unbiased", 3)),
        "sampled_cert": lambda p: O.SyntheticNoiseOracle(
            p, O.NoiseSpec(0.2, 0.05, "sampled_unbiased", 3), certify=True),
        "adversarial": lambda p: O.SyntheticNoiseOracle(p, O.NoiseSpec(0.2, 0.05, "adversarial_opposing")),
        "adversarial_cert": lambda p: O.SyntheticNoiseOracle(
            p, O.NoiseSpec(0.2, 0.05, "adversarial_opposing"), certify=True),
        "fd": lambda p: O.FiniteDifferenceOracle(p, h=1e-5),
        "fd_noise": lambda p: O.FiniteDifferenceOracle(p, h=1e-4, value_noise=1e-9, seed=7),
        "top_k": lambda p: O.CompressedGradientOracle(p, "top_k", p.dim // 2),
        "sign": lambda p: O.CompressedGradientOracle(p, "sign"),
        "grid": lambda p: O.CompressedGradientOracle(p, "grid", 50),
        "fp10": lambda p: O.FloatingPointQuadraticOracle(p, PrecisionSpec(10), 10.0, certify=True),
        "fp30": lambda p: O.FloatingPointQuadraticOracle(p, PrecisionSpec(30), 10.0),
    }

    def run_solver(rname, p, oracle, steps, gap_target=None):
        """One runner from the start np.ones at the oracle's own levels."""
        a, x0 = oracle.declared_alpha, np.ones(p.dim)
        if rname == "gd":
            return S.gd_run(p, oracle, S.GDConfig(steps, a, p.L, gap_target), x0=x0)
        if rname == "re_agm":
            cfg = S.ReAgmConfig(steps, p.mu, p.L, min(a, 1.0 / 3.0), gap_target)
            return S.re_agm_run(p, oracle, cfg, x0=x0)
        cfg = S.AdaptiveGDConfig(steps, p.L / 4.0, oracle.declared_delta, adapt_L=rname == "adaptive_L")
        return S.adaptive_gd_run(p, oracle, cfg, x0=x0)

    for pname, p in problems.items():
        gap0 = p.gap(np.ones(p.dim))
        # the accelerated runner needs mu > 0
        rnames = ("gd", "adaptive", "adaptive_L") + (("re_agm",) if p.mu > 0.0 else ())
        for oname, make in oracles.items():
            if oname.startswith("fp") and pname != "quad":
                continue
            for steps in (0, 40):
                for rname in rnames:
                    # only gd and re_agm declare a stop
                    for mname in ("nomon",) + (("gaptarget",) if rname in ("gd", "re_agm") else ()):

                        def case():
                            oracle = cases.watch(make(p))
                            target = 0.3 * gap0 if mname == "gaptarget" else None
                            return run_solver(rname, p, oracle, steps, target), oracle.queries, None

                        cases.run(f"run:{pname}:{oname}:{rname}:{steps}:{mname}", case)

    class Bad(O.GradientOracle):
        """Exact gradient, except entry 0 of query ``at`` is ``value``."""

        def __init__(self, p, at, value):
            super().__init__(p, 0.0, 0.0)
            self.at, self.value = at, value

        def _estimate(self, x, exact):
            est = exact.copy()
            if self.queries == self.at:
                est[0] = self.value
            return est

    class Scaled(O.GradientOracle):
        def __init__(self, p, factor):
            super().__init__(p, 0.0, 0.0)
            self.factor = factor

        def _estimate(self, x, exact):
            return self.factor * exact

    p = problems["scvx"]
    x1 = np.ones(p.dim)
    for bad in (math.nan, math.inf, -math.inf, 1e200):
        for at in range(6):
            for rname in ("gd", "re_agm", "adaptive"):
                def case(bad=bad, at=at, rname=rname):
                    oracle = cases.watch(Bad(p, at, bad))
                    with np.errstate(over="ignore"):
                        if rname == "gd":
                            trace = S.gd_run(p, oracle, S.GDConfig(10, 0.0, p.L), x0=x1)
                        elif rname == "re_agm":
                            trace = S.re_agm_run(p, oracle, S.ReAgmConfig(10, p.mu, p.L, 0.0), x0=x1)
                        else:
                            trace = S.adaptive_gd_run(p, oracle, S.AdaptiveGDConfig(10, p.L), x0=x1)
                    return trace, oracle.queries, None
                cases.run(f"bad_estimate:{bad}:{at}:{rname}:nomon", case)

    def exact(q):
        return cases.watch(oracles["none"](q))

    # several evaluation blocks: 2**14 // 2000 = 8 rows each
    wide = P.nesterov_strongly_convex(1.0, 50.0, 2000)
    for rname in ("gd", "re_agm", "adaptive", "adaptive_L"):
        def case(rname=rname):
            oracle = cases.watch(oracles["sampled"](wide))
            return run_solver(rname, wide, oracle, 40), oracle.queries, None
        cases.run(f"blocks:{rname}:nomon", case)

        # a huge estimate at query 12 overflows the objective mid-block in
        # the second block: at the next point, or at every trial point of
        # an adaptive run, which stalls there
        def overflow(rname=rname):
            oracle = cases.watch(Bad(wide, 12, 1e200))
            with np.errstate(over="ignore"):
                trace = run_solver(rname, wide, oracle, 40)
            return trace, oracle.queries, None
        cases.run(f"blocks:overflow:{rname}:nomon", overflow)

    # at n = 2 a block holds 8192 rows: long runs span several blocks
    narrow = P.nesterov_strongly_convex(1.0, 50.0, 2)
    for rname, steps in (("gd", 30_000), ("re_agm", 20_000), ("adaptive", 10_000)):
        def case(rname=rname, steps=steps):
            oracle = cases.watch(oracles["sampled"](narrow))
            return run_solver(rname, narrow, oracle, steps), oracle.queries, None
        cases.run(f"long:{rname}:n2", case)

    cases.run("explode:gd", lambda: S.gd_run(p, exact(p), S.GDConfig(1000, 0.0, p.L / 100.0), x0=x1))
    cases.run("explode:re_agm", lambda: S.re_agm_run(
        p, exact(p), S.ReAgmConfig(1000, 0.01, 0.5, 0.0), x0=x1))
    cases.run("stall:adaptive", lambda: S.adaptive_gd_run(
        p, cases.watch(Scaled(p, -1.0)), S.AdaptiveGDConfig(5, p.L), x0=x1))
    for rname, run in (("gd", lambda x0: S.gd_run(p, exact(p), S.GDConfig(3, 0.0, p.L), x0=x0)),
                       ("re_agm", lambda x0: S.re_agm_run(p, exact(p), S.ReAgmConfig(3, p.mu, p.L, 0.0), x0=x0)),
                       ("adaptive", lambda x0: S.adaptive_gd_run(p, exact(p), S.AdaptiveGDConfig(3, p.L), x0=x0))):
        cases.run(f"start:nan:{rname}", lambda run=run: run(np.full(p.dim, np.nan)))
        cases.run(f"start:dim:{rname}", lambda run=run: run(np.ones(p.dim - 1)))
        cases.run(f"start:default:{rname}", lambda run=run: run(None))

    def wrong_f_star():
        q = P.nesterov_strongly_convex(1.0, 50.0, 12)
        q.f_star += 1.0
        return S.gd_run(q, exact(q), S.GDConfig(5, 0.0, q.L), x0=np.ones(12))

    cases.run("wrong_f_star", wrong_f_star)
    big = P.nesterov_strongly_convex(1e7, 1e8, 5000)
    cases.run("large_scale_gd", lambda: S.gd_run(big, exact(big), S.GDConfig(1000, 0.0, big.L)))

    # edge: an adaptive trial point that overflows (huge estimate, tiny L0)
    def adaptive_overflow():
        q = P.nesterov_strongly_convex(1.0, 50.0, 6)
        oracle = cases.watch(Scaled(q, 0.0))
        oracle._estimate = lambda x, g: np.full(q.dim, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            return S.adaptive_gd_run(q, oracle, S.AdaptiveGDConfig(3, 1e-300), x0=np.ones(6))

    cases.run("edge:adaptive_overflowing_trial", adaptive_overflow)

    # edge: a finite-difference shift that overflows
    tiny = P.quadratic(1e-300 * np.eye(2), np.zeros(2))
    huge_h = float(np.finfo(np.float64).max)

    def fd_overflow_run():
        oracle = cases.watch(O.FiniteDifferenceOracle(tiny, h=huge_h))
        with np.errstate(over="ignore", invalid="ignore"):
            return S.gd_run(tiny, oracle, S.GDConfig(3, 0.0, tiny.L), x0=np.full(2, 1e300)), oracle.queries

    def fd_overflow_query():
        with np.errstate(over="ignore", invalid="ignore"):
            return O.FiniteDifferenceOracle(tiny, h=huge_h).estimate_with_exact(np.full(2, 1e300))[0]

    cases.run("edge:fd_overflowing_shift_run", fd_overflow_run)
    cases.run("edge:fd_overflowing_shift_query", fd_overflow_query)


def config_quadratic_cases(cases: Cases) -> None:
    """gd, re_agm and adaptive_gd on the config's quadratic family, and the reduced-precision oracle."""
    from ngl import solvers as S
    from ngl.config import build_oracle, build_problem, parse_config

    base = {"problem.family": "quadratic", "problem.mu": 0.5, "problem.L": 20.0, "problem.n": 1000,
            "output.dir": "out"}
    sampled = {"oracle.mode": "sampled_unbiased", "oracle.alpha": 0.1, "oracle.delta": 0.01,
               "oracle.seed": 5}
    reduced = {"oracle.mode": "reduced_precision", "oracle.precision_bits": 20,
               "oracle.domain_radius": 40.0}
    for name, oracle_keys, rname, steps in (("gd", sampled, "gd", 40), ("re_agm", sampled, "re_agm", 40),
                                            ("adaptive_gd", sampled, "adaptive_gd", 40),
                                            ("reduced_precision:gd", reduced, "gd", 3)):
        def case(oracle_keys=oracle_keys, rname=rname, steps=steps):
            cfg = parse_config({**base, **oracle_keys})
            p = build_problem(cfg)
            oracle = cases.watch(build_oracle(cfg, p))
            a = oracle.declared_alpha
            if rname == "gd":
                trace = S.gd_run(p, oracle, S.GDConfig(steps, a, p.L))
            elif rname == "re_agm":
                trace = S.re_agm_run(p, oracle, S.ReAgmConfig(steps, p.mu, p.L, a))
            else:
                trace = S.adaptive_gd_run(p, oracle, S.AdaptiveGDConfig(steps, p.L / 4.0,
                                                                        oracle.declared_delta))
            return (p.mu, p.L, p.x_star, p.f_star), trace, oracle.queries
        cases.run(f"quadcfg:{name}:n1000", case)


def driver_cases(cases: Cases) -> None:
    from ngl import drivers as D
    from ngl import oracles as O
    from ngl import problems as P
    from ngl import solvers as S

    def sampled(p, alpha=0.0, delta=0.0, seed=0):
        return cases.watch(O.SyntheticNoiseOracle(p, O.NoiseSpec(alpha, delta, "sampled_unbiased", seed)))

    for seed in (1, 2):
        base = P.nesterov_convex(5, 10.0, 20)
        R = float(np.linalg.norm(base.x_star))
        eps = base.L * R**2 / 20.0
        cases.run(f"drv:{seed}:convex_gd", lambda: D.solve_convex_gd(base, sampled(base, 0.25, 0, seed), eps, R))
        for beta, alpha in ((0.0, 0.1), (0.5, 0.02)):
            cases.run(f"drv:{seed}:convex_re_agm:{beta}", lambda beta=beta, alpha=alpha: D.solve_convex_re_agm(
                base, sampled(base, alpha, 0, seed), eps, beta, R))
        cases.run(f"drv:{seed}:combined", lambda: D.combined_reg_stop(base, sampled(base, 0.05, 0, seed), eps, 0.0, R))
        for solver, threshold in (("gd", None), ("re_agm", None), ("re_agm", 1e3)):
            cases.run(f"drv:{seed}:ridge_budget5:{solver}:{threshold}", lambda solver=solver, threshold=threshold:
                      D._ridge_route(solver, base, sampled(base, 0.1, 0, seed), R, None, 0.05, 0.2, 5,
                                     1e-6, threshold))
        p = P.nesterov_strongly_convex(1.0, 25.0, 30)
        rule = D.StoppingRule(K=4.0, delta=1e-3)
        for solver in ("gd", "re_agm"):
            cases.run(f"drv:{seed}:stopping:{solver}", lambda solver=solver: D.run_with_stopping(
                solver, p, sampled(p, 0.0, 1e-3, seed), rule, 0.1, 2000, x0=np.ones(30)))
        q = P.nesterov_strongly_convex(1.0, 10.0, 8)
        gap0 = q.gap(np.zeros(8))
        floor_delta = math.sqrt((gap0 / 12.0) * q.mu / 1.5)
        for solver in ("gd", "re_agm"):
            cases.run(f"drv:{seed}:restart:{solver}", lambda solver=solver: D.restart_to_convex(
                solver, q, sampled(q, 0.1, 0.0, seed), gap0 / 8.0))
            cases.run(f"drv:{seed}:restart_floor:{solver}", lambda solver=solver: D.restart_to_convex(
                solver, q, sampled(q, 0.0, floor_delta, seed), gap0 / 100.0))

    # edge: gd and re_agm on a ridge's base with the ridge oracle, over several
    # evaluation blocks; the unqueried rows' gradient norms are the ridge's
    wide = P.nesterov_convex(1000, 10.0, 2000)
    for rname in ("gd", "re_agm"):
        def ridge_base(rname=rname):
            oracle = cases.watch(D.RegularizedOracle(sampled(wide, 0.1, 0.0, 3), np.zeros(2000), 0.05, 1.0))
            reg, x0 = oracle.problem, np.ones(2000)
            if rname == "gd":
                trace = S.gd_run(wide, oracle, S.GDConfig(40, 0.2, reg.L), x0=x0)
            else:
                trace = S.re_agm_run(wide, oracle, S.ReAgmConfig(40, reg.mu, reg.L, 0.2), x0=x0)
            return trace, oracle.queries, None
        cases.run(f"edge:ridge_base:{rname}:nomon", ridge_base)

    # constants that leave floating range at L = 1e308
    from ngl import bounds as B

    huge = B.EnvelopeConstants(mu=1.0, L=1e308, alpha=0.0, delta=1e-3, f0_gap=1.0, R=1.0, K=7.0)
    for tid, kw in (("GD_REG", {"epsilon": 1.0}), ("REAGM_REG", {"epsilon": 1.0, "beta": 0.0}),
                    ("REAGM_STOP", {})):
        cases.run(f"guard:budget:{tid}", lambda tid=tid, kw=kw: B.iteration_budget(
            tid, dataclasses.replace(huge, delta=1e-3 if tid == "REAGM_STOP" else 0.0), **kw))
    cases.run("guard:plan_combined", lambda: D.plan_combined(1e308, 2.0, 0.01, 1.0, 0.0))
    for alpha in (0.0, 0.1):
        cases.run(f"guard:re_agm_parameters:{alpha}", lambda alpha=alpha: S.re_agm_calculate_parameters(
            1.0, 1e308, alpha))
    cvx, scvx = P.nesterov_convex(8, 1e308, 8), P.nesterov_strongly_convex(1.0, 1e308, 8)
    cases.run("guard:convex_gd", lambda: D.solve_convex_gd(cvx, sampled(cvx), 1.0, 2.0))
    for solver in ("gd", "re_agm"):
        cases.run(f"guard:restart:{solver}", lambda solver=solver: D.restart_to_convex(
            solver, scvx, sampled(scvx), 1.0))


def helper_cases(cases: Cases) -> None:
    import ngl
    from ngl import numkit as N
    from ngl import oracles as O
    from ngl import problems as P

    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 6))
    quad = P.quadratic(M @ M.T + np.eye(6), rng.standard_normal(6))
    probs = {"scvx": P.nesterov_strongly_convex(0.5, 20.0, 6), "cvx": P.nesterov_convex(3, 20.0, 6),
             "quad": quad}
    for name, p in probs.items():
        xs = [rng.standard_normal(6) for _ in range(3)]
        cases.run(f"problem:{name}", lambda p=p, xs=xs: (
            p.x_star, p.f_star, p.mu, p.L, [(p.value(x), p.gradient(x), p.gap(x)) for x in xs]))
        for bad in (np.full(6, np.nan), np.ones(5), np.ones((2, 3))):
            cases.run(f"problem:{name}:bad:{'x'.join(map(str, bad.shape))}:{bad.flat[0]}", lambda p=p, bad=bad: p.value(bad))
    # the chains' tridiagonal solve: the scalar case, a 2x2, long chains, a failed construction
    def chain_minimum(mu, L, n):
        q = P.nesterov_strongly_convex(mu, L, n)
        return q.x_star, q.f_star

    for mu, L, n in ((0.5, 20.0, 1), (0.5, 20.0, 2), (0.5, 20.0, 5000), (1e7, 1e8, 5000)):
        cases.run(f"chain_solve:{mu}:{L}:{n}", lambda mu=mu, L=L, n=n: chain_minimum(mu, L, n))
    cases.run("chain_solve:L_inf", lambda: P.nesterov_strongly_convex(1.0, math.inf, 4))
    p = probs["scvx"]
    # the noise stream: queries 0-7 and the first query past a refill
    # (2**14 // 12 = 1365 queries per block of two balls at n = 6)
    o = O.SyntheticNoiseOracle(p, O.NoiseSpec(0.3, 0.2, "sampled_unbiased", 11))
    x1 = np.ones(6)
    for q in (*range(8), 1365):
        while o.queries < q:
            o.estimate_with_exact(x1)
        cases.run(f"noise:{q}", lambda: o.estimate_with_exact(x1))
    A = M @ M.T
    b = rng.standard_normal(6)
    for bits in (5, 20, 52):
        for scale in (1e-3, 1.0, 1e3):
            cases.run(f"fp_gradient:{bits}:{scale}", lambda bits=bits, scale=scale: O._fp_quadratic(
                A, b, scale * np.arange(6.0), N.PrecisionSpec(bits)))
    cases.run("fp_gradient:overflow", lambda: O._fp_quadratic(
        np.eye(2) * 1.7e308, np.ones(2), np.ones(2), N.PrecisionSpec(5)))
    for v in (1.0, 1.7976931348623157e308, -3.3e-5, math.nan):
        cases.run(f"round:{v}", lambda v=v: N.round_to_precision(v, N.PrecisionSpec(5)))
    cases.run("as_vector", lambda: [N.as_vector(v) for v in ([1, 2], np.float32([1.5]), 3.0)])
    cases.run("as_vector:bad", lambda: N.as_vector([1.0, math.inf]))
    g = rng.standard_normal(9)
    cases.run("compress", lambda: (O._top_k(g, 3), O._sign(g), O._grid(g, 4)))
    # the package exports it, from oracles at earlier commits and from bounds now
    report = ngl.certification_report
    cases.run("certification_report", lambda: (
        report(g + 0.1, g, 0.2, 0.0), report(g * 1.1, g, 0.2, 0.3)))


def config_cases(root: Path, cases: Cases) -> None:
    """parse_config on every run of ``configs/*.json`` and on each single-fault config."""
    from ngl.config import expand_sweep, parse_config

    # the fault list comes from this tool's own checkout, so that one list
    # is digested against any --root
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from config_faults import FAULTS, fault_config

    for config in sorted((root / "configs").glob("*.json")):
        for i, run in enumerate(expand_sweep(json.loads(config.read_text()))[1]):
            cases.run(f"config:{config.stem}:{i}", lambda run=run: parse_config(run))
    for name, changes, _ in FAULTS:
        cases.run(f"config:fault:{name}", lambda changes=changes: parse_config(fault_config(changes)))


def verify_cases(cases: Cases) -> None:
    from ngl import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify"])
    d = Digest()
    d.add(code)
    cases.lines.append(f"verify:exit {code} {d.hex()}")
    for line in out.getvalue().splitlines():
        name, status, *rest = line.split(None, 3)
        # "name status seconds detail"; the overall row has neither
        d = Digest()
        d.add((status, rest[1] if rest else None))
        edge = "edge:" if "sum" in name else ""
        cases.lines.append(f"{edge}verify:{name} {status} {d.hex()}")


_SCVX = {"problem.family": "nesterov_strongly_convex", "problem.mu": 1.0, "problem.L": 50.0,
         "problem.n": 20, "oracle.mode": "sampled_unbiased", "oracle.alpha": 0.1,
         "oracle.delta": 0.01, "oracle.seed": 5}
_CVX = {"problem.family": "nesterov_convex", "problem.k": 10, "problem.L": 10.0, "problem.n": 20,
        "oracle.mode": "sampled_unbiased", "oracle.alpha": 0.05, "oracle.seed": 5}
_STOP = {**_SCVX, "oracle.alpha": 0.0, "oracle.delta": 0.05, "driver.name": "stopping",
         "driver.K": 4.0, "solver.N": 400}
_FINE = {"problem.family": "quadratic", "problem.mu": 1.0, "problem.L": 10.0, "problem.n": 16,
         "oracle.mode": "grid", "solver.N": 200}
# one config per ngl run route
CLI_ROUTES = {
    "gd": {**_SCVX, "solver.N": 200},
    "re_agm": {**_SCVX, "solver.name": "re_agm", "solver.N": 200},
    "adaptive": {**_SCVX, "solver.name": "adaptive_gd", "solver.N": 200},
    "adaptive_L": {**_SCVX, "solver.name": "adaptive_gd", "solver.tau": True, "solver.L0": 12.5,
                   "solver.N": 200},
    "gd_alpha_above": {**_SCVX, "solver.alpha_param": 0.3, "solver.N": 200},
    "gd_alpha_below": {**_SCVX, "solver.alpha_param": 0.05, "solver.N": 200},
    "gd_convex": {**_CVX, "solver.N": 200},
    "guard_re_agm": {**_SCVX, "oracle.alpha": 0.4, "solver.name": "re_agm", "solver.N": 200},
    "regularize_gd": {**_CVX, "driver.name": "regularize", "driver.epsilon": 0.5},
    "regularize_re_agm": {**_CVX, "oracle.alpha": 0.005, "solver.name": "re_agm",
                          "driver.name": "regularize", "driver.epsilon": 0.5},
    "stopping_gd": _STOP,
    "stopping_re_agm": {**_STOP, "solver.name": "re_agm"},
    "restart_gd": {**_SCVX, "driver.name": "restart", "driver.epsilon": 0.05},
    "restart_re_agm": {**_SCVX, "solver.name": "re_agm", "driver.name": "restart", "driver.epsilon": 0.05},
    "combined": {**_CVX, "driver.name": "combined", "driver.epsilon": 0.5},
    # grid resolutions past float precision
    "grid_fine": {**_FINE, "oracle.m": 10**308},
    "grid_fine_L1e9": {**_FINE, "problem.L": 1e9, "oracle.m": 10**300},
}


def cli_run_cases(cases: Cases) -> None:
    """``ngl run`` in process on each of ``CLI_ROUTES``, in a temporary directory."""
    from ngl import cli

    def case(raw):
        with tempfile.TemporaryDirectory() as tmp:
            out, config = Path(tmp) / "out", Path(tmp) / "config.json"
            config.write_text(json.dumps({**raw, "output.dir": str(out)}))
            err, seed = io.StringIO(), os.environ.pop("NGL_SEED", None)
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", str(config)])
            finally:
                if seed is not None:
                    os.environ["NGL_SEED"] = seed
            trace = (out / "trace.csv").read_bytes() if (out / "trace.csv").exists() else None
            summary = json.loads((out / "summary.json").read_text()) if trace is not None else {}
            summary.pop("wall_time_s", None)
            return code, err.getvalue(), trace, summary

    for name, raw in CLI_ROUTES.items():
        cases.run(f"cli_run:{name}", lambda raw=raw: case(raw))


def cli_cases(root: Path, cases: Cases) -> None:
    env = {k: v for k, v in os.environ.items() if k != "NGL_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    for config in sorted((root / "configs").glob("*.json")):
        raw = json.loads(config.read_text())
        command = ["sweep", "--jobs", "2"] if any(isinstance(v, list) for v in raw.values()) else ["run"]
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run([sys.executable, "-m", "ngl.cli", *command, str(config)],
                                  cwd=tmp, env=env, capture_output=True, text=True)
            d = Digest()
            d.add((" ".join(command), done.returncode, done.stderr))
            cases.lines.append(f"cli:{config.stem}:exit {done.returncode} {d.hex()}")
            for path in sorted(Path(tmp).rglob("*")):
                if not path.is_file():
                    continue
                d = Digest()
                if path.name == "summary.json":
                    summary = json.loads(path.read_text())
                    summary.pop("wall_time_s", None)
                    d.add(json.dumps(summary, sort_keys=True))
                else:
                    d.add(path.read_bytes())
                cases.lines.append(f"cli:{config.stem}:{path.relative_to(tmp).as_posix()} file {d.hex()}")


LISTING = Path("tests") / "identity_listing.txt"


def _numpy_umath():
    """numpy's ufunc extension module: under ``numpy._core`` from numpy 2.0,
    under ``numpy.core`` before."""
    try:
        return importlib.import_module("numpy._core._multiarray_umath")
    except ImportError:
        return importlib.import_module("numpy.core._multiarray_umath")


def host_header() -> list:
    """The listing's header lines: what the digests depend on besides the code."""
    import platform

    umath = _numpy_umath()
    features = umath.__cpu_features__
    dispatched = [name for name in umath.__cpu_dispatch__ if features.get(name)]
    return [f"# python {platform.python_version()}",
            f"# numpy {np.__version__}",
            f"# numpy cpu baseline {' '.join(umath.__cpu_baseline__)}; "
            f"dispatch {' '.join(dispatched)}"]


def read_listing(path: Path):
    """(header lines, {case name: "outcome digest"}) of a written listing."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    cases = dict(line.split(" ", 1) for line in lines if line and not line.startswith("#"))
    return header, cases


def run_cases(root: Path, cli: bool) -> Cases:
    """Every case, with the ``ngl run``/``ngl sweep`` artifacts when ``cli``."""
    cases = Cases()
    solver_cases(cases)
    config_quadratic_cases(cases)
    driver_cases(cases)
    helper_cases(cases)
    config_cases(root, cases)
    verify_cases(cases)
    cli_run_cases(cases)
    if cli:
        cli_cases(root, cases)
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ngl and configs are digested")
    parser.add_argument("--no-cli", action="store_true", help="skip the ngl run/sweep artifacts")
    parser.add_argument("--write", action="store_true",
                        help=f"write the --no-cli listing to CHECKOUT/{LISTING.as_posix()}")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import ngl

    if Path(ngl.__file__).resolve().parent != root / "src" / "ngl":
        raise SystemExit(f"imported ngl from {ngl.__file__}, not from {root / 'src'}")
    cases = run_cases(root, cli=not (args.no_cli or args.write))
    lines = sorted(cases.lines)
    if args.write:
        (root / LISTING).write_text("\n".join(host_header() + lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)
    kept = [line for line in lines if not line.startswith("edge:")]
    edge = [line for line in lines if line.startswith("edge:")]
    for label, group in (("digest", kept), ("edge digest", edge)):
        joined = "\n".join(group).encode()
        print(f"{label} ({len(group)} cases) {hashlib.sha256(joined).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
