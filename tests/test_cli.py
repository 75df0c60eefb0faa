"""Command-line harness: configs, artifacts, exit codes, sweeps."""

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ngl.cli as cli
import ngl.config as config
import ngl.numkit as numkit
from config_faults import FAULTS, fault_config
from ngl.bounds import envelope, start_constants
from ngl.config import ConfigError, expand_sweep, parse_config
from ngl.oracles import NOISE_STREAM
from ngl.solvers import DivergedError, RunTrace


def write_config(tmp_path, name="config.json", **overrides):
    base = {
        "problem.family": "nesterov_strongly_convex",
        "problem.mu": 1.0,
        "problem.L": 100.0,
        "problem.n": 30,
        "oracle.mode": "sampled_unbiased",
        "oracle.alpha": 0.25,
        "oracle.delta": 0.1,
        "oracle.seed": 7,
        "solver.name": "gd",
        "solver.N": 400,
        "output.dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        if value is None:
            base.pop(key, None)
        else:
            base[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


# overrides of write_config's and sweep_config's sampled oracle
GRID = {"oracle.mode": "grid", "oracle.alpha": None, "oracle.delta": None}
REDUCED_PRECISION = {"problem.family": "quadratic", "oracle.mode": "reduced_precision",
                     "oracle.alpha": None, "oracle.delta": None, "oracle.precision_bits": 10}


# ngl run's routes as overrides of write_config's strongly convex sampled
# gd run, each with the theorem whose envelope its bound column prints
# (None: no bound, every row nan)
_CONVEX = {"problem.family": "nesterov_convex", "problem.k": 10, "problem.mu": None,
           "problem.L": 10.0, "problem.n": 20, "oracle.alpha": 0.05, "oracle.delta": None,
           "solver.N": None}
_STOPPING = {"oracle.alpha": 0.0, "oracle.delta": 0.05, "driver.name": "stopping", "driver.K": 4.0}
_RESTART = {"oracle.alpha": 0.1, "oracle.delta": 0.0, "solver.N": None, "driver.name": "restart",
            "driver.epsilon": 1.0}
ROUTE_BOUNDS = {
    "gd": ({}, "GD_PL"),
    "re_agm": ({"solver.name": "re_agm"}, "REAGM"),
    "adaptive_gd": ({"solver.name": "adaptive_gd"}, "ADAPT_ALPHA"),
    "adaptive_gd_tau": ({"solver.name": "adaptive_gd", "solver.tau": True, "solver.L0": 12.5},
                        "ADAPT_BOTH"),
    "gd_alpha_above": ({"solver.alpha_param": 0.4}, "GD_PL"),
    "gd_alpha_below": ({"solver.alpha_param": 0.1}, None),
    "gd_convex": ({**_CONVEX, "solver.N": 200}, None),
    "regularize_gd": ({**_CONVEX, "driver.name": "regularize", "driver.epsilon": 0.5}, None),
    "regularize_re_agm": ({**_CONVEX, "oracle.alpha": 0.005, "solver.name": "re_agm",
                           "driver.name": "regularize", "driver.epsilon": 0.5}, None),
    "stopping_gd": (_STOPPING, None),
    "stopping_re_agm": ({**_STOPPING, "solver.name": "re_agm"}, None),
    "restart_gd": (_RESTART, None),
    "restart_re_agm": ({**_RESTART, "solver.name": "re_agm"}, None),
    "combined": ({**_CONVEX, "solver.name": "re_agm", "driver.name": "combined", "driver.epsilon": 0.5},
                 None),
}


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_trace(out_dir):
    rows = read_rows(out_dir / "trace.csv")
    cols = {}
    for name in rows[0]:
        cols[name] = np.array([float(r[name]) for r in rows])
    return cols


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config({
            "problem.family": "quadratic", "problem.mu": 1.0,
            "problem.L": 10.0, "output.dir": "x"})
        assert cfg.n == 100
        assert cfg.mode == "none"
        assert cfg.solver == "gd"
        assert cfg.steps == 10_000
        assert cfg.driver == "none"

    def test_convex_default_steps(self):
        cfg = parse_config({
            "problem.family": "nesterov_convex", "problem.k": 5,
            "problem.L": 10.0, "output.dir": "x"})
        assert cfg.mu == 0.0
        assert cfg.steps == 1_000

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            parse_config({"problem.family": "quadratic", "problem.mu": 1.0,
                          "problem.L": 10.0, "banana": 1, "output.dir": "x"})

    def test_levels_rejected_for_derived_modes(self):
        with pytest.raises(ConfigError, match="derived"):
            parse_config({"problem.family": "quadratic", "problem.mu": 1.0,
                          "problem.L": 10.0, "oracle.mode": "sign",
                          "oracle.alpha": 0.1, "output.dir": "x"})

    def test_bool_is_not_int(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config({"problem.family": "quadratic", "problem.mu": 1.0,
                          "problem.L": 10.0, "problem.n": True,
                          "output.dir": "x"})

    def test_driver_rejects_solver_budget(self):
        with pytest.raises(ConfigError, match="budgets its own"):
            parse_config({"problem.family": "nesterov_convex", "problem.k": 5,
                          "problem.L": 10.0, "solver.N": 100,
                          "driver.name": "regularize", "driver.epsilon": 0.1,
                          "output.dir": "x"})

    def test_re_agm_needs_curvature_or_driver(self):
        with pytest.raises(ConfigError, match="re_agm needs mu > 0"):
            parse_config({"problem.family": "nesterov_convex", "problem.k": 5,
                          "problem.L": 10.0, "solver.name": "re_agm",
                          "output.dir": "x"})

    @pytest.mark.parametrize("changes, message", [f[1:] for f in FAULTS],
                             ids=[f[0] for f in FAULTS])
    def test_single_fault_message(self, changes, message):
        with pytest.raises(ConfigError) as info:
            parse_config(fault_config(changes))
        assert str(info.value) == message

    def test_docstring_lists_the_table_keys_in_order(self):
        listed = re.findall(r"^  ([a-z]+\.[A-Za-z0-9_]+) ", config.__doc__, re.M)
        assert listed == [row[0] for row in config._KEYS]

    def test_expand_sweep_order(self):
        varied, runs = expand_sweep({
            "b.key": [1, 2], "a.key": ["x", "y"], "fixed": 0})
        assert varied == ["a.key", "b.key"]
        assert [(r["a.key"], r["b.key"]) for r in runs] == [
            ("x", 1), ("x", 2), ("y", 1), ("y", 2)]
        assert all(r["fixed"] == 0 for r in runs)

    def test_expand_sweep_rejects_nested(self):
        with pytest.raises(ConfigError, match="scalars"):
            expand_sweep({"a.key": [[1, 2]]})


class TestRunCommand:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        assert "steps_exhausted" in capsys.readouterr().out

    def test_trace_columns(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["run", str(path)])
        cols = read_trace(tmp_path / "out")
        assert list(cols) == ["k", "f_gap", "grad_norm", "noisy_grad_norm",
                              "bound", "inner_loops"]
        np.testing.assert_array_equal(cols["k"], np.arange(401))
        assert np.all(np.isnan(cols["inner_loops"]))
        # final row's noisy norm is never queried on a plain run
        assert math.isnan(cols["noisy_grad_norm"][-1])
        assert np.all(np.isfinite(cols["noisy_grad_norm"][:-1]))

    def test_bound_column_holds(self, tmp_path):
        path = write_config(tmp_path, **{"solver.N": 2000})
        cli.main(["run", str(path)])
        cols = read_trace(tmp_path / "out")
        bound = cols["bound"]
        assert np.all(np.isfinite(bound))
        tol = 1e-9 * max(1.0, bound[0])
        assert np.all(cols["f_gap"] <= bound + tol)

    def test_summary_schema(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["run", str(path)])
        summary = read_summary(tmp_path / "out")
        assert set(summary) == {"final_f_gap", "iterations",
                                "inner_loop_total", "envelope_violations",
                                "terminal", "noise_stream", "wall_time_s"}
        assert summary["noise_stream"] == NOISE_STREAM == 2
        assert summary["iterations"] == 400
        assert summary["inner_loop_total"] == 0
        assert summary["envelope_violations"] == 0
        assert summary["terminal"] == "steps_exhausted"
        cols = read_trace(tmp_path / "out")
        assert summary["final_f_gap"] == cols["f_gap"][-1]

    def test_seventeen_digit_round_trip(self, tmp_path):
        path = write_config(tmp_path, **{"solver.N": 50})
        cli.main(["run", str(path)])
        text = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        value = text[1].split(",")[1]
        assert value == format(float(value), ".17g")

    @pytest.mark.parametrize("with_bound", [False, True])
    @pytest.mark.parametrize("with_inner", [False, True])
    def test_trace_csv_matches_per_cell_format(self, tmp_path, monkeypatch, with_bound,
                                               with_inner):
        floats = np.array([0.0, -0.0, 1.0 / 3.0, 5e-324, 1e-310, 2.5e-17,
                           1.7976931348623157e308, 123456789.0, -7.0,
                           math.inf, -math.inf, math.nan])
        n = len(floats)
        trace = RunTrace(
            k=np.arange(n, dtype=np.int64), f_gap=floats, grad_norm=floats[::-1].copy(),
            noisy_grad_norm=np.roll(floats, 3), terminal="steps_exhausted",
            x_final=np.zeros(2), final_f_gap=0.0, declared_alpha=0.0, declared_delta=0.0,
            inner_loops=np.arange(n, dtype=np.int64) * 7 if with_inner else None)
        bound = np.roll(floats, 5) if with_bound else None
        path = tmp_path / "trace.csv"
        cli._write_trace_csv(path, trace, bound)
        # the per-cell formatting the one-pass writer must reproduce
        lines = ["k,f_gap,grad_norm,noisy_grad_norm,bound,inner_loops"]
        for i in range(n):
            lines.append(",".join([
                format(int(trace.k[i]), "d"),
                format(float(trace.f_gap[i]), ".17g"),
                format(float(trace.grad_norm[i]), ".17g"),
                format(float(trace.noisy_grad_norm[i]), ".17g"),
                format(float(bound[i]), ".17g") if with_bound else "nan",
                format(int(trace.inner_loops[i]), "d") if with_inner else "nan",
            ]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        # written a block of rows at a time, the bytes are those of one pass:
        # blocks of 5, 4 or 3 rows for 4, 5 or 6 columns at BLOCK_FLOATS = 20
        monkeypatch.setattr(numkit, "BLOCK_FLOATS", 20)
        assert numkit.block_rows(4) < n
        cli._write_trace_csv(tmp_path / "blocks.csv", trace, bound)
        assert (tmp_path / "blocks.csv").read_bytes() == path.read_bytes()

    def test_bit_reproducible(self, tmp_path):
        a = write_config(tmp_path, name="a.json",
                         **{"output.dir": str(tmp_path / "a")})
        b = write_config(tmp_path, name="b.json",
                         **{"output.dir": str(tmp_path / "b")})
        cli.main(["run", str(a)])
        cli.main(["run", str(b)])
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                == (tmp_path / "b" / "trace.csv").read_bytes())

    def test_env_seed_changes_stream(self, tmp_path, monkeypatch):
        a = write_config(tmp_path, name="a.json",
                         **{"output.dir": str(tmp_path / "a")})
        b = write_config(tmp_path, name="b.json",
                         **{"output.dir": str(tmp_path / "b")})
        cli.main(["run", str(a)])
        monkeypatch.setenv("NGL_SEED", "99")
        cli.main(["run", str(b)])
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                != (tmp_path / "b" / "trace.csv").read_bytes())

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path)
        monkeypatch.setenv("NGL_SEED", "banana")
        assert cli.main(["run", str(path)]) == 1
        assert "NGL_SEED" in capsys.readouterr().err

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"output.dir": None})
        assert cli.main(["run", str(path)]) == 1
        assert "output.dir" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["a_file", "under_a_file"])
    def test_unwritable_output_dir_exits_one(self, tmp_path, capsys, where):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" if where == "a_file" else tmp_path / "taken" / "out"
        path = write_config(tmp_path, **{"output.dir": str(out), "solver.N": 20})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_huge_int_for_a_float_key_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"problem.L": 10**400})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "problem.L: must be finite, got 1000" in err
        assert "Traceback" not in err

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"output.dir": "caf\xe9"}'.encode("latin-1"))
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ") and err.count("\n") == 1

    def test_grid_resolution_beyond_float_range_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, **GRID, **{"oracle.m": 10**309})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: oracle.m: must be in [1, 1.7976931348623157e+308], "
                              "got 1000") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("L, m", [(10.0, 10**308), (1e9, 10**300)], ids=["L10-m1e308", "L1e9-m1e300"])
    def test_fine_grid_resolution_runs(self, tmp_path, capsys, L, m):
        # a resolution finer than float precision is the exact gradient, not a divergence
        path = write_config(tmp_path, **GRID, **{"problem.family": "quadratic", "problem.L": L,
                                                 "problem.n": 16, "oracle.m": m, "solver.N": 200})
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert read_summary(tmp_path / "out")["iterations"] == 200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_radius_beyond_float_range_exits_three(self, tmp_path, capsys):
        path = write_config(tmp_path, **REDUCED_PRECISION, **{"oracle.domain_radius": 1e308})
        assert cli.main(["run", str(path)]) == 3
        assert capsys.readouterr().err == ("hypothesis guard: domain_radius = 1e+308 leaves "
                                           "floating range: the declared level is inf\n")

    def test_malformed_json_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"problem.family": }')
        assert cli.main(["run", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_hypothesis_guard_exit_three(self, tmp_path, capsys):
        path = write_config(tmp_path, **{
            "oracle.alpha": 0.5, "oracle.delta": 0.0,
            "solver.name": "re_agm"})
        assert cli.main(["run", str(path)]) == 3
        assert "hypothesis guard" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"problem.family": "nesterov_convex", "problem.k": 8, "problem.n": 8,
         "problem.mu": None, "oracle.alpha": 0.0, "oracle.delta": 0.0,
         "driver.name": "regularize", "driver.epsilon": 1.0, "solver.N": None},
        {"problem.family": "nesterov_convex", "problem.k": 8, "problem.n": 8,
         "problem.mu": None, "oracle.alpha": 0.01, "oracle.delta": 0.0,
         "driver.name": "combined", "driver.epsilon": 1.0, "solver.N": None,
         "solver.name": None},
        {"problem.n": 8, "oracle.alpha": 0.0, "oracle.delta": 0.0,
         "driver.name": "restart", "driver.epsilon": 1.0, "solver.N": None},
        {"oracle.mode": "none", "oracle.alpha": None, "oracle.delta": None,
         "solver.name": "re_agm"},
    ], ids=["regularize", "combined", "restart", "re_agm"])
    def test_overflowing_constant_exits_three(self, tmp_path, capsys, overrides):
        # at L = 1e308 a budget, a rate or the accelerated parameters leave
        # floating range: one guard line, no traceback
        path = write_config(tmp_path, **{"problem.L": 1e308, **overrides})
        assert cli.main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("hypothesis guard: ") and err.count("\n") == 1
        assert "leaves floating range" in err

    def test_runtime_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path)

        def boom(cfg):
            raise DivergedError("objective value is not finite", trace=None)

        monkeypatch.setattr(cli, "_run_experiment", boom)
        assert cli.main(["run", str(path)]) == 2
        assert "guarantee violated" in capsys.readouterr().err

    def test_envelope_violation_exit_two(self, tmp_path, monkeypatch, capsys):
        # an impossible printed bound must be detected, not papered over
        real = cli._printed_bound

        def zero_bound(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), floor=0.0, _eval=np.zeros_like)

        path = write_config(tmp_path)
        monkeypatch.setattr(cli, "_printed_bound", zero_bound)
        assert cli.main(["run", str(path)]) == 2
        assert "exceed the printed bound" in capsys.readouterr().err
        # artifacts are still written for post-mortem
        summary = read_summary(tmp_path / "out")
        assert summary["envelope_violations"] == 401

    @pytest.mark.parametrize("overrides, theorem", ROUTE_BOUNDS.values(), ids=ROUTE_BOUNDS.keys())
    def test_each_route_prints_its_theorem_or_no_bound(self, tmp_path, capsys, overrides, theorem):
        path = write_config(tmp_path, **overrides)
        assert cli.main(["run", str(path)]) == 0
        # write_config's oracle declares alpha = 0.25: a step-size level below
        # it is flagged in one stderr line
        alpha = overrides.get("solver.alpha_param")
        assert capsys.readouterr().err == (
            f"warning: config alpha={alpha} is below the oracle's declared relative level "
            "0.25; descent guarantees do not apply\n" if alpha is not None and alpha < 0.25 else "")
        bound = read_trace(tmp_path / "out")["bound"]
        if theorem is None:
            assert np.all(np.isnan(bound))
            return
        cfg = parse_config(json.loads(path.read_text()))
        problem = config.build_problem(cfg)
        oracle = config.build_oracle(cfg, problem)
        alpha = oracle.declared_alpha if cfg.alpha_param is None else cfg.alpha_param
        extra = {"L0": cfg.L0 or problem.L} if theorem.startswith("ADAPT") else {}
        env = envelope(theorem, start_constants(problem, alpha, oracle.declared_delta, **extra))
        np.testing.assert_array_equal(bound, env.curve(np.arange(bound.size)))

    def test_adaptive_inner_loops_column(self, tmp_path):
        path = write_config(tmp_path, **{
            "oracle.mode": "adversarial_opposing", "oracle.delta": None,
            "oracle.alpha": 0.3, "solver.name": "adaptive_gd",
            "solver.L0": 12.5, "solver.tau": True, "solver.N": 200})
        assert cli.main(["run", str(path)]) == 0
        cols = read_trace(tmp_path / "out")
        assert np.all(np.isfinite(cols["inner_loops"]))
        summary = read_summary(tmp_path / "out")
        assert summary["inner_loop_total"] == int(cols["inner_loops"].sum())

    def test_driver_regularize_run(self, tmp_path):
        path = write_config(tmp_path, **{
            "problem.family": "nesterov_convex", "problem.k": 10,
            "problem.mu": None, "problem.n": 50, "oracle.delta": None,
            "solver.N": None, "driver.name": "regularize",
            "driver.epsilon": 0.5})
        assert cli.main(["run", str(path)]) == 0
        summary = read_summary(tmp_path / "out")
        assert summary["terminal"] == "stopping_rule"
        assert summary["final_f_gap"] <= 0.5

    def test_driver_stopping_run(self, tmp_path):
        path = write_config(tmp_path, **{
            "oracle.alpha": 0.0, "oracle.delta": 1e-3, "oracle.seed": 9,
            "solver.N": 60_000, "driver.name": "stopping", "driver.K": 10})
        assert cli.main(["run", str(path)]) == 0
        summary = read_summary(tmp_path / "out")
        assert summary["terminal"] == "stopping_rule"

    def test_driver_restart_run(self, tmp_path):
        path = write_config(tmp_path, **{
            "oracle.mode": "none", "oracle.alpha": None, "oracle.delta": None,
            "oracle.seed": None, "solver.N": None,
            "driver.name": "restart", "driver.epsilon": 1.0})
        assert cli.main(["run", str(path)]) == 0
        summary = read_summary(tmp_path / "out")
        assert summary["final_f_gap"] <= 1.0
        cols = read_trace(tmp_path / "out")
        np.testing.assert_array_equal(cols["k"],
                                      np.arange(summary["iterations"] + 1))


_STRONG = ("nesterov_strongly_convex", "quadratic")


@st.composite
def valid_configs(draw):
    """A raw ``ngl run`` config that parse_config accepts, its budgets kept small.

    Every family, oracle mode, solver and driver is drawn, wired as
    parse_config requires.  L/mu is at most 1e2, a synthetic relative
    level at most 0.4, and a driver's target within a factor 16 of the
    start gap: a large condition number, a level near a route's cap or
    a far target gives runs of millions of rows.
    """
    driver = draw(st.sampled_from(config.DRIVERS))
    if driver in ("regularize", "combined"):
        family = "nesterov_convex"
    else:
        family = draw(st.sampled_from(config.FAMILIES if driver == "none" else _STRONG))
    if driver == "combined":
        solver = "re_agm"
    elif driver != "none":
        solver = draw(st.sampled_from(("gd", "re_agm")))
    else:
        solver = draw(st.sampled_from(config.SOLVERS if family in _STRONG else ("gd", "adaptive_gd")))
    mode = draw(st.sampled_from([m for m in config.ORACLE_MODES
                                 if m != "reduced_precision" or family == "quadratic"]))
    n, L = draw(st.integers(1, 12)), draw(st.floats(0.1, 1e4))
    raw = {"problem.family": family, "problem.n": n, "problem.L": L, "oracle.mode": mode,
           "solver.name": solver, "driver.name": driver, "oracle.seed": draw(st.integers(0, 2**32))}
    if family == "nesterov_convex":
        raw["problem.k"] = draw(st.integers(1, n))
    else:
        raw["problem.mu"] = L / draw(st.floats(1.0, 100.0))
    if mode in ("sampled_unbiased", "adversarial_opposing"):
        raw["oracle.alpha"] = draw(st.floats(0.0, 0.4))
        # the ridge routes take relative noise only
        ridge = family == "nesterov_convex" and driver != "none"
        raw["oracle.delta"] = 0.0 if ridge else draw(st.floats(0.0, 1.0))
    elif mode == "top_k":
        raw["oracle.k"] = draw(st.integers(1, n))
    elif mode == "grid":
        raw["oracle.m"] = draw(st.integers(1, 1000) | st.sampled_from([10**300, 10**308]))
    elif mode == "finite_difference":
        raw["oracle.h"] = draw(st.floats(1e-8, 0.1))
        raw["oracle.value_noise"] = draw(st.floats(0.0, 1e-6))
    elif mode == "reduced_precision":
        raw["oracle.precision_bits"] = draw(st.integers(1, 52))
        raw["oracle.domain_radius"] = draw(st.floats(0.1, 100.0))
    if driver in ("none", "stopping"):
        raw["solver.N"] = draw(st.integers(0, 300))
    if driver == "none" and solver != "adaptive_gd" and draw(st.booleans()):
        raw["solver.alpha_param"] = draw(st.floats(0.0, 0.9))
    if solver == "adaptive_gd":
        if draw(st.booleans()):
            raw["solver.L0"] = L * draw(st.floats(0.01, 100.0))
        raw["solver.tau"] = draw(st.booleans())
    if driver == "stopping":
        raw["driver.K"] = draw(st.floats(1.5, 20.0))
    if driver in ("regularize", "restart", "combined"):
        try:
            problem = config.build_problem(parse_config({**raw, "driver.epsilon": 1.0, "output.dir": "-"}))
            gap0 = problem.gap(np.zeros(n))
        except ValueError:  # a chain with mu = L: refused when built, exit 3
            gap0 = 1.0
        raw["driver.epsilon"] = gap0 * 2.0 ** draw(st.floats(-4.0, 1.0))
    if driver == "regularize" and solver == "re_agm":
        raw["driver.beta"] = draw(st.floats(0.0, 0.5))
    if driver == "combined":
        raw["driver.tau"] = draw(st.floats(0.0, 0.5))
    return raw


_FINE_GRID = {"problem.family": "quadratic", "problem.n": 16, "problem.mu": 1.0,
              "oracle.mode": "grid", "solver.N": 200}


@settings(max_examples=250, deadline=None)
@given(raw=valid_configs())
@example(raw={**_FINE_GRID, "problem.L": 10.0, "oracle.m": 10**308})
@example(raw={**_FINE_GRID, "problem.L": 1e9, "oracle.m": 10**300})
def test_run_never_raises_on_a_valid_config(raw):
    # a valid config with a writable output directory ends in a documented
    # exit code with at most one line on stderr; a RuntimeWarning is a fault
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**raw, "output.dir": str(Path(tmp) / "out")}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_GUARD), err.getvalue()
    # in this regime no guarantee fails, save the adaptive method's: its
    # acceptance test differences two values of f, which stall it once the
    # gap is rounding noise of f_star
    assert code != cli.EXIT_VIOLATION or raw["solver.name"] == "adaptive_gd", err.getvalue()
    # at most one line besides its warnings, and the one warning a valid run
    # may raise: a step-size level below the declared one
    lines = err.getvalue().splitlines()
    warned = [line for line in lines if line.startswith("warning: ")]
    assert len(lines) - len(warned) <= 1, err.getvalue()
    assert all("declared relative level" in line for line in warned), err.getvalue()
    assert not caught, caught


class TestSweepCommand:
    def sweep_config(self, tmp_path, **overrides):
        base = {
            "problem.family": "nesterov_strongly_convex",
            "problem.mu": 1.0, "problem.L": 100.0, "problem.n": 30,
            "oracle.mode": ["sampled_unbiased", "adversarial_opposing"],
            "oracle.alpha": [0.0, 0.25], "oracle.delta": 0.1,
            "oracle.seed": 7, "solver.name": "gd", "solver.N": 800,
            "output.dir": str(tmp_path / "sweep"),
        }
        base.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(base))
        return path

    def test_every_run_names_the_noise_stream(self, tmp_path):
        # sampled and adversarial runs alike: the stream a rerun must match
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", str(path)]) == 0
        for i in range(4):
            assert read_summary(tmp_path / "sweep" / f"run_{i:03d}")["noise_stream"] == NOISE_STREAM

    def test_cross_product_layout(self, tmp_path):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", str(path)]) == 0
        root = tmp_path / "sweep"
        for i in range(4):
            assert (root / f"run_{i:03d}" / "trace.csv").exists()
            assert (root / f"run_{i:03d}" / "summary.json").exists()
        rows = read_rows(root / "comparison.csv")
        assert len(rows) == 4
        assert list(rows[0]) == ["run", "oracle.alpha", "oracle.mode",
                                 "final_f_gap", "iterations", "terminal",
                                 "floor", "iters_to_10x_floor"]
        # varied keys sorted, last one fastest
        assert [r["oracle.mode"] for r in rows] == [
            "sampled_unbiased", "adversarial_opposing"] * 2
        assert [float(r["oracle.alpha"]) for r in rows] == [0.0, 0.0,
                                                            0.25, 0.25]

    def test_floor_column_and_iters_to_floor(self, tmp_path):
        path = self.sweep_config(tmp_path)
        cli.main(["sweep", str(path)])
        rows = read_rows(tmp_path / "sweep" / "comparison.csv")
        for row in rows:
            floor = float(row["floor"])
            hit = float(row["iters_to_10x_floor"])
            assert floor > 0.0
            assert 0 < hit <= 800
            trace = read_trace(tmp_path / "sweep" / f"run_{row['run']:0>3}")
            k = int(hit)
            assert trace["f_gap"][k] <= 10.0 * floor
            assert np.all(trace["f_gap"][:k] > 10.0 * floor)

    def test_parallel_matches_sequential(self, tmp_path):
        seq = self.sweep_config(tmp_path,
                                **{"output.dir": str(tmp_path / "seq")})
        cli.main(["sweep", str(seq)])
        par = self.sweep_config(tmp_path,
                                **{"output.dir": str(tmp_path / "par")})
        assert cli.main(["sweep", str(par), "--jobs", "4"]) == 0
        assert ((tmp_path / "seq" / "comparison.csv").read_bytes()
                == (tmp_path / "par" / "comparison.csv").read_bytes())
        for i in range(4):
            assert ((tmp_path / "seq" / f"run_{i:03d}"
                     / "trace.csv").read_bytes()
                    == (tmp_path / "par" / f"run_{i:03d}"
                        / "trace.csv").read_bytes())

    def test_guarded_combo_exits_three_but_runs_rest(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, **{
            "oracle.mode": "adversarial_opposing",
            "oracle.alpha": [0.1, 0.5], "oracle.delta": 0.0,
            "solver.name": "re_agm", "solver.N": 100})
        assert cli.main(["sweep", str(path)]) == 3
        assert "hypothesis guard" in capsys.readouterr().err
        rows = read_rows(tmp_path / "sweep" / "comparison.csv")
        assert rows[0]["terminal"] == "steps_exhausted"
        assert rows[1]["terminal"] == ""
        assert rows[1]["final_f_gap"] == "nan"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_understated_run_prints_its_warning(self, tmp_path, capsys, jobs):
        # each run records its own warnings, one stderr line each, in run order
        path = self.sweep_config(tmp_path, **{"oracle.mode": "sampled_unbiased", "oracle.alpha": 0.25,
                                              "solver.alpha_param": [0.1, 0.1, 0.3], "solver.N": 20})
        assert cli.main(["sweep", str(path), "--jobs", jobs]) == 0
        warning = ("warning: config alpha=0.1 is below the oracle's declared relative level 0.25; "
                   "descent guarantees do not apply")
        assert capsys.readouterr().err.splitlines() == [f"run 0: {warning}", f"run 1: {warning}"]

    def test_unwritable_output_dir_exits_one(self, tmp_path, capsys):
        # every run records its own output error, then comparison.csv fails too
        (tmp_path / "taken").write_text("")
        path = self.sweep_config(tmp_path, **{"output.dir": str(tmp_path / "taken"),
                                              "solver.N": 20})
        assert cli.main(["sweep", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 5 and captured.out == ""
        for i, line in enumerate(lines[:4]):
            assert line.startswith(f"run {i}: output error: ")
        assert lines[4].startswith("output error: ")

    def test_unwritable_comparison_exits_one(self, tmp_path, capsys):
        # the runs write their artifacts; only comparison.csv cannot be written
        (tmp_path / "sweep" / "comparison.csv").mkdir(parents=True)
        path = self.sweep_config(tmp_path, **{"solver.N": 20})
        assert cli.main(["sweep", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert (tmp_path / "sweep" / "run_003" / "trace.csv").exists()

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"output.dir": "caf\xe9"}'.encode("latin-1"))
        assert cli.main(["sweep", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ") and err.count("\n") == 1

    def test_grid_resolution_beyond_float_range_stops_before_any_run(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, **{**GRID, "oracle.alpha": 0.0, "oracle.delta": 0.0,
                                              "oracle.m": [4, 10**309]})
        assert cli.main(["sweep", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: run 1: oracle.m: must be in [1, ") and err.count("\n") == 1
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("L, m", [(10.0, 10**308), (1e9, 10**300)], ids=["L10-m1e308", "L1e9-m1e300"])
    def test_fine_grid_resolution_runs(self, tmp_path, capsys, L, m):
        # a resolution finer than float precision is the exact gradient, not a divergence
        path = write_config(tmp_path, **GRID, **{"problem.family": "quadratic", "problem.L": L,
                                                 "problem.n": 16, "oracle.m": m, "solver.N": 200})
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert read_summary(tmp_path / "out")["iterations"] == 200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_radius_beyond_float_range_exits_three_but_runs_rest(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, **{**REDUCED_PRECISION, "oracle.alpha": 0.0,
                                              "oracle.delta": 0.0, "solver.N": 20,
                                              "oracle.domain_radius": [1.0, 1e308]})
        assert cli.main(["sweep", str(path)]) == 3
        assert capsys.readouterr().err == ("run 1: hypothesis guard: domain_radius = 1e+308 leaves "
                                           "floating range: the declared level is inf\n")
        rows = read_rows(tmp_path / "sweep" / "comparison.csv")
        assert rows[0]["terminal"] == "steps_exhausted" and rows[1]["terminal"] == ""

    def test_empty_axis_exit_one(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, **{"oracle.alpha": []})
        assert cli.main(["sweep", str(path)]) == 1
        assert "empty sweep list" in capsys.readouterr().err

    def test_swept_output_dir_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path,
                                 **{"output.dir": ["/tmp/a", "/tmp/b"]})
        assert cli.main(["sweep", str(path)]) == 1
        assert "cannot be swept" in capsys.readouterr().err

    def test_env_seed_pins_every_run(self, tmp_path, monkeypatch):
        a = self.sweep_config(tmp_path, **{
            "oracle.mode": "sampled_unbiased", "oracle.seed": 7,
            "output.dir": str(tmp_path / "a")})
        monkeypatch.setenv("NGL_SEED", "5")
        cli.main(["sweep", str(a)])
        monkeypatch.delenv("NGL_SEED")
        b = self.sweep_config(tmp_path, **{
            "oracle.mode": "sampled_unbiased", "oracle.seed": 5,
            "output.dir": str(tmp_path / "b")})
        cli.main(["sweep", str(b)])
        assert ((tmp_path / "a" / "run_000" / "trace.csv").read_bytes()
                == (tmp_path / "b" / "run_000" / "trace.csv").read_bytes())

    def test_single_config_sweep_degenerates_to_one_run(self, tmp_path):
        path = self.sweep_config(tmp_path, **{
            "oracle.mode": "sampled_unbiased", "oracle.alpha": 0.25})
        assert cli.main(["sweep", str(path)]) == 0
        root = tmp_path / "sweep"
        assert (root / "run_000" / "trace.csv").exists()
        assert not (root / "run_001").exists()
        rows = read_rows(root / "comparison.csv")
        assert len(rows) == 1
        # no varied columns when nothing is swept
        assert list(rows[0]) == ["run", "final_f_gap", "iterations",
                                 "terminal", "floor", "iters_to_10x_floor"]
        single = write_config(tmp_path, name="single.json", **{
            "solver.N": 800, "output.dir": str(tmp_path / "single")})
        assert cli.main(["run", str(single)]) == 0
        assert ((root / "run_000" / "trace.csv").read_bytes()
                == (tmp_path / "single" / "trace.csv").read_bytes())

    def test_iters_to_floor_ordering_across_relative_levels(self, tmp_path):
        # larger declared relative level: lower floor, slower rate, later hit
        base = {
            "problem.family": "nesterov_strongly_convex",
            "problem.mu": 0.01, "problem.L": 100.0, "problem.n": 16,
            "oracle.mode": "sampled_unbiased",
            "oracle.alpha": [0.0023570226039551585, 0.028,
                             0.3333333333333333],
            "oracle.delta": 0.001, "oracle.seed": 5,
            "solver.name": "re_agm", "solver.N": 16000,
            "output.dir": str(tmp_path / "ladder"),
        }
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(base))
        assert cli.main(["sweep", str(path)]) == 0
        rows = read_rows(tmp_path / "ladder" / "comparison.csv")
        floors = [float(r["floor"]) for r in rows]
        hits = [int(r["iters_to_10x_floor"]) for r in rows]
        assert floors[0] > floors[1] > floors[2]
        assert 0 < hits[0] < hits[1] < hits[2]


class TestBoundsCommand:
    def test_prints_table(self, capsys):
        code = cli.main(["bounds", "GD_PL", "mu=1", "L=100", "alpha=0.25",
                         "delta=0.1", "f0_gap=10", "R=1", "--points", "5"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("theorem GD_PL")
        assert lines[1] == "N,bound"
        first = lines[2].split(",")
        assert first[0] == "0"
        # the N = 0 bound is start + floor
        assert float(first[1]) == pytest.approx(10.0 + 0.1 ** 2 * 1.5
                                                * 1.25 / 0.75 ** 3)

    def test_domain_guard_exit_three(self, capsys):
        code = cli.main(["bounds", "REAGM", "mu=1", "L=100", "alpha=0.5",
                         "delta=0", "f0_gap=10", "R=1"])
        assert code == 3
        assert "hypothesis guard" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["REAGM", "REAGM_STOP"])
    def test_parameters_leaving_floating_range_exit_three(self, capsys, theorem):
        # L_hat = 8L overflows, so the accelerated parameters' q underflows to 0;
        # REAGM_STOP builds on REAGM at its inflated level, so REAGM's guard names it
        code = cli.main(["bounds", theorem, "mu=1", "L=1e308", "alpha=0", "delta=0",
                         "f0_gap=1", "R=1", "K=10"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "hypothesis guard: REAGM: q = mu/(2*L_hat) = 0.0 leaves floating range")
        assert captured.err.count("\n") == 1

    def test_missing_constant_exit_one(self, capsys):
        code = cli.main(["bounds", "GD_PL", "mu=1", "L=100"])
        assert code == 1
        assert "missing constant" in capsys.readouterr().err

    def test_bad_pair_exit_one(self, capsys):
        code = cli.main(["bounds", "GD_PL", "mu=1", "L=100", "alpha=0.1",
                         "delta=0", "f0_gap=10", "R=1", "bogus=3"])
        assert code == 1
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem, pair", [("GD_PL", "mu=nan"), ("ADAPT_BOTH", "L0=inf"),
                                               ("STOP_GENERIC", "K=-inf")])
    def test_non_finite_constant_exit_one(self, capsys, theorem, pair):
        constants = {"mu": "1", "L": "100", "alpha": "0.1", "delta": "0.001",
                     "f0_gap": "10", "R": "1", "L0": "50", "K": "10"}
        key, _, value = pair.partition("=")
        constants[key] = value
        code = cli.main(["bounds", theorem, *(f"{k}={v}" for k, v in constants.items())])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {key}: must be finite, got {value}\n"

    @pytest.mark.parametrize("flags", [["--points", "0"], ["--points", "-1"], ["--N", "-5"]])
    def test_bad_table_arguments_exit_one(self, capsys, flags):
        code = cli.main(["bounds", "GD_PL", "mu=1", "L=100", "alpha=0.1",
                         "delta=0", "f0_gap=10", "R=1", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--points must be >= 1 and --N >= 0\n"

    @pytest.mark.parametrize("N", [2**53 + 1, 10**19, 10**20])
    def test_huge_N_exits_one(self, capsys, N):
        # past 2**53 the grid's floats skip integers; past int64 they overflow
        code = cli.main(["bounds", "GD_PL", "mu=1", "L=100", "alpha=0.1",
                         "delta=0", "f0_gap=10", "R=1", "--N", str(N)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--N must be <= 2**53, got {N}\n"

    def test_largest_N_passes(self, capsys):
        code = cli.main(["bounds", "GD_PL", "mu=1", "L=100", "alpha=0.1",
                         "delta=0", "f0_gap=10", "R=1", "--N", str(2**53), "--points", "3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"{2**53},")

    def test_smallest_table_arguments_pass(self, capsys):
        code = cli.main(["bounds", "GD_PL", "mu=1", "L=100", "alpha=0.1",
                         "delta=0", "f0_gap=10", "R=1", "--points", "1", "--N", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # N = 0 asks for row 0 alone: no row past the largest N
        assert lines[1:] == ["N,bound", "0,10"]

    def test_stopping_multiplier_passes_through(self, capsys):
        code = cli.main(["bounds", "STOP_GENERIC", "mu=1", "L=100", "alpha=0",
                         "delta=0.001", "f0_gap=10", "R=1", "K=10",
                         "--points", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        level = ((10.0 + 1.0) ** 2 + 1.0) * 1e-6
        for line in lines[2:]:
            assert float(line.split(",")[1]) == pytest.approx(level)


@pytest.fixture(scope="module")
def serial_verify_rows():
    """Name, status and detail of each check, run one after another here."""
    import ngl.verify as verify

    return [[name, "PASS", fn().detail] for name, fn in verify.CHECKS]


def verify_rows(capsys):
    return [line.split(None, 3) for line in capsys.readouterr().out.splitlines()]


class TestVerifyCommand:
    def test_all_checks_pass(self, serial_verify_rows, capsys):
        import ngl.verify as verify

        assert cli.main(["verify"]) == 0
        rows = verify_rows(capsys)
        # one row per check, in CHECKS order, then the overall line
        assert len(verify.CHECKS) == 14
        assert [[r[0], r[1], r[3]] for r in rows[:-1]] == serial_verify_rows
        assert rows[-1] == ["overall", "PASS"]

    @pytest.mark.parametrize("lanes", [1, 2, 3, 5])
    def test_every_lane_count_prints_the_serial_table(self, lanes, serial_verify_rows,
                                                      monkeypatch, capsys):
        import ngl.verify as verify

        monkeypatch.setattr(verify, "_lane_count", lambda: lanes)
        assert cli.main(["verify"]) == 0
        rows = verify_rows(capsys)
        assert [[r[0], r[1], r[3]] for r in rows[:-1]] == serial_verify_rows
        assert rows[-1] == ["overall", "PASS"]

    @pytest.mark.parametrize("affinity, count, fork, lanes", [
        (1, 8, True, 1), (2, 8, True, 2), (3, 8, True, 3), (64, 8, True, 4),
        (None, 3, True, 3), (None, None, True, 1), (8, 8, False, 4)])
    def test_one_lane_per_usable_cpu_at_most_four(self, affinity, count, fork, lanes,
                                                  monkeypatch):
        # the CPUs this process may run on, else the machine's count, whether
        # or not the platform can fork: _fork_map alone decides to run serially
        # there.  Nothing is started here
        import ngl.lanes as lane_module

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        monkeypatch.setattr(lane_module, "_cgroup_file", lambda name: None)  # no CPU quota
        if not fork:
            monkeypatch.delattr(os, "fork", raising=False)
        assert lane_module._lane_count() == lanes

    @pytest.mark.parametrize("files, lanes", [
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "800000 100000\n"}, 3),
        ({"cpu.max": "max 100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "100000\n"}, 3),
        ({"cpu.max": "\n"}, 3),
        ({}, 3)],
        ids=["v2-1.5", "v2-0.5", "v2-8", "v2-max", "v1-2", "v1-none", "v1-no-period",
             "v2-empty", "unreadable"])
    def test_a_cpu_quota_caps_the_lanes(self, files, lanes, monkeypatch):
        # min(affinity, ceil(quota / period), 4) on three usable CPUs; v2's
        # cpu.max is read first, and a quota of max or -1 or an unreadable
        # file sets no limit.  Nothing is started here
        import ngl.lanes as lane_module

        assert lane_module._cgroup_file("no/such/file") is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(lane_module, "_cgroup_file", files.get)
        assert lane_module._lane_count() == lanes

    def test_finite_difference_runs_in_the_caller_and_the_rest_in_workers(self, monkeypatch):
        import ngl.verify as verify

        def pid():
            return verify.Outcome(True, str(os.getpid()))
        names = ["a", "b", "finite-difference-error", "c", "d"]
        monkeypatch.setattr(verify, "CHECKS", [(name, pid) for name in names])
        monkeypatch.setattr(verify, "_lane_count", lambda: 2)
        rows = verify.run_all_checks()
        assert [r.name for r in rows] == names
        assert [r.detail == str(os.getpid()) for r in rows] == [False, False, True, False, False]

    @pytest.mark.parametrize("items, workers, fork", [
        ([3, 1, 2], 1, True), ([3], 4, True), ([3, 1, 2], 4, False)],
        ids=["one_worker", "one_item", "no_fork"])
    def test_fork_map_runs_here_when_one_process_would_do(self, items, workers, fork,
                                                          monkeypatch):
        # one worker, one item or no os.fork: the results in item order and no
        # process started, which the raising os.fork would show
        import ngl.lanes as lanes

        def no_fork():
            raise AssertionError("a process was forked")
        if fork:
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.delattr(os, "fork", raising=False)
        results = lanes._fork_map(lambda x: (x * x, os.getpid()), items, workers)
        assert results == [(x * x, os.getpid()) for x in items]

    def test_traced_cli_mix_keeps_its_gradient_span_at_five_lanes(self, monkeypatch, tmp_path):
        # the benchmark's traced runs time problems.gradient by the one public
        # p.gradient call of the suite, in finite-difference-error (check 12):
        # a worker's spans die with it, so that check must stay in the caller
        # also where the lane count does not divide 12
        import ngl.verify as verify

        monkeypatch.setattr(verify, "_lane_count", lambda: 5)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import layers
        import workloads
        from tracer import Tracer

        w = workloads.WORKLOADS["cli_mix"](3, small=True, workdir=tmp_path)
        w.setup()
        tracer = Tracer()
        tracer.install()
        tracer.on = True
        monkeypatch.setattr(workloads, "SAMPLING", False)
        try:
            round_ = w.run_round()
        finally:
            tracer.on = False
            tracer.uninstall()
        assert [op.name for op in round_.ops if op.error and not op.known_fault] == []
        metrics = layers.workload_metrics(tracer.take(), 1, [round_.extra])
        assert metrics["problems.gradient.us"] is not None

    def test_corrupted_step_constant_fails_envelope_check(self, monkeypatch):
        # an understated step parks the iterate near f0 while the printed
        # curve decays, so the check must go red rather than stay vacuous
        import ngl.solvers as solvers
        import ngl.verify as verify

        check = dict(verify.CHECKS)["gd-envelope"]
        assert check().passed
        monkeypatch.setattr(solvers, "gd_step_size",
                            lambda alpha, L: 1e-6 / L)
        passed, detail, _ = check()
        assert not passed
        assert "excess" in detail

    def test_failed_check_exits_two(self, monkeypatch, capsys):
        # a failed check is a violated guarantee, not a malformed config
        import ngl.verify as verify

        name, _ = verify.CHECKS[0]
        forced = (name, lambda: verify.Outcome(False, "forced failure"))
        monkeypatch.setattr(verify, "CHECKS", [forced] + verify.CHECKS[1:])
        assert cli.main(["verify"]) == cli.EXIT_VIOLATION == 2
        out = capsys.readouterr().out
        assert f"{name}" in out and "forced failure" in out
        assert any(line.split() == ["overall", "FAIL"] for line in out.splitlines())

    def test_check_raising_in_a_worker_lane_is_a_fail_row(self, monkeypatch, capsys):
        import ngl.verify as verify

        def forced():
            raise RuntimeError("forced failure")
        checks = list(verify.CHECKS)
        name = checks[1][0]
        checks[1] = (name, forced)
        monkeypatch.setattr(verify, "CHECKS", checks)
        monkeypatch.setattr(verify, "_lane_count", lambda: 2)
        assert cli.main(["verify"]) == cli.EXIT_VIOLATION == 2
        rows = verify_rows(capsys)
        assert [rows[1][i] for i in (0, 1, 3)] == [name, "FAIL", "RuntimeError: forced failure"]
        assert rows[-1] == ["overall", "FAIL"]


def _no_child_left():
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("count", [1, 2, 5, 13])
    def test_results_come_back_in_item_order(self, workers, count):
        import ngl.lanes as lanes

        items = [(7 * i) % 13 for i in range(count)]
        # a lambda reaches the workers by the fork; the pids show who ran what
        results = lanes._fork_map(lambda x: (x * x, os.getpid()), items, workers)
        _no_child_left()
        assert [r[0] for r in results] == [x * x for x in items]
        # one item runs here; more run on at most min(workers, count) forks
        pids = {r[1] for r in results}
        assert len(pids) <= min(workers, count)
        assert (os.getpid() in pids) == (count == 1)

    def test_a_free_worker_takes_the_next_item(self):
        # one slow item holds one worker; the other takes every other item
        import time

        import ngl.lanes as lanes

        def work(x):
            if x == 0:
                time.sleep(0.5)
            return os.getpid()
        pids = lanes._fork_map(work, list(range(6)), 2)
        _no_child_left()
        assert len(set(pids[1:])) == 1 and pids[0] not in pids[1:]

    def test_a_worker_exception_reaches_the_caller(self):
        import ngl.lanes as lanes

        def work(x):
            if x in (3, 4):
                raise KeyError(f"item {x}")
            return x
        with pytest.raises(KeyError, match="item 3"):
            lanes._fork_map(work, list(range(8)), 2)
        _no_child_left()

    def test_an_unpicklable_result_is_one_error(self):
        import ngl.lanes as lanes

        with pytest.raises(RuntimeError, match="worker result: .*pickle"):
            lanes._fork_map(lambda x: (lambda: x), [1, 2], 2)
        _no_child_left()

    def test_a_killed_worker_is_a_one_line_error(self):
        import signal

        import ngl.lanes as lanes

        def work(x):
            if x == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return x
        with pytest.raises(RuntimeError) as info:
            lanes._fork_map(work, list(range(5)), 2)
        _no_child_left()
        message = str(info.value)
        assert "\n" not in message
        assert message.endswith("ended without a result (killed by signal 9)")

    def test_a_failed_fork_closes_its_pipes_and_reaps_the_started_worker(self, monkeypatch):
        import ngl.lanes as lanes

        fork, forks = os.fork, []

        def second_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()
        monkeypatch.setattr(os, "fork", second_fails)
        open_fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(BlockingIOError, match="temporarily unavailable"):
            lanes._fork_map(lambda x: x, [1, 2, 3], 2)
        _no_child_left()
        if open_fds is not None:
            assert sorted(os.listdir("/proc/self/fd")) == open_fds

    def test_every_worker_killed_is_one_error_and_no_hang(self):
        import signal

        import ngl.lanes as lanes

        # more tickets than a pipe holds, so writing them meets no reader
        with pytest.raises(RuntimeError, match="ended without a result"):
            lanes._fork_map(lambda x: os.kill(os.getpid(), signal.SIGKILL), [0] * 20_000, 2)
        _no_child_left()


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        path = write_config(tmp_path, **{"solver.N": 20})
        proc = subprocess.run(
            [sys.executable, "-m", "ngl.cli", "run", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "NGL_SEED": "3"})
        assert proc.returncode == 0
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_start_up_imports_no_scipy_and_no_process_pool(self, tmp_path):
        # numpy is the only runtime dependency, and the forked workers of
        # ngl verify and a --jobs 2 sweep load no pool module either
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        sweep = write_config(tmp_path, **{"oracle.seed": [1, 2], "solver.N": 20})
        code = ("import sys, ngl, ngl.cli\n"
                "def loaded():\n"
                "    print(sorted(m for m in sys.modules if\n"
                "                 m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))\n"
                "loaded()\n"
                "assert ngl.cli.main(['verify']) == 0\n"
                "loaded()\n"
                f"assert ngl.cli.main(['sweep', '--jobs', '2', {str(sweep)!r}]) == 0\n"
                "loaded()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line.startswith("[")] == ["[]"] * 3

    @pytest.mark.parametrize("module", ["ngl", "ngl.bounds", "ngl.drivers", "ngl.config"])
    def test_every_exported_name_resolves(self, module):
        # the benchmark tracer looks up each name in drivers.__all__
        mod = importlib.import_module(module)
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
