"""Command-line harness: configs, artifacts, exit codes, sweeps."""

import csv
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ngl.cli as cli
import ngl.config as config
from config_faults import FAULTS, fault_config
from ngl.config import ConfigError, expand_sweep, parse_config
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
                                "terminal", "wall_time_s"}
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
    def test_trace_csv_matches_per_cell_format(self, tmp_path, with_bound, with_inner):
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

    def test_huge_int_for_a_float_key_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"problem.L": 10**400})
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "problem.L: must be finite, got 1000" in err
        assert "Traceback" not in err

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
         "driver.name": "combined", "driver.epsilon": 1.0, "solver.N": None},
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
        real = cli._trace_envelope

        def zero_bound(*args):
            return dataclasses.replace(real(*args), floor=0.0, _eval=np.zeros_like)

        path = write_config(tmp_path)
        monkeypatch.setattr(cli, "_trace_envelope", zero_bound)
        assert cli.main(["run", str(path)]) == 2
        assert "exceed the printed bound" in capsys.readouterr().err
        # artifacts are still written for post-mortem
        summary = read_summary(tmp_path / "out")
        assert summary["envelope_violations"] == 401

    def test_no_bound_on_convex_gd(self, tmp_path):
        path = write_config(tmp_path, **{
            "problem.family": "nesterov_convex", "problem.k": 10,
            "problem.mu": None, "solver.N": 100})
        assert cli.main(["run", str(path)]) == 0
        cols = read_trace(tmp_path / "out")
        assert np.all(np.isnan(cols["bound"]))

    def test_understated_level_prints_no_bound(self, tmp_path):
        with pytest.warns(UserWarning, match="declared relative level"):
            path = write_config(tmp_path, **{"solver.alpha_param": 0.1,
                                             "solver.N": 100})
            assert cli.main(["run", str(path)]) == 0
        cols = read_trace(tmp_path / "out")
        assert np.all(np.isnan(cols["bound"]))

    def test_overstated_level_keeps_bound(self, tmp_path):
        path = write_config(tmp_path, **{"solver.alpha_param": 0.4,
                                         "solver.N": 100})
        assert cli.main(["run", str(path)]) == 0
        cols = read_trace(tmp_path / "out")
        assert np.all(np.isfinite(cols["bound"]))
        tol = 1e-9 * max(1.0, cols["bound"][0])
        assert np.all(cols["f_gap"] <= cols["bound"] + tol)

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


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        import ngl.verify as verify

        assert cli.main(["verify"]) == 0
        rows = [line.split(None, 3) for line in capsys.readouterr().out.splitlines()]
        # one row per check, in CHECKS order, then the overall line
        assert len(verify.CHECKS) == 14
        assert [r[0] for r in rows] == [name for name, _ in verify.CHECKS] + ["overall"]
        assert all(r[1] == "PASS" and len(r) == 4 for r in rows[:-1])
        assert rows[-1] == ["overall", "PASS"]

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


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        path = write_config(tmp_path, **{"solver.N": 20})
        proc = subprocess.run(
            [sys.executable, "-m", "ngl.cli", "run", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "NGL_SEED": "3"})
        assert proc.returncode == 0
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_start_up_imports_no_scipy_and_no_process_pool(self):
        # numpy is the only runtime dependency, and the sweep pool's modules
        # load only when a sweep runs in parallel
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, ngl, ngl.cli; print(*sorted(m for m in sys.modules if "
                "m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("module", ["ngl", "ngl.bounds", "ngl.drivers", "ngl.config"])
    def test_every_exported_name_resolves(self, module):
        # the benchmark tracer looks up each name in drivers.__all__
        mod = importlib.import_module(module)
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
