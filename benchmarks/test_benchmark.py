"""Self-test of the benchmark: every workload passes at reduced size, and
every check rejects a corrupted result.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import closed_forms as cf  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _passes(round_):
    return [op.error for op in round_.ops if op.error and not op.known_fault]


@pytest.fixture(scope="module")
def descent():
    w = workloads.DescentGrid(3, small=True)
    w.setup()
    return w


@pytest.fixture(scope="module")
def accel():
    w = workloads.AccelRoutes(3, small=True)
    w.setup()
    return w


@pytest.fixture(scope="module")
def cli_round(tmp_path_factory):
    w = workloads.CliMix(3, small=True, workdir=tmp_path_factory.mktemp("cli_mix"))
    w.setup()
    return w, w.run_round()


def test_descent_round_passes_and_a_gap_above_its_envelope_is_rejected(descent):
    assert _passes(descent.run_round()) == []
    spec = descent.specs[-1]
    trace, printed = descent._descend(spec)
    assert descent.check(spec, (trace, printed))[1] is None
    env = cf.gd_pl(descent.MU, descent.L, spec.alpha, spec.delta, descent.f0)
    raised = trace.f_gap.copy()
    raised[50] = cf.curve(env, [50])[0] * (1.0 + 1e-6)
    err = descent.check(spec, (dataclasses.replace(trace, f_gap=raised), printed))[1]
    assert "above envelope" in err


def test_descent_rejects_a_final_gap_that_disagrees_with_the_quadratic_form(descent):
    spec = descent.specs[0]
    trace, printed = descent._descend(spec)
    wrong = dataclasses.replace(trace, final_f_gap=trace.final_f_gap * (1.0 + 1e-6) + 1e-9)
    assert "1/2 (x-x*)'H(x-x*)" in descent.check(spec, (wrong, printed))[1]


def test_accel_round_passes(accel):
    assert _passes(accel.run_round()) == []


def test_a_ridge_route_whose_final_gap_misses_epsilon_is_rejected(accel):
    ngl, p = accel.ngl, accel.p_ridge
    trace = ngl.solve_convex_gd(p, accel._oracle(p, 0.25, 0.0, 1), accel.epsilon, accel.ridge["R"])
    budget = cf.gd_reg_budget(100.0, accel.ridge["R"], 0.25, accel.epsilon)
    assert accel._check_ridge("ridge", budget, trace)[1] is None
    # move x_final along x - x* until the exact base gap is 1% above epsilon
    x_star, d = accel.ridge["x_star"], trace.x_final - accel.ridge["x_star"]
    scale = np.sqrt(1.01 * accel.epsilon / cf.gap(accel.ridge["H"], x_star, trace.x_final))
    missed = dataclasses.replace(trace, x_final=x_star + scale * d)
    assert "misses epsilon" in accel._check_ridge("ridge", budget, missed)[1]


def test_a_stopping_exit_above_its_level_or_budget_is_rejected(accel):
    budget, trace = accel._stopping()
    assert accel._check_stopping((budget, trace))[1] is None
    late = dataclasses.replace(trace, k=np.arange(budget + 2))
    assert "> budget" in accel._check_stopping((budget, late))[1]
    far = dataclasses.replace(trace, x_final=np.zeros_like(trace.x_final))
    assert "above 122 delta^2" in accel._check_stopping((budget, far))[1]


def test_a_floor_run_row_above_the_reagm_envelope_is_rejected(accel):
    alpha = accel.floor_alphas[1]
    trace, printed = accel._floor_run(alpha, 5)
    assert accel._check_floor(alpha, (trace, printed))[1] is None
    raised = trace.f_gap.copy()
    raised[-1] = 1e12
    err = accel._check_floor(alpha, (dataclasses.replace(trace, f_gap=raised), printed))[1]
    assert "above envelope" in err


def test_cli_round_passes_with_only_the_known_fault(cli_round):
    _, round_ = cli_round
    assert _passes(round_) == []
    faults = [op.name for op in round_.ops if op.known_fault]
    assert faults == ["fault_large_scale"]


def test_a_sweep_trace_differing_by_one_byte_across_jobs_is_rejected(cli_round):
    w, _ = cli_round
    assert w._check_sweep(2, (0, "", ""))[1] is None
    path = w.out / "sweep_jobs2" / "run_001" / "trace.csv"
    data = bytearray(path.read_bytes())
    try:
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")  # last digit of inner_loops
        path.write_bytes(bytes(data))
        assert "differs between --jobs 1 and --jobs 2" in w._check_sweep(2, (0, "", ""))[1]
    finally:
        shutil.copy(w.out / "sweep_jobs1" / "run_001" / "trace.csv", path)


def test_trace_csv_and_verify_checks_reject_bad_output(cli_round, tmp_path):
    w, _ = cli_round
    lines = (w.out / "top_k" / "trace.csv").read_text().splitlines()
    skipped = tmp_path / "trace.csv"
    skipped.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    assert "not consecutive" in cf.check_trace_csv(skipped)[1]
    cols = lines[5].split(",")
    cols[1] = repr(float(cols[4]) * 2.0 + 1.0)
    skipped.write_text("\n".join(lines[:5] + [",".join(cols)] + lines[6:]) + "\n")
    assert "above its bound column" in cf.check_trace_csv(skipped)[1]
    table = "\n".join([f"check-{i}  PASS  0.01s  ok" for i in range(13)]
                      + ["check-13  FAIL  0.01s  broken", "overall  FAIL"])
    assert cf.check_verify_output(table) is not None
    assert cf.check_verify_output(table.replace("FAIL", "PASS")) is None


def test_clocked_takes_the_kernel_samples_out_and_leaves_sigalrm_as_it_found_it():
    op = workloads.Op("sleep")
    # sleep keeps its deadline across the SIGALRM handler, so the op's own
    # time reads short of 0.3 s by exactly the samples taken during it
    workloads.clocked(op, lambda: time.sleep(0.3))
    assert 0.2 < op.seconds < 0.3 and op.kernel_s > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert op.ref_seconds == op.seconds * workloads.KERNEL_REF_S / op.kernel_s


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_prints_one_result_line():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "accel_routes",
                          "--seed", "3", "--seconds", "1", "--repeats", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 12 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
                          "descent_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
