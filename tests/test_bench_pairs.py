"""``tools/bench_pairs.py``: the run order alternates, and pairs are won by
each metric's direction in BENCHMARK.json, over every workload it lists,
each run's median raw round wall and its setup samples are read from its
results file, its operation times from its rounds, and an edited
checkout names no commit."""

import importlib.util
import json
import subprocess
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alternating_pairs_are_summarised(tmp_path, monkeypatch):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "w"}, {"name": "v"}],
        "end_to_end": [{"name": "ref_wall_s", "better": "lower"},
                       {"name": "ref_steps_per_s", "better": "higher"}]}))
    calls = []
    # in each workload the change is faster in pairs 0-2 and slower in pair 3
    walls = {"parent": [1.0, 1.0, 1.0, 1.0], "change": [0.75, 0.875, 0.5, 1.25]}

    def run_once(root, workload, seed, seconds):
        assert (seed, seconds) == (3, 7.0)
        side = root.name
        wall = walls[side][sum(1 for w, s in calls if (w, s) == (workload, side))]
        calls.append((workload, side))
        # only workload w reports an operation time
        return {"correct": True, "attempted": 12, "failed": 0, "raw_wall_s": 2.0 * wall,
                "setup_runs_s": [wall / 8.0] * 5,
                "op_s": {"verify_s": wall / 4.0} if workload == "w" else {},
                "metrics": {"ref_wall_s": {"value": wall}, "ref_steps_per_s": {"value": 1.0 / wall}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "commit", lambda root: root.name[0])
    out = tmp_path / "BENCH.json"
    assert tool.main([str(parent), str(change), str(out), "--pairs", "4", "--seed", "3"]) == 0
    order = ["parent", "change", "change", "parent"] * 2
    assert calls == [("w", s) for s in order] + [("v", s) for s in order]
    record = json.loads(out.read_text())
    assert record["commits"] == {"parent": "p", "change": "c"}
    assert list(record["workloads"]) == ["w", "v"]
    for entry in record["workloads"].values():
        assert entry["seed"] == 3 and len(entry["runs"]["change"]) == 4
        for name in ("ref_wall_s", "ref_steps_per_s", "raw_wall_s"):
            assert (entry["metrics"][name]["pairs_won"], entry["metrics"][name]["pairs_lost"]) == (3, 1)
        assert entry["metrics"]["ref_wall_s"]["change"]["median"] == 0.8125
        assert entry["metrics"]["raw_wall_s"]["change"]["median"] == 1.625
        assert entry["metrics"]["raw_wall_s"]["better"] == "lower"
        assert [r["raw_wall_s"] for r in entry["runs"]["parent"]] == [2.0] * 4
        # each run keeps the samples whose median is its setup_s, beside the medians
        assert [r["setup_runs_s"] for r in entry["runs"]["change"]] == [
            [w / 8.0] * 5 for w in walls["change"]]
    verify_s = record["workloads"]["w"]["metrics"]["verify_s"]
    assert (verify_s["better"], verify_s["pairs_won"], verify_s["pairs_lost"]) == ("lower", 3, 1)
    assert verify_s["change"]["median"] == 0.8125 / 4.0
    assert "verify_s" not in record["workloads"]["v"]["metrics"]


def test_a_run_reads_its_raw_round_wall(tmp_path):
    # stand-ins for benchmarks/run.py and its workloads: the results file
    # run.py writes holds the rounds, the last line it prints is the result,
    # and each round reports its operation times beside its ops
    tool = _tool()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "workloads.py").write_text(textwrap.dedent("""\
        class Round:
            def __init__(self, extra):
                self.extra = extra

        class W:
            times = iter([0.5, 0.25, 0.75])

            def run_round(self):
                return Round({"verify_s": next(self.times), "artifact_s": [1.0, 2.0]})

        WORKLOADS = {"w": W}
    """))
    (tmp_path / "benchmarks" / "run.py").write_text(textwrap.dedent("""\
        import json, os, pathlib, sys
        import workloads
        args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
        assert args["--trace"] == "0" and args["--seconds"] == "2.5"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        for _ in range(3):
            workloads.WORKLOADS[args["--workload"]]().run_round()
        results = pathlib.Path("benchmarks/results")
        results.mkdir()
        rounds = [{"wall_s": w, "ref_wall_s": 1.0} for w in (0.5, 0.25, 0.75, 2.0)]
        setup = [0.25, 0.5, 0.125, 0.375, 0.25]
        name = f"{args['--workload']}-seed{args['--seed']}-trace0.json"
        (results / name).write_text(json.dumps({"rounds": rounds, "setup_runs_s": setup}))
        print("a progress line")
        print(json.dumps({"correct": True, "metrics": {}}))
        sys.exit(0)
    """))
    result = tool.run_once(tmp_path, "w", 4, 2.5)
    assert result == {"correct": True, "metrics": {}, "raw_wall_s": 0.625,
                      "setup_runs_s": [0.25, 0.5, 0.125, 0.375, 0.25],
                      "op_s": {"verify_s": 0.5}}


def test_a_checkout_with_edits_is_refused(tmp_path):
    tool = _tool()
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    (tmp_path / "f").write_text("a")
    subprocess.run([*git, "add", "f"], check=True)
    subprocess.run([*git, "commit", "-qm", "f"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    assert tool.commit(tmp_path) == head
    (tmp_path / "f").write_text("b")
    with pytest.raises(SystemExit):
        tool.commit(tmp_path)
