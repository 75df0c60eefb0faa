"""``tools/row_memory.py``: the checkouts alternate within each case, and a
run in a fresh interpreter reports the peak RSS its trace adds per row and
its ``tracemalloc`` peak per row."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("row_memory", ROOT / "tools" / "row_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkouts_alternate(tmp_path, monkeypatch, capsys):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def run_once(root, case):
        calls.append((case["steps"], root.name))
        rss = {"parent": 72.0, "change": 60.0}[root.name] + len(calls)
        return rss, rss / 2

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "CASES", {"a": {"steps": 1}, "b": {"steps": 2}})
    monkeypatch.setattr(tool, "ROUNDS", 3)
    assert tool.main([str(parent), str(change)]) == 0
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(1, side) for side in order] + [(2, side) for side in order]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"a {parent}: peak RSS median 76.0 B/row (73.0 76.0 77.0), "
                        "tracemalloc peak median 38.0 B/row (36.5 38.0 38.5)")
    assert lines[3] == (f"b {change}: peak RSS median 69.0 B/row (68.0 69.0 72.0), "
                        "tracemalloc peak median 34.5 B/row (34.0 34.5 36.0)")


def test_a_fresh_interpreter_measures_a_run():
    # a 2,000-step gd run at n = 2: its three float64 columns alone are
    # 24 B per row, which the tracemalloc peak counts, but a run this
    # short may fit in memory already mapped and add no RSS
    tool = _tool()
    case = dict(tool.CASES["gd_n2"], steps=2_000)
    rss, traced = tool.run_once(ROOT, case)
    assert math.isfinite(rss) and rss >= 0.0
    assert 24.0 <= traced < 1024.0
