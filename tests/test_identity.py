"""The identity listing: every ``--no-cli`` case of ``tools/trace_identity.py``
keeps the digest recorded in ``tests/identity_listing.txt``.

A change that moves bits on purpose rewrites the listing with
``python tools/trace_identity.py --write``, so the moved cases show as
changed lines in its diff.  The digests depend on the Python and numpy
versions and on the CPU features numpy dispatches to; on a host whose
header differs, the test skips and names the mismatch.
"""

import importlib.util
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("trace_identity", ROOT / "tools" / "trace_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatch(header, host):
    """How the listing's header differs from this host's, or None."""
    if header == host:
        return None
    lines = [f"{want!r} here {got!r}" for want, got in zip(header, host) if want != got]
    return "; ".join(lines or [f"{header} vs {host}"])


def test_every_case_keeps_its_recorded_digest():
    tool = _tool()
    header, recorded = tool.read_listing(ROOT / tool.LISTING)
    mismatch = _mismatch(header, tool.host_header())
    if mismatch:
        pytest.skip("listing recorded on another host: " + mismatch)
    cases = tool.run_cases(ROOT, cli=False)
    got = dict(line.split(" ", 1) for line in cases.lines)
    moved = [f"{name}: recorded {recorded.get(name, '(absent)')}, now {got.get(name, '(absent)')}"
             for name in sorted(set(recorded) | set(got)) if recorded.get(name) != got.get(name)]
    assert not moved, f"{len(moved)} cases moved:\n" + "\n".join(moved)


def test_header_before_numpy_2(monkeypatch):
    # numpy 1.x keeps the ufunc module under numpy.core: the header still
    # builds there, and its numpy line is the mismatch the listing skips on
    tool = _tool()
    old = types.SimpleNamespace(__cpu_features__={"AVX2": True, "AVX512F": False},
                                __cpu_baseline__=["SSE", "SSE2"], __cpu_dispatch__=["AVX2", "AVX512F"])

    def import_module(name):
        if name == "numpy._core._multiarray_umath":
            raise ModuleNotFoundError(f"No module named {name!r}")
        assert name == "numpy.core._multiarray_umath"
        return old

    monkeypatch.setattr(tool, "importlib", types.SimpleNamespace(import_module=import_module))
    monkeypatch.setattr(tool.np, "__version__", "1.26.4")
    host = tool.host_header()
    assert host[1:] == ["# numpy 1.26.4", "# numpy cpu baseline SSE SSE2; dispatch AVX2"]
    header, _ = tool.read_listing(ROOT / tool.LISTING)
    assert "here '# numpy 1.26.4'" in _mismatch(header, host)
