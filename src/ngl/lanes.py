"""Forked lanes for `ngl verify` and `ngl sweep --jobs`: how many, and the map over them.

``_lane_count`` is the number of CPUs this process may use, within the
cgroup's CPU quota, and at most four.  ``_fork_map`` runs
``[fn(x) for x in items]`` on that many forked processes.  It starts
each worker with one bare ``os.fork``, so a worker begins with the
caller's imports and data, and it loads no pool module, starts no
thread and makes no queue.  The caller writes every item index to one
shared pipe, and a free worker reads the next one, so workers are
dealt items as they finish.  A worker pickles its results back over a
pipe of its own and leaves by ``os._exit``.  Only `verify` and `cli`
import this module.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from typing import Any, Callable, List, Sequence

# The longest verify check, re-agm-envelope, takes about a quarter of the
# suite's serial time: from four lanes on it sets the wall time, and a
# further lane only adds a fork.
_MAX_LANES = 4
_TICKET = 4  # bytes of one item index in the shared pipe


def _cgroup_file(name: str) -> str | None:
    """The text of the cgroup file ``name`` under /sys/fs/cgroup, None where it cannot be read."""
    try:
        with open(os.path.join("/sys/fs/cgroup", name), encoding="ascii") as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


def _quota_cpus() -> float:
    """The CPUs the cgroup's CPU quota grants, rounded up; math.inf where it sets none.

    cgroup v2 ``cpu.max`` holds "quota period", v1 ``cpu.cfs_quota_us``
    and ``cpu.cfs_period_us`` one each; a quota of max or -1, or a file
    that cannot be read, sets no limit.
    """
    v2 = _cgroup_file("cpu.max")
    fields = v2.split() if v2 is not None else [
        _cgroup_file("cpu/cpu.cfs_quota_us"), _cgroup_file("cpu/cpu.cfs_period_us")]
    try:
        quota, period = float(fields[0]), float(fields[1])
    except (TypeError, ValueError, IndexError):
        return math.inf
    if 0.0 < quota < math.inf and 0.0 < period < math.inf:
        return math.ceil(quota / period)
    return math.inf


def _lane_count() -> int:
    """The usable CPUs, at most four: the affinity mask's, within the cgroup's CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _quota_cpus(), _MAX_LANES))


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass


def _serve(fn: Callable[[Any], Any], items: Sequence[Any], tickets: int, out: int) -> None:
    """A worker's loop: ``fn`` on each item index read from ``tickets`` until it is
    empty or ``fn`` raises, then (results, failure) pickled to ``out``."""
    done, failed, i = [], None, -1
    try:
        while True:
            ticket = os.read(tickets, _TICKET)
            if not ticket:
                break
            i = int.from_bytes(ticket, "little")
            done.append((i, fn(items[i])))
    except BaseException as exc:  # the caller raises it
        failed = (i, exc)
    try:
        data = pickle.dumps((done, failed))
    except Exception as exc:  # an unpicklable result or exception
        data = pickle.dumps(([], (i, RuntimeError(f"worker result: {type(exc).__name__}: {exc}"))))
    view = memoryview(data)
    while view:
        view = view[os.write(out, view):]
    _flush_std_streams()


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _fork_map(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> List[Any]:
    """``[fn(x) for x in items]``, in item order, on up to ``workers`` forked processes.

    Runs in this process when one worker or one item would do, or where
    the platform cannot fork.  Otherwise each worker is one ``os.fork``
    that takes the next item index from a pipe shared by all workers
    when it is free, and sends its results, pickled, over a pipe of its
    own.  Every child is reaped before this returns or raises.  A
    worker's exception is raised here, the one of the earliest item
    first; a worker that ends without a result (killed by a signal, say)
    raises RuntimeError.  ``fn`` and ``items`` reach the workers by the
    fork; the results are pickled.
    """
    workers = min(workers, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    _flush_std_streams()  # a child must not write out the caller's buffered text
    tickets_r, tickets_w = os.pipe()
    pids, reads, payloads = [], [], []
    try:
        for _ in range(workers):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:  # the worker; it never returns from here
                    code = 1
                    try:
                        os.close(tickets_w)
                        _serve(fn, items, tickets_r, w)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(w)  # so that later workers do not hold it open
            pids.append(pid)
        os.close(tickets_r)
        tickets_r = -1
        try:
            view = memoryview(b"".join(i.to_bytes(_TICKET, "little") for i in range(len(items))))
            while view:
                view = view[os.write(tickets_w, view):]
        except BrokenPipeError:  # every worker is gone: their results tell why
            pass
        os.close(tickets_w)
        tickets_w = -1
        payloads = [_read_all(r) for r in reads]
    finally:
        # closing the pipes first ends a worker still waiting on them
        for fd in (tickets_r, tickets_w, *reads):
            if fd >= 0:
                os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    results, failures = {}, []
    for pid, status, data in zip(pids, statuses, payloads):
        try:
            done, failed = pickle.loads(data)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(f"fork_map worker {pid} ended without a result ({how})") from None
        results.update(done)
        if failed is not None:
            failures.append(failed)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[i] for i in range(len(items))]
