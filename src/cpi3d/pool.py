"""An ordered map over forked worker processes.

`ordered_map(items, fn, workers)` yields `(item, fn(item))` for every item
of `items`, in order, as a serial loop would. Up to `workers` processes,
and no more than the usable cores, share the calls: worker k computes `fn`
on the items whose index i has i % workers == k, walking `items` itself
from where the caller had it when the workers were forked, and sends each
result down a pipe. The parent walks `items` too, computes its own share,
reads the others' results in stream order and re-raises a worker's error
at its item. So `fn(item)` must depend on `item` alone (state `fn` keeps,
such as a cache, is one copy per process), and every process's walk must
give the same items.

Fork is used, not spawn: a worker continues the parent's state, a
half-walked generator included, so nothing of the walk is pickled. The
process starts no thread of its own, and `cli.main` has set BLAS to one
thread.
"""

import contextlib
import itertools
import math
import os
import pickle
import signal
import sys
import warnings

from .errors import Cpi3dError


# `ordered_map` runs at most this many worker processes. Each `predict`
# worker builds every graph of the stream and pays its own receptor-only
# reference (0.16-0.23 s for a 300-residue receptor), so its total CPU
# grows with the count; 2 is the count measured (BENCH_predict_pool.json).
POOL_WORKERS = 2


def _quota_cpus(root: str = "/sys/fs/cgroup", table: str = "/proc/self/cgroup") -> float:
    """The CPUs a cgroup CPU quota leaves this process, `inf` without one:
    the lowest `cpu.max` (cgroup v2) or `cpu.cfs_quota_us` over
    `cpu.cfs_period_us` (v1) of its cgroups and the cgroups above them,
    which `sched_getaffinity` does not see."""
    try:
        with open(table) as f:
            lines = f.read().splitlines()
    except OSError:
        return math.inf
    limit = math.inf
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if controllers and "cpu" not in controllers.split(","):
            continue
        parts = [root] + ([controllers] if controllers else []) + [p for p in path.split("/") if p]
        for n in range(len(parts), 0, -1):
            limit = min(limit, _cgroup_cpus(os.path.join(*parts[:n])))
    return limit


def _cgroup_cpus(directory: str) -> float:
    """The CPUs one cgroup directory's quota grants, `inf` for none."""
    for names in (("cpu.max",), ("cpu.cfs_quota_us", "cpu.cfs_period_us")):
        with contextlib.suppress(OSError, ValueError, ZeroDivisionError):
            fields = []
            for name in names:
                with open(os.path.join(directory, name)) as f:
                    fields += f.read().split()
            quota, period = fields
            if quota not in ("max", "-1"):
                return int(quota) / int(period)
    return math.inf


def _usable_cores() -> int:
    """The cores this process may keep busy: those it may run on
    (`taskset` limits them), or fewer under a cgroup CPU quota; 1 where it
    cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, int(min(len(os.sched_getaffinity(0)), _quota_cpus())))


def _fork_workers(count: int, work) -> list:
    """Fork `count - 1` children; child k runs `work(k, out)`, `out` the
    write end of its pipe, and leaves through `os._exit`. Returns (pid,
    read end) per child, and none when a pipe or a fork fails (a process
    limit, say): the caller then computes alone."""
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for k in range(1, count):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                try:
                    # only the parent holds each read end, so a parent that
                    # dies unreaped breaks every child's pipe
                    os.close(r)
                    for _, sibling in children:
                        sibling.close()
                    with os.fdopen(w, "wb") as out:
                        work(k, out)
                finally:
                    os._exit(0)    # the parent reads a failure from the pipe
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
    except OSError:
        _reap(children)
        return []
    except BaseException:
        _reap(children)
        raise
    return children


def _reap(children):
    """Stop and reap every child, done or not."""
    for pid, pipe in children:
        pipe.close()
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _portable(exc: Exception) -> Exception:
    """`exc`, or where it does not come back from pickling as itself, the
    first class `cli.main` reports that it is, with its message."""
    with contextlib.suppress(Exception):
        back = pickle.loads(pickle.dumps(exc))
        if type(back) is type(exc) and str(back) == str(exc):
            return exc
    kind = next((c for c in (Cpi3dError, ValueError, MemoryError, OSError)
                 if isinstance(exc, c)), RuntimeError)
    return kind(str(exc))


def _receive(pipe, i: int):
    """A child's result for item `i`, or the error it raised there, after
    the warnings it caught there are issued here."""
    try:
        got, caught = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):    # it died before or while writing
        # `predict`'s items are packs
        raise Cpi3dError(f"the worker scoring pack {i} ended without its predictions") from None
    for text, category, filename, lineno in caught:
        # the module that warned, whose registry shows a repeat once, as
        # in the serial run
        space = next((vars(m) for m in list(sys.modules.values())
                      if getattr(m, "__file__", None) == filename), None)
        warnings.warn_explicit(
            text, category, filename, lineno,
            module=space and space.get("__name__"),
            registry=space and space.setdefault("__warningregistry__", {}),
            module_globals=space)
    if isinstance(got, BaseException):
        raise got
    return got


def ordered_map(items, fn, workers: int):
    """Yield `(item, fn(item))` for each item of `items` in order, over at
    most `workers` processes (see the module docstring). The warnings `fn`
    raises in a worker are issued here, at its item, and filtered as the
    serial run filters them. The walk of `items` writes and warns in the
    parent alone: a worker drops what its walk writes to stdout and
    stderr and the warnings it raises, and so what `fn` itself writes
    there. A worker that meets an error sends it and stops; the parent
    raises it at its item and stops every worker."""
    workers = min(workers, _usable_cores())

    def work(k, out):
        sys.stdout = sys.stderr = open(os.devnull, "w")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                # `islice` drops each skipped item as it passes
                for item in itertools.islice(items, k, None, workers):
                    caught.clear()
                    try:
                        got = fn(item)
                    except Exception as exc:    # the parent raises it at this item
                        got = _portable(exc)
                    del item
                    out.write(pickle.dumps(
                        (got, [(str(w.message), w.category, w.filename, w.lineno) for w in caught])))
                    out.flush()
                    if isinstance(got, Exception):
                        return
            except Exception as exc:    # the parent's own walk raises it first
                out.write(pickle.dumps((_portable(exc), [])))

    children = _fork_workers(workers, work)
    workers = len(children) + 1
    i = 0   # not `enumerate`, which holds its last item while it fetches the next
    try:
        for item in items:
            got = fn(item) if i % workers == 0 else _receive(children[i % workers - 1][1], i)
            yield item, got
            del item
            i += 1
    finally:
        _reap(children)
