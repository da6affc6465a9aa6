"""Deterministic process-based fan-out for internally parallel presolvers.

Workers are forked so they inherit the current problem snapshot without
serialization; each item's result is picklable, and the results are
always gathered in item order, so the output is identical to a
sequential run whatever the pool size or its chunking.  The callers keep
small work loads in-process, where fork/IPC overhead would dominate.  A
pool never has more processes than the CPUs this process may run on:
more would only take turns on them.
"""
from __future__ import annotations

import gc
import multiprocessing
import os
import sys
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fork_available() -> bool:
    return (sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods())


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the function of the running fork_map; its forked workers inherit it
_FN: Optional[Callable] = None


def _call(item):
    return _FN(item)


def fork_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> List[R]:
    """Apply fn to every item, preserving order.

    Runs in-process unless fork is available and a pool of min(workers,
    len(items), usable_cpus()) processes would hold more than one.  The
    pool hands the items out with `Pool.map`'s default chunking, about
    four chunks per process.  fn may be any callable, a closure included:
    it is stored before the pool forks, so the workers inherit it and only
    the items and the results are pickled.

    The collector is off while the pool exists, and the workers inherit it
    off: a collection in a worker would write to the header of every
    inherited object and so copy the parent's heap page by page.  The
    caller's collector state and frozen objects are left as they were.
    """
    global _FN
    processes = min(workers, len(items), usable_cpus())
    if processes <= 1 or not fork_available():
        return [fn(it) for it in items]
    ctx = multiprocessing.get_context("fork")
    _FN = fn
    enabled = gc.isenabled()
    gc.disable()
    try:
        with ctx.Pool(processes) as pool:
            return pool.map(_call, items)
    finally:
        if enabled:
            gc.enable()
        _FN = None

