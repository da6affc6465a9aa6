"""Deterministic process-based fan-out for internally parallel presolvers.

Workers are forked so they inherit the current problem snapshot without
serialization; each task returns a picklable result and results are always
gathered in task order, so the output is identical to a sequential run.
Small work loads fall back to in-process execution because fork/IPC
overhead would dominate.  A pool never has more processes than the CPUs
this process may run on: more would only take turns on them.  The callers
chunk by the worker count they were asked for, not by the pool size, so
the cap changes no output.
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

    Runs sequentially unless more than one worker is requested, more than
    one item exists, and fork is available.  Otherwise a pool of
    min(workers, len(items), usable_cpus()) processes runs the items.
    fn may be any callable, a closure included: it is stored before the
    pool forks, so the workers inherit it and only the items and the
    results are pickled.
    """
    global _FN
    if workers <= 1 or len(items) <= 1 or not fork_available():
        return [fn(it) for it in items]
    ctx = multiprocessing.get_context("fork")
    _FN = fn
    # a full collection in a child would write to the header of every
    # inherited object and so copy the parent's heap page by page; frozen
    # objects are never collected
    gc.freeze()
    try:
        with ctx.Pool(min(workers, len(items), usable_cpus())) as pool:
            return pool.map(_call, items, chunksize=1)
    finally:
        gc.unfreeze()
        _FN = None


def chunk_evenly(items: Sequence[T], parts: int) -> List[List[T]]:
    """Split into at most `parts` contiguous chunks of near-equal size."""
    n = len(items)
    parts = max(1, min(parts, n))
    out = []
    base, extra = divmod(n, parts)
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append(list(items[start:start + size]))
        start += size
    return out
