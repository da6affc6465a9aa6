"""Spans and counters around premip's layers, recorded from outside.

`hooks(tracer)` wraps the functions that the presolve loop in
`premip.scheduler` calls into each layer (`runner`, `run_trivial`,
`apply_all`, `ModelUpdate`, `premip.presolvers.exhaustive.fork_map`,
`Problem.active_rows` and `Problem.active_cols`) and restores them on exit.  Nothing under `src/` is
changed.  The benchmark opens the mps, records, presolve and postsolve spans
itself around its calls into those layers.

Spans are kept in memory as (id, parent, request, name, start, end) and
written out once when the benchmark ends.  Counters made inside forked
workers stay there; the fork wrapper returns each task's busy time and
pickled result size with the result instead.
"""
from __future__ import annotations

import json
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import premip.model
import premip.scheduler
import premip.presolvers.exhaustive
from premip.parallel import fork_available
from premip.transactions import TxStatus


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.request = ""
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    def begin(self, request: str) -> None:
        """Start a new request; counters restart from zero."""
        self.request = request
        self.counts = defaultdict(float)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self.request, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def request_times(self, request: str) -> Dict[str, float]:
        """Total duration per span name within one request, plus
        '<name>.self': the duration not covered by direct children."""
        spans = [s for s in self.spans if s[2] == request]
        child = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child[s[1]] += s[5] - s[4]
        out: Dict[str, float] = defaultdict(float)
        for s in spans:
            out[s[3]] += s[5] - s[4]
            out[s[3] + ".self"] += s[5] - s[4] - child[s[0]]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request,
                    "name": name, "start": start - self._origin,
                    "end": end - self._origin}) + "\n")


class _Timed:
    """Task wrapper run inside a fork worker: returns the result with the
    task's busy time and pickled size."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        t0 = time.perf_counter()
        out = self.fn(item)
        busy = time.perf_counter() - t0
        return out, busy, len(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))


@contextmanager
def hooks(tracer: Optional[Tracer]) -> Iterator[None]:
    if tracer is None:
        yield
        return
    sched = premip.scheduler
    exhaustive = premip.presolvers.exhaustive
    problem_cls = premip.model.Problem
    saved = [(sched, "runner", sched.runner),
             (sched, "run_trivial", sched.run_trivial),
             (sched, "apply_all", sched.apply_all),
             (sched, "ModelUpdate", sched.ModelUpdate),
             (exhaustive, "fork_map", exhaustive.fork_map),
             (problem_cls, "active_rows", problem_cls.active_rows),
             (problem_cls, "active_cols", problem_cls.active_cols)]
    orig = {name: fn for _, name, fn in saved}

    def runner(name):
        fn = orig["runner"](name)

        def run(view):
            p = view.problem
            full = sum(p.row_active)
            scanned = full if view.is_fresh() else len(view.scan_rows())
            tracer.add(f"presolvers.{name}.calls")
            tracer.add("presolvers.rows_scanned", scanned)
            tracer.add("presolvers.rows_full", full)
            with tracer.span(f"presolvers.{name}"):
                txs = fn(view)
            tracer.add(f"presolvers.{name}.found", len(txs))
            return txs
        return run

    def run_trivial(view):
        tracer.add("trivial.calls")
        tracer.add("trivial.rows_scanned", sum(view.problem.row_active))
        with tracer.span("trivial"):
            return orig["run_trivial"](view)

    def apply_all(update, transactions, log=None):
        with tracer.span("transactions.apply"):
            outcomes = orig["apply_all"](update, transactions, log)
        for txn, outcome in zip(transactions, outcomes):
            tracer.add("transactions.found")
            status = outcome.status
            if status is TxStatus.APPLIED:
                tracer.add("transactions.applied")
                tracer.add(f"presolvers.{txn.presolver}.applied")
            elif status is TxStatus.DISCARDED:
                tracer.add("transactions.discarded")
            else:
                tracer.add("transactions.canceled")
        return outcomes

    class ModelUpdate(orig["ModelUpdate"]):
        def __init__(self, *args, **kwargs):
            with tracer.span("model.update_init"):
                super().__init__(*args, **kwargs)

    def fork_map(fn, items, workers):
        forks = workers > 1 and len(items) > 1 and fork_available()
        with tracer.span("parallel.fork" if forks else "parallel.inline"):
            timed = orig["fork_map"](_Timed(fn), items, workers)
        if forks:
            tracer.add("parallel.fork_calls")
            tracer.add("parallel.tasks", len(items))
            for _, busy, size in timed:
                tracer.add("parallel.worker_busy_s", busy)
                tracer.add("parallel.result_bytes", size)
        return [out for out, _, _ in timed]

    def counted(fn):
        def scan(self):
            tracer.add("model.active_scans")
            return fn(self)
        return scan

    sched.runner = runner
    sched.run_trivial = run_trivial
    sched.apply_all = apply_all
    sched.ModelUpdate = ModelUpdate
    exhaustive.fork_map = fork_map
    problem_cls.active_rows = counted(orig["active_rows"])
    problem_cls.active_cols = counted(orig["active_cols"])
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
