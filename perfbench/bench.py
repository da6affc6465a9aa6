"""Closed-loop runner of premip's user pipeline, with checks and metrics.

One process runs the instances of a workload one after another:
read_mps -> presolve -> write_mps + write_record -> read_record ->
postsolve_primal.  The reduced problem is solved by HiGHS between
read_record and postsolve; that solve is check work and is not timed.
Every pipeline is checked by the oracle; repeated checks on identical
outputs (same reduced hash, same record bytes) reuse the earlier result.
"""
from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from premip import (PresolveOptions, postsolve_primal, presolve, read_mps,
                    read_record, replay, write_mps, write_record)
from premip.presolvers import PRESOLVER_NAMES

import oracle
import tracing
from workloads import WORKLOADS, Instance, Workload

END_TO_END = {
    "pipeline_s": "s",
    "presolve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "nnz_kept": "ratio",
    "rows_kept": "ratio",
    "cols_kept": "ratio",
    "ok_share": "ratio",
}

PER_LAYER = {
    "mps.read_s": "s", "mps.write_s": "s", "mps.bytes": "B",
    "model.update_init_s": "s", "model.active_scans": "count",
    "trivial.calls": "count", "trivial.s": "s",
    "trivial.rows_scanned": "count",
    **{f"presolvers.{name}.{key}": unit
       for name in PRESOLVER_NAMES
       for key, unit in (("s", "s"), ("calls", "count"), ("found", "count"),
                         ("applied", "count"))},
    "presolvers.rows_scanned": "count", "presolvers.rows_full": "count",
    "transactions.apply_s": "s", "transactions.found": "count",
    "transactions.applied": "count", "transactions.discarded": "count",
    "transactions.canceled": "count", "transactions.applied_share": "ratio",
    "scheduler.self_s": "s", "scheduler.rounds_fast": "count",
    "scheduler.rounds_medium": "count", "scheduler.rounds_exhaustive": "count",
    "parallel.fork_calls": "count", "parallel.tasks": "count",
    "parallel.fork_s": "s", "parallel.worker_busy_s": "s",
    "parallel.result_bytes": "B",
    "records.write_s": "s", "records.read_s": "s", "records.bytes": "B",
    "records.entries": "count",
    "postsolve.primal_s": "s",
    "trace.overhead_s": "s",
}


# per-layer metrics computed from others, not measured per pipeline
_DERIVED = ("transactions.applied_share", "trace.overhead_s")


@dataclass
class Prepared:
    inst: Instance
    mps: Path
    model: oracle.Model
    reference: object
    size: Tuple[int, int, int]          # nnz, rows, cols


@dataclass
class Sample:
    pipeline_s: float
    presolve_s: float
    reduced_hash: str
    kept: Tuple[int, int, int]
    failure: Optional[str]
    layers: Dict[str, float] = field(default_factory=dict)


class Checker:
    """Reference optima and memoised checks of one workload's outputs."""

    def __init__(self, workload: Workload, corrupt: bool = False):
        self.exact = workload.mode == "rational"
        self.corrupt = corrupt
        self._reduced: Dict[str, dict] = {}
        self._replayed: Dict[Tuple[str, str], str] = {}

    def prepare(self, inst: Instance, mps: Path) -> Prepared:
        model = oracle.Model.of(inst.problem, self.exact)
        reference = (inst.optimum if inst.optimum is not None
                     else oracle.reference_optimum(model))
        p = inst.problem
        return Prepared(inst, mps, model, reference, (p.nnz, p.nrows, p.ncols))

    def reduced_values(self, reduced) -> Tuple[str, dict]:
        key = reduced.stable_hash()
        if key not in self._reduced:
            self._reduced[key] = oracle.solve_reduced(reduced, self.exact)
        return key, self._reduced[key]

    def check(self, prep: Prepared, record, record_path: Path,
              reduced_hash: str, values: List) -> Optional[str]:
        key = (prep.inst.name,
               hashlib.sha256(record_path.read_bytes()).hexdigest())
        if key not in self._replayed:
            self._replayed[key] = replay(record, prep.inst.problem).stable_hash()
        if self._replayed[key] != reduced_hash:
            return "replaying the record does not give the reduced problem"
        if self.corrupt:
            values = [prep.model.upper[0] + 1] + list(values[1:])
        return oracle.check_point(prep.model, values, prep.reference)


def _no_span(name):
    return nullcontext()


def run_pipeline(prep: Prepared, workload: Workload, options: PresolveOptions,
                 outdir: Path, checker: Checker,
                 tracer: Optional[tracing.Tracer] = None) -> Sample:
    span = tracer.span if tracer is not None else _no_span
    out_mps = outdir / f"{prep.inst.name}.reduced.mps"
    out_rec = outdir / f"{prep.inst.name}.rec"
    with tracing.hooks(tracer):
        t0 = time.perf_counter()
        with span("mps.read"):
            problem = read_mps(str(prep.mps), workload.ctx())
        t1 = time.perf_counter()
        with span("presolve"):
            result = presolve(problem, options)
        t2 = time.perf_counter()
        with span("mps.write"):
            write_mps(result.problem, str(out_mps))
        with span("records.write"):
            write_record(result.record, str(out_rec))
        with span("records.read"):
            record = read_record(str(out_rec))
        t3 = time.perf_counter()
    reduced = result.problem
    reduced_hash, values = checker.reduced_values(reduced)
    with tracing.hooks(tracer):
        t4 = time.perf_counter()
        with span("postsolve.primal"):
            solution = postsolve_primal(record, values)
        t5 = time.perf_counter()
    failure = checker.check(prep, record, out_rec, reduced_hash,
                            solution.values)
    sample = Sample(
        pipeline_s=(t3 - t0) + (t5 - t4), presolve_s=t2 - t1,
        reduced_hash=reduced_hash,
        kept=(reduced.nnz, sum(reduced.row_active),
              len(reduced.active_cols())),
        failure=failure)
    if tracer is not None:
        sample.layers = _layer_values(tracer, result, record, prep.mps,
                                      out_mps, out_rec)
    return sample


def _layer_values(tracer, result, record, in_mps: Path, out_mps: Path,
                  out_rec: Path) -> Dict[str, float]:
    t = tracer.request_times(tracer.request)
    c = tracer.counts
    v = {
        "mps.read_s": t["mps.read"], "mps.write_s": t["mps.write"],
        "mps.bytes": in_mps.stat().st_size + out_mps.stat().st_size,
        "model.update_init_s": t["model.update_init"],
        "model.active_scans": c["model.active_scans"],
        "trivial.calls": c["trivial.calls"], "trivial.s": t["trivial"],
        "trivial.rows_scanned": c["trivial.rows_scanned"],
        "presolvers.rows_scanned": c["presolvers.rows_scanned"],
        "presolvers.rows_full": c["presolvers.rows_full"],
        "transactions.apply_s": t["transactions.apply"],
        "scheduler.self_s": t["presolve.self"],
        "scheduler.rounds_fast": result.stats.rounds_fast,
        "scheduler.rounds_medium": result.stats.rounds_medium,
        "scheduler.rounds_exhaustive": result.stats.rounds_exhaustive,
        "parallel.fork_s": t["parallel.fork"],
        "records.write_s": t["records.write"],
        "records.read_s": t["records.read"],
        "records.bytes": out_rec.stat().st_size,
        "records.entries": len(record.entries),
        "postsolve.primal_s": t["postsolve.primal"],
    }
    for key in ("found", "applied", "discarded", "canceled"):
        v[f"transactions.{key}"] = c[f"transactions.{key}"]
    for key in ("fork_calls", "tasks", "worker_busy_s", "result_bytes"):
        v[f"parallel.{key}"] = c[f"parallel.{key}"]
    for name in PRESOLVER_NAMES:
        v[f"presolvers.{name}.s"] = t[f"presolvers.{name}"]
        for key in ("calls", "found", "applied"):
            v[f"presolvers.{name}.{key}"] = c[f"presolvers.{name}.{key}"]
    return v


def set_up(workload: Workload, seed: int, tiny: bool,
           workdir: Path) -> Tuple[List[Instance], List[Path], float]:
    """Generate the workload's instances and write them as MPS files;
    returns them with the time taken."""
    t0 = time.perf_counter()
    insts = workload.build(seed, tiny)
    paths = [workdir / f"{inst.name}.mps" for inst in insts]
    for inst, path in zip(insts, paths):
        write_mps(inst.problem, str(path))
    return insts, paths, time.perf_counter() - t0


def _pass_mean(samples, value) -> Optional[float]:
    vals = [value(s) for s in samples if s is not None]
    return sum(vals) / len(vals) if vals else None


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def _slowest(values) -> float:
    """End-to-end timings report their slowest per-pass sample.  The 2-core
    x86_64 VM this was tuned on runs at a steady base speed with phases of
    5 to 40 s in which it is up to a third faster.  How much of a run falls into such
    phases moves the median from run to run (IQR/median over 10 seeds: 0.26
    on large-sparse, 0.22 on rational-corpus), while the slowest pass
    tracks the base speed (0.08 and 0.04)."""
    values = [v for v in values if v is not None]
    return max(values) if values else float("nan")


def _kept_share(samples, preps, k: int) -> Optional[float]:
    pairs = [(s.kept[k], p.size[k]) for s, p in zip(samples, preps)
             if s is not None]
    if not pairs:
        return None
    return sum(a for a, _ in pairs) / sum(b for _, b in pairs)


def _quartiles(values: List[float]) -> Dict[str, float]:
    values = sorted(values)
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "min": values[0], "q1": q1, "median": q2,
            "q3": q3, "max": values[-1]}


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            root: Path, tiny: bool = False, corrupt: bool = False) -> dict:
    """Run one workload for about `seconds` and return its result: the
    metrics, attempted and failed counts, and details for the record."""
    workload = WORKLOADS[workload_name]
    state = root / ".perfbench"
    workdir = state / "work" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        insts, paths, first_setup_s = set_up(workload, seed, tiny, workdir)
        stages = {"first_setup_s": first_setup_s}
        setup_times = []
        checker = Checker(workload, corrupt)
        t0 = time.perf_counter()
        preps = [checker.prepare(inst, path)
                 for inst, path in zip(insts, paths)]
        stages["reference_s"] = time.perf_counter() - t0
        options = PresolveOptions(threads=workload.threads,
                                  numeric_mode=workload.mode)
        counts = {"attempted": 0, "failed": 0}
        # The benchmark's own objects (generated problems, oracle models)
        # stay out of the collector's scans during premip's work.
        gc.collect()
        gc.freeze()

        def attempt(prep, tracer=None) -> Optional[Sample]:
            counts["attempted"] += 1
            gc.collect()
            try:
                sample = run_pipeline(prep, workload, options, workdir,
                                      checker, tracer)
            except Exception:  # a failed instance must not end the run
                traceback.print_exc(file=sys.stderr)
                counts["failed"] += 1
                return None
            if sample.failure is not None:
                print(f"check failed on {prep.inst.name}: {sample.failure}",
                      file=sys.stderr)
                counts["failed"] += 1
            return sample

        tracer = tracing.Tracer() if trace else None
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            # Set-up is repeated once per pass, so that its samples span the
            # run like the pipeline's; it rewrites identical MPS files.
            setup_times.append(set_up(workload, seed, tiny, workdir)[2])
            plain, traced = [], []
            for prep in preps:
                plain.append(attempt(prep))
                if tracer is None:
                    continue
                tracer.begin(f"{len(passes)}/{prep.inst.name}")
                traced.append(attempt(prep, tracer))
                if (plain[-1] is not None and traced[-1] is not None
                        and plain[-1].reduced_hash != traced[-1].reduced_hash):
                    print(f"traced run of {prep.inst.name} gave another "
                          f"reduced problem", file=sys.stderr)
                    counts["failed"] += 1
            passes.append((plain, traced))
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                break
        stages["measure_s"] = time.perf_counter() - start
        if tracer is not None:
            spans = state / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.write(spans / f"{workload_name}-seed{seed}.jsonl")
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = counts["attempted"], counts["failed"]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pipeline = [_pass_mean(p, lambda s: s.pipeline_s) for p, _ in passes]
    if trace:
        traced_pipeline = [_pass_mean(t, lambda s: s.pipeline_s)
                           for _, t in passes]
        metrics = {name: _median(_pass_mean(t, lambda s, n=name: s.layers[n])
                                 for _, t in passes)
                   for name in PER_LAYER if name not in _DERIVED}
        found = metrics["transactions.found"]
        metrics["transactions.applied_share"] = (
            metrics["transactions.applied"] / found if found else 0.0)
        metrics["trace.overhead_s"] = _median(
            a - b for a, b in zip(traced_pipeline, pipeline)
            if a is not None and b is not None)
        units = PER_LAYER
    else:
        metrics = {
            "pipeline_s": _slowest(pipeline),
            "presolve_s": _slowest(
                _pass_mean(p, lambda s: s.presolve_s) for p, _ in passes),
            "setup_s": _slowest(setup_times),
            "peak_rss_mb": (own + children) / 1024,
            "nnz_kept": _median(_kept_share(p, preps, 0) for p, _ in passes),
            "rows_kept": _median(_kept_share(p, preps, 1) for p, _ in passes),
            "cols_kept": _median(_kept_share(p, preps, 2) for p, _ in passes),
            "ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": {
            "instances": [p.inst.name for p in preps],
            "passes": len(passes),
            "pipeline_s_per_pass": _quartiles(
                [v for v in pipeline if v is not None]),
            "setup_s_per_pass": _quartiles(setup_times),
            **stages,
            "threads": workload.threads,
            "mode": workload.mode,
        },
    }
