"""Round-based presolve driver.

The loop starts with trivial presolve and a fast round.  Whenever a round
applies enough reductions the next round is fast again; otherwise the tier
escalates fast -> medium -> exhaustive.  A round at a tier runs all
presolvers of that tier and the cheaper tiers, concurrently in principle
(each gets a private transaction list and a read-only view), then applies
the collected transactions in one deterministic batch.  When the exhaustive
tier fails to find enough reductions for the first time, delayed presolvers
(Sparsify) are enabled and the loop returns to fast; the second failure
terminates.  Trivial presolve runs again after every round.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from .model import (ColState, InfeasibleError, ModelUpdate, Problem,
                    UnboundedError)
from .options import PresolveOptions
from .presolvers import (REGISTRY, PresolveView, Tier, run_trivial, runner)
from .presolvers.trivial import NAME as TRIVIAL
from .transactions import (ApplyOutcome, PostsolveRecord, Transaction,
                           TxStatus, apply_all)


class Verdict(Enum):
    REDUCED = "reduced"
    UNCHANGED = "unchanged"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class RoundStats:
    bound_changes: int = 0
    deleted_cols: int = 0
    side_changes: int = 0
    deleted_rows: int = 0
    coeff_changes: int = 0
    tx_found: int = 0
    tx_applied: int = 0
    tx_discarded: int = 0
    tx_canceled: int = 0
    rounds_fast: int = 0
    rounds_medium: int = 0
    rounds_exhaustive: int = 0
    presolve_seconds: float = 0.0
    presolver_found: Dict[str, int] = None
    presolver_applied: Dict[str, int] = None

    def __post_init__(self):
        self.presolver_found = {}
        self.presolver_applied = {}

    def merge_changes(self, other: "RoundStats") -> None:
        self.bound_changes += other.bound_changes
        self.deleted_cols += other.deleted_cols
        self.side_changes += other.side_changes
        self.deleted_rows += other.deleted_rows
        self.coeff_changes += other.coeff_changes

    def as_dict(self) -> Dict[str, int]:
        out = {
            "rounds.fast": self.rounds_fast,
            "rounds.medium": self.rounds_medium,
            "rounds.exhaustive": self.rounds_exhaustive,
            "transactions.found": self.tx_found,
            "transactions.applied": self.tx_applied,
            "transactions.discarded": self.tx_discarded,
            "transactions.canceled": self.tx_canceled,
            "changes.bounds": self.bound_changes,
            "changes.sides": self.side_changes,
            "changes.coefficients": self.coeff_changes,
            "changes.deletedrows": self.deleted_rows,
            "changes.deletedcols": self.deleted_cols,
        }
        for name in sorted(self.presolver_found):
            out[f"presolver.{name}.found"] = self.presolver_found[name]
            out[f"presolver.{name}.applied"] = \
                self.presolver_applied.get(name, 0)
        return out


def enough_reductions(window, problem: Problem, abortfac: float) -> bool:
    """Positive sense of the abort test: did the last window of work change
    enough of the problem to justify restarting at the fast tier?"""
    ncols = problem.col_state.count(ColState.ACTIVE)
    nrows = problem.row_active.count(True)
    nnz = problem.nnz
    if 0.1 * window.bound_changes + window.deleted_cols > abortfac * ncols:
        return True
    if window.side_changes + window.deleted_rows > abortfac * nrows:
        return True
    if window.coeff_changes > abortfac * nnz:
        return True
    return False


@dataclass
class PresolveResult:
    problem: Problem
    record: PostsolveRecord
    verdict: Verdict
    stats: RoundStats


_TIER_INCLUDES = {
    Tier.FAST: (Tier.FAST,),
    Tier.MEDIUM: (Tier.FAST, Tier.MEDIUM),
    Tier.EXHAUSTIVE: (Tier.FAST, Tier.MEDIUM, Tier.EXHAUSTIVE),
}


class _Driver:
    def __init__(self, problem: Problem, options: PresolveOptions, log=None):
        options.check()
        options.check_ctx(problem.ctx)
        self.options = options
        self.log = log
        self.reduced = problem.copy()
        self.record = PostsolveRecord.for_problem(self.reduced)
        self.stats = RoundStats()
        # the change counters of the current round, merged into stats after it
        self.window = RoundStats()
        self.update = ModelUpdate(self.reduced, stats=self.window,
                                  record=self.record.entries)
        self.watermarks: Dict[str, Optional[int]] = {}
        # per presolver, the rows and columns of its transactions that were
        # not applied; the journal need not list them, so its next view adds
        # them to the changed sets
        self.carry: Dict[str, Tuple[Set[int], Set[int]]] = {}
        self.workers = options.resolved_threads()

    # -- helpers ------------------------------------------------------------

    def _line(self, level: int, text: str) -> None:
        if self.log is not None:
            self.log.line(level, text)

    def _make_view(self, name: str) -> PresolveView:
        mark = self.watermarks.get(name)
        carried = self.carry.pop(name, None)
        rows = cols = None
        if mark is not None:
            rows, cols = carried or (set(), set())
            for kind, idx in self.update.journal[mark:]:
                (rows if kind == "row" else cols).add(idx)
        self.watermarks[name] = len(self.update.journal)
        return PresolveView(self.update.problem, self.update.activities,
                            rows, cols, workers=self.workers)

    def _close_window(self) -> None:
        self.stats.merge_changes(self.window)
        self.window = self.update.stats = RoundStats()

    def _apply(self, txs: List[Transaction]) -> List[ApplyOutcome]:
        """Validate and apply txs, count the outcomes, and carry the rows
        and columns of each unapplied transaction forward to its presolver's
        next view."""
        outcomes = apply_all(self.update, txs, self.log)
        self.stats.tx_found += len(txs)
        for tx, o in zip(txs, outcomes):
            found = self.stats.presolver_found
            found[tx.presolver] = found.get(tx.presolver, 0) + 1
            if o.status is TxStatus.APPLIED:
                self.stats.tx_applied += 1
                applied = self.stats.presolver_applied
                applied[tx.presolver] = applied.get(tx.presolver, 0) + 1
                continue
            if o.status is TxStatus.DISCARDED:
                self.stats.tx_discarded += 1
            else:
                self.stats.tx_canceled += 1
            rows, cols = self.carry.setdefault(tx.presolver, (set(), set()))
            for step in tx.steps:
                if step.row is not None:
                    rows.add(step.row)
                if step.col is not None:
                    cols.add(step.col)
        return outcomes

    def _trivial_fixpoint(self) -> None:
        """Apply trivial presolve until it finds nothing more.  After the
        first full scan each call sees only what changed since its previous
        view, its own applied changes included."""
        for _ in range(100):
            self.update.flags.clear()
            txs = run_trivial(self._make_view(TRIVIAL))
            if not txs:
                return
            outcomes = self._apply(txs)
            if not any(o.status is TxStatus.APPLIED for o in outcomes):
                return

    # -- main loop -----------------------------------------------------------

    def run(self) -> PresolveResult:
        t0 = time.perf_counter()
        verdict: Optional[Verdict] = None
        try:
            self._trivial_fixpoint()
            tier = Tier.FAST
            delayed_enabled = False
            rounds = 0
            while rounds < self.options.max_rounds:
                rounds += 1
                if tier is Tier.FAST:
                    self.stats.rounds_fast += 1
                elif tier is Tier.MEDIUM:
                    self.stats.rounds_medium += 1
                else:
                    self.stats.rounds_exhaustive += 1
                self._line(2, f"round {rounds} tier {tier.value}")
                active = [d for d in REGISTRY
                          if d.tier in _TIER_INCLUDES[tier]
                          and self.options.is_enabled(d.name)
                          and (not d.delayed or delayed_enabled)]
                if self.options.apply_immediately and self.workers == 1:
                    # sequential mode: later presolvers see updated data
                    for desc in active:
                        self._round_batched([desc])
                else:
                    self._round_batched(active)
                self._trivial_fixpoint()
                enough = enough_reductions(self.window, self.update.problem,
                                           self.options.abortfac)
                self._close_window()
                if enough:
                    tier = Tier.FAST
                    continue
                if tier is Tier.FAST:
                    tier = Tier.MEDIUM
                elif tier is Tier.MEDIUM:
                    tier = Tier.EXHAUSTIVE
                else:
                    has_delayed = any(d.delayed and self.options.is_enabled(d.name)
                                      for d in REGISTRY)
                    if not delayed_enabled and has_delayed:
                        delayed_enabled = True
                        tier = Tier.FAST
                        self._line(2, "delayed presolvers enabled")
                    else:
                        break
        except InfeasibleError as exc:
            self._line(1, f"infeasible: {exc}")
            verdict = Verdict.INFEASIBLE
        except UnboundedError as exc:
            self._line(1, f"unbounded: {exc}")
            verdict = Verdict.UNBOUNDED
        if verdict is None:
            self._close_window()
            verdict = (Verdict.REDUCED if self.stats.tx_applied > 0
                       else Verdict.UNCHANGED)
        self.stats.presolve_seconds = time.perf_counter() - t0
        return PresolveResult(self.reduced, self.record, verdict, self.stats)

    def _round_batched(self, active) -> None:
        """Collect every presolver's private transaction list against the
        round-start snapshot, then validate and apply in priority order."""
        self.update.flags.clear()
        collected: List[Transaction] = []
        for desc in active:
            view = self._make_view(desc.name)
            txs = runner(desc.name)(view)
            if txs:
                self._line(3, f"presolver {desc.name} found {len(txs)}")
            collected.extend(txs)
        self._apply(collected)


def presolve(problem: Problem, options: Optional[PresolveOptions] = None,
             log=None) -> PresolveResult:
    """Run the full presolving loop on a copy of the problem, in the
    problem's numerics.  A numerics field of options that is set must
    agree with them, else ValueError; an option presolve cannot run with
    raises as `PresolveOptions.check` says."""
    options = options or PresolveOptions()
    return _Driver(problem, options, log).run()


def presolve_sequential_immediate(problem: Problem,
                                  options: Optional[PresolveOptions] = None,
                                  log=None) -> PresolveResult:
    """Single-threaded variant that applies each presolver's reductions
    immediately; may legitimately take a different sequence of rounds."""
    options = options or PresolveOptions()
    if options.resolved_threads() != 1:
        raise ValueError("apply-immediately requires exactly one thread")
    options = replace(options, apply_immediately=True)
    return _Driver(problem, options, log).run()
