"""Transaction protocol: validate-then-apply with conflict classification.

Presolvers emit transactions (assertions followed by change steps) against a
read-only snapshot.  The core applies them one by one in a deterministic
order: if every assertion still holds against the modification flags the
changes are applied and recorded, otherwise the whole transaction is
discarded and the first writer of the conflicting flag is reported.  A
substitution whose application would increase the number of nonzeros is
canceled instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from .model import (ColState, ModelUpdate, Problem, RecordEntry, Setter)
from .numerics import Number


class StepKind(Enum):
    ASSERT_ROW_UNMODIFIED = "assert_row_unmodified"
    ASSERT_COL_BOUNDS_UNMODIFIED = "assert_col_bounds_unmodified"
    ASSERT_ROW_BOUNDS_UNMODIFIED = "assert_row_bounds_unmodified"
    FIX_COLUMN = "fix_column"
    CHANGE_LOWER = "change_lower"
    CHANGE_UPPER = "change_upper"
    CHANGE_LHS = "change_lhs"
    CHANGE_RHS = "change_rhs"
    CHANGE_COEFF = "change_coeff"
    SUBSTITUTE_IN_OBJECTIVE = "substitute_in_objective"
    SUBSTITUTE_COLUMN = "substitute_column"
    MARK_ROW_REDUNDANT = "mark_row_redundant"
    DELETE_COLUMN = "delete_column"
    AGGREGATE_PARALLEL_COLS = "aggregate_parallel_cols"
    IMPLY_INTEGRAL = "imply_integral"


_ASSERTS = {StepKind.ASSERT_ROW_UNMODIFIED,
            StepKind.ASSERT_COL_BOUNDS_UNMODIFIED,
            StepKind.ASSERT_ROW_BOUNDS_UNMODIFIED}

_SUBSTITUTES = {StepKind.SUBSTITUTE_IN_OBJECTIVE, StepKind.SUBSTITUTE_COLUMN}


@dataclass
class ReductionStep:
    """One reduction or assertion.

    row/col/value cover the common cases; col2 and scale carry the second
    column and scale factor of aggregations and implied substitutions
    (x_col := value + scale * x_col2).
    """
    kind: StepKind
    row: Optional[int] = None
    col: Optional[int] = None
    value: Optional[Number] = None
    col2: Optional[int] = None
    scale: Optional[Number] = None

    def is_assertion(self) -> bool:
        return self.kind in _ASSERTS


def assert_row(i: int) -> ReductionStep:
    return ReductionStep(StepKind.ASSERT_ROW_UNMODIFIED, row=i)


def assert_row_bounds(i: int) -> ReductionStep:
    return ReductionStep(StepKind.ASSERT_ROW_BOUNDS_UNMODIFIED, row=i)


def assert_col_bounds(j: int) -> ReductionStep:
    return ReductionStep(StepKind.ASSERT_COL_BOUNDS_UNMODIFIED, col=j)


@dataclass
class Transaction:
    presolver: str
    steps: List[ReductionStep]

    def change_steps(self) -> List[ReductionStep]:
        return [s for s in self.steps if not s.is_assertion()]

    def well_formed(self) -> bool:
        seen_change = False
        has_change = False
        for s in self.steps:
            if s.is_assertion():
                if seen_change:
                    return False
            else:
                seen_change = True
                has_change = True
        return has_change


class TxStatus(Enum):
    APPLIED = "APPLIED"
    DISCARDED = "DISCARDED"
    CANCELED = "CANCELED"


@dataclass
class ApplyOutcome:
    status: TxStatus
    conflicting_presolver: Optional[str] = None
    redundant: bool = False


@dataclass
class PostsolveRecord:
    """Append-only log of applied reductions, enough to recover a primal
    solution for the original problem and to replay the reduction forward."""
    original_nrows: int
    original_ncols: int
    objective: List[Number]
    objective_offset: Number
    col_names: List[str]
    row_names: List[str]
    mode: str
    entries: List[RecordEntry] = field(default_factory=list)
    # the tolerances of the run; None (a version-1 file) means the mode's
    # defaults
    epsilon: Optional[float] = None
    feastol: Optional[float] = None
    hugeval: Optional[float] = None

    @staticmethod
    def for_problem(problem: Problem) -> "PostsolveRecord":
        ctx = problem.ctx
        return PostsolveRecord(
            original_nrows=problem.nrows,
            original_ncols=problem.ncols,
            objective=list(problem.obj),
            objective_offset=problem.obj_offset,
            col_names=list(problem.col_names),
            row_names=list(problem.row_names),
            mode=ctx.mode.value,
            epsilon=ctx.epsilon, feastol=ctx.feastol, hugeval=ctx.hugeval,
        )


# ---------------------------------------------------------------------------
# validation


def _validate(update: ModelUpdate, txn: Transaction) -> Optional[Setter]:
    """None if the transaction is still applicable, else the first writer
    whose change invalidated it."""
    p = update.problem
    flags = update.flags
    unknown: Setter = (-1, "input")
    for step in txn.steps:
        k = step.kind
        if k is StepKind.ASSERT_ROW_UNMODIFIED:
            if not p.row_is_active(step.row):
                return flags.row_gone.get(step.row, unknown)
            if step.row in flags.row_coeffs:
                return flags.row_coeffs[step.row]
        elif k is StepKind.ASSERT_ROW_BOUNDS_UNMODIFIED:
            if not p.row_is_active(step.row):
                return flags.row_gone.get(step.row, unknown)
            if step.row in flags.row_bounds:
                return flags.row_bounds[step.row]
        elif k is StepKind.ASSERT_COL_BOUNDS_UNMODIFIED:
            if not p.col_is_active(step.col):
                return flags.col_gone.get(step.col, unknown)
            if step.col in flags.col_bounds:
                return flags.col_bounds[step.col]
        else:
            if step.row is not None and not p.row_is_active(step.row):
                return flags.row_gone.get(step.row, unknown)
            if step.col is not None and not p.col_is_active(step.col):
                return flags.col_gone.get(step.col, unknown)
            if step.col2 is not None and not p.col_is_active(step.col2):
                return flags.col_gone.get(step.col2, unknown)
    return None


def classify_redundant(update_or_problem, txn: Transaction) -> bool:
    """Heuristic: a discarded transaction is redundant when each of its
    change steps is already satisfied by the current problem.  This is a
    lower bound on true redundancy."""
    p = update_or_problem.problem if isinstance(update_or_problem, ModelUpdate) \
        else update_or_problem
    ctx = p.ctx
    for step in txn.change_steps():
        k = step.kind
        if k is StepKind.FIX_COLUMN:
            if p.col_is_active(step.col):
                if not (ctx.approx_eq(p.col_lower[step.col], step.value)
                        and ctx.approx_eq(p.col_upper[step.col], step.value)):
                    return False
            else:
                if p.col_state[step.col] is ColState.FIXED and not (
                        ctx.approx_eq(p.col_lower[step.col], step.value)):
                    return False
        elif k is StepKind.CHANGE_LOWER:
            if p.col_is_active(step.col):
                cur = p.col_lower[step.col]
                if not (cur >= step.value or ctx.approx_eq(cur, step.value)):
                    return False
        elif k is StepKind.CHANGE_UPPER:
            if p.col_is_active(step.col):
                cur = p.col_upper[step.col]
                if not (cur <= step.value or ctx.approx_eq(cur, step.value)):
                    return False
        elif k is StepKind.CHANGE_LHS:
            if p.row_is_active(step.row):
                cur = p.row_lhs[step.row]
                if not (cur >= step.value or ctx.approx_eq(cur, step.value)):
                    return False
        elif k is StepKind.CHANGE_RHS:
            if p.row_is_active(step.row):
                cur = p.row_rhs[step.row]
                if not (cur <= step.value or ctx.approx_eq(cur, step.value)):
                    return False
        elif k is StepKind.CHANGE_COEFF:
            if p.row_is_active(step.row):
                if not ctx.approx_eq(p.entry(step.row, step.col), step.value):
                    return False
        elif k is StepKind.MARK_ROW_REDUNDANT:
            if p.row_is_active(step.row):
                return False
        elif k is StepKind.IMPLY_INTEGRAL:
            if p.col_is_active(step.col) and not p.col_integral[step.col]:
                return False
        else:  # substitutions, deletions, aggregations
            if p.col_is_active(step.col):
                return False
    return True


# ---------------------------------------------------------------------------
# apply


def _apply_step(update: ModelUpdate, step: ReductionStep,
                setter: Setter) -> None:
    k = step.kind
    if k is StepKind.FIX_COLUMN:
        update.fix_column(step.col, step.value, setter)
    elif k is StepKind.CHANGE_LOWER:
        update.change_lower(step.col, step.value, setter)
    elif k is StepKind.CHANGE_UPPER:
        update.change_upper(step.col, step.value, setter)
    elif k is StepKind.CHANGE_LHS:
        update.change_lhs(step.row, step.value, setter)
    elif k is StepKind.CHANGE_RHS:
        update.change_rhs(step.row, step.value, setter)
    elif k is StepKind.CHANGE_COEFF:
        update.change_coeff(step.row, step.col, step.value, setter)
    elif k in _SUBSTITUTES:
        if step.row is not None:
            update.substitute_column(step.col, step.row, setter)
        else:
            update.substitute_pair(step.col, step.col2, step.value,
                                   step.scale, setter)
    elif k is StepKind.MARK_ROW_REDUNDANT:
        update.mark_row_redundant(step.row, setter)
    elif k is StepKind.DELETE_COLUMN:
        update.delete_free_singleton(step.col, step.row, setter)
    elif k is StepKind.AGGREGATE_PARALLEL_COLS:
        update.aggregate_parallel_cols(step.col, step.col2, step.scale, setter)
    elif k is StepKind.IMPLY_INTEGRAL:
        update.imply_integral(step.col, setter)
    else:  # pragma: no cover
        raise ValueError(f"unknown step kind {k}")


def _fill_in_rejected(update: ModelUpdate, txn: Transaction) -> bool:
    for step in txn.change_steps():
        if step.kind in _SUBSTITUTES:
            if step.row is not None:
                if update.predict_substitution_fill(step.col, step.row) > 0:
                    return True
            else:
                if update.predict_pair_fill(step.col, step.col2,
                                            step.scale) > 0:
                    return True
    return False


def apply_all(update: ModelUpdate, transactions: List[Transaction],
              log=None) -> List[ApplyOutcome]:
    """Validate and conditionally apply transactions in list order.

    The list must already be ordered by (presolver apply priority, emission
    index); the output is then a pure function of the problem state and the
    list.  Infeasible/unbounded signals propagate as exceptions.
    """
    outcomes: List[ApplyOutcome] = []
    counter = update.txn_counter
    for txn in transactions:
        conflict = _validate(update, txn)
        if conflict is not None:
            redundant = classify_redundant(update, txn)
            outcome = ApplyOutcome(TxStatus.DISCARDED,
                                   conflicting_presolver=conflict[1],
                                   redundant=redundant)
        elif _fill_in_rejected(update, txn):
            outcome = ApplyOutcome(TxStatus.CANCELED)
        else:
            setter = (counter, txn.presolver)
            for step in txn.change_steps():
                _apply_step(update, step, setter)
            update.flush_side_checks()
            outcome = ApplyOutcome(TxStatus.APPLIED)
        counter += 1
        outcomes.append(outcome)
        if log is not None:
            log.transaction(txn, outcome, update.ctx)
    update.txn_counter = counter
    return outcomes
