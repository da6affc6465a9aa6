"""Trivial presolve: empty columns, singleton rows, small redundancies.

Runs at the start of presolving and after every round.  Unlike the regular
presolvers its transactions are applied immediately by the driver, so it can
iterate to a fixpoint without conflicts.  The fixpoint is journal-driven:
the first call scans every active row and column, and each later call scans
only those changed since the previous call, plus the rows and columns of
its transactions that were not applied.
"""
from __future__ import annotations

from typing import List

from ..model import InfeasibleError, UnboundedError
from ..numerics import is_finite, quotient_range
from ..transactions import (ReductionStep, StepKind, Transaction, assert_row,
                            assert_row_bounds, assert_col_bounds)
from .common import PresolveView

NAME = "trivial"


def run_trivial(view: PresolveView) -> List[Transaction]:
    p = view.problem
    ctx = view.ctx
    act = view.activities
    txs: List[Transaction] = []
    if view.is_fresh():
        rows, cols = p.active_rows(), p.active_cols()
    else:
        rows = sorted(i for i in view.changed_rows if p.row_active[i])
        cols = sorted(j for j in view.changed_cols if p.col_is_active(j))

    for i in rows:
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        entries = p.row_entries(i)
        if not is_finite(lhs) and not is_finite(rhs):
            txs.append(Transaction(NAME, [
                assert_row(i), assert_row_bounds(i),
                ReductionStep(StepKind.MARK_ROW_REDUNDANT, row=i)]))
            continue
        if not entries:
            zero = ctx.number(0)
            if not (ctx.feas_leq(lhs, zero) and ctx.feas_leq(zero, rhs)):
                raise InfeasibleError(
                    f"empty row {p.row_names[i]} violates its sides")
            txs.append(Transaction(NAME, [
                assert_row(i), assert_row_bounds(i),
                ReductionStep(StepKind.MARK_ROW_REDUNDANT, row=i)]))
            continue
        if len(entries) == 1:
            txs.append(_singleton_row(view, i, entries[0]))
            continue
        # activity-redundant rows can never be violated
        if (ctx.feas_leq(act.max_effective(i), rhs)
                and ctx.feas_leq(lhs, act.min_effective(i))):
            txs.append(Transaction(NAME, [
                assert_row(i), assert_row_bounds(i),
                ReductionStep(StepKind.MARK_ROW_REDUNDANT, row=i)]))

    for j in cols:
        lo, up = p.col_lower[j], p.col_upper[j]
        if lo > up and not ctx.feas_leq(lo, up):
            raise InfeasibleError(
                f"column {p.col_names[j]}: crossed bounds")
        if p.col_integral[j]:
            rlo, rup = ctx.round_up_bound(lo), ctx.round_down_bound(up)
            if is_finite(rlo) and is_finite(rup) and rlo > rup:
                raise InfeasibleError(
                    f"column {p.col_names[j]}: no integer in bound interval")
            steps = []
            if is_finite(rlo) and rlo > lo:
                steps.append(ReductionStep(StepKind.CHANGE_LOWER, col=j, value=rlo))
            if is_finite(rup) and rup < up:
                steps.append(ReductionStep(StepKind.CHANGE_UPPER, col=j, value=rup))
            if steps:
                txs.append(Transaction(NAME, [assert_col_bounds(j)] + steps))
                lo, up = max(lo, rlo), min(up, rup)
        if not p.cols[j]:
            txs.append(_empty_column(view, j, lo, up))
        elif lo == up:
            txs.append(Transaction(NAME, [
                assert_col_bounds(j),
                ReductionStep(StepKind.FIX_COLUMN, col=j, value=lo)]))
    return txs


def _singleton_row(view: PresolveView, i: int, entry) -> Transaction:
    p = view.problem
    ctx = view.ctx
    j, a = entry
    implied_lo, implied_up = quotient_range(p.row_lhs[i], p.row_rhs[i], a)
    if p.col_integral[j]:
        implied_lo = ctx.round_up_bound(implied_lo)
        implied_up = ctx.round_down_bound(implied_up)
    steps = [assert_row(i), assert_row_bounds(i), assert_col_bounds(j)]
    if p.is_equation(i):
        v = implied_lo if is_finite(implied_lo) else implied_up
        if p.col_integral[j] and implied_lo > implied_up:
            raise InfeasibleError(
                f"row {p.row_names[i]}: fixes {p.col_names[j]} to a "
                f"non-integer value")
        steps.append(ReductionStep(StepKind.FIX_COLUMN, col=j, value=v))
    else:
        if is_finite(implied_lo) and implied_lo > p.col_lower[j]:
            if not ctx.feas_leq(implied_lo, p.col_upper[j]):
                raise InfeasibleError(
                    f"row {p.row_names[i]}: implied lower bound crosses upper")
            steps.append(ReductionStep(StepKind.CHANGE_LOWER, col=j,
                                       value=implied_lo))
        if is_finite(implied_up) and implied_up < p.col_upper[j]:
            if not ctx.feas_leq(p.col_lower[j], implied_up):
                raise InfeasibleError(
                    f"row {p.row_names[i]}: implied upper bound crosses lower")
            steps.append(ReductionStep(StepKind.CHANGE_UPPER, col=j,
                                       value=implied_up))
    steps.append(ReductionStep(StepKind.MARK_ROW_REDUNDANT, row=i))
    return Transaction(NAME, steps)


def _empty_column(view: PresolveView, j: int, lo, up) -> Transaction:
    p = view.problem
    ctx = view.ctx
    c = p.obj[j]
    if c > 0:
        if not is_finite(lo):
            raise UnboundedError(
                f"empty column {p.col_names[j]} with positive cost and no "
                f"lower bound")
        v = lo
    elif c < 0:
        if not is_finite(up):
            raise UnboundedError(
                f"empty column {p.col_names[j]} with negative cost and no "
                f"upper bound")
        v = up
    else:
        if is_finite(lo):
            v = lo
        elif is_finite(up):
            v = up
        else:
            v = ctx.number(0)
    return Transaction(NAME, [
        assert_col_bounds(j),
        ReductionStep(StepKind.FIX_COLUMN, col=j, value=v)])
