"""Primal postsolve: map a reduced-problem solution back to the original.

Walks the applied-reduction record in reverse; every record kind has an
inverse handler and unknown kinds are a hard error.  The record can also be
replayed forward to reproduce the reduced problem, which doubles as an
integrity check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .model import (AggregateEntry, BoundChangeEntry, CoeffChangeEntry,
                    FixEntry, FreeSingletonEntry, ImplyIntegralEntry,
                    ModelUpdate, Problem, RedundantRowEntry, SideChangeEntry,
                    SubstituteEntry)
from .numerics import (Number, NumericContext, affine_range, div, is_finite,
                       quotient_range)
from .transactions import PostsolveRecord


class PostsolveError(ValueError):
    def __init__(self, message: str, entry_index: Optional[int] = None):
        super().__init__(message if entry_index is None
                         else f"record entry {entry_index}: {message}")
        self.entry_index = entry_index


@dataclass
class Solution:
    values: List[Number]
    objective: Number


def _ctx_for(record: PostsolveRecord) -> NumericContext:
    """The context the record was produced with: its mode and stored
    tolerances, or the mode's defaults for a version-1 record, which
    stores none."""
    if record.mode == "rational":
        if record.hugeval is None:
            return NumericContext.rational()
        return NumericContext.rational(record.hugeval)
    if record.epsilon is None:
        return NumericContext.float64()
    return NumericContext.float64(record.epsilon, record.feastol,
                                  record.hugeval)


def postsolve_primal(record: PostsolveRecord,
                     reduced_values: Dict[int, Number]) -> Solution:
    """Recover an original-space solution from reduced column values.

    reduced_values maps original column indices (the reduced problem keeps
    the original indexing) to values; columns eliminated during presolve
    are filled in by inverting the record back to front.
    """
    ctx = _ctx_for(record)
    values: Dict[int, Number] = {j: ctx.number(v)
                                 for j, v in reduced_values.items()}

    def need(j: int, idx: int) -> Number:
        if j not in values:
            raise PostsolveError(
                f"value of column {j} unavailable during inversion", idx)
        return values[j]

    def check_domain(j, v, lb, ub, idx):
        if not (ctx.feas_leq(lb, v) and ctx.feas_leq(v, ub)):
            raise PostsolveError(
                f"column {j} value {v} violates its bounds [{lb}, {ub}]", idx)

    for idx in range(len(record.entries) - 1, -1, -1):
        e = record.entries[idx]
        if isinstance(e, FixEntry):
            values[e.col] = e.value
        elif isinstance(e, SubstituteEntry):
            piv = None
            rest = ctx.number(0)
            for k, a in e.coeffs:
                if k == e.col:
                    piv = a
                else:
                    rest = rest + a * need(k, idx)
            if piv is None or piv == 0:
                raise PostsolveError("substitution without a pivot", idx)
            v = div(e.rhs - rest, piv)
            check_domain(e.col, v, e.lb, e.ub, idx)
            values[e.col] = v
        elif isinstance(e, FreeSingletonEntry):
            rest = ctx.number(0)
            for k, a in e.rest:
                rest = rest + a * need(k, idx)
            lo_cap, up_cap = quotient_range(
                *affine_range(e.lhs, e.rhs, 1, -rest, -rest), e.coeff)
            lo = max(lo_cap, e.lb)
            up = min(up_cap, e.ub)
            if not ctx.feas_leq(lo, up):
                raise PostsolveError(
                    f"no feasible value for relaxed singleton {e.col}", idx)
            if is_finite(lo):
                v = lo
            elif is_finite(up):
                v = up
            else:
                v = ctx.number(0)
            values[e.col] = v
        elif isinstance(e, AggregateEntry):
            y = need(e.kept, idx)
            s = e.scale
            lo_cap, up_cap = affine_range(y, y, -s, e.gone_lb, e.gone_ub)
            hi = min(e.kept_ub, up_cap)
            lo = min(max(e.kept_lb, lo_cap), hi)
            if ctx.is_integral(s) and abs(s) > 1:
                # step down to the nearest split point divisible by the scale
                q = div(y - hi, s)
                steps = math.ceil(q) if s > 0 else math.floor(q)
                x = y - s * ctx.number(steps)
            else:
                x = hi
            g = div(y - x, s)
            check_domain(e.kept, x, e.kept_lb, e.kept_ub, idx)
            check_domain(e.gone, g, e.gone_lb, e.gone_ub, idx)
            values[e.kept] = x
            values[e.gone] = g
        elif isinstance(e, (BoundChangeEntry, SideChangeEntry,
                            CoeffChangeEntry, RedundantRowEntry,
                            ImplyIntegralEntry)):
            pass  # no value action; soundness of the reduction covers these
        else:
            raise PostsolveError(f"unknown record kind {type(e).__name__}", idx)

    missing = [j for j in range(record.original_ncols) if j not in values]
    if missing:
        raise PostsolveError(f"columns without values after postsolve: "
                             f"{missing[:10]}")
    dense = [values[j] for j in range(record.original_ncols)]
    obj = record.objective_offset
    for j, c in enumerate(record.objective):
        if c != 0:
            obj = obj + c * dense[j]
    return Solution(values=dense, objective=obj)


def replay(record: PostsolveRecord, original: Problem) -> Problem:
    """Re-apply the record forward; the result must equal the reduced
    problem exactly."""
    work = original.copy()
    upd = ModelUpdate(work, stats=None, record=[])
    setter = (0, "replay")
    for idx, e in enumerate(record.entries):
        if isinstance(e, FixEntry):
            upd.fix_column(e.col, e.value, setter)
        elif isinstance(e, BoundChangeEntry):
            upd._set_col_bound_raw(e.col, e.side, e.new, setter)
        elif isinstance(e, SideChangeEntry):
            upd._set_side_raw(e.row, e.side, e.new, setter)
        elif isinstance(e, CoeffChangeEntry):
            upd.change_coeff(e.row, e.col, e.new, setter)
        elif isinstance(e, RedundantRowEntry):
            upd.mark_row_redundant(e.row, setter)
        elif isinstance(e, SubstituteEntry):
            if e.row >= 0:
                upd.substitute_column(e.col, e.row, setter)
            else:
                beta = None
                via = None
                for k, a in e.coeffs:
                    if k != e.col:
                        via, beta = k, -a
                upd.substitute_pair(e.col, via, e.rhs, beta, setter)
        elif isinstance(e, FreeSingletonEntry):
            upd.delete_free_singleton(e.col, e.row, setter)
        elif isinstance(e, AggregateEntry):
            upd.aggregate_parallel_cols(e.gone, e.kept, e.scale, setter)
        elif isinstance(e, ImplyIntegralEntry):
            upd.imply_integral(e.col, setter)
        else:
            raise PostsolveError(f"unknown record kind {type(e).__name__}", idx)
    return work
