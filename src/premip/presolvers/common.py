"""Shared presolver infrastructure: tiers, descriptors, read-only view."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..model import Locks, Problem, RowActivities
from ..numerics import (INF, NEG_INF, Mode, Number, NumericContext,
                        is_finite, rational_gcd)
from ..transactions import Transaction


class Tier(Enum):
    FAST = "fast"
    MEDIUM = "medium"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class PresolverDescriptor:
    name: str
    tier: Tier
    apply_order: int
    delayed: bool = False

    def __post_init__(self):
        if self.delayed and self.tier is not Tier.EXHAUSTIVE:
            raise ValueError("only exhaustive presolvers can be delayed")


@dataclass
class PresolveView:
    """Read-only handles a presolver works against.

    changed_rows/changed_cols are None on the first call (everything is
    new); afterwards they contain the indices touched since this
    presolver's previous call.  The driver adds the rows and columns of
    the presolver's own transactions that were discarded or canceled: the
    journal need not list them, yet a full scan would find them again.
    """
    problem: Problem
    activities: RowActivities
    locks: Locks
    changed_rows: Optional[Set[int]] = None
    changed_cols: Optional[Set[int]] = None
    workers: int = 1

    @property
    def ctx(self) -> NumericContext:
        return self.problem.ctx

    def scan_rows(self) -> List[int]:
        """Active rows restricted to the changed set (all on first call)."""
        p = self.problem
        if self.changed_rows is None and self.changed_cols is None:
            return p.active_rows()
        rows = set(self.changed_rows or ())
        for j in (self.changed_cols or ()):
            if p.col_state[j].value == "active":
                rows.update(p.cols[j].keys())
        return sorted(i for i in rows if i < p.nrows and p.row_is_active(i))

    def scan_cols(self) -> List[int]:
        p = self.problem
        if self.changed_rows is None and self.changed_cols is None:
            return p.active_cols()
        cols = set(self.changed_cols or ())
        for i in (self.changed_rows or ()):
            if i < p.nrows and p.row_is_active(i):
                cols.update(p.rows[i].keys())
        return sorted(j for j in cols if j < p.ncols and p.col_is_active(j))

    def is_fresh(self) -> bool:
        return self.changed_rows is None and self.changed_cols is None


RunFn = Callable[[PresolveView], List[Transaction]]


# ---------------------------------------------------------------------------
# helpers shared by several presolvers


def integral_coeffs(ctx: NumericContext,
                    entries: List[Tuple[int, Number]]) -> Optional[List[Tuple[int, Number]]]:
    """Snap coefficients to integers; None if any is non-integral."""
    out = []
    for j, a in entries:
        if isinstance(a, Fraction):
            if a.denominator != 1:
                return None
            out.append((j, a))
        else:
            if not ctx.is_integral(a):
                return None
            out.append((j, ctx.round(a)))
    return out


def coeff_gcd(ctx: NumericContext, values: List[Number]) -> Number:
    """gcd of coefficient magnitudes; exact for rationals, snapped floats."""
    if ctx.mode is Mode.RATIONAL:
        g = Fraction(0)
        for v in values:
            g = rational_gcd(g, Fraction(v))
        return g
    g = 0
    for v in values:
        g = math.gcd(g, abs(int(round(v))))
    return float(g)


def implied_bounds(ctx: NumericContext, state: Sequence, a: Number,
                   lo: Number, up: Number, lhs: Number, rhs: Number,
                   integral: bool) -> Tuple[Number, Number]:
    """(lower, upper) bound on one column implied by one row.

    `state` is the row's (min_sum, max_sum, n_min_inf, n_max_inf): from
    `RowActivities.snapshot`, probing's scratch overlay or DualInfer's dual
    rows.  (lo, up) are the bounds of the entry's column that the state was
    built with, and `a` is its coefficient.
    The residuals are those of `RowActivities.min_residual`/`max_residual`.
    Integral columns get their bounds rounded inward; a side that implies
    nothing gives NEG_INF/INF.

    Some bound arithmetic stays outside this kernel on purpose:
    - trivial presolve's singleton rows and DoubletonEq compute from sides
      and bounds directly; the cached sums drift in the last bits once
      entries are removed, so reading them would change those results;
    - FixContinuous' `_worst_case_cap` and `_fix_value_feasible` compute
      other quantities;
    - probing's overlay update, which moves a column's shares in its rows'
      activity sums when its bounds change, is written out in
      `exhaustive._probe_propagate` so that it decides the finiteness of
      the old and new bounds once per bound change instead of once per row.
    """
    min_sum, max_sum, n_min_inf, n_max_inf = state
    positive = a > 0  # compared once: slow for a Fraction
    lower, upper = NEG_INF, INF
    if is_finite(rhs):
        # minimum activity without this entry, whose share is a*lo or a*up;
        # None when another entry's share is infinite
        low = lo if positive else up
        if is_finite(low):
            res = min_sum - a * low if n_min_inf <= 0 else None
        else:
            res = min_sum if n_min_inf <= 1 else None
        if res is not None and is_finite(res):
            cap = (rhs - res) / a
            if positive:
                upper = ctx.round_down_bound(cap) if integral else cap
            else:
                lower = ctx.round_up_bound(cap) if integral else cap
    if is_finite(lhs):
        high = up if positive else lo
        if is_finite(high):
            res = max_sum - a * high if n_max_inf <= 0 else None
        else:
            res = max_sum if n_max_inf <= 1 else None
        if res is not None and is_finite(res):
            cap = (lhs - res) / a
            if positive:
                lower = ctx.round_up_bound(cap) if integral else cap
            else:
                upper = ctx.round_down_bound(cap) if integral else cap
    return lower, upper
