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
        if all(isinstance(v, Fraction) and v.denominator == 1
               for v in values):
            return Fraction(math.gcd(*(v.numerator for v in values)))
        g = Fraction(0)
        for v in values:
            g = rational_gcd(g, Fraction(v))
        return g
    g = 0
    for v in values:
        g = math.gcd(g, abs(int(round(v))))
    return float(g)


def finite_side(v: Number) -> Optional[Number]:
    """A row side as the bound kernel takes it: None if infinite."""
    return v if is_finite(v) else None


def implied_bounds(ctx: NumericContext, state: Sequence, a: Number,
                   lo: Number, up: Number, lhs: Optional[Number],
                   rhs: Optional[Number],
                   integral: bool) -> Tuple[Number, Number]:
    """(lower, upper) bound on one column implied by one row.

    `state` is the row's (min_sum, max_sum, n_min_inf, n_max_inf): from
    `RowActivities.snapshot`, probing's scratch overlay or DualInfer's dual
    rows.  (lo, up) are the bounds of the entry's column that the state was
    built with, and `a` is its coefficient.  An infinite side is passed as
    None (see `finite_side`): callers decide that once per row, and the
    kernel never compares a side with an infinity.
    The residuals are those of `RowActivities.min_residual`/`max_residual`.
    Integral columns get their bounds rounded inward; a side that implies
    nothing gives NEG_INF/INF.

    `tightening_sides` tells before the call that a side cannot tighten
    the entry; callers in float64 mode pass such a side as None.  Its
    margin, 1e-9 of the magnitudes of the side, the sum and the entry's
    shares, is far above the few ulps (about 1e-16 of those magnitudes) by
    which this kernel's residual, difference and quotient round, so the
    rounded cap of a dropped side could not have improved the bound.

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
    if rhs is not None:
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
    if lhs is not None:
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


# relative size of the safety margin of the slack test in float64
GATE_RTOL = 1e-9


def tightening_sides(state: Sequence, a: Number, lo: Number, up: Number,
                     lhs: Optional[Number], rhs: Optional[Number],
                     integral: bool, rtol: Number
                     ) -> Tuple[Optional[Number], Optional[Number]]:
    """(lhs, rhs) with each side that cannot tighten the entry's bounds
    through `implied_bounds` replaced by None: the slack test run in front
    of the kernel.  The arguments are the kernel's, and rtol is GATE_RTOL
    in float64 and 0 (an exact test) for rationals.

    A side cannot tighten the entry when it is None, when the row's
    infinity count for it is 2 or more, when that count is 1 and this
    entry's share is finite, or when the count is 0 and the entry's whole
    range fits in the row's slack: |a|*(up-lo) + tol < slack, with slack
    rhs - min_sum or max_sum - lhs and
    tol = rtol*(|side| + |sum| + |a|*(|lo|+|up|)).  The kernel's cap is
    then beyond up (lo), so its bound from that side is not strictly
    tighter.  In float64 the kernel's residual, difference and quotient
    round by a few ulps of those magnitudes, about 1e-16 of them and far
    below tol, so the rounded cap stays on the non-improving side too.
    The slack test is left out for an integral column with a non-integral
    bound, which inward rounding could tighten, and any comparison with an
    infinity or NaN in it is false, so the side stays.
    """
    min_sum, max_sum, n_min_inf, n_max_inf = state
    mag = a if a > 0 else -a
    need = mag * (up - lo + rtol * (abs(lo) + abs(up)))
    if integral and (lo % 1 or up % 1):  # NaN for an infinite bound
        need = INF
    if rhs is not None:
        if n_min_inf:
            if n_min_inf > 1 or is_finite(lo if a > 0 else up):
                rhs = None
        elif need + rtol * (abs(rhs) + abs(min_sum)) < rhs - min_sum:
            rhs = None
    if lhs is not None:
        if n_max_inf:
            if n_max_inf > 1 or is_finite(up if a > 0 else lo):
                lhs = None
        elif need + rtol * (abs(lhs) + abs(max_sum)) < max_sum - lhs:
            lhs = None
    return lhs, rhs
