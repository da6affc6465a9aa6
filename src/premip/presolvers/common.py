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


def has_units(values, count: int) -> bool:
    """True if at least count of the values are exactly 1 or -1: such a
    row's integral coefficients have gcd 1, so the gcd steps of
    CoeffTightening and SimplifyIneq can skip it."""
    for v in values:
        if v == 1 or v == -1:
            count -= 1
            if not count:
                return True
    return False


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
    the entry, and probing's row screen tells it for a whole row; callers
    pass such a side as None or skip the call (the slack test runs in
    float64 only, the screen in both modes).  Both
    compare the row's slack with `slack_need`, whose docstring derives
    why the rounded cap of a dropped side could not have improved the
    bound.

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


def _is_whole(v: Number) -> bool:
    """v is a finite integer; an int or Fraction has a denominator."""
    if isinstance(v, float):
        return v.is_integer()
    return v.denominator == 1


def slack_need(a: Number, lo: Number, up: Number, integral: bool,
               feastol: Number, rtol: Number) -> Number:
    """The slack below which a row side might tighten this entry's bounds
    through `implied_bounds`, its safety margin included: the one need
    formula of the slack test (`tightening_sides`) and of probing's row
    screen.  A side whose slack exceeds the need plus rtol*(|side| +
    |sum|) cannot tighten the entry.

    For a continuous column the need is |a|*(up-lo) + margin.  The cap
    from the rhs of a positive entry is lo + slack/|a| (the other cases
    mirror it), which improves on up exactly when slack < |a|*(up-lo).

    For an integral column with integral finite bounds it is
    |a|*(up-lo-feastol) + margin.  The kernel rounds the cap inward with
    `round_down_bound`, floor(cap + feastol), which is below up only when
    cap < up - feastol, that is slack < |a|*(up-lo-feastol): the cap must
    fall a whole step short of the bound, less feastol (Achterberg et al.,
    "Presolve Reductions in Mixed Integer Programming", INFORMS JoC 2020).
    `round_up_bound` gives the mirror image.  An integral column with a
    non-integral or infinite bound gets an infinite need: inward rounding
    could tighten it.

    The margin is rtol*|a|*(|lo|+|up|) here and rtol*(|side| + |sum|) at
    the comparison.  The kernel's residual, difference, quotient and the
    feastol shift each round by an ulp of those magnitudes (about 1e-16 of
    them), so with rtol = GATE_RTOL = 1e-9 the margin exceeds the
    kernel's rounding, and that of the test itself, a million times over:
    the rounded cap of a side the test drops stays on the non-improving
    side of the bound.  The test and the kernel read the same cached
    sums, whose last bits depend on the sequence of removals and additions
    that built them; float64 keeps `ModelUpdate`'s remove-then-add
    sequence (see `_set_col_bound_raw`), since shifting a sum by
    a*(new-old) would change those bits and with them the kernel's
    results.  Exact sums have no such bits: rational mode shifts them, and
    with rtol = 0 and feastol = 0 there is no margin and the need is
    exactly |a|*(up-lo), INF for an infinite bound.  It is never NaN (0
    times an infinite bound): `max()` over a row's needs drops a NaN that
    does not come first, so probing's screen could skip a row on a
    largest need below the entry's.

    The need never grows when the bounds shrink inside [lo, up]: for
    lo <= lo' <= up' <= up, |lo'| + |up'| <= |lo| + |up| + (up-lo) -
    (up'-lo'), so (up'-lo') + rtol*(|lo'|+|up'|) <= (up-lo) +
    rtol*(|lo|+|up|); and integral bounds stay integral, since the kernel
    rounds them.  A need from a column's global bounds therefore bounds
    its need in every probing branch.
    """
    mag = a if a > 0 else -a
    if integral and not (_is_whole(lo) and _is_whole(up)):
        return INF
    if not rtol and not feastol:  # exact: no margin, no 0*inf
        return mag * (up - lo)
    if integral:
        return mag * (up - lo - feastol + rtol * (abs(lo) + abs(up)))
    return mag * (up - lo + rtol * (abs(lo) + abs(up)))


def tightening_sides(state: Sequence, a: Number, lo: Number, up: Number,
                     lhs: Optional[Number], rhs: Optional[Number],
                     integral: bool, rtol: Number, feastol: Number
                     ) -> Tuple[Optional[Number], Optional[Number]]:
    """(lhs, rhs) with each side that cannot tighten the entry's bounds
    through `implied_bounds` replaced by None: the slack test run in front
    of the kernel.  The arguments are the kernel's; rtol is GATE_RTOL in
    float64 and 0 (an exact test) for rationals, and feastol is the
    context's.

    A side cannot tighten the entry when it is None, when the row's
    infinity count for it is 2 or more, when that count is 1 and this
    entry's share is finite, or when the count is 0 and the row's slack,
    rhs - min_sum or max_sum - lhs, exceeds
    `slack_need(a, lo, up, integral, feastol, rtol)` + rtol*(|side| +
    |sum|); `slack_need` derives the bound and its margin.  Any comparison
    with an infinity or NaN in it is false, so the side stays.
    """
    min_sum, max_sum, n_min_inf, n_max_inf = state
    need = slack_need(a, lo, up, integral, feastol, rtol)
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
