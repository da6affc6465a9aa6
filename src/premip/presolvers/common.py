"""Shared presolver infrastructure: tiers, descriptors, read-only view."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..model import Problem, RowActivities
from ..numerics import (INF, NEG_INF, Mode, Number, NumericContext, div,
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
    """Snap coefficients to integers; None if any is non-integral.  An
    exact coefficient (int or Fraction) is kept as it is."""
    if ctx.mode is Mode.RATIONAL:
        for _, a in entries:
            if a.denominator != 1:
                return None
        return list(entries)
    out = []
    for j, a in entries:
        if not ctx.is_integral(a):
            return None
        out.append((j, ctx.round(a)))
    return out


def coeff_gcd(ctx: NumericContext, values: List[Number]) -> Number:
    """gcd of coefficient magnitudes; exact for rationals, snapped floats."""
    if ctx.mode is Mode.RATIONAL:
        if all(v.denominator == 1 for v in values):
            return math.gcd(*(v.numerator for v in values))
        g = 0
        for v in values:
            g = rational_gcd(g, v)
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


def min_residual(state: Sequence, a: Number, lo: Number,
                 up: Number) -> Number:
    """The minimum activity of a row state without one of its entries,
    a*x with x in [lo, up]: NEG_INF when another entry's share is
    infinite."""
    low = lo if a > 0 else up
    if NEG_INF < low < INF:
        return state[0] - a * low if state[2] <= 0 else NEG_INF
    return state[0] if state[2] <= 1 else NEG_INF


def max_residual(state: Sequence, a: Number, lo: Number,
                 up: Number) -> Number:
    """The maximum activity of a row state without one of its entries:
    INF when another entry's share is infinite."""
    high = up if a > 0 else lo
    if NEG_INF < high < INF:
        return state[1] - a * high if state[3] <= 0 else INF
    return state[1] if state[3] <= 1 else INF


def implied_bounds(ctx: NumericContext, state: Sequence, a: Number,
                   lo: Number, up: Number, lhs: Optional[Number],
                   rhs: Optional[Number],
                   integral: bool) -> Tuple[Number, Number]:
    """(lower, upper) bound on one column implied by one row.

    `state` is the row's [min_sum, max_sum, n_min_inf, n_max_inf]: from
    `RowActivities.state`, probing's scratch overlay or DualInfer's dual
    rows.  (lo, up) are the bounds of the entry's column that the state was
    built with, and `a` is its coefficient.  An infinite side is passed as
    None (see `finite_side`): callers decide that once per row, and the
    kernel never compares a side with an infinity.
    The residuals are those of `min_residual` and `max_residual`.
    Integral columns get their bounds rounded inward; a side that implies
    nothing gives NEG_INF/INF.

    `screen_threshold` tells before the call that the row cannot tighten
    an entry whose `slack_need` lies below it, and `run_propagation` and
    probing then skip the call, in both modes; `slack_need`'s docstring
    derives why the rounded cap of a skipped entry could not have improved
    its bounds, and `screen_threshold`'s why that holds on every row.

    Some bound arithmetic stays outside this kernel on purpose:
    - the range of c + s*x or x/s over a box comes from
      `numerics.affine_range` and `quotient_range`, which read sides and
      bounds: the cached sums drift in the last bits once entries go;
    - FixContinuous' `_worst_case_cap` and `_fix_value_feasible` compute
      other quantities from the same residuals.
    """
    positive = a > 0  # compared once
    lower, upper = NEG_INF, INF
    if rhs is not None:
        res = min_residual(state, a, lo, up)
        if is_finite(res):
            cap = div(rhs - res, a)
            if positive:
                upper = ctx.round_down_bound(cap) if integral else cap
            else:
                lower = ctx.round_up_bound(cap) if integral else cap
    if lhs is not None:
        res = max_residual(state, a, lo, up)
        if is_finite(res):
            cap = div(lhs - res, a)
            if positive:
                lower = ctx.round_up_bound(cap) if integral else cap
            else:
                upper = ctx.round_down_bound(cap) if integral else cap
    return lower, upper


# relative size of the safety margin of the row screen in float64
GATE_RTOL = 1e-9


def screen_rtol(ctx: NumericContext) -> Number:
    """The row screen's relative margin in ctx's mode: GATE_RTOL in
    float64, 0 (an exact screen) in rational mode."""
    return GATE_RTOL if ctx.mode is Mode.FLOAT64 else 0


def _is_whole(v: Number) -> bool:
    """v is a finite integer; an int or Fraction has a denominator."""
    if isinstance(v, float):
        return v.is_integer()
    return v.denominator == 1


def slack_need(a: Number, lo: Number, up: Number, integral: bool,
               feastol: Number, rtol: Number) -> Number:
    """The slack below which a row side might tighten this entry's bounds
    through `implied_bounds`, its safety margin included: the need
    formula of the row screen (`screen_threshold`).  A side whose slack
    exceeds the need plus rtol*(|side| + |sum|) cannot tighten the
    entry.

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
    kernel's rounding, and that of the screen itself, a million times
    over: the rounded cap of a side whose slack exceeds the need stays on
    the non-improving side of the bound.  The screen and the kernel read
    the same cached sums, whose last bits depend on the sequence of
    removals and additions that built them; float64 keeps `ModelUpdate`'s
    remove-then-add sequence (see `model.move_shares`), since shifting a
    sum by a*(new-old) would change those bits and with them the kernel's
    results.  Exact sums have no such bits: rational mode shifts them, and
    with rtol = 0 and feastol = 0 there is no margin and the need is
    exactly |a|*(up-lo), INF for an infinite bound.  It is never NaN (0
    times an infinite bound): `max()` over a row's needs drops a NaN that
    does not come first, so probing could skip a row on a largest need
    below the entry's.

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
        # an int above 1e308 next to an infinity raises OverflowError
        if lo == NEG_INF or up == INF:
            return INF
        return mag * (up - lo)
    if integral:
        return mag * (up - lo - feastol + rtol * (abs(lo) + abs(up)))
    return mag * (up - lo + rtol * (abs(lo) + abs(up)))


def screen_threshold(state: Sequence, lhs: Optional[Number],
                     rhs: Optional[Number], rtol: Number) -> Number:
    """The row screen's threshold for a row state: the smaller slack of the
    present sides, rhs - min_sum and max_sum - lhs, each less its
    rtol*(|side| + |sum|) margin (none when rtol is 0).  An entry whose
    `slack_need` is below it has both slacks above its need plus their
    margins, so the row cannot tighten it from either side; with no side,
    nothing can.  It holds on every row: an entry with an infinite bound
    has an infinite need; one with a finite box gets nothing from a side
    with an infinite share, and on a side without one the slack is exact
    and no smaller than the threshold, the minimum over both sides."""
    thr = INF
    if rhs is not None:
        thr = rhs - state[0]
        if rtol:
            thr -= rtol * (abs(rhs) + abs(state[0]))
    if lhs is not None:
        other = state[1] - lhs
        if rtol:
            other -= rtol * (abs(lhs) + abs(state[1]))
        if other < thr:
            thr = other
    return thr
