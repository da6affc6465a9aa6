"""Fast presolvers: scan only rows/columns changed since their last call.

Propagation calls the bound kernel `common.implied_bounds` behind the row
screen of `common.screen_threshold` on every row, the same early exit as
probing's."""
from __future__ import annotations

from typing import List

from ..model import InfeasibleError
from ..numerics import (INF, NEG_INF, div, is_finite,
                        bound_improves_lower, bound_improves_upper)
from ..transactions import (ReductionStep, StepKind, Transaction, assert_row,
                            assert_row_bounds, assert_col_bounds)
from .common import (PresolveView, coeff_gcd, finite_side, has_units,
                     implied_bounds, integral_coeffs, screen_rtol,
                     screen_threshold, slack_need)


def run_colsingleton(view: PresolveView) -> List[Transaction]:
    """Remove continuous columns that appear in exactly one constraint."""
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for j in view.scan_cols():
        if len(p.cols[j]) != 1 or p.col_integral[j]:
            continue
        (i, a), = p.cols[j].items()
        row_max = max(abs(v) for v in p.rows[i].values())
        if abs(a) < ctx.markowitz_threshold * row_max or a == 0:
            continue
        asserts = [assert_col_bounds(j), assert_row(i), assert_row_bounds(i)]
        if p.is_equation(i):
            txs.append(Transaction("colsingleton", asserts + [
                ReductionStep(StepKind.SUBSTITUTE_IN_OBJECTIVE, row=i, col=j)]))
        elif p.obj[j] == 0:
            txs.append(Transaction("colsingleton", asserts + [
                ReductionStep(StepKind.DELETE_COLUMN, row=i, col=j)]))
        # singletons with cost in inequalities are left to Stuffing/DualFix
    return txs


def run_coefftightening(view: PresolveView) -> List[Transaction]:
    """Shrink coefficients of integral columns in single-sided rows, then
    normalize all-integral rows by their gcd.

    A row whose finite side is the rhs is read as is, one with a finite
    lhs negated into -a.x <= -lhs.  While the maximum activity exceeds
    the side, the candidates (integral, boxed, unfixed columns, in column
    order) are passed once: a larger coefficient shrinks to the excess,
    and each candidate is compared with it before the product with its
    range is formed.  A shrink lowers the maximum activity and the side
    by the same amount, so the excess stays and no second pass would
    shrink anything."""
    p = view.problem
    ctx = view.ctx
    act = view.activities
    integral, lower, upper = p.col_integral, p.col_lower, p.col_upper
    txs: List[Transaction] = []
    for i in view.scan_rows():
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        if is_finite(lhs) == is_finite(rhs):
            continue  # only rows with exactly one finite side
        sense = 1 if is_finite(rhs) else -1
        side = rhs if sense > 0 else -lhs
        maxact = act.max_effective(i) if sense > 0 else -act.min_effective(i)
        if not is_finite(maxact):
            continue
        row = p.rows[i]
        coeffs = dict(row) if sense > 0 else {j: -a for j, a in row.items()}
        steps: List[ReductionStep] = []
        if maxact > side and not ctx.approx_eq(maxact, side):
            new_mag = maxact - side
            for j in sorted(coeffs):
                lo, up = lower[j], upper[j]
                if not (integral[j] and is_finite(lo) and is_finite(up)
                        and lo != up):
                    continue
                a = coeffs[j]
                mag = abs(a)
                if not new_mag < mag or ctx.approx_eq(new_mag, mag):
                    continue
                if not ctx.feas_leq(maxact - mag * (up - lo), side):
                    continue
                if a > 0:
                    new_a = new_mag
                    ref = up
                else:
                    new_a = -new_mag
                    ref = lo
                maxact = maxact - (a - new_a) * ref
                side = side - (a - new_a) * ref
                coeffs[j] = new_a
                if sense > 0:
                    steps.append(ReductionStep(StepKind.CHANGE_COEFF, row=i,
                                               col=j, value=new_a))
                    steps.append(ReductionStep(StepKind.CHANGE_RHS, row=i,
                                               value=side))
                else:
                    steps.append(ReductionStep(StepKind.CHANGE_COEFF, row=i,
                                               col=j, value=-new_a))
                    steps.append(ReductionStep(StepKind.CHANGE_LHS, row=i,
                                               value=-side))
                if not maxact > side or ctx.approx_eq(maxact, side):
                    break
                new_mag = maxact - side
        # gcd normalization of all-integral rows; a unit coefficient makes
        # the gcd 1
        if all(p.col_integral[j] for j in coeffs) \
                and not has_units(coeffs.values(), 1):
            as_ints = integral_coeffs(ctx, sorted(coeffs.items()))
            if as_ints is not None and len(as_ints) > 0:
                g = coeff_gcd(ctx, [v for _, v in as_ints])
                if g != 0 and g != 1:
                    new_side = ctx.floor(div(side, g))
                    for j, v in as_ints:
                        steps.append(ReductionStep(
                            StepKind.CHANGE_COEFF, row=i, col=j,
                            value=sense * div(v, g)))
                    if sense > 0:
                        steps.append(ReductionStep(StepKind.CHANGE_RHS,
                                                   row=i, value=new_side))
                    else:
                        steps.append(ReductionStep(StepKind.CHANGE_LHS,
                                                   row=i, value=-new_side))
        if steps:
            txs.append(Transaction("coefftightening",
                                   [assert_row(i), assert_row_bounds(i)]
                                   + steps))
    return txs


def run_propagation(view: PresolveView) -> List[Transaction]:
    """Activity-based bound tightening plus redundant-row detection.

    The row screen runs in front of the kernel in both modes: every row
    gets one `screen_threshold`, and an entry whose `slack_need` lies
    below it is skipped."""
    p = view.problem
    ctx = view.ctx
    act = view.activities
    rtol = screen_rtol(ctx)
    feastol = ctx.feastol
    txs: List[Transaction] = []
    for i in view.scan_rows():
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        entries = p.row_entries(i)
        if not entries:
            continue
        min_eff, max_eff = act.min_effective(i), act.max_effective(i)
        if is_finite(rhs) and not ctx.feas_leq(min_eff, rhs):
            raise InfeasibleError(
                f"row {p.row_names[i]}: minimum activity exceeds rhs")
        if is_finite(lhs) and not ctx.feas_leq(lhs, max_eff):
            raise InfeasibleError(
                f"row {p.row_names[i]}: maximum activity below lhs")
        if ctx.feas_leq(max_eff, rhs) and ctx.feas_leq(lhs, min_eff):
            txs.append(Transaction("propagation", [
                assert_row(i), assert_row_bounds(i),
                ReductionStep(StepKind.MARK_ROW_REDUNDANT, row=i)]))
            continue
        state = act.state[i]
        lhs, rhs = finite_side(lhs), finite_side(rhs)
        thr = screen_threshold(state, lhs, rhs, rtol)
        for j, a in entries:
            lo, up = p.col_lower[j], p.col_upper[j]
            integral = p.col_integral[j]
            if slack_need(a, lo, up, integral, feastol, rtol) < thr:
                continue
            lower, upper = implied_bounds(ctx, state, a, lo, up, lhs, rhs,
                                          integral)
            # INF/NEG_INF mean no bound: no comparison with an infinity
            steps = []
            if upper is not INF and bound_improves_upper(ctx, up, upper,
                                                         integral):
                steps.append(ReductionStep(StepKind.CHANGE_UPPER, col=j,
                                           value=upper))
            if lower is not NEG_INF and bound_improves_lower(ctx, lo, lower,
                                                             integral):
                steps.append(ReductionStep(StepKind.CHANGE_LOWER, col=j,
                                           value=lower))
            if len(steps) == 2 and a < 0:
                steps.reverse()  # the rhs-implied bound comes first
            for step in steps:
                txs.append(Transaction("propagation", [step]))
    return txs
