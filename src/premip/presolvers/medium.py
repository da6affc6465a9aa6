"""Medium presolvers.

A presolver's first call scans every active row or column.  Later calls
scan only view.scan_rows() or view.scan_cols(): the rows and columns the
change journal lists since its previous call, the rows of listed columns
and the columns of listed rows, and the rows and columns of its own
transactions that were not applied.  Each reduction reads one row or
column and the entries, bounds, costs, sides and activities next to it;
a change to any of those lists that row or column.  ParallelRows and
ParallelCols rebuild only the support buckets of the lines they scan,
with `common._support_buckets`, which DomCol shares.
"""
from __future__ import annotations

from typing import Callable, List, Optional

from ..model import InfeasibleError, Problem, UnboundedError, add_shares
from ..numerics import (INF, NEG_INF, Number, affine_range,
                        bound_improves_lower, bound_improves_upper, div,
                        is_finite, quotient_range)
from ..transactions import (ReductionStep, StepKind, Transaction, assert_row,
                            assert_row_bounds, assert_col_bounds)
from .common import (PresolveView, _support_buckets, coeff_gcd, has_units,
                     integral_coeffs, max_residual, min_residual)


# ---------------------------------------------------------------------------
# SimpleProbing


def run_simpleprobing(view: PresolveView) -> List[Transaction]:
    """On equations whose activity span is twice one binary's contribution,
    every other variable is an affine function of that binary."""
    p = view.problem
    ctx = view.ctx
    act = view.activities
    txs: List[Transaction] = []
    for i in view.scan_rows():
        if not p.is_equation(i):
            continue
        entries = p.row_entries(i)
        if len(entries) < 2:
            continue
        min_eff, max_eff, n_min_inf, n_max_inf = act.state[i]
        if n_min_inf or n_max_inf:
            continue
        b = p.row_lhs[i]
        span = max_eff - min_eff
        if not ctx.approx_eq(b + b, min_eff + max_eff):
            continue
        driver = None
        for j, a in entries:
            if p.is_binary(j) and ctx.approx_eq(span, 2 * abs(a)):
                driver = (j, a)
                break
        if driver is None:
            continue
        k, ak = driver
        steps: List[ReductionStep] = [assert_row(i), assert_row_bounds(i)]
        steps += [assert_col_bounds(j) for j, _ in entries]
        ok = True
        subs = []
        for j, a in entries:
            if j == k:
                continue
            lo, up = p.col_lower[j], p.col_upper[j]
            if lo == up:
                continue
            # x_k on its max-activity side pushes x_j to its min side
            v_at_kmax = lo if a > 0 else up
            v_at_kmin = up if a > 0 else lo
            if ak > 0:  # x_k = 1 is the max side
                alpha, beta = v_at_kmin, v_at_kmax - v_at_kmin
            else:
                alpha, beta = v_at_kmax, v_at_kmin - v_at_kmax
            if p.col_integral[j] and not (ctx.is_integral(alpha)
                                          and ctx.is_integral(beta)):
                ok = False
                break
            subs.append(ReductionStep(StepKind.SUBSTITUTE_COLUMN, col=j,
                                      col2=k, value=alpha, scale=beta))
        if ok and subs:
            txs.append(Transaction("simpleprobing", steps + subs))
    return txs


# ---------------------------------------------------------------------------
# ParallelRows


def _parallel_classes(ctx, lines: List[int],
                      vector: Callable[[int], List[Number]]
                      ) -> List[List[int]]:
    """The classes of two or more lines whose vectors are parallel, in
    order of their first line.  Each vector is divided by its first entry;
    a line joins the first class whose first line's ratios are approx_eq
    to its own, entry by entry, or opens a class."""
    classes: List[List[int]] = []
    reps: List[List[Number]] = []
    for k in lines:
        vec = vector(k)
        base = vec[0]
        ratios = [div(v, base) for v in vec]
        for members, rep in zip(classes, reps):
            if all(ctx.approx_eq(a, b) for a, b in zip(ratios, rep)):
                members.append(k)
                break
        else:
            classes.append([k])
            reps.append(ratios)
    return [members for members in classes if len(members) > 1]


def run_parallelrows(view: PresolveView) -> List[Transaction]:
    """Merge classes of rows with proportional coefficient vectors into one
    surviving row whose sides are the intersection of the scaled sides."""
    p = view.problem
    ctx = view.ctx
    buckets = _support_buckets(view, p.rows, p.cols, view.scan_rows(), 2)
    txs: List[Transaction] = []
    for support, rows in sorted(buckets.items()):
        if len(rows) < 2:
            continue
        for members in _parallel_classes(
                ctx, rows, lambda i: [v for _, v in p.row_entries(i)]):
            keep = members[0]
            base = p.rows[keep][support[0]]
            new_lhs, new_rhs = p.row_lhs[keep], p.row_rhs[keep]
            for m in members[1:]:
                s = div(p.rows[m][support[0]], base)
                sl, sr = quotient_range(p.row_lhs[m], p.row_rhs[m], s)
                new_lhs = max(new_lhs, sl)
                new_rhs = min(new_rhs, sr)
            if not ctx.feas_leq(new_lhs, new_rhs):
                raise InfeasibleError(
                    "parallel rows with incompatible sides "
                    f"({p.row_names[keep]})")
            steps: List[ReductionStep] = []
            for m in members:
                steps.append(assert_row(m))
                steps.append(assert_row_bounds(m))
            if new_lhs != p.row_lhs[keep]:
                steps.append(ReductionStep(StepKind.CHANGE_LHS, row=keep,
                                           value=new_lhs))
            if new_rhs != p.row_rhs[keep]:
                steps.append(ReductionStep(StepKind.CHANGE_RHS, row=keep,
                                           value=new_rhs))
            for m in members[1:]:
                steps.append(ReductionStep(StepKind.MARK_ROW_REDUNDANT, row=m))
            txs.append(Transaction("parallelrows", steps))
    return txs


# ---------------------------------------------------------------------------
# ParallelCols


def run_parallelcols(view: PresolveView) -> List[Transaction]:
    """Merge proportional columns (matrix and objective) into one variable."""
    p = view.problem
    ctx = view.ctx
    buckets = _support_buckets(view, p.cols, p.rows, view.scan_cols(), 1)
    txs: List[Transaction] = []
    for support, cols in sorted(buckets.items()):
        if len(cols) < 2:
            continue
        for members in _parallel_classes(
                ctx, cols,
                lambda j: [v for _, v in p.col_entries(j)] + [p.obj[j]]):
            kept = members[0]
            base = p.cols[kept][support[0]]
            kept_int = p.col_integral[kept]
            lo = p.col_lower[kept]
            up = p.col_upper[kept]
            steps: List[ReductionStep] = [assert_col_bounds(kept)]
            steps += [assert_row(i) for i in support]
            merged = []
            for m in members[1:]:
                s = div(p.cols[m][support[0]], base)
                if p.col_integral[m] != kept_int:
                    continue
                if kept_int:
                    if not ctx.is_integral(s):
                        continue
                    span = up - lo if (is_finite(lo) and is_finite(up)) else INF
                    if not span + 1 >= abs(s):
                        continue
                steps.append(assert_col_bounds(m))
                steps.append(ReductionStep(StepKind.AGGREGATE_PARALLEL_COLS,
                                           col=m, col2=kept, scale=s))
                lo, up = affine_range(lo, up, s, p.col_lower[m],
                                      p.col_upper[m])
                merged.append(m)
            if merged:
                txs.append(Transaction("parallelcols", steps))
    return txs


# ---------------------------------------------------------------------------
# Stuffing


def run_stuffing(view: PresolveView) -> List[Transaction]:
    """Greedy dual stuffing (Achterberg, Bixby, Gu, Rothberg and Weninger,
    INFORMS JoC 2020) of continuous singleton columns that the
    column-singleton presolver left behind (nonzero cost, inequality).

    A row with one finite side reads as a.x <= cap.  Candidates, whose
    cost pushes a.x up, are fixed at their desired bound in order of
    cost/coefficient ratio, then column, while that bound is finite and
    the row still fits: the other entries at their maximum, the fixed
    candidates at their desired bounds and the undecided ones at their
    minimum within cap, or an undecided minimum infinite.  The other
    entries and the undecided candidates are two row states written by
    `model.add_shares`, so an infinite bound is counted, never
    multiplied."""
    p = view.problem
    ctx = view.ctx
    lower, upper = p.col_lower, p.col_upper
    zero = ctx.number(0)
    txs: List[Transaction] = []
    for i in view.scan_rows():
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        if is_finite(lhs) == is_finite(rhs):
            continue
        sense = 1 if is_finite(rhs) else -1
        cap = rhs if sense > 0 else -lhs
        entries = p.row_entries(i)
        rest = [zero, zero, 0, 0]
        candidates = []  # (ratio, col, sensed coefficient)
        for j, a in entries:
            asn = sense * a
            c = p.obj[j]
            if len(p.cols[j]) == 1 and not p.col_integral[j] \
                    and (asn > 0 and c < 0 or asn < 0 and c > 0):
                candidates.append((div(c, asn), j, asn))
            else:
                add_shares(rest, asn, lower[j], upper[j])
        if rest[3] or not candidates:
            continue
        candidates.sort()
        undecided = [zero, zero, 0, 0]
        for _, j, asn in candidates:
            add_shares(undecided, asn, lower[j], upper[j])
        decided = zero
        fixes: List[ReductionStep] = []
        for _, j, asn in candidates:
            desired = upper[j] if asn > 0 else lower[j]
            if not is_finite(desired):
                break
            add_shares(undecided, asn, lower[j], upper[j], -1)
            if not (undecided[2] > 0 or ctx.feas_leq(
                    rest[1] + decided + undecided[0] + asn * desired, cap)):
                break
            fixes.append(ReductionStep(StepKind.FIX_COLUMN, col=j,
                                       value=desired))
            decided = decided + asn * desired
        if fixes:
            asserts = [assert_row(i), assert_row_bounds(i)]
            asserts += [assert_col_bounds(j) for j, _ in entries]
            txs.append(Transaction("stuffing", asserts + fixes))
    return txs


# ---------------------------------------------------------------------------
# DualFix


def run_dualfix(view: PresolveView) -> List[Transaction]:
    """Fix columns that no constraint blocks from moving toward their
    objective-preferred bound.  Whether a row blocks a direction is read
    from the column's entries and their rows' sides (`_locked`)."""
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for j in view.scan_cols():
        if not p.cols[j]:
            continue  # empty columns belong to trivial presolve
        c = p.obj[j]
        lo, up = p.col_lower[j], p.col_upper[j]
        if lo == up:
            continue
        if c >= 0 and not _locked(p, j, up=False):
            if is_finite(lo):
                txs.append(Transaction("dualfix", [
                    assert_col_bounds(j),
                    ReductionStep(StepKind.FIX_COLUMN, col=j, value=lo)]))
            elif c > 0:
                raise UnboundedError(
                    f"column {p.col_names[j]}: cost pushes below without a "
                    f"bound or blocking row")
            else:
                v = _worst_case_cap(view, j, upper=True)
                if v is not None:
                    if p.col_integral[j]:
                        v = ctx.round_down_bound(v)
                    txs.append(Transaction("dualfix", [
                        assert_col_bounds(j),
                        ReductionStep(StepKind.FIX_COLUMN, col=j, value=v)]))
        elif c <= 0 and not _locked(p, j, up=True):
            if is_finite(up):
                txs.append(Transaction("dualfix", [
                    assert_col_bounds(j),
                    ReductionStep(StepKind.FIX_COLUMN, col=j, value=up)]))
            elif c < 0:
                raise UnboundedError(
                    f"column {p.col_names[j]}: cost pushes above without a "
                    f"bound or blocking row")
            else:
                v = _worst_case_cap(view, j, upper=False)
                if v is not None:
                    if p.col_integral[j]:
                        v = ctx.round_up_bound(v)
                    txs.append(Transaction("dualfix", [
                        assert_col_bounds(j),
                        ReductionStep(StepKind.FIX_COLUMN, col=j, value=v)]))
    return txs


def _locked(p: Problem, j: int, up: bool) -> bool:
    """Whether some row blocks column j from moving up (down when not up).
    An entry a > 0 blocks up at a finite rhs and down at a finite lhs; an
    entry a < 0 blocks the mirror directions.  Stops at the first blocking
    row."""
    lhs, rhs = p.row_lhs, p.row_rhs
    for i, a in p.cols[j].items():
        if NEG_INF < (rhs[i] if (a > 0) == up else lhs[i]) < INF:
            return True
    return False


def _worst_case_cap(view: PresolveView, j: int, upper: bool) -> Optional[Number]:
    """Safe fixing value for a zero-cost column with an infinite preferred
    bound: the tightest bound every row still tolerates in the worst case.
    With `upper` the column moves down freely and each row caps it from
    above, otherwise from below.  A row caps it at its blocking side (rhs
    when (a > 0) == upper, else lhs) less the others' largest activity
    against an rhs or their smallest against an lhs."""
    p = view.problem
    act = view.activities
    best = p.col_upper[j] if upper else p.col_lower[j]
    lo, up = p.col_lower[j], p.col_upper[j]
    for i, a in sorted(p.cols[j].items()):
        on_rhs = (a > 0) == upper
        side = p.row_rhs[i] if on_rhs else p.row_lhs[i]
        if not is_finite(side):
            continue
        residual = max_residual if on_rhs else min_residual
        res = residual(act.state[i], a, lo, up)
        if not is_finite(res):
            return None
        v = div(side - res, a)
        best = min(best, v) if upper else max(best, v)
    return best if is_finite(best) else None


# ---------------------------------------------------------------------------
# FixContinuous


def run_fixcontinuous(view: PresolveView) -> List[Transaction]:
    """Fix continuous columns whose bound interval is within feastol."""
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for j in view.scan_cols():
        if p.col_integral[j]:
            continue
        lo, up = p.col_lower[j], p.col_upper[j]
        if not (is_finite(lo) and is_finite(up)):
            continue
        if not up - lo <= ctx.feastol * max(1, abs(lo)):
            continue
        c = p.obj[j]
        if lo == up:
            v = lo
        elif c > 0:
            v = lo
        elif c < 0:
            v = up
        else:
            v = div(lo + up, 2)
        if _fix_value_feasible(view, j, v):
            txs.append(Transaction("fixcontinuous", [
                assert_col_bounds(j),
                ReductionStep(StepKind.FIX_COLUMN, col=j, value=v)]))
    return txs


def _fix_value_feasible(view: PresolveView, j: int, v: Number) -> bool:
    p = view.problem
    ctx = view.ctx
    act = view.activities
    lo, up = p.col_lower[j], p.col_upper[j]
    for i, a in p.cols[j].items():
        rhs, lhs = p.row_rhs[i], p.row_lhs[i]
        if is_finite(rhs):
            res = min_residual(act.state[i], a, lo, up)
            if is_finite(res) and not ctx.feas_leq(res + a * v, rhs):
                return False
        if is_finite(lhs):
            res = max_residual(act.state[i], a, lo, up)
            if is_finite(res) and not ctx.feas_leq(lhs, res + a * v):
                return False
    return True


# ---------------------------------------------------------------------------
# SimplifyIneq


def run_simplifyineq(view: PresolveView) -> List[Transaction]:
    """Drop integral variables that can never flip a constraint, rounding
    the side to the gcd grid of the remaining coefficients."""
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for i in view.scan_rows():
        row = p.rows[i]
        if len(row) < 2 or p.is_equation(i):
            continue
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        two_sided = is_finite(lhs) and is_finite(rhs)
        # the gcd of the coefficients a row keeps is 1 while it keeps a
        # unit one: a two-sided row keeps all of them, and a one-sided
        # row's candidate drops at most one of two
        if has_units(row.values(), 1 if two_sided else 2):
            continue
        entries = p.row_entries(i)
        if not all(p.col_integral[j] for j, _ in entries):
            continue
        ints = integral_coeffs(ctx, entries)
        if ints is None:
            continue
        if two_sided:
            tx = _round_sides_only(view, i, ints, lhs, rhs)
            if tx is not None:
                txs.append(tx)
            continue
        sense = 1 if is_finite(rhs) else -1
        side = rhs if sense > 0 else -lhs
        svals = [(j, sense * a) for j, a in ints]
        cand = min(svals, key=lambda t: (abs(t[1]), t[0]))
        jc, ac = cand
        others = [a for j, a in svals if j != jc]
        g = coeff_gcd(ctx, others)
        steps: List[ReductionStep] = []
        lo, up = p.col_lower[jc], p.col_upper[jc]
        if g > 1 and is_finite(lo) and is_finite(up):
            min_c = ac * lo if ac > 0 else ac * up
            max_c = ac * up if ac > 0 else ac * lo
            rounded = g * ctx.floor(div(side - min_c, g))
            if ctx.feas_leq(rounded, side - max_c):
                steps.append(ReductionStep(StepKind.CHANGE_COEFF, row=i,
                                           col=jc, value=0))
                if sense > 0:
                    steps.append(ReductionStep(StepKind.CHANGE_RHS, row=i,
                                               value=rounded))
                else:
                    steps.append(ReductionStep(StepKind.CHANGE_LHS, row=i,
                                               value=-rounded))
        if not steps:
            g_all = coeff_gcd(ctx, [a for _, a in svals])
            if g_all > 1:
                rounded = g_all * ctx.floor(div(side, g_all))
                if rounded < side and not ctx.approx_eq(rounded, side):
                    if sense > 0:
                        steps.append(ReductionStep(StepKind.CHANGE_RHS,
                                                   row=i, value=rounded))
                    else:
                        steps.append(ReductionStep(StepKind.CHANGE_LHS,
                                                   row=i, value=-rounded))
        if steps:
            asserts = [assert_row(i), assert_row_bounds(i),
                       assert_col_bounds(jc)]
            txs.append(Transaction("simplifyineq", asserts + steps))
    return txs


def _round_sides_only(view, i, ints, lhs, rhs) -> Optional[Transaction]:
    ctx = view.ctx
    g = coeff_gcd(ctx, [a for _, a in ints])
    if not g > 1:
        return None
    steps = []
    new_rhs = g * ctx.floor(div(rhs, g))
    new_lhs = g * ctx.ceil(div(lhs, g))
    if new_rhs < rhs and not ctx.approx_eq(new_rhs, rhs):
        steps.append(ReductionStep(StepKind.CHANGE_RHS, row=i, value=new_rhs))
    if new_lhs > lhs and not ctx.approx_eq(new_lhs, lhs):
        steps.append(ReductionStep(StepKind.CHANGE_LHS, row=i, value=new_lhs))
    if not steps:
        return None
    if not ctx.feas_leq(new_lhs, new_rhs):
        raise InfeasibleError("gcd rounding empties a two-sided row")
    return Transaction("simplifyineq",
                       [assert_row(i), assert_row_bounds(i)] + steps)


# ---------------------------------------------------------------------------
# DoubleToNEq


def run_doubletoneq(view: PresolveView) -> List[Transaction]:
    """Substitute one variable out of every two-variable equation."""
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for i in view.scan_rows():
        if not p.is_equation(i):
            continue
        entries = p.row_entries(i)
        if len(entries) != 2:
            continue
        b = p.row_lhs[i]
        (j1, a1), (j2, a2) = entries
        elim = _choose_eliminated(view, j1, a1, j2, a2, b)
        if elim is None:
            continue
        je, ae, jk, akk = elim
        # bounds of the eliminated variable imply bounds on the kept one
        imp_lo, imp_up = quotient_range(*affine_range(
            b, b, -ae, p.col_lower[je], p.col_upper[je]), akk)
        if p.col_integral[jk]:
            imp_lo = ctx.round_up_bound(imp_lo)
            imp_up = ctx.round_down_bound(imp_up)
        steps = [assert_row(i), assert_row_bounds(i),
                 assert_col_bounds(je), assert_col_bounds(jk)]
        if bound_improves_lower(ctx, p.col_lower[jk], imp_lo,
                                p.col_integral[jk]):
            steps.append(ReductionStep(StepKind.CHANGE_LOWER, col=jk,
                                       value=imp_lo))
        if bound_improves_upper(ctx, p.col_upper[jk], imp_up,
                                p.col_integral[jk]):
            steps.append(ReductionStep(StepKind.CHANGE_UPPER, col=jk,
                                       value=imp_up))
        steps.append(ReductionStep(StepKind.SUBSTITUTE_COLUMN, row=i, col=je))
        txs.append(Transaction("doubletoneq", steps))
    return txs


def _choose_eliminated(view, j1, a1, j2, a2, b):
    """Pick which variable of a 2-var equation to substitute out, or None."""
    p = view.problem
    ctx = view.ctx
    max_mag = max(abs(a1), abs(a2))

    def valid(je, ae, jk, ak):
        if abs(ae) < ctx.markowitz_threshold * max_mag:
            return False
        if not p.col_integral[je]:
            return True
        if not p.col_integral[jk]:
            return False
        return ctx.is_integral(div(ak, ae)) and ctx.is_integral(div(b, ae))

    c1 = not p.col_integral[j1]
    c2 = not p.col_integral[j2]
    order = []
    if c1 and not c2:
        order = [(j1, a1, j2, a2), (j2, a2, j1, a1)]
    elif c2 and not c1:
        order = [(j2, a2, j1, a1), (j1, a1, j2, a2)]
    elif abs(a1) >= abs(a2):
        order = [(j1, a1, j2, a2), (j2, a2, j1, a1)]
    else:
        order = [(j2, a2, j1, a1), (j1, a1, j2, a2)]
    for cand in order:
        if valid(*cand):
            return cand
    return None
