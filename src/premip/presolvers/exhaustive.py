"""Exhaustive presolvers; Probing, DomCol and Sparsify fan their iteration
space out to forked workers when the instance is big enough to pay for it.
ImplInt and Substitution scan only the changed rows after their first call,
as the medium presolvers do; DomCol, DualInfer and Sparsify scan everything
on every call.

Each worker turns its chunk into transactions, so only transactions come
back to the parent.

Probing copies the column bounds once per call into a workspace of two
arrays, with a third that tells which columns have a finite box; forked
workers inherit it.  A branch writes its bounds there, lists the columns
it changed and puts their bounds back when it ends, infeasible exits
included; the row activities it moves live in scratch copies of the rows
it touches.  Moving a boxed column's shares needs no finiteness test.
The sorted entries and resolved sides of the rows it reads are kept for
the call.

Two exact early exits run in front of the kernel, both built on
`common.slack_need`, which includes the whole step an integral column's
bound needs.  The row screen: when a row is first read, each entry's need
is computed from the call's global bounds, which bound its need in every
branch because a branch only shrinks bounds.  On a visit of a row with no
infinite share, one threshold, the smaller slack of its present sides
less the margin, is compared with those needs.  An entry whose need is
below it is skipped, and the whole row when its largest need is; the
threshold is recomputed after each bound change in the row.  In float64
the margin is GATE_RTOL relative, and each unfixed entry the screen lets
through then meets the slack test `tightening_sides` with its branch
bounds.  In rational mode the screen has no margin, and there is no
slack test, which cost more there than the kernel calls it saved.

A branch's bound change moves the column's shares in its rows' scratch
activities.  Float64 subtracts the old share and adds the new one, as
`ModelUpdate` does for the problem's sums; rational mode, when all four
bounds are finite, adds a times the change of each bound that moved.

The merge of a candidate's two branches loops only over the columns both
branches moved: a column moved in one branch keeps its global bounds in
the other, so the union of its two boxes is its global box and gives no
bound.  It gives a coupling only when those global bounds are approx_eq
without being equal, so such columns are kept too."""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..model import InfeasibleError
from ..numerics import (INF, NEG_INF, Mode, Number, bound_improves_lower,
                        bound_improves_upper, is_finite)
from ..parallel import chunk_evenly, fork_map
from ..transactions import (ReductionStep, StepKind, Transaction, assert_row,
                            assert_row_bounds, assert_col_bounds)
from .common import (GATE_RTOL, PresolveView, finite_side, implied_bounds,
                     slack_need, tightening_sides)

# work-size gates below which forking is not worth the overhead
PROBING_PARALLEL_MIN_CANDIDATES = 192
PROBING_PARALLEL_MIN_NNZ = 2000
DOMCOL_PARALLEL_MIN_GROUPS = 512
SPARSIFY_PARALLEL_MIN_EQS = 512

# the view of the presolver whose chunks run; for probing, the rows its
# chunks have read so far (see _cache_row), and its workspace (see
# _workspace).  Forked workers inherit all three, and all three are cleared
# when the call ends.
_VIEW: Optional[PresolveView] = None
_SORTED_ROWS: Dict[int, Tuple[List[Tuple[int, Number, Number]],
                              Optional[Number], Optional[Number],
                              Number]] = {}
_BOUNDS: Optional[Tuple[List[Number], List[Number], List[bool]]] = None


def _fan_out(view: PresolveView, chunk_fn, items: list,
             big_enough: bool) -> list:
    """chunk_fn's results over items, in item order.  Forks view.workers
    processes over contiguous chunks when big_enough, else runs in-process;
    chunk_fn reads the view from _VIEW."""
    global _VIEW, _BOUNDS
    _VIEW = view
    try:
        if view.workers > 1 and big_enough:
            chunks = chunk_evenly(items, 4 * view.workers)
            parts = fork_map(chunk_fn, chunks, view.workers)
            return [r for part in parts for r in part]
        return chunk_fn(items)
    finally:
        _VIEW = None
        _BOUNDS = None
        _SORTED_ROWS.clear()


# ---------------------------------------------------------------------------
# ImplInt


def run_implint(view: PresolveView) -> List[Transaction]:
    """Continuous columns forced to integer values by an integral equation."""
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for i in view.scan_rows():
        if not p.is_equation(i):
            continue
        entries = p.row_entries(i)
        if len(entries) < 2:
            continue
        cont = [(j, a) for j, a in entries if not p.col_integral[j]]
        if len(cont) != 1:
            continue
        j, piv = cont[0]
        if abs(piv) < 1:
            continue  # unit coefficient up to an integral row scale only
        b = p.row_lhs[i]
        if not ctx.is_integral(b / piv):
            continue
        if all(ctx.is_integral(a / piv) for k, a in entries if k != j):
            txs.append(Transaction("implint", [
                assert_row(i), assert_row_bounds(i),
                ReductionStep(StepKind.IMPLY_INTEGRAL, col=j)]))
    return txs


# ---------------------------------------------------------------------------
# DomCol


def _domcol_sense_ok(p, ctx, i, aj, ak) -> bool:
    """aj dominates ak on row i under its sense normalization."""
    rhs_fin = is_finite(p.row_rhs[i])
    lhs_fin = is_finite(p.row_lhs[i])
    if rhs_fin and lhs_fin:
        return ctx.approx_eq(aj, ak)
    if rhs_fin:
        return aj < ak or ctx.approx_eq(aj, ak)
    if lhs_fin:
        return aj > ak or ctx.approx_eq(aj, ak)
    return True


def _domcol_group(args) -> List[Transaction]:
    support, cols = args
    view = _VIEW
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for xi in range(len(cols)):
        for yi in range(xi + 1, len(cols)):
            j, k = cols[xi], cols[yi]
            cj, ck = p.obj[j], p.obj[k]
            j_over_k = ((cj < ck or ctx.approx_eq(cj, ck)) and all(
                _domcol_sense_ok(p, ctx, i, p.rows[i][j], p.rows[i][k])
                for i in support))
            k_over_j = ((ck < cj or ctx.approx_eq(cj, ck)) and all(
                _domcol_sense_ok(p, ctx, i, p.rows[i][k], p.rows[i][j])
                for i in support))
            for dom, sub in (((j, k) if j_over_k else (None, None)),
                             ((k, j) if k_over_j else (None, None))):
                if dom is None:
                    continue
                tx = _domcol_fix(view, support, dom, sub)
                if tx is not None:
                    txs.append(tx)
    return txs


def _domcol_fix(view, support, dom, sub) -> Optional[Transaction]:
    """Fix the dominated column when the dominating one has unlimited
    headroom to absorb the shifted mass (or vice versa)."""
    p = view.problem
    dom_int, sub_int = p.col_integral[dom], p.col_integral[sub]
    asserts = [assert_col_bounds(dom), assert_col_bounds(sub)]
    asserts += [assert_row(i) for i in support]
    if p.col_upper[dom] == INF and is_finite(p.col_lower[sub]):
        if (not dom_int) or sub_int:
            return Transaction("domcol", asserts + [
                ReductionStep(StepKind.FIX_COLUMN, col=sub,
                              value=p.col_lower[sub])])
    if p.col_lower[sub] == NEG_INF and is_finite(p.col_upper[dom]):
        if (not sub_int) or dom_int:
            return Transaction("domcol", asserts + [
                ReductionStep(StepKind.FIX_COLUMN, col=dom,
                              value=p.col_upper[dom])])
    return None


def run_domcol(view: PresolveView) -> List[Transaction]:
    """Detect dominated columns among columns with equal support."""
    p = view.problem
    buckets: Dict[tuple, List[int]] = {}
    for j in p.active_cols():
        entries = p.col_entries(j)
        if not entries:
            continue
        buckets.setdefault(tuple(i for i, _ in entries), []).append(j)
    groups = [(s, cols) for s, cols in sorted(buckets.items())
              if len(cols) >= 2]
    if not groups:
        return []
    return _fan_out(view, _domcol_chunk, groups,
                    len(groups) >= DOMCOL_PARALLEL_MIN_GROUPS)


def _domcol_chunk(groups) -> List[Transaction]:
    return [tx for g in groups for tx in _domcol_group(g)]


# ---------------------------------------------------------------------------
# DualInfer


def run_dualinfer(view: PresolveView) -> List[Transaction]:
    """Bound the dual multipliers via continuous columns' reduced-cost
    conditions; provably nonzero multipliers turn rows into equations,
    provably signed reduced costs fix columns."""
    p = view.problem
    ctx = view.ctx
    act = view.activities
    cont = [j for j in p.active_cols()
            if not p.col_integral[j] and p.cols[j]]
    if not cont:
        return []
    ylb = [NEG_INF] * p.nrows
    yub = [INF] * p.nrows
    for i in p.active_rows():
        if not is_finite(p.row_rhs[i]):
            ylb[i] = ctx.number(0)
        if not is_finite(p.row_lhs[i]):
            yub[i] = ctx.number(0)

    dual_rows = []
    for j in cont:
        entries = p.col_entries(j)
        il, iu = NEG_INF, INF
        cl, cu = p.col_lower[j], p.col_upper[j]
        for i, a in entries:
            lo_r, up_r = implied_bounds(ctx, act.snapshot(i), a, cl, cu,
                                        finite_side(p.row_lhs[i]),
                                        finite_side(p.row_rhs[i]), False)
            il = max(il, lo_r)
            iu = min(iu, up_r)
        free_below = (not is_finite(p.col_lower[j])) or (
            is_finite(il) and ctx.feas_geq(il, p.col_lower[j]))
        free_above = (not is_finite(p.col_upper[j])) or (
            is_finite(iu) and ctx.feas_leq(iu, p.col_upper[j]))
        if free_below and free_above:
            rel = "E"
        elif free_above:
            rel = "L"  # sum a*y <= c
        elif free_below:
            rel = "G"
        else:
            continue
        dual_rows.append((j, entries, rel, p.obj[j]))
    if not dual_rows:
        return []

    def dual_min_max(entries):
        mn, mx = ctx.number(0), ctx.number(0)
        n_mn = n_mx = 0
        for i, a in entries:
            lo, up = ylb[i], yub[i]
            if a > 0:
                if is_finite(lo):
                    mn = mn + a * lo
                else:
                    n_mn += 1
                if is_finite(up):
                    mx = mx + a * up
                else:
                    n_mx += 1
            else:
                if is_finite(up):
                    mn = mn + a * up
                else:
                    n_mn += 1
                if is_finite(lo):
                    mx = mx + a * lo
                else:
                    n_mx += 1
        return (NEG_INF if n_mn else mn), (INF if n_mx else mx), n_mn, n_mx

    for _ in range(2):
        for j, entries, rel, c in dual_rows:
            mn, mx, n_mn, n_mx = dual_min_max(entries)
            if rel in ("E", "L") and is_finite(mn) and not ctx.feas_leq(mn, c):
                return []  # dual system inconsistent: stay conservative
            if rel in ("E", "G") and is_finite(mx) and not ctx.feas_leq(c, mx):
                return []
            # the dual row sum a*y is <= c for "L", >= c for "G"
            lhs = c if rel in ("E", "G") else None
            rhs = c if rel in ("E", "L") else None
            for i, a in entries:
                lo, up = ylb[i], yub[i]
                lower, upper = implied_bounds(ctx, (mn, mx, n_mn, n_mx), a,
                                              lo, up, lhs, rhs, False)
                # INF/NEG_INF mean no bound; skipping them saves slow
                # Fraction comparisons
                if upper is not INF and upper < up:
                    yub[i] = upper
                if lower is not NEG_INF and lower > lo:
                    ylb[i] = lower
                if ylb[i] > yub[i] and not ctx.feas_leq(ylb[i], yub[i]):
                    return []

    txs: List[Transaction] = []
    for i in p.active_rows():
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        if is_finite(ylb[i]) and ylb[i] > ctx.feastol and is_finite(lhs) \
                and not p.is_equation(i):
            txs.append(Transaction("dualinfer", [
                assert_row(i), assert_row_bounds(i),
                ReductionStep(StepKind.CHANGE_RHS, row=i, value=lhs)]))
        elif is_finite(yub[i]) and yub[i] < -ctx.feastol and is_finite(rhs) \
                and not p.is_equation(i):
            txs.append(Transaction("dualinfer", [
                assert_row(i), assert_row_bounds(i),
                ReductionStep(StepKind.CHANGE_LHS, row=i, value=rhs)]))
    for j, entries, rel, c in dual_rows:
        mn, mx, n_mn, n_mx = dual_min_max(entries)
        dmin = c - mx if is_finite(mx) else NEG_INF
        dmax = c - mn if is_finite(mn) else INF
        if is_finite(dmin) and dmin > ctx.feastol \
                and is_finite(p.col_lower[j]):
            txs.append(Transaction("dualinfer", [
                assert_col_bounds(j),
                ReductionStep(StepKind.FIX_COLUMN, col=j,
                              value=p.col_lower[j])]))
        elif is_finite(dmax) and dmax < -ctx.feastol \
                and is_finite(p.col_upper[j]):
            txs.append(Transaction("dualinfer", [
                assert_col_bounds(j),
                ReductionStep(StepKind.FIX_COLUMN, col=j,
                              value=p.col_upper[j])]))
    return txs


# ---------------------------------------------------------------------------
# Probing


def _workspace(p) -> tuple:
    """Probing's workspace: copies of the column bounds, and whether each
    column's box is finite."""
    lower, upper = list(p.col_lower), list(p.col_upper)
    return lower, upper, [is_finite(lo) and is_finite(up)
                          for lo, up in zip(lower, upper)]


def _cache_row(rows: Dict[int, tuple], p, i: int, rtol: Number) -> tuple:
    """Row i's sorted entries as (col, coeff, need), its sides with an
    infinite one as None, and its largest need.  The need is `slack_need`
    from the problem's bounds, the call's global ones, with the screen's
    rtol."""
    lower, upper, integral = p.col_lower, p.col_upper, p.col_integral
    feastol = p.ctx.feastol
    entries = [(j, a, slack_need(a, lower[j], upper[j], integral[j],
                                 feastol, rtol))
               for j, a in p.row_entries(i)]
    row = rows[i] = (entries, finite_side(p.row_lhs[i]),
                     finite_side(p.row_rhs[i]),
                     max((need for _, _, need in entries), default=NEG_INF))
    return row


def _screen_threshold(st: list, lhs: Optional[Number],
                      rhs: Optional[Number], rtol: Number) -> Number:
    """The row screen's threshold for a row state with no infinite share:
    the smaller slack of the present sides less its rtol*(|side| + |sum|)
    margin, none when rtol is 0.  An entry whose need is below it cannot
    be tightened by the row (see `common.slack_need`); with no side,
    nothing can."""
    thr = INF
    if rhs is not None:
        thr = rhs - st[0]
        if rtol:
            thr -= rtol * (abs(rhs) + abs(st[0]))
    if lhs is not None:
        other = st[1] - lhs
        if rtol:
            other -= rtol * (abs(lhs) + abs(st[1]))
        if other < thr:
            thr = other
    return thr


def _probe_propagate(view: PresolveView, rows: Dict[int, tuple], k: int,
                     val: int, ws: Optional[tuple] = None):
    """Fix binary k to val and run up to two propagation passes on the
    workspace and on scratch copies of the row activities.  Returns
    {col: (lo, up)} for the columns whose bounds moved, or None if
    infeasible.

    ws is the workspace (lower, upper, boxed) of `_workspace`: copies of
    the column bounds and whether each global box is finite (a fresh one
    if None).  The branch writes its bounds there and lists the columns it
    changed; on the way out, infeasible exits included, those columns get
    their bounds back, so ws equals the problem's bounds again.
    rows caches, per row read, what `_cache_row` gives."""
    p = view.problem
    ctx = view.ctx
    act = view.activities
    col_lower, col_upper, cols = p.col_lower, p.col_upper, p.cols
    integral = p.col_integral
    feastol = ctx.feastol
    lower, upper, boxed = ws if ws is not None else _workspace(p)
    gate = ctx.mode is Mode.FLOAT64
    rtol = GATE_RTOL if gate else 0
    changed: List[int] = []
    rowstate: Dict[int, list] = {}

    def set_bounds(j, lo, up, new_lo, new_up):
        """Move column j's shares in its rows' overlays from (lo, up) to
        (new_lo, new_up).  In float64 the old share is subtracted, then the
        new one added, slot by slot, as `ModelUpdate` does; in rational
        mode, with all four bounds finite, the shares of the bounds that
        changed move by a times the difference, which is exactly the same.
        A branch only shrinks bounds, so a column with a finite global box
        has four finite bounds here."""
        if boxed[j]:
            all_fin = True
        else:
            lo_fin, up_fin = is_finite(lo), is_finite(up)
            new_lo_fin, new_up_fin = is_finite(new_lo), is_finite(new_up)
            all_fin = lo_fin and up_fin and new_lo_fin and new_up_fin
            # change of the count of infinite lower/upper bounds
            d_lo = (not new_lo_fin) - (not lo_fin)
            d_up = (not new_up_fin) - (not up_fin)
        shift = all_fin and not gate
        if shift:
            step_lo = new_lo - lo if new_lo != lo else None
            step_up = new_up - up if new_up != up else None
        for i, a in cols[j].items():
            st = rowstate.get(i)
            if st is None:
                st = rowstate[i] = list(act.snapshot(i))
            if shift:
                # the lower bound gives a positive entry's minimum share
                lo_slot = 0 if a > 0 else 1
                if step_lo is not None:
                    st[lo_slot] += a * step_lo
                if step_up is not None:
                    st[1 - lo_slot] += a * step_up
            elif all_fin:  # the common case, the same arithmetic
                if a > 0:
                    st[0] = st[0] - a * lo + a * new_lo
                    st[1] = st[1] - a * up + a * new_up
                else:
                    st[0] = st[0] - a * up + a * new_up
                    st[1] = st[1] - a * lo + a * new_lo
            elif a > 0:
                if lo_fin:
                    st[0] -= a * lo
                if new_lo_fin:
                    st[0] += a * new_lo
                if up_fin:
                    st[1] -= a * up
                if new_up_fin:
                    st[1] += a * new_up
                st[2] += d_lo
                st[3] += d_up
            else:
                if up_fin:
                    st[0] -= a * up
                if new_up_fin:
                    st[0] += a * new_up
                if lo_fin:
                    st[1] -= a * lo
                if new_lo_fin:
                    st[1] += a * new_lo
                st[2] += d_up
                st[3] += d_lo
        lower[j] = new_lo
        upper[j] = new_up
        changed.append(j)

    try:
        v = ctx.number(val)
        if v != lower[k] or v != upper[k]:
            set_bounds(k, lower[k], upper[k], v, v)
        affected = set(cols[k])
        for _ in range(2):
            next_affected = set()
            for i in sorted(affected):
                st = rowstate.get(i)
                if st is None:
                    st = rowstate[i] = list(act.snapshot(i))
                entries, lhs, rhs, top = rows.get(i) or _cache_row(rows, p, i,
                                                                   rtol)
                if rhs is not None and not ctx.feas_leq(
                        NEG_INF if st[2] else st[0], rhs):
                    return None
                if lhs is not None and not ctx.feas_leq(
                        lhs, INF if st[3] else st[1]):
                    return None
                # the row screen, for rows with no infinite share
                screen = not st[2] and not st[3]
                thr = _screen_threshold(st, lhs, rhs, rtol) if screen \
                    else NEG_INF
                if top < thr:
                    continue
                for j, a, need in entries:
                    if need < thr:
                        continue
                    lo, up = lower[j], upper[j]
                    if lo == up:
                        continue
                    lhs_j, rhs_j = lhs, rhs
                    if gate:
                        lhs_j, rhs_j = tightening_sides(
                            st, a, lo, up, lhs, rhs, integral[j], GATE_RTOL,
                            feastol)
                        if lhs_j is None and rhs_j is None:
                            continue
                    imp_lo, imp_up = implied_bounds(ctx, st, a, lo, up, lhs_j,
                                                    rhs_j, integral[j])
                    new_lo = imp_lo if imp_lo is not NEG_INF and imp_lo > lo \
                        else lo
                    new_up = imp_up if imp_up is not INF and imp_up < up \
                        else up
                    if new_lo > new_up and not ctx.feas_leq(new_lo, new_up):
                        return None
                    if new_lo is not lo or new_up is not up:
                        set_bounds(j, lo, up, new_lo, new_up)
                        next_affected.update(cols[j])
                        if screen:
                            thr = _screen_threshold(st, lhs, rhs, rtol)
            affected = next_affected
            if not affected:
                break
        for i, st in rowstate.items():
            _, lhs, rhs, _ = rows.get(i) or _cache_row(rows, p, i, rtol)
            if rhs is not None and not ctx.feas_leq(
                    NEG_INF if st[2] else st[0], rhs):
                return None
            if lhs is not None and not ctx.feas_leq(
                    lhs, INF if st[3] else st[1]):
                return None
        return {j: (lower[j], upper[j]) for j in changed}
    finally:
        for j in changed:
            lower[j] = col_lower[j]
            upper[j] = col_upper[j]


def _probe_merge(view: PresolveView, k: int, res0: Optional[dict],
                 res1: Optional[dict]) -> List[Transaction]:
    """Transactions from probing k's two branches, at least one feasible:
    fixings, global bounds and affine couplings."""
    p = view.problem
    ctx = view.ctx
    if res0 is None:
        return [Transaction("probing", [ReductionStep(
            StepKind.FIX_COLUMN, col=k, value=ctx.number(1))])]
    if res1 is None:
        return [Transaction("probing", [ReductionStep(
            StepKind.FIX_COLUMN, col=k, value=ctx.number(0))])]
    # a column moved in one branch only keeps its global bounds in the
    # other, so it gives no bound, and a coupling only when those bounds
    # are approx_eq but not equal
    touched = res0.keys() & res1.keys()
    for j in res0.keys() ^ res1.keys():
        lo, up = p.col_lower[j], p.col_upper[j]
        if lo != up and ctx.approx_eq(lo, up):
            touched.add(j)
    touched.discard(k)
    bound_steps = []
    aggregations = []
    for j in sorted(touched):
        lo0, up0 = res0.get(j, (p.col_lower[j], p.col_upper[j]))
        lo1, up1 = res1.get(j, (p.col_lower[j], p.col_upper[j]))
        glb, gub = min(lo0, lo1), max(up0, up1)
        integral = p.col_integral[j]
        if bound_improves_lower(ctx, p.col_lower[j], glb, integral):
            bound_steps.append(ReductionStep(StepKind.CHANGE_LOWER,
                                             col=j, value=glb))
        if bound_improves_upper(ctx, p.col_upper[j], gub, integral):
            bound_steps.append(ReductionStep(StepKind.CHANGE_UPPER,
                                             col=j, value=gub))
        forced0 = ctx.approx_eq(lo0, up0)
        forced1 = ctx.approx_eq(lo1, up1)
        if forced0 and forced1 and not ctx.approx_eq(lo0, lo1):
            alpha, beta = lo0, lo1 - lo0
            if p.col_integral[j] and not (ctx.is_integral(alpha)
                                          and ctx.is_integral(beta)):
                continue
            aggregations.append(Transaction("probing", [
                assert_col_bounds(j), assert_col_bounds(k),
                ReductionStep(StepKind.SUBSTITUTE_COLUMN, col=j, col2=k,
                              value=alpha, scale=beta)]))
    return [Transaction("probing", [step]) for step in bound_steps] \
        + aggregations


def _probe_chunk(candidates: List[int]) -> list:
    """The candidates' transactions in order.  A candidate whose two
    branches are both infeasible ends the chunk with an InfeasibleError,
    which run_probing raises."""
    view = _VIEW
    out: list = []
    for k in candidates:
        res0 = _probe_propagate(view, _SORTED_ROWS, k, 0, _BOUNDS)
        res1 = _probe_propagate(view, _SORTED_ROWS, k, 1, _BOUNDS)
        if res0 is None and res1 is None:
            out.append(InfeasibleError(
                f"probing {view.problem.col_names[k]}: both branches "
                f"infeasible"))
            break
        out.extend(_probe_merge(view, k, res0, res1))
    return out


def run_probing(view: PresolveView) -> List[Transaction]:
    """Probe binary columns to 0 and 1; derive fixings, global bounds and
    affine couplings from the two propagation branches."""
    p = view.problem
    binaries = [j for j in p.active_cols() if p.is_binary(j)]
    if view.is_fresh():
        changed_bins = binaries
    else:
        changed = set(view.scan_cols())
        changed_bins = [j for j in binaries if j in changed]
    cap = min(p.ncols, 10 * len(changed_bins))
    candidates = binaries[:cap]
    if not candidates:
        return []
    global _BOUNDS
    _BOUNDS = _workspace(p)
    txs = _fan_out(view, _probe_chunk, candidates,
                   len(candidates) >= PROBING_PARALLEL_MIN_CANDIDATES
                   and p.nnz >= PROBING_PARALLEL_MIN_NNZ)
    # chunks are contiguous, so the first error is the first candidate's
    for tx in txs:
        if isinstance(tx, InfeasibleError):
            raise tx
    return txs


# ---------------------------------------------------------------------------
# Substitution


def run_substitution(view: PresolveView) -> List[Transaction]:
    """Pick a pivot column in each equation and eliminate it everywhere."""
    p = view.problem
    ctx = view.ctx
    txs: List[Transaction] = []
    for i in view.scan_rows():
        if not p.is_equation(i):
            continue
        entries = p.row_entries(i)
        if len(entries) < 2:
            continue
        b = p.row_lhs[i]
        max_mag = max(abs(a) for _, a in entries)
        best = None
        for j, a in entries:
            if abs(a) < ctx.markowitz_threshold * max_mag or a == 0:
                continue
            if p.col_integral[j]:
                if not all(p.col_integral[k] for k, _ in entries if k != j):
                    continue
                if not ctx.is_integral(b / a):
                    continue
                if not all(ctx.is_integral(ak / a)
                           for k, ak in entries if k != j):
                    continue
                type_rank = 1
            else:
                type_rank = 0
            fill = (len(p.cols[j]) - 1) * (len(entries) - 2)
            key = (type_rank, fill, -abs(a), j)
            if best is None or key < best[0]:
                best = (key, j)
        if best is None:
            continue
        j = best[1]
        txs.append(Transaction("substitution", [
            assert_row(i), assert_row_bounds(i), assert_col_bounds(j),
            ReductionStep(StepKind.SUBSTITUTE_COLUMN, row=i, col=j)]))
    return txs


# ---------------------------------------------------------------------------
# Sparsify


def _sparsify_equation(e: int) -> List[Transaction]:
    view = _VIEW
    p = view.problem
    ctx = view.ctx
    eq_entries = p.row_entries(e)
    b = p.row_lhs[e]
    shared_count: Dict[int, int] = {}
    for j, _ in eq_entries:
        for t in p.cols[j]:
            if t != e:
                shared_count[t] = shared_count.get(t, 0) + 1
    txs: List[Transaction] = []
    for t in sorted(t for t, n in shared_count.items() if n >= 2):
        target = p.rows[t]
        best = None
        for j, aek in eq_entries:
            atk = target.get(j)
            if atk is None:
                continue
            s = -atk / aek
            canceled = 0
            for j2, ae2 in eq_entries:
                at2 = target.get(j2)
                if at2 is not None and ctx.eq_zero(at2 + s * ae2):
                    canceled += 1
            fill = sum(1 for j2, _ in eq_entries if j2 not in target)
            net = canceled - fill
            if canceled >= 2 and net >= 1:
                key = (-net, -canceled, j)
                if best is None or key < best[0]:
                    best = (key, s)
        if best is None:
            continue
        s = best[1]
        steps = [assert_row(e), assert_row_bounds(e),
                 assert_row(t), assert_row_bounds(t)]
        for j, aek in eq_entries:
            new = target.get(j, ctx.number(0)) + s * aek
            steps.append(ReductionStep(StepKind.CHANGE_COEFF, row=t, col=j,
                                       value=0 if ctx.eq_zero(new) else new))
        shift = s * b
        if is_finite(p.row_lhs[t]):
            steps.append(ReductionStep(StepKind.CHANGE_LHS, row=t,
                                       value=p.row_lhs[t] + shift))
        if is_finite(p.row_rhs[t]):
            steps.append(ReductionStep(StepKind.CHANGE_RHS, row=t,
                                       value=p.row_rhs[t] + shift))
        txs.append(Transaction("sparsify", steps))
    return txs


def _sparsify_chunk(eqs: List[int]) -> List[Transaction]:
    return [tx for e in eqs for tx in _sparsify_equation(e)]


def run_sparsify(view: PresolveView) -> List[Transaction]:
    """Add multiples of equations to overlapping rows to cancel nonzeros."""
    p = view.problem
    eqs = [i for i in p.active_rows()
           if p.is_equation(i) and len(p.rows[i]) >= 2]
    if not eqs:
        return []
    return _fan_out(view, _sparsify_chunk, eqs,
                    len(eqs) >= SPARSIFY_PARALLEL_MIN_EQS)
