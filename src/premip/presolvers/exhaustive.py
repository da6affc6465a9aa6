"""Exhaustive presolvers; Probing, DomCol and Sparsify fan their iteration
space out to forked workers when a call has more than one worker and at
least FORK_MIN_ITEMS items, the one gate of all three.  ImplInt and
Substitution scan only the changed rows after their first call, as the
medium presolvers do, and DomCol rebuilds only the support buckets of the
columns it scans, as ParallelCols does.  DualInfer and Sparsify scan
everything on every call: a dual bound, or a target row, depends on rows
the journal does not list next to the scanned item.

`_fan_out` maps one function per item, a DomCol group, a probing
candidate or a Sparsify equation, and each worker turns its items into
transactions, so only transactions come back to the parent; the pool's
own chunking groups the items.  The functions are closures over the view
and, for probing, over the call's row cache and workspace; `fork_map`
hands them to workers that inherit them, so no module global carries
them.

Probing's first call probes every active binary, in one fan-out.  A later
call orders its candidates with the binaries changed since the previous
call first, in index order, and the other active binaries after them,
and probes nothing when no binary changed.  It probes them in fixed
batches of PROBING_BATCH, one fan-out each, and stops after the first
batch that yields no transaction, a working limit like the one that ends
probing after a run of useless probes in Achterberg, "Constraint Integer
Programming" (2007).  The batches do not depend on the worker count, so
neither does the output.

Probing copies the column bounds once per call into a workspace of two
arrays; forked workers inherit it.  A branch writes its bounds there,
lists the columns it changed and puts their bounds back when it ends,
infeasible exits included; the row activities it moves live in scratch
copies of the rows it touches.  The sorted entries and resolved sides of
the rows it reads are kept for the call.

The row screen of `common.screen_threshold`, the one early exit in front
of the kernel, runs in both modes with `common.screen_rtol`'s margin.
When a row is first read, each entry's `common.slack_need`, which
includes the whole step an integral column's bound needs, is computed
from the call's global bounds; they bound its need in every branch
because a branch only shrinks bounds.  On each visit of a row, the row's
threshold is compared with those needs.  An entry whose need is below it
is skipped, and the whole row when its largest need is; the threshold is
recomputed after each bound change in the row.  Every other unfixed
entry goes to the kernel.

A branch's bound change moves the column's shares in its rows' scratch
activities with `model.move_shares`, the rule `ModelUpdate` uses for the
problem's sums.

The merge of a candidate's two branches loops only over the columns both
branches moved: a column moved in one branch keeps its global bounds in
the other, so the union of its two boxes is its global box and gives no
bound.  It gives a coupling only when those global bounds are approx_eq
without being equal, so such columns are kept too."""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..model import InfeasibleError, add_shares, move_shares
from ..numerics import (INF, NEG_INF, Mode, Number, bound_improves_lower,
                        bound_improves_upper, div, is_finite)
from ..parallel import fork_map
from ..transactions import (ReductionStep, StepKind, Transaction, assert_row,
                            assert_row_bounds, assert_col_bounds)
from .common import (PresolveView, _support_buckets, finite_side,
                     implied_bounds, screen_rtol, screen_threshold,
                     slack_need)

# candidates a probing call that is not its first probes between two
# checks for progress; a batch that yields nothing ends the call
PROBING_BATCH = 64

# items below which a fan-out runs in-process: forking would cost more
FORK_MIN_ITEMS = 192


def _fan_out(view: PresolveView, fn: Callable[[Any], list],
             items: list) -> list:
    """The lists fn(item) gives, joined in item order.  With one worker or
    fewer than FORK_MIN_ITEMS items, runs fn here, item by item, and the
    first InfeasibleError propagates.  Else hands the items to fork_map,
    which runs them on at most view.workers processes and never more than
    the usable CPUs; an item whose fn raises InfeasibleError returns the
    error, and the first error in item order is raised, so neither the
    output nor which error does depends on the host."""
    if view.workers <= 1 or len(items) < FORK_MIN_ITEMS:
        return [tx for item in items for tx in fn(item)]

    def guarded(item):
        try:
            return fn(item)
        except InfeasibleError as err:
            return err

    found: list = []
    for out in fork_map(guarded, items, view.workers):
        if isinstance(out, InfeasibleError):
            raise out
        found.extend(out)
    return found


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
        if not ctx.is_integral(div(b, piv)):
            continue
        if all(ctx.is_integral(div(a, piv)) for k, a in entries if k != j):
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


def _domcol_group(view: PresolveView, support, cols) -> List[Transaction]:
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
    """Detect dominated columns among columns with equal support.  A group
    with no scanned column found nothing in the previous call: an applied
    transaction of it would have changed one of its columns, and an
    unapplied one lists them in this view."""
    p = view.problem
    buckets = _support_buckets(view, p.cols, p.rows, view.scan_cols(), 1)
    groups = [(s, cols) for s, cols in sorted(buckets.items())
              if len(cols) >= 2]
    return _fan_out(view, lambda group: _domcol_group(view, *group), groups)


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
            lo_r, up_r = implied_bounds(ctx, act.state[i], a, cl, cu,
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
        st = [ctx.number(0), ctx.number(0), 0, 0]
        for i, a in entries:
            add_shares(st, a, ylb[i], yub[i])
        mn, mx, n_mn, n_mx = st
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
                # INF/NEG_INF mean no bound; skipping them saves
                # comparisons with an infinity
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
    """Probing's workspace: copies of the column bounds."""
    return list(p.col_lower), list(p.col_upper)


class _Overlay(dict):
    """A branch's scratch row states: a row's state is copied from the
    problem's the first time the branch reads it."""

    def __init__(self, states: list):
        super().__init__()
        self.states = states

    def __missing__(self, i: int) -> list:
        st = self[i] = list(self.states[i])
        return st


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


def _probe_propagate(view: PresolveView, rows: Dict[int, tuple], k: int,
                     val: int, ws: Optional[tuple] = None):
    """Fix binary k to val and run up to two propagation passes on the
    workspace and on scratch copies of the row activities.  Returns
    {col: (lo, up)} for the columns whose bounds moved, or None if
    infeasible.

    ws is the workspace (lower, upper) of `_workspace`: copies of the
    column bounds (a fresh one if None).  The branch writes its bounds
    there and lists the columns it changed; on the way out, infeasible
    exits included, those columns get their bounds back, so ws equals the
    problem's bounds again.  rows caches, per row read, what `_cache_row`
    gives."""
    p = view.problem
    ctx = view.ctx
    col_lower, col_upper, cols = p.col_lower, p.col_upper, p.cols
    integral = p.col_integral
    lower, upper = ws if ws is not None else _workspace(p)
    exact = ctx.mode is Mode.RATIONAL
    rtol = screen_rtol(ctx)
    changed: List[int] = []
    rowstate = _Overlay(view.activities.state)

    try:
        v = ctx.number(val)
        if v != lower[k] or v != upper[k]:
            move_shares(rowstate, cols[k].items(), lower[k], upper[k], v, v,
                        exact)
            lower[k] = upper[k] = v
            changed.append(k)
        affected = set(cols[k])
        for _ in range(2):
            next_affected = set()
            for i in sorted(affected):
                st = rowstate[i]
                entries, lhs, rhs, top = rows.get(i) or _cache_row(rows, p, i,
                                                                   rtol)
                if rhs is not None and not ctx.feas_leq(
                        NEG_INF if st[2] else st[0], rhs):
                    return None
                if lhs is not None and not ctx.feas_leq(
                        lhs, INF if st[3] else st[1]):
                    return None
                thr = screen_threshold(st, lhs, rhs, rtol)
                if top < thr:
                    continue
                for j, a, need in entries:
                    if need < thr:
                        continue
                    lo, up = lower[j], upper[j]
                    if lo == up:
                        continue
                    imp_lo, imp_up = implied_bounds(ctx, st, a, lo, up, lhs,
                                                    rhs, integral[j])
                    new_lo = imp_lo if imp_lo is not NEG_INF and imp_lo > lo \
                        else lo
                    new_up = imp_up if imp_up is not INF and imp_up < up \
                        else up
                    if new_lo > new_up and not ctx.feas_leq(new_lo, new_up):
                        return None
                    if new_lo is not lo or new_up is not up:
                        move_shares(rowstate, cols[j].items(), lo, up,
                                    new_lo, new_up, exact)
                        lower[j], upper[j] = new_lo, new_up
                        changed.append(j)
                        next_affected.update(cols[j])
                        thr = screen_threshold(st, lhs, rhs, rtol)
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
    """Transactions from probing k's two branches: fixings, global bounds
    and affine couplings.  Both branches infeasible raise InfeasibleError."""
    p = view.problem
    ctx = view.ctx
    if res0 is None and res1 is None:
        raise InfeasibleError(
            f"probing {p.col_names[k]}: both branches infeasible")
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


def run_probing(view: PresolveView) -> List[Transaction]:
    """Probe binary columns to 0 and 1; derive fixings, global bounds and
    affine couplings from the two propagation branches.

    The first call probes every active binary in one fan-out.  A later
    call probes the binaries changed since the previous call, in index
    order, and then the other active binaries, in batches of
    PROBING_BATCH; it stops after the first batch that yields no
    transaction, and probes nothing when no binary changed.  A candidate
    whose two branches are both infeasible raises InfeasibleError and
    ends the call."""
    p = view.problem
    binaries = [j for j in p.active_cols() if p.is_binary(j)]
    if not binaries:
        return []
    if view.is_fresh():
        batches = [binaries]
    else:
        changed = set(view.scan_cols())
        first = [j for j in binaries if j in changed]
        if not first:
            return []
        ordered = first + [j for j in binaries if j not in changed]
        batches = [ordered[s:s + PROBING_BATCH]
                   for s in range(0, len(ordered), PROBING_BATCH)]
    # the batches of the call share its row cache and workspace
    rows: Dict[int, tuple] = {}
    ws = _workspace(p)

    def probe(k: int) -> List[Transaction]:
        return _probe_merge(view, k, _probe_propagate(view, rows, k, 0, ws),
                            _probe_propagate(view, rows, k, 1, ws))

    txs: List[Transaction] = []
    for batch in batches:
        found = _fan_out(view, probe, batch)
        if not found:
            break
        txs.extend(found)
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
                if not ctx.is_integral(div(b, a)):
                    continue
                if not all(ctx.is_integral(div(ak, a))
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


def _sparsify_equation(view: PresolveView, e: int) -> List[Transaction]:
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
            s = div(-atk, aek)
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


def run_sparsify(view: PresolveView) -> List[Transaction]:
    """Add multiples of equations to overlapping rows to cancel nonzeros."""
    p = view.problem
    eqs = [i for i in p.active_rows()
           if p.is_equation(i) and len(p.rows[i]) >= 2]
    return _fan_out(view, lambda e: _sparsify_equation(view, e), eqs)
