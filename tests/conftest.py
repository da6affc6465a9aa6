"""Shared fixtures: problem builders, brute-force oracle, random instances."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest

from premip import (NumericContext, Problem, postsolve_primal, presolve)
from premip.numerics import INF, NEG_INF, Mode, is_finite


def make_problem(ctx, cols, rows, offset=0, obj=None):
    """cols: list of (lo, up, cost, integral); rows: (entries, lhs, rhs)."""
    p = Problem(ctx)
    for lo, up, cost, integral in cols:
        p.add_col(lo, up, cost, integral)
    for entries, lhs, rhs in rows:
        p.add_row(entries, lhs, rhs)
    p.obj_offset = ctx.number(offset)
    return p


def quotient(ctx, x, a):
    """x / a for a reference copy of premip code: IEEE division in
    float64, an exact Fraction in rational mode, never through a float."""
    if ctx.mode is Mode.RATIONAL:
        return Fraction(x) / Fraction(a)
    return x / a


# ---------------------------------------------------------------------------
# brute force oracle for pure-integer problems with finite domains


def _domains(problem):
    out = []
    for j in problem.active_cols():
        lo, up = problem.col_lower[j], problem.col_upper[j]
        assert problem.col_integral[j], "oracle needs integral columns"
        assert is_finite(lo) and is_finite(up), "oracle needs finite bounds"
        out.append((j, list(range(math.ceil(lo - 1e-9),
                                  math.floor(up + 1e-9) + 1))))
    return out


def point_feasible(problem, values: Dict[int, float], tol=1e-9) -> bool:
    for j in problem.active_cols():
        v = values[j]
        if v < problem.col_lower[j] - tol or v > problem.col_upper[j] + tol:
            return False
        if problem.col_integral[j] and abs(v - round(v)) > tol:
            return False
    for i in problem.active_rows():
        val = 0
        for j, a in problem.rows[i].items():
            val += a * values[j]
        if is_finite(problem.row_lhs[i]) and val < problem.row_lhs[i] - 1e-6:
            return False
        if is_finite(problem.row_rhs[i]) and val > problem.row_rhs[i] + 1e-6:
            return False
    return True


def brute_force(problem) -> Tuple[str, Optional[float], Optional[Dict[int, float]]]:
    """(status, optimum, argmin) by enumerating all integer assignments of
    the active columns.  status is 'optimal' or 'infeasible'."""
    doms = _domains(problem)
    cols = [j for j, _ in doms]
    best = None
    best_point = None
    if not doms:
        combos = [()]
    else:
        combos = itertools.product(*[vals for _, vals in doms])
    for combo in combos:
        values = dict(zip(cols, combo))
        ok = True
        for i in problem.active_rows():
            val = 0
            for j, a in problem.rows[i].items():
                val += a * values[j]
            lhs, rhs = problem.row_lhs[i], problem.row_rhs[i]
            if is_finite(lhs) and val < lhs - 1e-9:
                ok = False
                break
            if is_finite(rhs) and val > rhs + 1e-9:
                ok = False
                break
        if not ok:
            continue
        obj = problem.obj_offset
        for j in cols:
            obj += problem.obj[j] * values[j]
        if best is None or obj < best:
            best = obj
            best_point = values
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_point


def brute_force_mixed(problem):
    """(status, optimum, point) for problems with continuous columns:
    enumerate integer assignments, LP-minimize the continuous part."""
    from scipy.optimize import linprog
    act = problem.active_cols()
    int_cols = [j for j in act if problem.col_integral[j]]
    cont_cols = [j for j in act if not problem.col_integral[j]]
    doms = []
    for j in int_cols:
        lo, up = problem.col_lower[j], problem.col_upper[j]
        assert is_finite(lo) and is_finite(up)
        doms.append(list(range(math.ceil(lo - 1e-9),
                               math.floor(up + 1e-9) + 1)))
    best = None
    best_point = None
    unbounded = False
    combos = itertools.product(*doms) if doms else [()]
    for combo in combos:
        fixed = dict(zip(int_cols, combo))
        if not cont_cols:
            ok = True
            for i in problem.active_rows():
                val = sum(a * fixed[j] for j, a in problem.rows[i].items())
                if is_finite(problem.row_lhs[i]) and val < problem.row_lhs[i] - 1e-9:
                    ok = False
                    break
                if is_finite(problem.row_rhs[i]) and val > problem.row_rhs[i] + 1e-9:
                    ok = False
                    break
            if not ok:
                continue
            obj = problem.obj_offset + sum(problem.obj[j] * fixed[j]
                                           for j in int_cols)
            if best is None or obj < best:
                best, best_point = obj, dict(fixed)
            continue
        c = [float(problem.obj[j]) for j in cont_cols]
        pos = {j: k for k, j in enumerate(cont_cols)}
        A_ub, b_ub = [], []
        feasible_assignment = True
        for i in problem.active_rows():
            const = 0.0
            row = [0.0] * len(cont_cols)
            for j, a in problem.rows[i].items():
                if j in fixed:
                    const += float(a) * fixed[j]
                else:
                    row[pos[j]] = float(a)
            if is_finite(problem.row_rhs[i]):
                A_ub.append(row)
                b_ub.append(float(problem.row_rhs[i]) - const)
            if is_finite(problem.row_lhs[i]):
                A_ub.append([-v for v in row])
                b_ub.append(const - float(problem.row_lhs[i]))
        bounds = []
        for j in cont_cols:
            lo, up = problem.col_lower[j], problem.col_upper[j]
            bounds.append((None if not is_finite(lo) else float(lo),
                           None if not is_finite(up) else float(up)))
        res = linprog(c, A_ub=A_ub or None, b_ub=b_ub or None,
                      bounds=bounds, method="highs")
        if res.status == 3:
            unbounded = True
            continue
        if res.status != 0:
            continue
        obj = (problem.obj_offset + res.fun
               + sum(problem.obj[j] * fixed[j] for j in int_cols))
        if best is None or obj < best:
            best = obj
            best_point = dict(fixed)
            best_point.update({j: res.x[pos[j]] for j in cont_cols})
    if unbounded:
        return "unbounded", None, None
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_point


# ---------------------------------------------------------------------------
# random instance generators


def random_small_mip(rng: random.Random, ctx=None) -> Problem:
    """Up to 8 integral variables with at most 3 domain values, up to 6 rows.

    Most instances get sides anchored at a hidden feasible point; the rest
    draw sides freely so infeasible instances stay in the mix.
    """
    ctx = ctx or NumericContext.float64()
    p = Problem(ctx)
    ncols = rng.randint(1, 8)
    anchor = []
    for _ in range(ncols):
        lo = rng.randint(-2, 2)
        span = rng.randint(0, 2)
        cost = rng.randint(-3, 3)
        p.add_col(lo, lo + span, cost, integral=True)
        anchor.append(rng.randint(lo, lo + span))
    anchored = rng.random() < 0.6
    nrows = rng.randint(0, 6)
    for _ in range(nrows):
        size = rng.randint(1, min(4, ncols))
        cols = rng.sample(range(ncols), size)
        entries = {}
        for j in cols:
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            entries[j] = a
        if anchored:
            mid = sum(a * anchor[j] for j, a in entries.items())
            slack = rng.randint(0, 2)
        else:
            act_lo = sum(min(a * p.col_lower[j], a * p.col_upper[j])
                         for j, a in entries.items())
            act_hi = sum(max(a * p.col_lower[j], a * p.col_upper[j])
                         for j, a in entries.items())
            mid = rng.randint(int(act_lo) - 1, int(act_hi) + 1)
            slack = rng.randint(0, 3)
        kind = rng.random()
        if kind < 0.45:
            lhs, rhs = NEG_INF, mid + (slack if anchored else 0)
        elif kind < 0.8:
            lhs, rhs = mid - (slack if anchored else 0), INF
        elif kind < 0.92:
            lhs = rhs = mid
        else:
            lhs, rhs = mid, mid + slack
        p.add_row(entries, lhs, rhs)
    return p


def random_mixed_mip(rng: random.Random, ctx=None) -> Problem:
    """Small instances with continuous columns, equations and singleton
    columns; all bounds finite so the LP-based oracle applies."""
    ctx = ctx or NumericContext.float64()
    p = Problem(ctx)
    ncols = rng.randint(2, 7)
    for _ in range(ncols):
        lo = rng.randint(-3, 1)
        span = rng.randint(0, 4)
        cost = rng.randint(-3, 3)
        p.add_col(lo, lo + span, cost, integral=rng.random() < 0.6)
    nrows = rng.randint(1, 5)
    for _ in range(nrows):
        size = rng.randint(1, min(4, ncols))
        cols = rng.sample(range(ncols), size)
        entries = {j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in cols}
        act_lo = sum(min(a * p.col_lower[j], a * p.col_upper[j])
                     for j, a in entries.items())
        act_hi = sum(max(a * p.col_lower[j], a * p.col_upper[j])
                     for j, a in entries.items())
        mid = rng.randint(int(act_lo) - 1, int(act_hi) + 1)
        kind = rng.random()
        if kind < 0.3:
            p.add_row(entries, mid, mid)
        elif kind < 0.65:
            p.add_row(entries, NEG_INF, mid)
        else:
            p.add_row(entries, mid, INF)
    if rng.random() < 0.6 and p.nrows:
        # attach a continuous singleton column to a random row
        j = p.add_col(0, rng.randint(1, 4), rng.randint(-3, 3),
                      integral=False)
        i = rng.randrange(p.nrows)
        a = rng.choice([-2, -1, 1, 2])
        p.rows[i][j] = ctx.number(a)
        p.cols[j][i] = ctx.number(a)
        p.nnz += 1
    return p


def late_structure_mip(rng: random.Random, ctx=None) -> Problem:
    """Parallel rows, parallel columns, Stuffing candidates and two-entry
    equations that appear only after earlier reductions.

    Each gadget hides its structure behind a mask: a continuous column with
    positive cost that only loosens one <= row, which DualFix fixes at 0 in
    the first medium round, or a pair of parallel columns in an equation,
    which ParallelCols merges.  Row sides hold at a hidden integral point.
    """
    ctx = ctx or NumericContext.float64()
    p = Problem(ctx)
    nx = rng.randint(4, 8)
    anchor = []
    for _ in range(nx):
        up = rng.randint(1, 3)
        p.add_col(0, up, rng.randint(-3, 3), integral=True)
        anchor.append(rng.randint(0, up))

    def terms(k):
        return {j: rng.choice([-2, -1, 1, 2]) for j in rng.sample(range(nx), k)}

    def at_anchor(entries):
        return sum(a * anchor[j] for j, a in entries.items() if j < nx)

    def max_act(entries):
        return sum(max(a * p.col_lower[j], a * p.col_upper[j])
                   for j, a in entries.items())

    def mask(row):
        row[p.add_col(0, 5, rng.randint(1, 3), integral=False)] = 1
        return row

    # one range row over every base column gives each both locks
    every = {j: 1 for j in range(nx)}
    p.add_row(every, at_anchor(every) - 1, at_anchor(every) + 1)
    for _ in range(rng.randint(1, 3)):
        # rows that are parallel once their masks are fixed
        base, s = terms(3), rng.choice([2, 3])
        rhs = at_anchor(base) + rng.randint(0, 1)
        p.add_row(mask(dict(base)), NEG_INF, rhs)
        p.add_row(mask({j: s * a for j, a in base.items()}), NEG_INF,
                  s * rhs + rng.randint(0, s - 1))
    for _ in range(rng.randint(1, 2)):
        # columns whose supports agree once a masked singleton row goes
        s, c = rng.choice([2, 3]), rng.randint(-2, 2)
        y1 = p.add_col(0, 4, c, integral=False)
        y2 = p.add_col(0, 4, s * c, integral=False)
        for lhs_side in (False, True):
            row = terms(2)
            a = rng.choice([1, 2])
            row[y1], row[y2] = a, s * a
            mid = at_anchor(row) + a * (1 + s)  # y1 = y2 = 1
            p.add_row(row, mid - 1 if lhs_side else NEG_INF,
                      INF if lhs_side else mid + 1)
        p.add_row(mask({y1: 1}), NEG_INF, 5)
    for _ in range(rng.randint(1, 2)):
        # z1 becomes a singleton that Stuffing can push to its upper bound
        base = terms(2)
        z1 = p.add_col(0, 3, -3, integral=False)
        z2 = p.add_col(0, 4, -1, integral=False)
        p.add_row({**base, z1: 1, z2: 1}, NEG_INF, max_act(base) + 5)
        p.add_row(mask({z1: 1}), NEG_INF, 4)
    for _ in range(rng.randint(1, 2)):
        # an equation that keeps two entries once y2 merges into y1
        j, k = rng.sample(range(nx), 2)
        c = rng.randint(-2, 2)
        y1 = p.add_col(0, 4, c, integral=False)
        y2 = p.add_col(0, 4, 2 * c, integral=False)
        a = rng.choice([-2, -1, 1, 2])
        p.add_row({j: a, y1: 1, y2: 2}, a * anchor[j] + 3, a * anchor[j] + 3)
        p.add_row({k: 1, y1: 1, y2: 2}, NEG_INF, anchor[k] + 3 + rng.randint(0, 2))
    return p


def random_medium_mip(rng: random.Random, ncols: int, nrows: int,
                      ctx=None, continuous_share: float = 0.3) -> Problem:
    """Sparse random instance for determinism/scaling runs; sides are
    anchored at a hidden feasible point so most instances survive to
    several presolve rounds."""
    ctx = ctx or NumericContext.float64()
    p = Problem(ctx)
    anchor = []
    for j in range(ncols):
        integral = rng.random() > continuous_share
        lo = rng.choice([0, 0, 0, -5])
        span = rng.choice([1, 1, 2, 5, 10])
        cost = rng.randint(-5, 5)
        p.add_col(lo, lo + span, cost, integral=integral)
        anchor.append(rng.randint(lo, lo + span))
    for i in range(nrows):
        size = rng.randint(2, min(5, ncols))
        cols = rng.sample(range(ncols), size)
        entries = {j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in cols}
        at_anchor = sum(a * anchor[j] for j, a in entries.items())
        kind = rng.random()
        if kind < 0.1:
            p.add_row(entries, at_anchor, at_anchor)
        elif kind < 0.55:
            p.add_row(entries, NEG_INF, at_anchor + rng.randint(0, 4))
        else:
            p.add_row(entries, at_anchor - rng.randint(0, 4), INF)
    return p


def halfopen_medium_mip(seed: int) -> Problem:
    """The 300x250 medium instance of `seed` with a quarter of its bounds
    opened against the cost only: a lower bound where the cost is <= 0, an
    upper bound where it is >= 0.  It relaxes a feasible instance and
    keeps a finite optimum, so a presolve of it runs every tier."""
    p = random_medium_mip(random.Random(seed), 300, 250)
    rng = random.Random(seed)
    for j in range(p.ncols):
        if rng.random() < 0.25 and p.obj[j] <= 0:
            p.col_lower[j] = NEG_INF
        if rng.random() < 0.25 and p.obj[j] >= 0:
            p.col_upper[j] = INF
    return p


def to_rational(problem: Problem) -> Problem:
    """Clone a small-integer float problem into exact rational mode."""
    ctx = NumericContext.rational()
    q = Problem(ctx, problem.name)
    for j in range(problem.ncols):
        q.add_col(_rat(problem.col_lower[j]), _rat(problem.col_upper[j]),
                  _rat(problem.obj[j]), problem.col_integral[j],
                  problem.col_names[j])
    for i in range(problem.nrows):
        q.add_row({j: _rat(v) for j, v in problem.rows[i].items()},
                  _rat(problem.row_lhs[i]), _rat(problem.row_rhs[i]),
                  problem.row_names[i])
    q.obj_offset = _rat(problem.obj_offset)
    return q


def _rat(v):
    if not is_finite(v):
        return v
    return Fraction(v).limit_denominator(10**9)


# ---------------------------------------------------------------------------
# per-presolver soundness harness


def run_one_presolver(name, problem):
    """Run a single presolver against a fresh snapshot; returns
    (update, record, transactions)."""
    from premip.model import ModelUpdate
    from premip.presolvers import PresolveView, runner, run_trivial
    from premip.transactions import PostsolveRecord
    work = problem.copy()
    record = PostsolveRecord.for_problem(work)
    upd = ModelUpdate(work, record=record.entries)
    view = PresolveView(upd.problem, upd.activities)
    fn = run_trivial if name == "trivial" else runner(name)
    return upd, record, fn(view)


def presolver_soundness_check(name, problem, rng=None, mixed=False,
                              tol=1e-5):
    """Applying any prefix of one presolver's validated transactions must
    preserve the brute-force optimum, the feasibility status, and admit a
    feasible postsolve mapping."""
    from premip import apply_all, postsolve_primal
    from premip.model import InfeasibleError, UnboundedError
    oracle = brute_force_mixed if mixed else \
        (lambda q: brute_force(q))
    status, opt, _ = oracle(problem)
    try:
        upd, record, txs = run_one_presolver(name, problem)
    except InfeasibleError:
        assert status == "infeasible", f"{name}: false infeasibility claim"
        return
    except UnboundedError:
        assert status == "unbounded", f"{name}: false unboundedness claim"
        return
    if rng is not None and txs:
        txs = txs[:rng.randint(0, len(txs))]
    try:
        apply_all(upd, txs)
    except InfeasibleError:
        assert status == "infeasible", f"{name}: false infeasibility on apply"
        return
    s2, o2, pt2 = oracle(upd.problem)
    assert s2 == status, f"{name}: status drifted {status} -> {s2}"
    if status != "optimal":
        return
    assert abs(o2 - opt) <= tol, f"{name}: optimum drifted {opt} -> {o2}"
    sol = postsolve_primal(record, pt2)
    vals = {j: sol.values[j] for j in range(problem.ncols)}
    assert point_feasible(problem, vals), \
        f"{name}: postsolved point infeasible"
    assert abs(sol.objective - opt) <= tol, \
        f"{name}: postsolved objective {sol.objective} != {opt}"


# ---------------------------------------------------------------------------
# end-to-end check used by many tests


def roundtrip_check(problem: Problem, options=None, tol=1e-6) -> None:
    """Presolve, compare brute-force optima, and postsolve the reduced
    optimizer back into an original-space feasible point."""
    status, optimum, _ = brute_force(problem)
    result = presolve(problem, options)
    if result.verdict.value == "infeasible":
        assert status == "infeasible", \
            f"presolve says infeasible, oracle found optimum {optimum}"
        return
    assert result.verdict.value != "unbounded", \
        "unbounded verdict on a finite-domain instance"
    r_status, r_opt, r_point = brute_force(result.problem)
    assert r_status == status, \
        f"status drifted: original {status}, reduced {r_status}"
    if status == "infeasible":
        return
    assert abs(r_opt - optimum) <= tol, \
        f"optimum drifted: original {optimum}, reduced {r_opt}"
    solution = postsolve_primal(result.record, r_point or {})
    values = {j: solution.values[j] for j in range(problem.ncols)}
    assert point_feasible(problem, values), \
        "postsolved point infeasible for the original problem"
    assert abs(solution.objective - optimum) <= tol, \
        f"postsolved objective {solution.objective} != optimum {optimum}"
