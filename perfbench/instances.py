"""Seeded instance generators for the benchmark workloads.

`random_medium_mip` and `probing_chain_instance` reproduce the generators of
the same names in `tests/conftest.py` and `tests/test_acceptance.py` draw for
draw; `test_perfbench.py` checks that both give equal `stable_hash`.

`relabel` draws a random order of the rows and columns of a problem.  The
workloads apply it to fixed base instances, so that the seed changes the
input premip receives (every index, and every tie broken by index order)
without changing how much work the instance holds.
"""
from __future__ import annotations

import random
from typing import Optional

from premip import NumericContext, Problem
from premip.numerics import INF, NEG_INF


def random_medium_mip(rng: random.Random, ncols: int, nrows: int,
                      ctx: Optional[NumericContext] = None,
                      continuous_share: float = 0.3) -> Problem:
    """Sparse random instance whose sides are anchored at a hidden feasible
    point, so it survives several presolve rounds."""
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
    for _ in range(nrows):
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


def probing_chain_instance(n: int = 2400, w: int = 10,
                           pair_every: int = 4) -> Problem:
    """Binary ring with w-ary forcing rows plus implication-chain rows.

    Setting every column to 1 is optimal, so the optimum is minus the number
    of columns j with j % 97 == 0, that is -ceil(n / 97)."""
    p = Problem(NumericContext.float64())
    for j in range(n):
        p.add_col(0, 1, obj=(-1 if j % 97 == 0 else 0), integral=True)
    for i in range(n):
        window = [(i + k) % n for k in range(1, w + 1)]
        entries = {i: w}
        for j in window:
            entries[j] = -1
        p.add_row(entries, NEG_INF, 0)
        if i % pair_every == 0:
            p.add_row({window[0]: 1, i: -1}, NEG_INF, 0)
    return p


def probing_chain_optimum(n: int) -> int:
    return -((n + 96) // 97)


def relabel(problem: Problem, rng: random.Random, name: str) -> Problem:
    """The same problem with rows and columns in a random order; names move
    with their row or column."""
    col_order = list(range(problem.ncols))
    rng.shuffle(col_order)
    row_order = list(range(problem.nrows))
    rng.shuffle(row_order)
    new_index = {j: k for k, j in enumerate(col_order)}
    q = Problem(problem.ctx, name)
    for j in col_order:
        q.add_col(problem.col_lower[j], problem.col_upper[j], problem.obj[j],
                  problem.col_integral[j], problem.col_names[j])
    for i in row_order:
        q.add_row({new_index[j]: a for j, a in problem.rows[i].items()},
                  problem.row_lhs[i], problem.row_rhs[i], problem.row_names[i])
    q.obj_offset = problem.obj_offset
    return q
