"""Correctness oracle that premip does not take part in.

`Model` copies an instance out of the generator's `Problem` into plain lists
at set-up, before premip sees the MPS file.  The reference optimum comes from
HiGHS (`scipy.optimize.milp`) on that copy, or from a closed form.  A
postsolved point is checked against the copy: bounds, integrality and rows
within `feastol` in float64, exactly in rational mode, and its objective
against the reference.
"""
from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

FEASTOL = 1e-6
_HIGHS_OPTIONS = {"mip_rel_gap": 0.0}


@contextmanager
def _quiet_stdout():
    """HiGHS prints progress lines from native code straight to file
    descriptor 1; send them to /dev/null so stdout keeps only results."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


class OracleError(RuntimeError):
    """The reference itself could not be established."""


@dataclass
class Model:
    exact: bool
    obj: List
    offset: object
    lower: List
    upper: List
    integral: List[bool]
    rows: List[Tuple[Tuple[Tuple[int, object], ...], object, object]]

    @staticmethod
    def of(problem, exact: bool) -> "Model":
        return Model(
            exact=exact, obj=list(problem.obj), offset=problem.obj_offset,
            lower=list(problem.col_lower), upper=list(problem.col_upper),
            integral=list(problem.col_integral),
            rows=[(tuple(sorted(problem.rows[i].items())),
                   problem.row_lhs[i], problem.row_rhs[i])
                  for i in range(problem.nrows)])


def highs_solve(cols: Sequence[int], obj, lower, upper, integral,
                rows) -> List[float]:
    """Optimal values of `cols` for min obj.x over rows (entries indexed by
    column id, lhs, rhs); raises OracleError unless HiGHS proves optimality."""
    pos = {j: k for k, j in enumerate(cols)}
    data, ri, ci = [], [], []
    lhs, rhs = [], []
    for r, (entries, lo, hi) in enumerate(rows):
        for j, a in entries:
            data.append(float(a))
            ri.append(r)
            ci.append(pos[j])
        lhs.append(float(lo))
        rhs.append(float(hi))
    constraints = []
    if rows:
        matrix = csr_matrix((data, (ri, ci)), shape=(len(rows), len(cols)))
        constraints.append(LinearConstraint(matrix, lhs, rhs))
    with _quiet_stdout():
        res = milp(np.array([float(c) for c in obj]),
                   constraints=constraints,
                   integrality=np.array([1 if i else 0 for i in integral]),
                   bounds=Bounds(np.array([float(v) for v in lower]),
                                 np.array([float(v) for v in upper])),
                   options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise OracleError(f"HiGHS status {res.status}: {res.message}")
    return [float(v) for v in res.x]


def _snap(value: float, integral: bool, exact: bool):
    if integral:
        value = float(round(value))
    return Fraction(value) if exact else value


def solve_reduced(problem, exact: bool) -> Dict[int, object]:
    """HiGHS optimum of premip's reduced problem, keyed by original column
    index as `postsolve_primal` expects."""
    cols = problem.active_cols()
    if not cols:
        return {}
    rows = [(tuple(problem.rows[i].items()), problem.row_lhs[i],
             problem.row_rhs[i]) for i in problem.active_rows()]
    x = highs_solve(cols, [problem.obj[j] for j in cols],
                    [problem.col_lower[j] for j in cols],
                    [problem.col_upper[j] for j in cols],
                    [problem.col_integral[j] for j in cols], rows)
    return {j: _snap(v, problem.col_integral[j], exact)
            for j, v in zip(cols, x)}


def objective(model: Model, values: Sequence) -> object:
    return model.offset + sum(c * values[j] for j, c in enumerate(model.obj)
                              if c != 0)


def _leq(a, b, exact: bool) -> bool:
    if exact:
        return a <= b
    return a <= b + FEASTOL * max(1.0, abs(a), abs(b))


def _finite(v) -> bool:
    return not (isinstance(v, float) and math.isinf(v))


def violation(model: Model, values: Sequence) -> Optional[str]:
    """First reason `values` is infeasible for the model, or None."""
    exact = model.exact
    if len(values) != len(model.obj):
        return f"point has {len(values)} values for {len(model.obj)} columns"
    for j, v in enumerate(values):
        if _finite(model.lower[j]) and not _leq(model.lower[j], v, exact):
            return f"column {j} = {v} below {model.lower[j]}"
        if _finite(model.upper[j]) and not _leq(v, model.upper[j], exact):
            return f"column {j} = {v} above {model.upper[j]}"
        if model.integral[j] and not _leq(abs(v - round(v)), 0, exact):
            return f"column {j} = {v} not integral"
    for i, (entries, lhs, rhs) in enumerate(model.rows):
        act = sum(a * values[j] for j, a in entries)
        if _finite(lhs) and not _leq(lhs, act, exact):
            return f"row {i}: activity {act} below {lhs}"
        if _finite(rhs) and not _leq(act, rhs, exact):
            return f"row {i}: activity {act} above {rhs}"
    return None


def reference_optimum(model: Model) -> object:
    """Optimum by HiGHS, confirmed by checking HiGHS's point in the model
    (exactly, in rational mode)."""
    cols = range(len(model.obj))
    x = highs_solve(cols, model.obj, model.lower, model.upper,
                    model.integral, model.rows)
    values = [_snap(x[j], model.integral[j], model.exact) for j in cols]
    reason = violation(model, values)
    if reason is not None:
        raise OracleError(f"HiGHS reference point infeasible: {reason}")
    return objective(model, values)


def check_point(model: Model, values: Sequence, reference) -> Optional[str]:
    """None when `values` is feasible and attains `reference`."""
    reason = violation(model, values)
    if reason is not None:
        return reason
    value = objective(model, values)
    if model.exact:
        same = value == reference
    else:
        same = abs(value - reference) <= FEASTOL * max(1.0, abs(reference))
    if not same:
        return f"objective {value} differs from reference {reference}"
    return None
