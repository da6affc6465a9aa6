"""Rational mode holds every finite value exactly: an int when it is
integral, a Fraction when it is not, and never a float."""
import ast
import dataclasses
import math
import os
import random
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

import premip.scheduler as scheduler
from premip import (Verdict, postsolve_primal, presolve, read_record,
                    write_record)
from premip.model import ModelUpdate
from premip.numerics import exact

from conftest import (random_medium_mip, random_mixed_mip, random_small_mip,
                      to_rational)

GENERATORS = {
    "small": random_small_mip,
    "mixed": random_mixed_mip,
    "medium": lambda rng: random_medium_mip(rng, 24, 18),
}


def _floats(value, where):
    """(where, value) of every finite float in value: a number, a list or
    tuple, a dict's values or a dataclass's fields, at any depth."""
    if isinstance(value, float):
        if math.isfinite(value):
            yield where, value
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from _floats(v, f"{where}[{k}]")
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _floats(v, f"{where}[{k}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name),
                               f"{where}.{type(value).__name__}.{f.name}")


def _problem_floats(p, name):
    for field in ("obj", "col_lower", "col_upper", "row_lhs", "row_rhs",
                  "rows", "cols"):
        yield from _floats(getattr(p, field), f"{name}.{field}")
    yield from _floats(p.obj_offset, f"{name}.obj_offset")


def _exactly_feasible(p, point) -> bool:
    for j in p.active_cols():
        v = point[j]
        if not p.col_lower[j] <= v <= p.col_upper[j]:
            return False
        if p.col_integral[j] and v.denominator != 1:
            return False
    for i in p.active_rows():
        act = sum(a * point[j] for j, a in p.rows[i].items())
        if not p.row_lhs[i] <= act <= p.row_rhs[i]:
            return False
    return True


def _reduced_point(p):
    """An exactly feasible point of the reduced problem, keyed by original
    column, or None: HiGHS's optimum with integral values rounded and the
    others snapped to the nearest fraction with a small denominator (the
    vertices of these small-coefficient rows have such coordinates)."""
    cols = p.active_cols()
    if not cols:
        return {}
    pos = {j: k for k, j in enumerate(cols)}
    rows = p.active_rows()
    matrix = np.zeros((max(len(rows), 1), len(cols)))
    for r, i in enumerate(rows):
        for j, a in p.rows[i].items():
            matrix[r, pos[j]] = float(a)
    lhs = [float(p.row_lhs[i]) for i in rows] or [-np.inf]
    rhs = [float(p.row_rhs[i]) for i in rows] or [np.inf]
    res = milp(np.array([float(p.obj[j]) for j in cols]),
               constraints=LinearConstraint(matrix, lhs, rhs),
               integrality=np.array([int(p.col_integral[j]) for j in cols]),
               bounds=Bounds([float(p.col_lower[j]) for j in cols],
                             [float(p.col_upper[j]) for j in cols]))
    if res.status != 0:
        return None
    point = {j: round(x) if p.col_integral[j]
             else exact(Fraction(x).limit_denominator(1000))
             for j, x in zip(cols, res.x)}
    return point if _exactly_feasible(p, point) else None


class TestNoFloatInRationalMode:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 2**32),
           st.booleans())
    def test_presolve_record_postsolve(self, kind, seed, text):
        """presolve -> write_record/read_record -> postsolve_primal on a
        rational copy: no finite float in the problem data before and
        after, in the running activity sums, in the record as made and as
        read back, or in the postsolved values."""
        p = to_rational(GENERATORS[kind](random.Random(seed)))
        assert not list(_problem_floats(p, "input"))
        updates = []

        class Recording(ModelUpdate):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                updates.append(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheduler, "ModelUpdate", Recording)
            result = presolve(p)
        found = list(_problem_floats(result.problem, "reduced"))
        for upd in updates:
            found += _floats(upd.activities.state, "activities")
        record = result.record
        found += _floats(record.entries, "entries")
        found += _floats([record.objective, record.objective_offset],
                         "objective")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "record")
            write_record(record, path, text=text)
            back = read_record(path)
        assert back.entries == record.entries
        found += _floats(back.entries, "read entries")
        point = None
        if result.verdict in (Verdict.REDUCED, Verdict.UNCHANGED):
            point = _reduced_point(result.problem)
        if point is not None:
            solution = postsolve_primal(back, point)
            found += _floats([solution.values, solution.objective],
                             "postsolved")
        event(f"{kind}: {'postsolved' if point is not None else 'no point'}")
        assert not found, found[:5]
        assert updates


# ---------------------------------------------------------------------------
# every division of model numbers goes through numerics.div

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "premip")

# (module, function) -> number of bare divisions allowed there: div itself,
# and the float statistics of the conflict report
ALLOWED_DIVISIONS = {
    ("numerics.py", "div"): 1,
    ("report.py", "shifted_geomean"): 1,
    ("report.py", "build_report"): 3,
}


def _divisions(path):
    """(function, line) of every `/` and `/=` in a module."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            out.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_no_bare_division_outside_div():
    """int / int gives a float, so premip divides model numbers only
    through numerics.div."""
    counts = {}
    stray = []
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(root, name), SRC)
            for func, line in _divisions(os.path.join(root, name)):
                key = (rel, func)
                counts[key] = counts.get(key, 0) + 1
                if key not in ALLOWED_DIVISIONS:
                    stray.append(f"{rel}:{line} in {func}")
    assert not stray, stray
    assert counts == ALLOWED_DIVISIONS
