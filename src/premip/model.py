"""In-memory MIP representation.

The problem is  min c'x + offset,  lhs <= Ax <= rhs,  lb <= x <= ub,  with a
subset of integral columns.  The constraint matrix is stored twice: a
row-major view (dict col -> coeff per row) and a column-major view (dict
row -> coeff per column).  Both views are kept synchronized by every
mutation; deactivating a row or column removes its entries from the
opposite view immediately, so iteration never has to filter dead entries.

All mutations are funneled through ModelUpdate, which also maintains row
activities, lock counts, per-round modification flags, the change journal,
reduction counters and the postsolve record.  Presolvers never mutate.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .numerics import (INF, NEG_INF, Mode, Number, NumericContext,
                       is_finite)


class ColState(Enum):
    ACTIVE = "active"
    FIXED = "fixed"
    SUBSTITUTED = "substituted"
    INACTIVE = "inactive"


class InfeasibleError(Exception):
    """Raised when an applied change proves the problem primal infeasible."""


class UnboundedError(Exception):
    """Raised when a change proves the objective unbounded (if feasible)."""


# ---------------------------------------------------------------------------
# problem data


class Problem:
    def __init__(self, ctx: NumericContext, name: str = "problem"):
        self.ctx = ctx
        self.name = name
        self.obj: List[Number] = []
        self.obj_offset: Number = ctx.number(0)
        self.col_lower: List[Number] = []
        self.col_upper: List[Number] = []
        self.col_integral: List[bool] = []
        self.col_state: List[ColState] = []
        self.col_names: List[str] = []
        self.row_lhs: List[Number] = []
        self.row_rhs: List[Number] = []
        self.row_active: List[bool] = []
        self.row_names: List[str] = []
        self.rows: List[Dict[int, Number]] = []
        self.cols: List[Dict[int, Number]] = []
        self.nnz = 0

    # -- construction ------------------------------------------------------

    def add_col(self, lower: Number, upper: Number, obj: Number = 0,
                integral: bool = False, name: Optional[str] = None) -> int:
        j = len(self.col_lower)
        ctx = self.ctx
        self.col_lower.append(lower if not is_finite(lower) else ctx.number(lower))
        self.col_upper.append(upper if not is_finite(upper) else ctx.number(upper))
        self.obj.append(ctx.number(obj))
        self.col_integral.append(integral)
        self.col_state.append(ColState.ACTIVE)
        self.col_names.append(name if name is not None else f"C{j}")
        self.cols.append({})
        return j

    def add_row(self, entries: Dict[int, Number], lhs: Number = NEG_INF,
                rhs: Number = INF, name: Optional[str] = None) -> int:
        i = len(self.row_lhs)
        ctx = self.ctx
        self.row_lhs.append(lhs if not is_finite(lhs) else ctx.number(lhs))
        self.row_rhs.append(rhs if not is_finite(rhs) else ctx.number(rhs))
        self.row_active.append(True)
        self.row_names.append(name if name is not None else f"R{i}")
        row = {}
        for j, v in entries.items():
            v = ctx.number(v)
            if v == 0:
                continue
            row[j] = v
            self.cols[j][i] = v
            self.nnz += 1
        self.rows.append(row)
        return i

    # -- dimensions --------------------------------------------------------

    @property
    def ncols(self) -> int:
        return len(self.col_lower)

    @property
    def nrows(self) -> int:
        return len(self.row_lhs)

    def active_cols(self) -> List[int]:
        return [j for j in range(self.ncols) if self.col_state[j] is ColState.ACTIVE]

    def active_rows(self) -> List[int]:
        return [i for i in range(self.nrows) if self.row_active[i]]

    def col_is_active(self, j: int) -> bool:
        return self.col_state[j] is ColState.ACTIVE

    def row_is_active(self, i: int) -> bool:
        return self.row_active[i]

    # -- access ------------------------------------------------------------

    def row_entries(self, i: int) -> List[Tuple[int, Number]]:
        return sorted(self.rows[i].items())

    def col_entries(self, j: int) -> List[Tuple[int, Number]]:
        return sorted(self.cols[j].items())

    def entry(self, i: int, j: int) -> Number:
        return self.rows[i].get(j, self.ctx.number(0))

    def is_equation(self, i: int) -> bool:
        l, r = self.row_lhs[i], self.row_rhs[i]
        return is_finite(l) and is_finite(r) and self.ctx.approx_eq(l, r)

    def is_binary(self, j: int) -> bool:
        return (self.col_integral[j] and self.col_lower[j] == 0
                and self.col_upper[j] == 1)

    # -- integrity ---------------------------------------------------------

    def check_consistent(self) -> None:
        """Audit both matrix views; raises AssertionError on divergence."""
        row_triples = set()
        nnz = 0
        for i in range(self.nrows):
            if not self.row_active[i]:
                assert not self.rows[i], f"inactive row {i} keeps entries"
                continue
            for j, v in self.rows[i].items():
                assert v != 0, f"explicit zero at ({i},{j})"
                assert self.col_state[j] is ColState.ACTIVE, \
                    f"row {i} references dead column {j}"
                row_triples.add((i, j, v))
                nnz += 1
        col_triples = set()
        for j in range(self.ncols):
            if self.col_state[j] is not ColState.ACTIVE:
                assert not self.cols[j], f"dead column {j} keeps entries"
                continue
            for i, v in self.cols[j].items():
                assert self.row_active[i], f"column {j} references dead row {i}"
                col_triples.add((i, j, v))
        assert row_triples == col_triples, "row view and column view diverge"
        assert nnz == self.nnz, f"nnz counter {self.nnz} != actual {nnz}"

    def validate(self) -> List[str]:
        """Sanity warnings for freshly loaded problems."""
        warnings = []
        ctx = self.ctx
        for j in self.active_cols():
            lo, up = self.col_lower[j], self.col_upper[j]
            if lo > up:
                warnings.append(f"column {self.col_names[j]}: lower bound above upper")
            for v in (lo, up):
                if ctx.is_huge(v):
                    warnings.append(f"column {self.col_names[j]}: huge bound {v}")
        for i in self.active_rows():
            l, r = self.row_lhs[i], self.row_rhs[i]
            if l > r:
                warnings.append(f"row {self.row_names[i]}: lhs above rhs")
            for v in (l, r):
                if ctx.is_huge(v):
                    warnings.append(f"row {self.row_names[i]}: huge side {v}")
            for j, v in self.rows[i].items():
                if ctx.is_huge(v):
                    warnings.append(
                        f"row {self.row_names[i]}: huge coefficient on "
                        f"{self.col_names[j]}")
        return warnings

    def stable_hash(self) -> str:
        h = hashlib.sha256()
        ctx = self.ctx
        h.update(repr(ctx.mode).encode())
        h.update(ctx.format(self.obj_offset).encode())
        for j in range(self.ncols):
            h.update(b"|c")
            h.update(f"{j};{self.col_state[j].value};{self.col_integral[j]};"
                     f"{ctx.format(self.col_lower[j])};"
                     f"{ctx.format(self.col_upper[j])};"
                     f"{ctx.format(self.obj[j])}".encode())
        for i in range(self.nrows):
            h.update(b"|r")
            h.update(f"{i};{self.row_active[i]};"
                     f"{ctx.format(self.row_lhs[i])};"
                     f"{ctx.format(self.row_rhs[i])}".encode())
            for j, v in self.row_entries(i):
                h.update(f"({j}:{ctx.format(v)})".encode())
        return h.hexdigest()

    def copy(self) -> "Problem":
        p = Problem(self.ctx, self.name)
        p.obj = list(self.obj)
        p.obj_offset = self.obj_offset
        p.col_lower = list(self.col_lower)
        p.col_upper = list(self.col_upper)
        p.col_integral = list(self.col_integral)
        p.col_state = list(self.col_state)
        p.col_names = list(self.col_names)
        p.row_lhs = list(self.row_lhs)
        p.row_rhs = list(self.row_rhs)
        p.row_active = list(self.row_active)
        p.row_names = list(self.row_names)
        p.rows = [dict(r) for r in self.rows]
        p.cols = [dict(c) for c in self.cols]
        p.nnz = self.nnz
        return p


# ---------------------------------------------------------------------------
# row activities


def _min_contribution(a: Number, lo: Number, up: Number) -> Tuple[Number, bool]:
    """(finite part, is_infinite) of an entry's minimum-activity share."""
    if a > 0:
        return (a * lo, False) if is_finite(lo) else (0, True)
    return (a * up, False) if is_finite(up) else (0, True)


def _max_contribution(a: Number, lo: Number, up: Number) -> Tuple[Number, bool]:
    if a > 0:
        return (a * up, False) if is_finite(up) else (0, True)
    return (a * lo, False) if is_finite(lo) else (0, True)


class RowActivities:
    """Per-row minimum/maximum activity with infinite-contribution counters."""

    def __init__(self, nrows: int, ctx: NumericContext):
        zero = ctx.number(0)
        self.min_sum: List[Number] = [zero] * nrows
        self.max_sum: List[Number] = [zero] * nrows
        self.n_min_inf: List[int] = [0] * nrows
        self.n_max_inf: List[int] = [0] * nrows

    @staticmethod
    def compute(problem: Problem) -> "RowActivities":
        act = RowActivities(problem.nrows, problem.ctx)
        for i in problem.active_rows():
            for j, a in problem.rows[i].items():
                act.add_entry(i, a, problem.col_lower[j], problem.col_upper[j])
        return act

    def add_entry(self, i: int, a: Number, lo: Number, up: Number) -> None:
        mval, minf = _min_contribution(a, lo, up)
        xval, xinf = _max_contribution(a, lo, up)
        if minf:
            self.n_min_inf[i] += 1
        else:
            self.min_sum[i] = self.min_sum[i] + mval
        if xinf:
            self.n_max_inf[i] += 1
        else:
            self.max_sum[i] = self.max_sum[i] + xval

    def remove_entry(self, i: int, a: Number, lo: Number, up: Number) -> None:
        """add_entry's inverse."""
        mval, minf = _min_contribution(a, lo, up)
        xval, xinf = _max_contribution(a, lo, up)
        if minf:
            self.n_min_inf[i] -= 1
        else:
            self.min_sum[i] = self.min_sum[i] - mval
        if xinf:
            self.n_max_inf[i] -= 1
        else:
            self.max_sum[i] = self.max_sum[i] - xval

    def min_effective(self, i: int) -> Number:
        return NEG_INF if self.n_min_inf[i] > 0 else self.min_sum[i]

    def max_effective(self, i: int) -> Number:
        return INF if self.n_max_inf[i] > 0 else self.max_sum[i]

    def min_residual(self, i: int, a: Number, lo: Number, up: Number) -> Number:
        """Minimum activity of row i excluding one entry with coeff a."""
        val, inf = _min_contribution(a, lo, up)
        remaining = self.n_min_inf[i] - (1 if inf else 0)
        if remaining > 0:
            return NEG_INF
        return self.min_sum[i] - val

    def max_residual(self, i: int, a: Number, lo: Number, up: Number) -> Number:
        val, inf = _max_contribution(a, lo, up)
        remaining = self.n_max_inf[i] - (1 if inf else 0)
        if remaining > 0:
            return INF
        return self.max_sum[i] - val

    def snapshot(self, i: int) -> Tuple[Number, Number, int, int]:
        return (self.min_sum[i], self.max_sum[i],
                self.n_min_inf[i], self.n_max_inf[i])


# ---------------------------------------------------------------------------
# locks


class Locks:
    """Up-/down-lock counts: how many rows block moving a column up/down."""

    def __init__(self, ncols: int):
        self.up: List[int] = [0] * ncols
        self.down: List[int] = [0] * ncols

    @staticmethod
    def compute(problem: Problem) -> "Locks":
        locks = Locks(problem.ncols)
        for i in problem.active_rows():
            lfin = is_finite(problem.row_lhs[i])
            rfin = is_finite(problem.row_rhs[i])
            for j, a in problem.rows[i].items():
                locks.add_entry(j, a, lfin, rfin)
        return locks

    def add_entry(self, j: int, a: Number, lhs_finite: bool,
                  rhs_finite: bool, sign: int = 1) -> None:
        if a > 0:
            if rhs_finite:
                self.up[j] += sign
            if lhs_finite:
                self.down[j] += sign
        else:
            if lhs_finite:
                self.up[j] += sign
            if rhs_finite:
                self.down[j] += sign

    def remove_entry(self, j: int, a: Number, lhs_finite: bool,
                     rhs_finite: bool) -> None:
        self.add_entry(j, a, lhs_finite, rhs_finite, sign=-1)


# ---------------------------------------------------------------------------
# modification flags and journal

Setter = Tuple[int, str]  # (applied transaction index, presolver name)


class ModificationFlags:
    """First-writer markers for the three guarded aspects plus deactivation.

    The guarded aspects are row coefficients, row sides and column bounds,
    one per assertion kind of the transaction validator; row_gone/col_gone
    name who deactivated a row or column.  Cleared at the start of every
    round (or before every presolver in the sequential apply-immediately
    mode); set only by the apply engine.
    """

    def __init__(self):
        self.row_coeffs: Dict[int, Setter] = {}
        self.row_bounds: Dict[int, Setter] = {}
        self.col_bounds: Dict[int, Setter] = {}
        self.row_gone: Dict[int, Setter] = {}
        self.col_gone: Dict[int, Setter] = {}

    def clear(self) -> None:
        self.row_coeffs.clear()
        self.row_bounds.clear()
        self.col_bounds.clear()
        self.row_gone.clear()
        self.col_gone.clear()

    @staticmethod
    def _mark(d: Dict[int, Setter], idx: int, setter: Setter) -> None:
        if idx not in d:
            d[idx] = setter


# ---------------------------------------------------------------------------
# postsolve record entries (applied-change log, replayable forward)


@dataclass
class FixEntry:
    col: int
    value: Number


@dataclass
class BoundChangeEntry:
    col: int
    side: str  # "lower" | "upper"
    old: Number
    new: Number


@dataclass
class SideChangeEntry:
    row: int
    side: str  # "lhs" | "rhs"
    old: Number
    new: Number


@dataclass
class CoeffChangeEntry:
    row: int
    col: int
    old: Number
    new: Number


@dataclass
class RedundantRowEntry:
    row: int


@dataclass
class SubstituteEntry:
    """x[col] was eliminated via the equation sum(coeffs) == rhs."""
    col: int
    row: int  # -1 for implied aggregations without a physical row
    coeffs: List[Tuple[int, Number]]
    rhs: Number
    lb: Number
    ub: Number


@dataclass
class FreeSingletonEntry:
    """Zero-cost continuous singleton relaxed out of its only row."""
    col: int
    row: int
    coeff: Number
    rest: List[Tuple[int, Number]]
    lhs: Number
    rhs: Number
    lb: Number
    ub: Number


@dataclass
class AggregateEntry:
    """Columns kept/gone merged into slot `kept`: y = x_kept + scale*x_gone."""
    kept: int
    gone: int
    scale: Number
    kept_lb: Number
    kept_ub: Number
    gone_lb: Number
    gone_ub: Number


@dataclass
class ImplyIntegralEntry:
    col: int


RecordEntry = object  # any of the dataclasses above


# ---------------------------------------------------------------------------
# the mutation funnel


class ModelUpdate:
    """Owns the problem plus all derived state during a presolve run.

    Every change goes through one of the methods below, which keep the
    matrix views, activities, locks, flags, journal, counters and the
    postsolve record consistent.  Methods return True when they changed
    anything.
    """

    def __init__(self, problem: Problem, stats=None,
                 record: Optional[List[RecordEntry]] = None):
        self.problem = problem
        self.ctx = problem.ctx
        # exact arithmetic: bound changes shift the activity sums
        self.exact = problem.ctx.mode is Mode.RATIONAL
        self.activities = RowActivities.compute(problem)
        self.locks = Locks.compute(problem)
        self.flags = ModificationFlags()
        self.journal: List[Tuple[str, int]] = []
        self.stats = stats
        self.record = record if record is not None else []
        # index of the next transaction apply_all sees; names first writers
        self.txn_counter = 0
        self._pending_side_checks: set = set()

    # -- journal / flags helpers -------------------------------------------

    def _touch_row(self, i: int) -> None:
        self.journal.append(("row", i))

    def _touch_col(self, j: int) -> None:
        self.journal.append(("col", j))

    def _stat(self, field_name: str, amount: int = 1) -> None:
        if self.stats is not None:
            setattr(self.stats, field_name,
                    getattr(self.stats, field_name) + amount)

    # -- low-level entry ops (activities + locks + views) -------------------

    def _remove_entry(self, i: int, j: int) -> None:
        p = self.problem
        a = p.rows[i].pop(j)
        del p.cols[j][i]
        p.nnz -= 1
        self.activities.remove_entry(i, a, p.col_lower[j], p.col_upper[j])
        self.locks.remove_entry(j, a, is_finite(p.row_lhs[i]),
                                is_finite(p.row_rhs[i]))

    def _put_entry(self, i: int, j: int, v: Number) -> None:
        p = self.problem
        old = p.rows[i].get(j)
        lfin, rfin = is_finite(p.row_lhs[i]), is_finite(p.row_rhs[i])
        if old is not None:
            self.activities.remove_entry(i, old, p.col_lower[j], p.col_upper[j])
            self.locks.remove_entry(j, old, lfin, rfin)
        else:
            p.nnz += 1
        p.rows[i][j] = v
        p.cols[j][i] = v
        self.activities.add_entry(i, v, p.col_lower[j], p.col_upper[j])
        self.locks.add_entry(j, v, lfin, rfin)

    def _set_side_raw(self, i: int, side: str, v: Number,
                      setter: Setter) -> bool:
        """Unchecked, unrecorded side replacement; updates locks."""
        p = self.problem
        old = p.row_lhs[i] if side == "lhs" else p.row_rhs[i]
        if old == v:
            return False
        was_finite = is_finite(old)
        now_finite = is_finite(v)
        if was_finite != now_finite:
            # lock structure of every entry in the row changes
            lfin, rfin = is_finite(p.row_lhs[i]), is_finite(p.row_rhs[i])
            for j, a in p.rows[i].items():
                self.locks.remove_entry(j, a, lfin, rfin)
        if side == "lhs":
            p.row_lhs[i] = v
        else:
            p.row_rhs[i] = v
        if was_finite != now_finite:
            lfin, rfin = is_finite(p.row_lhs[i]), is_finite(p.row_rhs[i])
            for j, a in p.rows[i].items():
                self.locks.add_entry(j, a, lfin, rfin)
        self.flags._mark(self.flags.row_bounds, i, setter)
        self._touch_row(i)
        return True

    def _change_side(self, i: int, side: str, v: Number,
                     setter: Setter) -> bool:
        p = self.problem
        old = p.row_lhs[i] if side == "lhs" else p.row_rhs[i]
        if not self._set_side_raw(i, side, v, setter):
            return False
        # deferred: two side steps of one transaction may cross
        # transiently, so the check runs when the transaction completes
        self._pending_side_checks.add(i)
        self._stat("side_changes")
        self.record.append(SideChangeEntry(i, side, old, v))
        return True

    def _check_sides(self, i: int) -> None:
        p = self.problem
        if p.row_lhs[i] > p.row_rhs[i] and not self.ctx.feas_leq(
                p.row_lhs[i], p.row_rhs[i]):
            raise InfeasibleError(
                f"row {p.row_names[i]}: sides cross after update")

    def flush_side_checks(self) -> None:
        pending = sorted(self._pending_side_checks)
        self._pending_side_checks.clear()
        for i in pending:
            if self.problem.row_is_active(i):
                self._check_sides(i)

    def _set_col_bound_raw(self, j: int, side: str, v: Number,
                           setter: Setter) -> bool:
        """Unchecked, unrecorded bound replacement (may relax); updates
        activities.

        In rational mode a change between two finite values adds
        a*(v - old) to the one sum of each row that the bound feeds: exactly
        what removing the entry and adding it back gives.  In float64 the
        two differ in the last bits, and presolvers read the cached sums, so
        float64 (and any change to or from an infinite bound, which also
        moves the infinity counts) removes the entry with its old bounds
        and adds it with the new ones."""
        p = self.problem
        lower = side == "lower"
        old = p.col_lower[j] if lower else p.col_upper[j]
        if old == v:
            return False
        act = self.activities
        shift = self.exact and is_finite(old) and is_finite(v)
        if shift:
            delta = v - old
            for i, a in p.cols[j].items():
                # a lower bound gives a positive entry's minimum share
                if (a > 0) == lower:
                    act.min_sum[i] = act.min_sum[i] + a * delta
                else:
                    act.max_sum[i] = act.max_sum[i] + a * delta
        else:
            for i, a in p.cols[j].items():
                act.remove_entry(i, a, p.col_lower[j], p.col_upper[j])
        if lower:
            p.col_lower[j] = v
        else:
            p.col_upper[j] = v
        for i, a in p.cols[j].items():
            if not shift:
                act.add_entry(i, a, p.col_lower[j], p.col_upper[j])
            self._touch_row(i)
        self.flags._mark(self.flags.col_bounds, j, setter)
        self._touch_col(j)
        return True

    def _change_bound(self, j: int, side: str, v: Number,
                      setter: Setter) -> bool:
        p = self.problem
        old = p.col_lower[j] if side == "lower" else p.col_upper[j]
        if not self._set_col_bound_raw(j, side, v, setter):
            return False
        self._stat("bound_changes")
        self.record.append(BoundChangeEntry(j, side, old, v))
        return True

    def _check_empty_row(self, i: int) -> None:
        p = self.problem
        if p.row_active[i] and not p.rows[i]:
            zero = self.ctx.number(0)
            if not (self.ctx.feas_leq(p.row_lhs[i], zero)
                    and self.ctx.feas_leq(zero, p.row_rhs[i])):
                raise InfeasibleError(
                    f"row {p.row_names[i]} became empty with violated sides")

    # -- elimination helpers --------------------------------------------------

    def _rewrite_sides(self, i: int, lhs: Number, rhs: Number,
                       setter: Setter) -> None:
        """Give row i new sides after a column left it."""
        self._set_side_raw(i, "lhs", lhs, setter)
        self._set_side_raw(i, "rhs", rhs, setter)
        self._check_sides(i)
        self.flags._mark(self.flags.row_coeffs, i, setter)
        self._touch_row(i)

    def _shift_sides(self, i: int, shift: Number, setter: Setter) -> None:
        """Subtract shift from the finite sides of row i."""
        p = self.problem
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        self._rewrite_sides(i, lhs - shift if is_finite(lhs) else lhs,
                            rhs - shift if is_finite(rhs) else rhs, setter)

    def _retire_col(self, j: int, state: ColState, setter: Setter) -> None:
        """Take column j, whose entries are gone, out of the problem."""
        self.problem.col_state[j] = state
        self.flags._mark(self.flags.col_bounds, j, setter)
        self.flags._mark(self.flags.col_gone, j, setter)
        self._touch_col(j)
        self._stat("deleted_cols")

    def _settle_defining_row(self, i: int, setter: Setter) -> None:
        """A row left without finite sides is dropped; else it must hold."""
        p = self.problem
        if not is_finite(p.row_lhs[i]) and not is_finite(p.row_rhs[i]):
            self.mark_row_redundant(i, setter)
        else:
            self._check_empty_row(i)

    # -- public change operations -------------------------------------------

    def change_lower(self, j: int, v: Number, setter: Setter) -> bool:
        p = self.problem
        old = p.col_lower[j]
        if v <= old:
            return False
        if not self.ctx.feas_leq(v, p.col_upper[j]):
            raise InfeasibleError(
                f"column {p.col_names[j]}: new lower bound crosses upper")
        v = min(v, p.col_upper[j])
        return self._change_bound(j, "lower", v, setter)

    def change_upper(self, j: int, v: Number, setter: Setter) -> bool:
        p = self.problem
        old = p.col_upper[j]
        if v >= old:
            return False
        if not self.ctx.feas_leq(p.col_lower[j], v):
            raise InfeasibleError(
                f"column {p.col_names[j]}: new upper bound crosses lower")
        v = max(v, p.col_lower[j])
        return self._change_bound(j, "upper", v, setter)

    def change_lhs(self, i: int, v: Number, setter: Setter) -> bool:
        return self._change_side(i, "lhs", v, setter)

    def change_rhs(self, i: int, v: Number, setter: Setter) -> bool:
        return self._change_side(i, "rhs", v, setter)

    def change_coeff(self, i: int, j: int, v: Number, setter: Setter) -> bool:
        p = self.problem
        old = p.rows[i].get(j, self.ctx.number(0))
        if old == v:
            return False
        if self.ctx.eq_zero(v):
            if j not in p.rows[i]:
                return False
            self._remove_entry(i, j)
        else:
            self._put_entry(i, j, v)
        self.flags._mark(self.flags.row_coeffs, i, setter)
        self._touch_row(i)
        self._touch_col(j)
        self._stat("coeff_changes")
        self.record.append(CoeffChangeEntry(i, j, old, p.rows[i].get(j, 0)))
        self._check_empty_row(i)
        return True

    def fix_column(self, j: int, v: Number, setter: Setter) -> bool:
        p = self.problem
        ctx = self.ctx
        if not (ctx.feas_leq(p.col_lower[j], v)
                and ctx.feas_leq(v, p.col_upper[j])):
            raise InfeasibleError(
                f"column {p.col_names[j]}: fixing value outside bounds")
        touched = sorted(p.cols[j].items())
        for i, a in touched:
            self._remove_entry(i, j)
            self._shift_sides(i, a * v, setter)
        p.obj_offset = p.obj_offset + p.obj[j] * v
        p.col_lower[j] = v
        p.col_upper[j] = v
        self._retire_col(j, ColState.FIXED, setter)
        self.record.append(FixEntry(j, v))
        for i, _ in touched:
            self._check_empty_row(i)
        return True

    def mark_row_redundant(self, i: int, setter: Setter) -> bool:
        p = self.problem
        lfin, rfin = is_finite(p.row_lhs[i]), is_finite(p.row_rhs[i])
        for j, a in sorted(p.rows[i].items()):
            del p.cols[j][i]
            self.locks.remove_entry(j, a, lfin, rfin)
            p.nnz -= 1
            self._touch_col(j)
        p.rows[i].clear()
        p.row_active[i] = False
        self.flags._mark(self.flags.row_coeffs, i, setter)
        self.flags._mark(self.flags.row_bounds, i, setter)
        self.flags._mark(self.flags.row_gone, i, setter)
        self._touch_row(i)
        self._stat("deleted_rows")
        self.record.append(RedundantRowEntry(i))
        return True

    def _pair_equation(self, j: int, k: int, beta: Number):
        """x_j := alpha + beta*x_k as the equation x_j - beta*x_k == alpha."""
        return [(j, self.ctx.number(1)), (k, -beta)]

    def _predict_fill(self, j: int, i: int,
                      coeffs: List[Tuple[int, Number]]) -> int:
        """Net nnz change of eliminating column j via sum(coeffs) == rhs,
        stored in row i (-1 when no row holds the equation)."""
        p = self.problem
        ctx = self.ctx
        piv = dict(coeffs)[j]
        eq_entries = [(k, a) for k, a in coeffs if k != j]
        delta = 0 if i < 0 else -1  # column j leaves row i
        for r, arj in p.cols[j].items():
            if r == i:
                continue
            factor = arj / piv
            delta -= 1  # column j leaves row r
            for k, aik in eq_entries:
                old = p.rows[r].get(k)
                new = (old if old is not None else 0) - factor * aik
                if old is None:
                    if not ctx.eq_zero(new):
                        delta += 1
                elif ctx.eq_zero(new):
                    delta -= 1
        return delta

    def predict_substitution_fill(self, j: int, i: int) -> int:
        """Net nnz change of eliminating column j via equation row i."""
        return self._predict_fill(j, i, list(self.problem.rows[i].items()))

    def predict_pair_fill(self, j: int, k: int, beta: Number) -> int:
        """Net nnz change of substituting x_j := alpha + beta*x_k."""
        return self._predict_fill(j, -1, self._pair_equation(j, k, beta))

    def _substitute(self, j: int, i: int, coeffs: List[Tuple[int, Number]],
                    b: Number, setter: Setter) -> Number:
        """Record the elimination of column j via sum(coeffs) == b (held in
        row i, or -1) and rewrite every other row and the objective without
        it; returns the pivot."""
        p = self.problem
        ctx = self.ctx
        self.record.append(SubstituteEntry(j, i, coeffs, b, p.col_lower[j],
                                           p.col_upper[j]))
        piv = dict(coeffs)[j]
        eq_entries = [(k, v) for k, v in coeffs if k != j]
        for r in sorted(k for k in p.cols[j] if k != i):
            factor = p.rows[r][j] / piv
            self._remove_entry(r, j)
            for k, aik in eq_entries:
                new = p.rows[r].get(k, ctx.number(0)) - factor * aik
                if ctx.eq_zero(new):
                    if k in p.rows[r]:
                        self._remove_entry(r, k)
                else:
                    self._put_entry(r, k, new)
                self._touch_col(k)
                self._stat("coeff_changes")
            self._shift_sides(r, factor * b, setter)
            self._check_empty_row(r)
        cj = p.obj[j]
        if cj != 0:
            p.obj_offset = p.obj_offset + cj * b / piv
            for k, aik in eq_entries:
                p.obj[k] = p.obj[k] - cj * aik / piv
            p.obj[j] = ctx.number(0)
        return piv

    def substitute_column(self, j: int, i: int, setter: Setter) -> bool:
        """Eliminate column j everywhere using active equation row i."""
        p = self.problem
        lo, up = p.col_lower[j], p.col_upper[j]
        b = p.row_lhs[i]
        piv = self._substitute(j, i, p.row_entries(i), b, setter)
        # the defining row now carries the bounds of the eliminated column
        self._remove_entry(i, j)
        if piv > 0:
            new_lhs = b - piv * up if is_finite(up) else NEG_INF
            new_rhs = b - piv * lo if is_finite(lo) else INF
        else:
            new_lhs = b - piv * lo if is_finite(lo) else NEG_INF
            new_rhs = b - piv * up if is_finite(up) else INF
        self._rewrite_sides(i, new_lhs, new_rhs, setter)
        self._retire_col(j, ColState.SUBSTITUTED, setter)
        self._settle_defining_row(i, setter)
        return True

    def substitute_pair(self, j: int, k: int, alpha: Number, beta: Number,
                        setter: Setter) -> bool:
        """Replace x_j by alpha + beta*x_k everywhere (implied aggregation)."""
        p = self.problem
        ctx = self.ctx
        lo, up = p.col_lower[j], p.col_upper[j]
        self._substitute(j, -1, self._pair_equation(j, k, beta), alpha, setter)
        # bounds of x_j imply bounds on x_k
        if beta > 0:
            imp_lo = (lo - alpha) / beta if is_finite(lo) else NEG_INF
            imp_up = (up - alpha) / beta if is_finite(up) else INF
        else:
            imp_lo = (up - alpha) / beta if is_finite(up) else NEG_INF
            imp_up = (lo - alpha) / beta if is_finite(lo) else INF
        if p.col_integral[k]:
            imp_lo = ctx.round_up_bound(imp_lo)
            imp_up = ctx.round_down_bound(imp_up)
        if is_finite(imp_lo):
            self.change_lower(k, imp_lo, setter)
        if is_finite(imp_up):
            self.change_upper(k, imp_up, setter)
        self._retire_col(j, ColState.SUBSTITUTED, setter)
        # the receiving column's role changed even if its bounds did not
        self.flags._mark(self.flags.col_bounds, k, setter)
        self._touch_col(k)
        return True

    def delete_free_singleton(self, j: int, i: int, setter: Setter) -> bool:
        """Project a zero-cost continuous singleton out of its only row."""
        p = self.problem
        a = p.rows[i][j]
        lo, up = p.col_lower[j], p.col_upper[j]
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        rest = [(k, v) for k, v in p.row_entries(i) if k != j]
        self.record.append(FreeSingletonEntry(j, i, a, rest, lhs, rhs, lo, up))
        self._remove_entry(i, j)
        if a > 0:
            new_rhs = rhs - a * lo if (is_finite(rhs) and is_finite(lo)) else INF
            new_lhs = lhs - a * up if (is_finite(lhs) and is_finite(up)) else NEG_INF
        else:
            new_rhs = rhs - a * up if (is_finite(rhs) and is_finite(up)) else INF
            new_lhs = lhs - a * lo if (is_finite(lhs) and is_finite(lo)) else NEG_INF
        self._rewrite_sides(i, new_lhs, new_rhs, setter)
        self.flags._mark(self.flags.row_bounds, i, setter)
        self._retire_col(j, ColState.INACTIVE, setter)
        self._settle_defining_row(i, setter)
        return True

    def aggregate_parallel_cols(self, gone: int, kept: int, scale: Number,
                                setter: Setter) -> bool:
        """Merge column `gone` = scale * column `kept` into slot `kept`."""
        p = self.problem
        lo_k, up_k = p.col_lower[kept], p.col_upper[kept]
        lo_g, up_g = p.col_lower[gone], p.col_upper[gone]
        self.record.append(AggregateEntry(kept, gone, scale,
                                          lo_k, up_k, lo_g, up_g))
        for r in sorted(p.cols[gone]):
            self._remove_entry(r, gone)
            self.flags._mark(self.flags.row_coeffs, r, setter)
            self._touch_row(r)
        p.obj[gone] = self.ctx.number(0)
        # merged bounds: y = x_kept + scale * x_gone
        if scale > 0:
            new_lo = lo_k + scale * lo_g if (is_finite(lo_k) and is_finite(lo_g)) else NEG_INF
            new_up = up_k + scale * up_g if (is_finite(up_k) and is_finite(up_g)) else INF
        else:
            new_lo = lo_k + scale * up_g if (is_finite(lo_k) and is_finite(up_g)) else NEG_INF
            new_up = up_k + scale * lo_g if (is_finite(up_k) and is_finite(lo_g)) else INF
        self._set_col_bound_raw(kept, "lower", new_lo, setter)
        self._set_col_bound_raw(kept, "upper", new_up, setter)
        self._retire_col(gone, ColState.SUBSTITUTED, setter)
        self.flags._mark(self.flags.col_bounds, kept, setter)
        self._touch_col(kept)
        return True

    def imply_integral(self, j: int, setter: Setter) -> bool:
        p = self.problem
        ctx = self.ctx
        if p.col_integral[j]:
            return False
        p.col_integral[j] = True
        self.record.append(ImplyIntegralEntry(j))
        lo = ctx.round_up_bound(p.col_lower[j])
        up = ctx.round_down_bound(p.col_upper[j])
        if is_finite(lo) and is_finite(up) and lo > up:
            raise InfeasibleError(
                f"column {p.col_names[j]}: integral rounding empties domain")
        if is_finite(lo) and lo > p.col_lower[j]:
            self._change_bound(j, "lower", lo, setter)
        if is_finite(up) and up < p.col_upper[j]:
            self._change_bound(j, "upper", up, setter)
        self._touch_col(j)
        return True
