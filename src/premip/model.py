"""In-memory MIP representation.

The problem is  min c'x + offset,  lhs <= Ax <= rhs,  lb <= x <= ub,  with a
subset of integral columns.  The constraint matrix is stored twice: a
row-major view (dict col -> coeff per row) and a column-major view (dict
row -> coeff per column).  Both views are kept synchronized by every
mutation; deactivating a row or column removes its entries from the
opposite view immediately, so iteration never has to filter dead entries.

All mutations are funneled through ModelUpdate, which also maintains row
activities, per-round modification flags, the change journal, reduction
counters and the postsolve record.  Presolvers never mutate.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .numerics import (INF, NEG_INF, Mode, Number, NumericContext,
                       affine_range, div, is_finite, quotient_range)


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
#
# A row state is the list [min_sum, max_sum, n_min_inf, n_max_inf]: the
# finite parts of the row's minimum and maximum activity and the number of
# entries whose share of each is infinite.  An entry a*x with x in [lo, up]
# gives the minimum a*lo and the maximum a*up when a > 0, and a*up and a*lo
# when a < 0.  The two rules below are the only code that writes shares
# into a state; a bound is finite when NEG_INF < v < INF, the one test
# that needs no call and is exact for an int above 1e308.


def add_shares(st: list, a: Number, lo: Number, up: Number,
               sign: int = 1) -> None:
    """Add the shares of one entry a*x, x in [lo, up], to the row state
    st, or remove them with sign -1."""
    low, high = (lo, up) if a > 0 else (up, lo)
    if NEG_INF < low < INF:
        st[0] += sign * a * low
    else:
        st[2] += sign
    if NEG_INF < high < INF:
        st[1] += sign * a * high
    else:
        st[3] += sign


def move_shares(states, entries, lo: Number, up: Number, new_lo: Number,
                new_up: Number, exact: bool) -> None:
    """Move the shares of one column's entries, (row, coefficient) pairs,
    in their rows' states from the bounds [lo, up] to [new_lo, new_up].

    The finiteness of the four bounds is decided once.  Float64 subtracts
    each finite old share and adds each finite new one, slot by slot and
    row by row, so a sum's last bits are those of removing the entry and
    adding it back.  In exact mode, with all four bounds finite, the share
    of each bound that changed moves by a times the change instead, which
    is the same value: int and Fraction arithmetic is exact, and the
    result is a Fraction exactly when one of the same operands is.
    `states` is indexed by row: `RowActivities.state`, or probing's
    overlay of scratch copies."""
    lo_fin, up_fin = NEG_INF < lo < INF, NEG_INF < up < INF
    new_lo_fin, new_up_fin = NEG_INF < new_lo < INF, NEG_INF < new_up < INF
    if lo_fin and up_fin and new_lo_fin and new_up_fin:
        if exact:
            step_lo = new_lo - lo if new_lo != lo else None
            step_up = new_up - up if new_up != up else None
            for i, a in entries:
                st = states[i]
                # the lower bound gives a positive entry's minimum share
                lo_slot = 0 if a > 0 else 1
                if step_lo is not None:
                    st[lo_slot] += a * step_lo
                if step_up is not None:
                    st[1 - lo_slot] += a * step_up
            return
        # the common case: the loop below without its tests
        for i, a in entries:
            st = states[i]
            if a > 0:
                st[0] = st[0] - a * lo + a * new_lo
                st[1] = st[1] - a * up + a * new_up
            else:
                st[0] = st[0] - a * up + a * new_up
                st[1] = st[1] - a * lo + a * new_lo
        return
    # change of the number of infinite lower/upper bounds
    d_lo = (not new_lo_fin) - (not lo_fin)
    d_up = (not new_up_fin) - (not up_fin)
    for i, a in entries:
        st = states[i]
        lo_slot = 0 if a > 0 else 1
        up_slot = 1 - lo_slot
        if lo_fin:
            st[lo_slot] -= a * lo
        if new_lo_fin:
            st[lo_slot] += a * new_lo
        if up_fin:
            st[up_slot] -= a * up
        if new_up_fin:
            st[up_slot] += a * new_up
        st[lo_slot + 2] += d_lo
        st[up_slot + 2] += d_up


class RowActivities:
    """One state per row (see `add_shares`): the minimum and maximum
    activity with their infinite-share counts."""

    def __init__(self, nrows: int, ctx: NumericContext):
        zero = ctx.number(0)
        self.state: List[list] = [[zero, zero, 0, 0] for _ in range(nrows)]

    @staticmethod
    def compute(problem: Problem) -> "RowActivities":
        act = RowActivities(problem.nrows, problem.ctx)
        lower, upper = problem.col_lower, problem.col_upper
        for i in problem.active_rows():
            st = act.state[i]
            for j, a in problem.rows[i].items():
                add_shares(st, a, lower[j], upper[j])
        return act

    def min_effective(self, i: int) -> Number:
        st = self.state[i]
        return NEG_INF if st[2] > 0 else st[0]

    def max_effective(self, i: int) -> Number:
        st = self.state[i]
        return INF if st[3] > 0 else st[1]


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
    matrix views, activities, flags, journal, counters and the postsolve
    record consistent.  Methods return True when they changed anything.
    """

    def __init__(self, problem: Problem, stats=None,
                 record: Optional[List[RecordEntry]] = None):
        self.problem = problem
        self.ctx = problem.ctx
        # exact arithmetic: bound changes shift the activity sums
        self.exact = problem.ctx.mode is Mode.RATIONAL
        self.activities = RowActivities.compute(problem)
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

    # -- low-level entry ops (activities + views) ----------------------------

    def _remove_entry(self, i: int, j: int) -> None:
        p = self.problem
        a = p.rows[i].pop(j)
        del p.cols[j][i]
        p.nnz -= 1
        add_shares(self.activities.state[i], a, p.col_lower[j],
                   p.col_upper[j], -1)

    def _put_entry(self, i: int, j: int, v: Number) -> None:
        p = self.problem
        old = p.rows[i].get(j)
        st, lo, up = self.activities.state[i], p.col_lower[j], p.col_upper[j]
        if old is not None:
            add_shares(st, old, lo, up, -1)
        else:
            p.nnz += 1
        p.rows[i][j] = v
        p.cols[j][i] = v
        add_shares(st, v, lo, up)

    def _set_side_raw(self, i: int, side: str, v: Number,
                      setter: Setter) -> bool:
        """Unchecked, unrecorded side replacement."""
        p = self.problem
        sides = p.row_lhs if side == "lhs" else p.row_rhs
        if sides[i] == v:
            return False
        sides[i] = v
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
        """Unchecked, unrecorded bound replacement (may relax); moves the
        column's shares in its rows' activities (see `move_shares`)."""
        p = self.problem
        lo, up = p.col_lower[j], p.col_upper[j]
        new_lo, new_up = (v, up) if side == "lower" else (lo, v)
        if new_lo == lo and new_up == up:
            return False
        move_shares(self.activities.state, p.cols[j].items(), lo, up,
                    new_lo, new_up, self.exact)
        p.col_lower[j], p.col_upper[j] = new_lo, new_up
        for i in p.cols[j]:
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
        for j in sorted(p.rows[i]):
            del p.cols[j][i]
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
            factor = div(arj, piv)
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
            factor = div(p.rows[r][j], piv)
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
            p.obj_offset = p.obj_offset + div(cj * b, piv)
            for k, aik in eq_entries:
                p.obj[k] = p.obj[k] - div(cj * aik, piv)
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
        self._rewrite_sides(i, *affine_range(b, b, -piv, lo, up), setter)
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
        # bounds of x_j imply bounds on x_k = (x_j - alpha) / beta
        imp_lo, imp_up = quotient_range(
            *affine_range(lo, up, 1, -alpha, -alpha), beta)
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
        self._rewrite_sides(i, *affine_range(lhs, rhs, -a, lo, up), setter)
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
        new_lo, new_up = affine_range(lo_k, up_k, scale, lo_g, up_g)
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
