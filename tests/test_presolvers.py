import random

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import premip.presolvers.fast as fast
from premip import NumericContext, apply_all
from premip.model import (ColState, InfeasibleError, ModelUpdate,
                          UnboundedError)
from premip.numerics import INF, NEG_INF, is_finite
from premip.presolvers import (PRESOLVER_NAMES, PresolveView, REGISTRY,
                               Tier, run_trivial, runner)
from premip.presolvers.common import (coeff_gcd, has_units,
                                      integral_coeffs)
from premip.transactions import (ReductionStep, StepKind, Transaction,
                                 TxStatus, assert_row, assert_row_bounds)

from conftest import (brute_force, brute_force_mixed, late_structure_mip,
                      make_problem, presolver_soundness_check,
                      random_medium_mip, random_mixed_mip, random_small_mip,
                      run_one_presolver)

CTX = NumericContext.float64()
RATIONAL = NumericContext.rational()


def fresh_view(problem):
    upd = ModelUpdate(problem.copy())
    return upd, PresolveView(upd.problem, upd.activities, upd.locks)


def kinds(tx):
    return [s.kind for s in tx.steps if not s.is_assertion()]


class TestTrivial:
    def test_empty_column_fixed_by_objective_sign(self):
        p = make_problem(CTX, [(0, 5, 1, False)], [])
        upd, record, txs = run_one_presolver("trivial", p)
        fix = [s for t in txs for s in t.steps
               if s.kind is StepKind.FIX_COLUMN]
        assert fix and fix[0].value == 0

    def test_singleton_row_becomes_bound(self):
        p = make_problem(CTX, [(0, 10, 1, False)], [({0: 2}, NEG_INF, 6)])
        upd, record, txs = run_one_presolver("trivial", p)
        apply_all(upd, txs)
        assert upd.problem.col_upper[0] == 3
        assert upd.problem.active_rows() == []

    def test_violated_empty_row_is_infeasible(self):
        p = make_problem(CTX, [(0, 1, 0, False)], [({}, 1, INF)])
        with pytest.raises(InfeasibleError):
            run_one_presolver("trivial", p)

    def test_unbounded_empty_column(self):
        p = make_problem(CTX, [(NEG_INF, INF, 1, False)], [])
        with pytest.raises(UnboundedError):
            run_one_presolver("trivial", p)

    def test_free_row_dropped(self):
        p = make_problem(CTX, [(0, 1, 1, True)],
                         [({0: 1}, NEG_INF, INF)])
        upd, _, txs = run_one_presolver("trivial", p)
        apply_all(upd, txs)
        assert upd.problem.active_rows() == []


class TestCoeffTightening:
    def test_single_step_arithmetic(self):
        # candidate integral column with coefficients (7, 8), U 13, max 15:
        # new coefficient 15-13=2, new side 13-(8-2)*1=7
        p = make_problem(CTX, [(0, 1, 0, False), (0, 1, 0, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        _, view = fresh_view(p)
        txs = runner("coefftightening")(view)
        assert len(txs) == 1
        changes = {(s.kind, s.col): s.value for s in txs[0].steps
                   if not s.is_assertion()}
        assert changes[(StepKind.CHANGE_COEFF, 1)] == 2
        assert changes[(StepKind.CHANGE_RHS, None)] == 7

    def test_iterated_tightening_and_gcd_normalization(self):
        p = make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        upd, view = fresh_view(p)
        txs = runner("coefftightening")(view)
        apply_all(upd, txs)
        q = upd.problem
        assert q.rows[0] == {0: 1.0, 1: 1.0}
        assert q.row_rhs[0] == 1

    def test_infinite_activity_no_transaction(self):
        p = make_problem(CTX, [(0, INF, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 2}, NEG_INF, 5)])
        _, view = fresh_view(p)
        assert runner("coefftightening")(view) == []

    def test_rational_mode_exact(self):
        ctx = NumericContext.rational()
        p = make_problem(ctx, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        upd, view = fresh_view(p)
        apply_all(upd, runner("coefftightening")(view))
        from fractions import Fraction
        assert upd.problem.rows[0] == {0: Fraction(1), 1: Fraction(1)}
        assert upd.problem.row_rhs[0] == 1


def _coefftightening_before_hoisting(view):
    """run_coefftightening as it was before its loop was hoisted: sense * a
    per entry, and the candidate filters and the activity test on every
    pass."""
    p = view.problem
    ctx = view.ctx
    act = view.activities
    txs = []
    for i in view.scan_rows():
        lhs, rhs = p.row_lhs[i], p.row_rhs[i]
        if is_finite(lhs) == is_finite(rhs):
            continue
        sense = 1 if is_finite(rhs) else -1
        side = rhs if sense > 0 else -lhs
        maxact = act.max_effective(i) if sense > 0 else -act.min_effective(i)
        if not is_finite(maxact):
            continue
        coeffs = {j: sense * a for j, a in p.rows[i].items()}
        steps = []
        changed = True
        guard = 0
        while changed and guard < 2 * len(coeffs):
            changed = False
            guard += 1
            for j in sorted(coeffs):
                if not p.col_integral[j]:
                    continue
                lo, up = p.col_lower[j], p.col_upper[j]
                if not (is_finite(lo) and is_finite(up)) or lo == up:
                    continue
                a = coeffs[j]
                mag = abs(a)
                if not (maxact > side and not ctx.approx_eq(maxact, side)):
                    break
                if not ctx.feas_leq(maxact - mag * (up - lo), side):
                    continue
                new_mag = maxact - side
                if not new_mag < mag or ctx.approx_eq(new_mag, mag):
                    continue
                if a > 0:
                    new_a = new_mag
                    ref = up
                else:
                    new_a = -new_mag
                    ref = lo
                new_side = side - (a - new_a) * ref
                maxact = maxact - (a - new_a) * ref
                side = new_side
                coeffs[j] = new_a
                steps.append(ReductionStep(StepKind.CHANGE_COEFF, row=i,
                                           col=j, value=sense * new_a))
                if sense > 0:
                    steps.append(ReductionStep(StepKind.CHANGE_RHS, row=i,
                                               value=side))
                else:
                    steps.append(ReductionStep(StepKind.CHANGE_LHS, row=i,
                                               value=-side))
                changed = True
        if all(p.col_integral[j] for j in coeffs) \
                and not has_units(coeffs.values(), 1):
            as_ints = integral_coeffs(ctx, sorted(coeffs.items()))
            if as_ints is not None and len(as_ints) > 0:
                g = coeff_gcd(ctx, [v for _, v in as_ints])
                if g != 0 and g != 1:
                    new_side = ctx.floor(side / g)
                    for j, v in as_ints:
                        steps.append(ReductionStep(
                            StepKind.CHANGE_COEFF, row=i, col=j,
                            value=sense * (v / g)))
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


@st.composite
def coefftightening_problems(draw):
    """Rows over integral columns with a box, a fixed value or an open
    bound, and continuous columns, in float64 or rationals.  Most rows
    have one finite side, a little inside the row's extreme activity, so
    coefficients shrink, often more than once; a common factor gives rows
    for the gcd step, and two-sided and free rows are skipped."""
    ctx = draw(st.sampled_from([CTX, RATIONAL]))
    n = draw(st.integers(1, 6))
    cols = []
    for _ in range(n):
        lo = draw(st.integers(-3, 3))
        kind = draw(st.sampled_from(["box", "box", "box", "fixed", "open",
                                     "continuous"]))
        if kind == "open":
            lo, up = draw(st.sampled_from([(NEG_INF, lo), (lo, INF)]))
        else:
            up = lo if kind == "fixed" else lo + draw(st.integers(1, 4))
        cols.append((lo, up, 0, kind != "continuous"))
    p = make_problem(ctx, cols, [])
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=n, unique=True))
        factor = draw(st.sampled_from([1, 1, 2, 3, 0.5]))
        coeffs = {j: factor * draw(st.integers(1, 12))
                  * draw(st.sampled_from([1, -1])) for j in support}
        top = bottom = 0
        for j, a in coeffs.items():
            lo, up = cols[j][:2]
            top += a * (up if a > 0 else lo)
            bottom += a * (lo if a > 0 else up)
        gap = draw(st.integers(0, 15)) * draw(st.sampled_from([1, 0.5]))
        rhs = top - gap if is_finite(top) else draw(st.integers(-5, 5))
        lhs = bottom + gap if is_finite(bottom) else draw(st.integers(-5, 5))
        kind = draw(st.sampled_from(["rhs", "rhs", "lhs", "lhs", "both",
                                     "free"]))
        p.add_row(coeffs, lhs if kind in ("lhs", "both") else NEG_INF,
                  rhs if kind in ("rhs", "both") else INF)
    return p


def _lhs_row_tightened_twice(p, txs):
    """Some transaction shrinks two coefficients of a row with an lhs and
    two or more entries.  Each shrink is a coefficient step followed by a
    side step; the gcd step's coefficient steps come in one run."""
    coeff, lhs = StepKind.CHANGE_COEFF, StepKind.CHANGE_LHS
    for tx in txs:
        s = tx.steps
        shrinks = sum(1 for k in range(1, len(s) - 1)
                      if s[k].kind is coeff and s[k + 1].kind is lhs
                      and s[k - 1].kind is not coeff)
        if shrinks >= 2 and len(p.rows[s[-1].row]) >= 2:
            return True
    return False


def _gcd_step(txs):
    return any(a.kind is b.kind is StepKind.CHANGE_COEFF
               for tx in txs for a, b in zip(tx.steps, tx.steps[1:]))


class TestCoeffTighteningLoop:
    @settings(max_examples=800, deadline=None)
    @given(coefftightening_problems())
    def test_equals_the_loop_before_hoisting(self, p):
        _, view = fresh_view(p)
        assert repr(fast.run_coefftightening(view)) \
            == repr(_coefftightening_before_hoisting(view))

    @pytest.mark.parametrize("ctx", [CTX, RATIONAL],
                             ids=["float64", "rational"])
    def test_problems_reach_double_shrinks_and_gcd_rows(self, ctx):
        def txs(p):
            return _coefftightening_before_hoisting(fresh_view(p)[1])

        problems = coefftightening_problems().filter(lambda p: p.ctx is ctx)
        quick = settings(database=None, max_examples=2000,
                         phases=[Phase.generate])
        find(problems, lambda p: _lhs_row_tightened_twice(p, txs(p)),
             settings=quick)
        find(problems, lambda p: _gcd_step(txs(p)), settings=quick)


class TestPropagation:
    def test_integer_rounding(self):
        # 2x + 3y <= 6, x,y >= 0, y integral -> y <= floor(6/3) = 2
        p = make_problem(CTX, [(0, INF, 0, False), (0, INF, 0, True)],
                         [({0: 2, 1: 3}, NEG_INF, 6)])
        _, view = fresh_view(p)
        txs = runner("propagation")(view)
        uppers = {t.steps[-1].col: t.steps[-1].value for t in txs
                  if t.steps[-1].kind is StepKind.CHANGE_UPPER}
        assert uppers[1] == 2
        assert uppers[0] == 3.0

    def test_activity_infeasibility(self):
        p = make_problem(CTX, [(2, 3, 0, True)], [({0: 2}, NEG_INF, 3)])
        # min activity 4 > rhs 3
        with pytest.raises(InfeasibleError):
            _, view = fresh_view(p)
            runner("propagation")(view)

    def test_redundant_row_has_no_bound_transactions(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 1}, NEG_INF, 5)])
        _, view = fresh_view(p)
        txs = runner("propagation")(view)
        assert all(t.steps[-1].kind is StepKind.MARK_ROW_REDUNDANT
                   for t in txs)


class TestColSingleton:
    def test_equation_singleton_substituted_into_objective(self):
        p = make_problem(CTX, [(0, 4, 1, False), (0, 10, 2, False)],
                         [({0: 1, 1: 2}, 6, 6), ({0: 1}, NEG_INF, 3)])
        _, view = fresh_view(p)
        txs = runner("colsingleton")(view)
        assert len(txs) == 1
        tx = txs[0]
        assert tx.steps[-1].kind is StepKind.SUBSTITUTE_IN_OBJECTIVE
        asserted = {s.kind for s in tx.steps if s.is_assertion()}
        assert StepKind.ASSERT_COL_BOUNDS_UNMODIFIED in asserted
        assert StepKind.ASSERT_ROW_BOUNDS_UNMODIFIED in asserted

    def test_two_singletons_in_one_row_self_conflict(self):
        p = make_problem(
            CTX,
            [(0, 1, 0, True), (0, 5, 1, False), (0, 5, 1, False)],
            [({0: 1, 1: 1, 2: 1}, 2, 2)])
        upd, view = fresh_view(p)
        txs = runner("colsingleton")(view)
        assert len(txs) == 2
        outcomes = apply_all(upd, txs)
        assert outcomes[0].status is TxStatus.APPLIED
        assert outcomes[1].status is TxStatus.DISCARDED
        assert outcomes[1].conflicting_presolver == "colsingleton"

    def test_integral_singleton_with_cost_is_left_alone(self):
        p = make_problem(CTX, [(0, 3, 1, True)], [({0: 1}, NEG_INF, 2)])
        _, view = fresh_view(p)
        assert runner("colsingleton")(view) == []

    def test_zero_cost_inequality_singleton_removed(self):
        p = make_problem(CTX, [(0, 9, 0, False), (0, 1, -1, True)],
                         [({0: 1, 1: 5}, NEG_INF, 8)])
        upd, view = fresh_view(p)
        txs = runner("colsingleton")(view)
        assert kinds(txs[0]) == [StepKind.DELETE_COLUMN]
        apply_all(upd, txs)
        q = upd.problem
        assert q.col_state[0] is ColState.INACTIVE
        # projected row: 5y <= 8 - 1*0 = 8
        assert q.rows[0] == {1: 5.0}
        assert q.row_rhs[0] == 8


class TestDualFix:
    def test_downlock_free_column_fixed_low(self):
        # min x subject to x + y <= 4: x has no down-locks
        p = make_problem(CTX, [(0, 4, 1, True), (0, 4, 0, True)],
                         [({0: 1, 1: 1}, NEG_INF, 4)])
        _, view = fresh_view(p)
        txs = runner("dualfix")(view)
        fixes = {t.steps[-1].col: t.steps[-1].value for t in txs}
        assert fixes[0] == 0

    def test_zero_cost_no_locks_fixed_at_a_bound(self):
        p = make_problem(CTX, [(1, 4, 0, True)],
                         [({0: 1}, NEG_INF, INF)])
        _, view = fresh_view(p)
        txs = runner("dualfix")(view)
        assert txs and txs[0].steps[-1].value in (1, 4)

    def test_downlock_blocks(self):
        p = make_problem(CTX, [(0, 4, 1, True)], [({0: 1}, 2, INF)])
        _, view = fresh_view(p)
        assert runner("dualfix")(view) == []

    def test_infinite_bound_zero_cost_uses_worst_case_cap(self):
        # c = 0, no up-locks would be wrong here; use the mirrored case:
        # c = 0, no down-locks, lower bound -inf, row x + y <= 5
        p = make_problem(CTX, [(NEG_INF, INF, 0, False), (0, 3, -1, False)],
                         [({0: 1, 1: 1}, NEG_INF, 5)])
        _, view = fresh_view(p)
        txs = runner("dualfix")(view)
        assert len(txs) == 1
        step = txs[0].steps[-1]
        assert step.col == 0 and step.value == 2  # 5 - max(y) = 2

    def test_infinite_upper_zero_cost_mirror(self):
        # c = 0, no up-locks, upper bound +inf: fix at the worst-case
        # requirement of the down-locking row x + y >= 4
        p = make_problem(CTX, [(NEG_INF, INF, 0, False), (0, 3, 1, False)],
                         [({0: 1, 1: 1}, 4, INF)])
        _, view = fresh_view(p)
        txs = runner("dualfix")(view)
        assert len(txs) == 1
        step = txs[0].steps[-1]
        assert step.col == 0 and step.value == 4  # 4 - min(y) = 4


class TestFixContinuous:
    def test_tiny_gap_fixed(self):
        p = make_problem(CTX, [(1 - 1e-9, 1, 1, False)], [])
        _, view = fresh_view(p)
        txs = runner("fixcontinuous")(view)
        assert txs and txs[0].steps[-1].kind is StepKind.FIX_COLUMN

    def test_unit_gap_not_fixed(self):
        p = make_problem(CTX, [(0, 1, 1, False)], [])
        _, view = fresh_view(p)
        assert runner("fixcontinuous")(view) == []

    def test_exact_tie_fixed_at_value(self):
        p = make_problem(CTX, [(2.5, 2.5, -1, False)], [])
        _, view = fresh_view(p)
        txs = runner("fixcontinuous")(view)
        assert txs and txs[0].steps[-1].value == 2.5


class TestParallelRows:
    def test_three_way_merge(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 3, 1: 3}, NEG_INF, 4),
                          ({0: 6, 1: 6}, 4, INF),
                          ({0: 3, 1: 3}, 3, INF)])
        upd, view = fresh_view(p)
        txs = runner("parallelrows")(view)
        assert len(txs) == 1
        apply_all(upd, txs)
        q = upd.problem
        assert q.active_rows() == [0]
        assert q.row_lhs[0] == 3 and q.row_rhs[0] == 4

    def test_identical_rows_one_survives(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 2}, NEG_INF, 3),
                          ({0: 1, 1: 2}, NEG_INF, 3)])
        upd, view = fresh_view(p)
        txs = runner("parallelrows")(view)
        apply_all(upd, txs)
        q = upd.problem
        assert q.active_rows() == [0]
        assert q.row_rhs[0] == 3

    def test_near_parallel_rejected_by_exact_verification(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 2}, NEG_INF, 3),
                          ({0: 2, 1: 4.0000001}, NEG_INF, 6)])
        _, view = fresh_view(p)
        assert runner("parallelrows")(view) == []

    def test_incompatible_sides_infeasible(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 1}, NEG_INF, 1),
                          ({0: 2, 1: 2}, 6, INF)])
        _, view = fresh_view(p)
        with pytest.raises(InfeasibleError):
            runner("parallelrows")(view)


class TestParallelCols:
    def test_identical_binaries_merge(self):
        p = make_problem(CTX, [(0, 1, -1, True), (0, 1, -1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 2)])
        upd, view = fresh_view(p)
        txs = runner("parallelcols")(view)
        assert len(txs) == 1
        apply_all(upd, txs)
        q = upd.problem
        assert q.col_state[1] is ColState.SUBSTITUTED
        assert q.col_lower[0] == 0 and q.col_upper[0] == 2
        # merged optimum equals the brute force over the original 4 points
        s, opt, _ = brute_force(q)
        assert opt == -2

    def test_scale_two_with_binary_is_hole_free(self):
        p = make_problem(CTX, [(0, 1, -1, True), (0, 1, -2, True)],
                         [({0: 1, 1: 2}, NEG_INF, 9)])
        upd, view = fresh_view(p)
        txs = runner("parallelcols")(view)
        assert len(txs) == 1
        apply_all(upd, txs)
        q = upd.problem
        assert q.col_lower[0] == 0 and q.col_upper[0] == 3  # {0,1,2,3}

    def test_negative_scale_merge_and_split(self):
        # column 1 = -2 * column 0: y = x0 - 2 x1 in [-2, 1]
        from premip import postsolve_primal
        from premip.transactions import PostsolveRecord
        p = make_problem(CTX, [(0, 1, 1, True), (0, 1, -2, True)],
                         [({0: 1, 1: -2}, NEG_INF, 9)])
        upd, view = fresh_view(p)
        record = PostsolveRecord.for_problem(upd.problem)
        upd.record = record.entries
        txs = runner("parallelcols")(view)
        assert len(txs) == 1
        apply_all(upd, txs)
        q = upd.problem
        assert q.col_lower[0] == -2 and q.col_upper[0] == 1
        for y in (-2, -1, 0, 1):
            sol = postsolve_primal(record, {0: y})
            x0, x1 = sol.values
            assert x0 in (0, 1) and x1 in (0, 1)
            assert x0 - 2 * x1 == y

    def test_objective_mismatch_blocks_merge(self):
        p = make_problem(CTX, [(0, 1, -1, True), (0, 1, -3, True)],
                         [({0: 1, 1: 2}, NEG_INF, 9)])
        _, view = fresh_view(p)
        assert runner("parallelcols")(view) == []

    def test_scale_too_large_for_span_blocks_integral_merge(self):
        p = make_problem(CTX, [(0, 1, -1, True), (0, 1, -3, True)],
                         [({0: 1, 1: 3}, NEG_INF, 9)])
        _, view = fresh_view(p)
        assert runner("parallelcols")(view) == []


class TestSimpleProbing:
    def test_span_driver_aggregates_row(self):
        # 2x + y + z = 2, all binary -> y = 1 - x, z = 1 - x
        p = make_problem(
            CTX,
            [(0, 1, 0, True), (0, 1, 0, True), (0, 1, 0, True)],
            [({0: 2, 1: 1, 2: 1}, 2, 2)])
        upd, view = fresh_view(p)
        txs = runner("simpleprobing")(view)
        assert len(txs) == 1
        subs = [s for s in txs[0].steps
                if s.kind is StepKind.SUBSTITUTE_COLUMN]
        assert {(s.col, s.value, s.scale) for s in subs} == {(1, 1, -1),
                                                             (2, 1, -1)}
        apply_all(upd, txs)
        s, opt, _ = brute_force(upd.problem)
        assert s == "optimal"

    def test_span_condition_fails(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True),
                               (0, 1, 0, True)],
                         [({0: 1, 1: 1, 2: 1}, 2, 2)])
        _, view = fresh_view(p)
        assert runner("simpleprobing")(view) == []

    def test_two_variable_partition(self):
        p = make_problem(CTX, [(0, 1, -1, True), (0, 1, -2, True)],
                         [({0: 1, 1: 1}, 1, 1)])
        upd, view = fresh_view(p)
        txs = runner("simpleprobing")(view)
        assert len(txs) == 1
        sub = [s for s in txs[0].steps
               if s.kind is StepKind.SUBSTITUTE_COLUMN][0]
        assert (sub.col, sub.col2, sub.value, sub.scale) == (1, 0, 1, -1)


class TestDoubleToNEq:
    def test_even_coefficients_substituted(self):
        p = make_problem(CTX, [(0, 2, 1, True), (0, 2, 1, True)],
                         [({0: 2, 1: 2}, 4, 4)])
        upd, view = fresh_view(p)
        txs = runner("doubletoneq")(view)
        assert len(txs) == 1
        sub = txs[0].steps[-1]
        assert sub.kind is StepKind.SUBSTITUTE_COLUMN
        apply_all(upd, txs)
        s, opt, _ = brute_force(upd.problem)
        assert s == "optimal" and opt == 2

    def test_indivisible_coefficients_rejected(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 2, 1: 3}, 4, 4)])
        _, view = fresh_view(p)
        assert runner("doubletoneq")(view) == []

    def test_shared_variable_second_equation_discarded(self):
        p = make_problem(
            CTX,
            [(0, 4, 1, True), (0, 4, 1, True), (0, 4, 1, True)],
            [({0: 1, 1: 1}, 2, 2), ({0: 1, 2: 1}, 3, 3)])
        upd, view = fresh_view(p)
        txs = runner("doubletoneq")(view)
        assert len(txs) == 2
        outcomes = apply_all(upd, txs)
        assert outcomes[0].status is TxStatus.APPLIED
        assert outcomes[1].status is TxStatus.DISCARDED


class TestSimplifyIneq:
    def test_never_contributing_variable_deleted(self):
        p = make_problem(
            CTX,
            [(0, 1, 0, True), (0, 1, 0, True), (0, 1, 0, True)],
            [({0: 1, 1: 3, 2: 3}, NEG_INF, 4)])
        upd, view = fresh_view(p)
        txs = runner("simplifyineq")(view)
        assert len(txs) == 1
        changes = {(s.kind, s.col): s.value for s in txs[0].steps
                   if not s.is_assertion()}
        assert changes[(StepKind.CHANGE_COEFF, 0)] == 0
        assert changes[(StepKind.CHANGE_RHS, None)] == 3
        apply_all(upd, txs)
        # feasible sets coincide: brute force over the 8 assignments
        assert brute_force(upd.problem)[0] == "optimal"

    def test_gcd_side_rounding(self):
        p = make_problem(CTX, [(0, INF, 1, True), (0, INF, 1, True)],
                         [({0: 2, 1: 4}, NEG_INF, 7)])
        _, view = fresh_view(p)
        txs = runner("simplifyineq")(view)
        assert len(txs) == 1
        assert txs[0].steps[-1].kind is StepKind.CHANGE_RHS
        assert txs[0].steps[-1].value == 6

    def test_continuous_row_skipped(self):
        p = make_problem(CTX, [(0, 1, 0, False), (0, 1, 0, False)],
                         [({0: 2, 1: 4}, NEG_INF, 7)])
        _, view = fresh_view(p)
        assert runner("simplifyineq")(view) == []


def _unit_rows(rng, ctx):
    """Binary and general-integer rows around unit coefficients: exact
    units, near-units (1 + 1e-7 snaps to 1) and none, one- and two-sided."""
    p = make_problem(ctx, [(0, rng.choice([1, 1, 3]), 0, True)
                           for _ in range(6)], [])
    for _ in range(8):
        cols = rng.sample(range(6), rng.randint(2, 4))
        coeffs = {j: rng.choice([1, -1, 2, -2, 4, 6, 3]) for j in cols}
        if ctx.mode.value == "float64" and rng.random() < 0.3:
            coeffs[cols[0]] = rng.choice([1 + 1e-7, -(1 + 1e-7)])
        side = rng.randint(1, 9)
        kind = rng.random()
        if kind < 0.4:
            p.add_row(coeffs, NEG_INF, side)
        elif kind < 0.7:
            p.add_row(coeffs, -side, INF)
        else:
            p.add_row(coeffs, -side, side + rng.randint(1, 5))
    return p


class TestUnitCoefficientExits:
    """The gcd steps skip a row on its unit coefficients only where they
    could not have changed it."""

    @pytest.mark.parametrize("name", ["simplifyineq", "coefftightening"])
    def test_exits_change_nothing(self, monkeypatch, name):
        import premip.presolvers.fast as fast
        import premip.presolvers.medium as medium
        problems = [_unit_rows(random.Random(seed), ctx)
                    for seed in range(150)
                    for ctx in (CTX, NumericContext.rational())]
        problems += [random_small_mip(random.Random(seed))
                     for seed in range(150)]
        with_exits = [repr(runner(name)(fresh_view(p)[1])) for p in problems]
        assert sum(t.count("Transaction(") for t in with_exits) > 50
        for module in (fast, medium):
            monkeypatch.setattr(module, "has_units", lambda values, n: False)
        assert [repr(runner(name)(fresh_view(p)[1]))
                for p in problems] == with_exits

    def test_one_unit_of_a_one_sided_row_still_drops(self):
        # x + 2y + 4z <= 5: x is the candidate, the others' gcd is 2
        p = make_problem(CTX, [(0, 1, 0, True)] * 3,
                         [({0: 1, 1: 2, 2: 4}, NEG_INF, 5)])
        txs = runner("simplifyineq")(fresh_view(p)[1])
        changes = {(s.kind, s.col): s.value for s in txs[0].steps
                   if not s.is_assertion()}
        assert changes == {(StepKind.CHANGE_COEFF, 0): 0,
                           (StepKind.CHANGE_RHS, None): 4}

    def test_near_unit_coefficient_still_drops(self):
        # (1 + 1e-7)x + 2y + 4z <= 5 drops x as x + 2y + 4z <= 5 does:
        # 1 + 1e-7 snaps to 1 and holds no exact unit
        p = make_problem(CTX, [(0, 1, 0, True)] * 3,
                         [({0: 1 + 1e-7, 1: 2, 2: 4}, NEG_INF, 5)])
        txs = runner("simplifyineq")(fresh_view(p)[1])
        assert [s.value for s in txs[0].steps
                if not s.is_assertion()] == [0, 4]
        # with a second unit the others' gcd is 1: nothing to do
        p = make_problem(CTX, [(0, 1, 0, True)] * 3,
                         [({0: 1 + 1e-7, 1: 1, 2: 2}, NEG_INF, 3)])
        assert runner("simplifyineq")(fresh_view(p)[1]) == []

    def test_two_sided_row_without_units_rounds(self):
        # 2y + 4z in [1, 5] rounds to [2, 4]; x + 2y in [1, 3] exits
        p = make_problem(CTX, [(0, 1, 0, True)] * 3,
                         [({1: 2, 2: 4}, 1, 5), ({0: 1, 1: 2}, 1, 3)])
        txs = runner("simplifyineq")(fresh_view(p)[1])
        assert len(txs) == 1
        assert sorted(s.value for s in txs[0].steps
                      if not s.is_assertion()) == [2, 4]


class TestStuffing:
    def test_equal_ratio_singletons_fix_at_most_one(self):
        # min -x1 - x2 s.t. x1 + x2 <= 1, both continuous singletons
        p = make_problem(CTX, [(0, 1, -1, False), (0, 1, -1, False)],
                         [({0: 1, 1: 1}, NEG_INF, 1)])
        upd, view = fresh_view(p)
        txs = runner("stuffing")(view)
        assert len(txs) == 1
        fixes = [s for s in txs[0].steps if s.kind is StepKind.FIX_COLUMN]
        assert len(fixes) == 1 and fixes[0].col == 0 and fixes[0].value == 1
        apply_all(upd, txs)
        s, opt, _ = brute_force_mixed(upd.problem)
        assert s == "optimal" and abs(opt - (-1)) < 1e-9

    def test_saturating_singleton_fixed_at_bound(self):
        # plenty of slack: both singletons stuffed to their upper bounds
        p = make_problem(CTX, [(0, 1, -2, False), (0, 1, -1, False)],
                         [({0: 1, 1: 1}, NEG_INF, 5)])
        _, view = fresh_view(p)
        txs = runner("stuffing")(view)
        fixes = [(s.col, s.value) for s in txs[0].steps
                 if s.kind is StepKind.FIX_COLUMN]
        assert fixes == [(0, 1), (1, 1)]

    def test_integral_singleton_skipped(self):
        p = make_problem(CTX, [(0, 1, -1, True)], [({0: 1}, NEG_INF, 1)])
        _, view = fresh_view(p)
        assert runner("stuffing")(view) == []


class TestDomCol:
    def test_unbounded_dominator_fixes_dominated(self):
        # min -2x - y s.t. x + y <= 1 with x unbounded above: x dominates y
        p = make_problem(CTX, [(0, INF, -2, False), (0, 5, -1, False)],
                         [({0: 1, 1: 1}, NEG_INF, 1)])
        _, view = fresh_view(p)
        txs = runner("domcol")(view)
        assert len(txs) == 1
        step = txs[0].steps[-1]
        assert step.kind is StepKind.FIX_COLUMN
        assert step.col == 1 and step.value == 0

    def test_bounded_headroom_stays_conservative(self):
        # with both headrooms finite no fixing claim is made, so the full
        # presolve keeps the strengthened knapsack row intact
        p = make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 1)])
        _, view = fresh_view(p)
        assert runner("domcol")(view) == []

    def test_mutual_domination_fixes_only_one(self):
        p = make_problem(CTX, [(0, INF, 1, False), (0, INF, 1, False)],
                         [({0: -1, 1: -1}, NEG_INF, -1)])
        upd, view = fresh_view(p)
        txs = runner("domcol")(view)
        assert len(txs) == 2  # both directions emitted
        outcomes = apply_all(upd, txs)
        assert [o.status for o in outcomes] == [TxStatus.APPLIED,
                                                TxStatus.DISCARDED]
        s, opt, _ = brute_force_mixed(upd.problem)
        assert s == "optimal" and abs(opt - 1) < 1e-9

    def test_different_support_no_claim(self):
        p = make_problem(CTX, [(0, INF, -2, False), (0, 5, -1, False)],
                         [({0: 1}, NEG_INF, 1), ({1: 1}, NEG_INF, 1)])
        _, view = fresh_view(p)
        assert runner("domcol")(view) == []


class TestDualInfer:
    def test_forcing_row_becomes_equation(self):
        # min x s.t. x >= 2, x in [0, inf): multiplier provably 1
        p = make_problem(CTX, [(0, INF, 1, False)], [({0: 1}, 2, INF)])
        upd, view = fresh_view(p)
        txs = runner("dualinfer")(view)
        assert len(txs) == 1
        step = txs[0].steps[-1]
        assert step.kind is StepKind.CHANGE_RHS and step.value == 2
        apply_all(upd, txs)
        assert upd.problem.is_equation(0)

    def test_full_pipeline_fixes_variable(self):
        from premip import presolve
        p = make_problem(CTX, [(0, INF, 1, False)], [({0: 1}, 2, INF)])
        res = presolve(p)
        assert res.problem.active_cols() == []
        assert res.problem.obj_offset == 2

    def test_free_column_in_equation_no_extra_inference(self):
        p = make_problem(CTX, [(NEG_INF, INF, 1, False), (0, 3, 0, True)],
                         [({0: 1, 1: 1}, 2, 2)])
        _, view = fresh_view(p)
        txs = runner("dualinfer")(view)
        assert txs == []  # already an equation; substitution's job

    def test_all_integral_stays_silent(self):
        p = make_problem(CTX, [(0, 3, 1, True)], [({0: 1}, 2, INF)])
        _, view = fresh_view(p)
        assert runner("dualinfer")(view) == []


class TestImplInt:
    def test_unit_coefficient_in_integral_equation(self):
        p = make_problem(
            CTX,
            [(0, 3, 0, True), (0, 3, 0, True), (0, 5, 1, False)],
            [({0: 1, 1: 1, 2: 1}, 2, 2)])
        _, view = fresh_view(p)
        txs = runner("implint")(view)
        assert len(txs) == 1
        assert txs[0].steps[-1].kind is StepKind.IMPLY_INTEGRAL
        assert txs[0].steps[-1].col == 2

    def test_fractional_coefficient_blocks(self):
        p = make_problem(
            CTX,
            [(0, 3, 0, True), (0, 3, 0, True), (0, 5, 1, False)],
            [({0: 1, 1: 1, 2: 0.5}, 2, 2)])
        _, view = fresh_view(p)
        assert runner("implint")(view) == []

    def test_fractional_side_blocks(self):
        p = make_problem(
            CTX,
            [(0, 3, 0, True), (0, 3, 0, True), (0, 5, 1, False)],
            [({0: 1, 1: 1, 2: 1}, 2.5, 2.5)])
        _, view = fresh_view(p)
        assert runner("implint")(view) == []


class TestProbing:
    def test_infeasible_branch_fixes_variable(self):
        # y - x <= 0 and x + y >= 1: probing x = 0 forces y <= 0 and y >= 1
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({1: 1, 0: -1}, NEG_INF, 0),
                          ({0: 1, 1: 1}, 1, INF)])
        _, view = fresh_view(p)
        txs = runner("probing")(view)
        fixes = [(t.steps[-1].col, t.steps[-1].value) for t in txs
                 if t.steps[-1].kind is StepKind.FIX_COLUMN]
        assert (0, 1) in fixes

    def test_duplicate_aggregation_discarded(self):
        p = make_problem(CTX, [(0, 1, -1, True), (0, 1, -2, True)],
                         [({0: 1, 1: 1}, 1, 1)])
        upd, view = fresh_view(p)
        txs = runner("probing")(view)
        aggs = [t for t in txs if t.steps[-1].kind is
                StepKind.SUBSTITUTE_COLUMN]
        assert len(aggs) == 2  # found from probing x and probing y
        outcomes = apply_all(upd, txs)
        agg_outcomes = [o for t, o in zip(txs, outcomes) if t in aggs]
        assert agg_outcomes[0].status is TxStatus.APPLIED
        assert agg_outcomes[1].status is TxStatus.DISCARDED

    def test_no_binaries_no_transactions(self):
        p = make_problem(CTX, [(0, 3, 1, True)], [({0: 1}, NEG_INF, 2)])
        _, view = fresh_view(p)
        assert runner("probing")(view) == []

    def test_both_branches_infeasible_raises(self):
        p = make_problem(CTX, [(0, 1, 0, True)], [({0: 1}, 0.4, 0.6)])
        _, view = fresh_view(p)
        with pytest.raises(InfeasibleError):
            runner("probing")(view)

    def test_scratch_leaves_shared_activities_untouched(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 1}, 1, 1)])
        upd, view = fresh_view(p)
        before = [view.activities.snapshot(i)
                  for i in range(upd.problem.nrows)]
        runner("probing")(view)
        after = [view.activities.snapshot(i)
                 for i in range(upd.problem.nrows)]
        assert before == after

    def test_empty_changed_set_probes_nothing(self):
        # the candidate cap is 10x the changed binaries: zero changes
        # since the last call means zero candidates
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 1}, 1, 1)])
        upd = ModelUpdate(p.copy())
        view = PresolveView(upd.problem, upd.activities, upd.locks,
                            changed_rows=set(), changed_cols=set())
        assert runner("probing")(view) == []


class TestSubstitution:
    def test_equation_substituted_into_target(self):
        p = make_problem(
            CTX,
            [(0, 1, -1, True), (0, 1, -1, True), (0, 1, -1, True)],
            [({1: 1, 2: 1}, 1, 1), ({0: 1, 1: 3, 2: 3}, NEG_INF, 4)])
        upd, view = fresh_view(p)
        txs = runner("substitution")(view)
        assert len(txs) == 1
        apply_all(upd, txs)
        q = upd.problem
        # x + 3(1) <= 4 -> x <= 1 (redundant for binary x)
        assert q.rows[1] == {0: 1.0}
        assert q.row_rhs[1] == 1.0

    def test_fill_in_increase_canceled(self):
        # every pivot choice fills the eliminated column's other row with
        # the three remaining equation columns: net nonzero gain
        p = make_problem(
            CTX,
            [(0, 5, 0, False)] * 4,
            [({0: 1, 1: 1, 2: 1, 3: 1}, 4, 4),
             ({0: 1}, NEG_INF, 3), ({1: 1}, NEG_INF, 3),
             ({2: 1}, NEG_INF, 3), ({3: 1}, NEG_INF, 3)])
        upd, view = fresh_view(p)
        txs = runner("substitution")(view)
        assert len(txs) == 1
        outcomes = apply_all(upd, txs)
        assert outcomes[0].status is TxStatus.CANCELED

    def test_chained_substitutions_conflict(self):
        p = make_problem(
            CTX,
            [(0, 9, 1, False), (0, 9, 1, False), (0, 9, 1, False)],
            [({0: 1, 1: 1}, 2, 2), ({0: 1, 2: 1}, 3, 3)])
        upd, view = fresh_view(p)
        txs = runner("substitution")(view)
        assert len(txs) == 2
        outcomes = apply_all(upd, txs)
        statuses = [o.status for o in outcomes]
        assert statuses[0] is TxStatus.APPLIED
        assert statuses[1] is TxStatus.DISCARDED


class TestSparsify:
    def test_cancellation(self):
        # x + y + z = 2 added with s = -1 to x + y + w <= 3:  w - z <= 1
        p = make_problem(
            CTX,
            [(0, 1, 0, True), (0, 1, 0, True), (0, 1, 0, True),
             (0, 1, 0, True)],
            [({0: 1, 1: 1, 2: 1}, 2, 2), ({0: 1, 1: 1, 3: 1}, NEG_INF, 3)])
        upd, view = fresh_view(p)
        txs = runner("sparsify")(view)
        assert len(txs) == 1
        apply_all(upd, txs)
        q = upd.problem
        assert q.rows[1] == {2: -1.0, 3: 1.0}
        assert q.row_rhs[1] == 1.0
        assert len(q.rows[1]) == 2  # nnz of the target dropped 3 -> 2

    def test_no_shared_support(self):
        p = make_problem(CTX, [(0, 1, 0, True), (0, 1, 0, True),
                               (0, 1, 0, True), (0, 1, 0, True)],
                         [({0: 1, 1: 1}, 2, 2), ({2: 1, 3: 1}, NEG_INF, 3)])
        _, view = fresh_view(p)
        assert runner("sparsify")(view) == []

    def test_second_update_of_same_target_discarded(self):
        p = make_problem(
            CTX,
            [(0, 1, 0, True)] * 6,
            [({0: 1, 1: 1, 2: 1}, 2, 2),
             ({0: 1, 1: 1, 3: 1}, 1, 1),
             ({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, NEG_INF, 3)])
        upd, view = fresh_view(p)
        txs = runner("sparsify")(view)
        targets = [s.row for t in txs for s in t.steps
                   if s.kind is StepKind.CHANGE_COEFF]
        assert targets.count(2) >= 2 or len(txs) >= 2
        outcomes = apply_all(upd, txs)
        statuses = [o.status for o in outcomes]
        assert TxStatus.APPLIED in statuses
        assert TxStatus.DISCARDED in statuses


# ---------------------------------------------------------------------------
# universal properties


INT_PRESOLVERS = ["trivial", "colsingleton", "coefftightening", "propagation",
                  "simpleprobing", "parallelrows", "parallelcols", "stuffing",
                  "dualfix", "fixcontinuous", "simplifyineq", "doubletoneq",
                  "implint", "domcol", "dualinfer", "probing", "substitution",
                  "sparsify"]


class TestUniversalSoundness:
    @pytest.mark.parametrize("name", INT_PRESOLVERS)
    def test_integral_corpus(self, name):
        rng = random.Random(hash(name) % 10**6)
        for k in range(60):
            p = random_small_mip(random.Random(1000 + 31 * k))
            presolver_soundness_check(name, p, rng=rng if k % 2 else None)

    @pytest.mark.parametrize("name", INT_PRESOLVERS)
    def test_mixed_corpus(self, name):
        rng = random.Random(hash(name) % 10**6 + 1)
        for k in range(25):
            p = random_mixed_mip(random.Random(4000 + 17 * k))
            presolver_soundness_check(name, p, rng=rng if k % 2 else None,
                                      mixed=True)


class TestReadOnlyDiscipline:
    @pytest.mark.parametrize("name", INT_PRESOLVERS)
    def test_problem_hash_unchanged(self, name):
        for seed in range(10):
            p = random_mixed_mip(random.Random(seed))
            upd = ModelUpdate(p)
            view = PresolveView(upd.problem, upd.activities, upd.locks)
            before = p.stable_hash()
            fn = run_trivial if name == "trivial" else runner(name)
            try:
                fn(view)
            except (InfeasibleError, UnboundedError):
                pass
            assert p.stable_hash() == before, f"{name} mutated the problem"


class TestFastTierLocality:
    @pytest.mark.parametrize("name", ["colsingleton", "coefftightening",
                                      "propagation"])
    def test_empty_changed_set_finds_nothing(self, name):
        for seed in range(10):
            p = random_small_mip(random.Random(seed))
            upd = ModelUpdate(p)
            view = PresolveView(upd.problem, upd.activities, upd.locks,
                                changed_rows=set(), changed_cols=set())
            try:
                assert runner(name)(view) == []
            except (InfeasibleError, UnboundedError):
                pass

    @pytest.mark.parametrize("name", [
        "simpleprobing", "parallelrows", "parallelcols", "stuffing",
        "dualfix", "fixcontinuous", "simplifyineq", "doubletoneq", "implint",
        "substitution"])
    def test_empty_changed_set_finds_nothing_beyond_fast_tier(self, name):
        for seed in range(10):
            for p in (random_small_mip(random.Random(seed)),
                      random_mixed_mip(random.Random(seed)),
                      late_structure_mip(random.Random(seed)),
                      random_medium_mip(random.Random(seed), 60, 48)):
                upd = ModelUpdate(p)
                view = PresolveView(upd.problem, upd.activities, upd.locks,
                                    changed_rows=set(), changed_cols=set())
                assert runner(name)(view) == []


class TestPurity:
    @pytest.mark.parametrize("name", INT_PRESOLVERS)
    def test_repeated_calls_identical(self, name):
        for seed in range(6):
            p = random_mixed_mip(random.Random(100 + seed))
            upd = ModelUpdate(p)
            view = PresolveView(upd.problem, upd.activities, upd.locks)
            fn = run_trivial if name == "trivial" else runner(name)
            try:
                first = fn(view)
                second = fn(view)
            except (InfeasibleError, UnboundedError):
                continue
            assert repr(first) == repr(second)


class TestRegistry:
    def test_apply_order_matches_tier_grouping(self):
        order = [d.name for d in REGISTRY]
        assert order == [
            "colsingleton", "coefftightening", "propagation",
            "simpleprobing", "parallelrows", "parallelcols", "stuffing",
            "dualfix", "fixcontinuous", "simplifyineq", "doubletoneq",
            "implint", "domcol", "dualinfer", "probing", "substitution",
            "sparsify"]

    def test_only_sparsify_is_delayed(self):
        delayed = [d.name for d in REGISTRY if d.delayed]
        assert delayed == ["sparsify"]
        for d in REGISTRY:
            if d.delayed:
                assert d.tier is Tier.EXHAUSTIVE
