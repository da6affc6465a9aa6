import random

import pytest

from premip import NumericContext, apply_all
from premip.model import (ColState, InfeasibleError, ModelUpdate,
                          UnboundedError)
from premip.numerics import INF, NEG_INF
from premip.presolvers import (PRESOLVER_NAMES, PresolveView, REGISTRY,
                               Tier, run_trivial, runner)
from premip.transactions import StepKind, TxStatus

from conftest import (brute_force, brute_force_mixed, late_structure_mip,
                      make_problem, presolver_soundness_check,
                      random_medium_mip, random_mixed_mip, random_small_mip,
                      run_one_presolver)

CTX = NumericContext.float64()


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
