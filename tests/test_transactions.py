import pytest

from premip import NumericContext, Problem, apply_all, classify_redundant
from premip.model import ColState, ModelUpdate
from premip.numerics import INF, NEG_INF
from premip.presolvers import PresolveView
from premip.presolvers.medium import run_parallelrows, run_simplifyineq
from premip.presolvers.exhaustive import run_substitution
from premip.transactions import (ReductionStep, StepKind, Transaction,
                                 TxStatus, assert_col_bounds, assert_row,
                                 assert_row_bounds)

from conftest import make_problem

CTX = NumericContext.float64()


def singleton_equation_problem():
    """Column 1 is a continuous singleton in equation row 0 (with column 0)."""
    return make_problem(
        CTX,
        [(0, 4, 1, False), (0, 10, 2, False)],
        [({0: 1, 1: 2}, 6, 6),       # x + 2y = 6
         ({0: 1}, NEG_INF, 3)])


def colsingleton_tx():
    return Transaction("colsingleton", [
        assert_col_bounds(1), assert_row(0), assert_row_bounds(0),
        ReductionStep(StepKind.SUBSTITUTE_IN_OBJECTIVE, row=0, col=1)])


class TestApplyAll:
    def test_singleton_substitution_applies_on_untouched_flags(self):
        p = singleton_equation_problem()
        upd = ModelUpdate(p)
        outcomes = apply_all(upd, [colsingleton_tx()])
        assert outcomes[0].status is TxStatus.APPLIED
        assert p.col_state[1] is ColState.SUBSTITUTED
        # y = (6 - x)/2: objective 2y = 6 - x, row keeps x in [6-20, 6-0]
        assert p.obj_offset == 6
        assert p.obj[0] == 0  # 1 - 2*(1/2)
        assert p.rows[0] == {0: 1.0}
        assert p.row_lhs[0] == -14 and p.row_rhs[0] == 6

    def test_discarded_after_row_bounds_change(self):
        p = singleton_equation_problem()
        upd = ModelUpdate(p)
        prior = Transaction("other", [
            ReductionStep(StepKind.CHANGE_RHS, row=0, value=5),
            ReductionStep(StepKind.CHANGE_LHS, row=0, value=5)])
        outcomes = apply_all(upd, [prior, colsingleton_tx()])
        assert outcomes[0].status is TxStatus.APPLIED
        assert outcomes[1].status is TxStatus.DISCARDED
        assert outcomes[1].conflicting_presolver == "other"

    def test_empty_list(self):
        p = singleton_equation_problem()
        upd = ModelUpdate(p)
        before = p.stable_hash()
        assert apply_all(upd, []) == []
        assert p.stable_hash() == before

    def test_discard_is_atomic(self):
        p = singleton_equation_problem()
        upd = ModelUpdate(p)
        apply_all(upd, [Transaction("other", [
            ReductionStep(StepKind.CHANGE_RHS, row=0, value=5),
            ReductionStep(StepKind.CHANGE_LHS, row=0, value=5)])])
        before = p.stable_hash()
        outcomes = apply_all(upd, [colsingleton_tx()])
        assert outcomes[0].status is TxStatus.DISCARDED
        assert p.stable_hash() == before

    def test_determinism_same_list_same_result(self):
        def run():
            p = singleton_equation_problem()
            upd = ModelUpdate(p)
            txs = [Transaction("a", [ReductionStep(StepKind.CHANGE_UPPER,
                                                   col=0, value=2)]),
                   colsingleton_tx()]
            outcomes = apply_all(upd, txs)
            return [o.status for o in outcomes], p.stable_hash()
        assert run() == run()

    def test_first_writer_attribution(self):
        p = singleton_equation_problem()
        upd = ModelUpdate(p)
        txs = [
            Transaction("first", [ReductionStep(StepKind.CHANGE_RHS, row=0,
                                                value=5),
                                  ReductionStep(StepKind.CHANGE_LHS, row=0,
                                                value=5)]),
            Transaction("second", [ReductionStep(StepKind.CHANGE_RHS, row=0,
                                                 value=4),
                                   ReductionStep(StepKind.CHANGE_LHS, row=0,
                                                 value=4)]),
            colsingleton_tx(),
        ]
        outcomes = apply_all(upd, txs)
        assert outcomes[2].status is TxStatus.DISCARDED
        assert outcomes[2].conflicting_presolver == "first"


class TestCanceled:
    def test_substitution_increasing_nnz_is_canceled(self):
        # eliminating y via the dense equation fills the sparse rows
        p = make_problem(
            CTX,
            [(0, 5, 0, False)] * 4,
            [({0: 1, 1: 1, 2: 1, 3: 1}, 4, 4),   # dense equation
             ({0: 1}, NEG_INF, 3),
             ({0: 2}, NEG_INF, 5)])
        upd = ModelUpdate(p)
        tx = Transaction("substitution", [
            assert_row(0), assert_row_bounds(0), assert_col_bounds(0),
            ReductionStep(StepKind.SUBSTITUTE_COLUMN, row=0, col=0)])
        before = p.stable_hash()
        outcomes = apply_all(upd, [tx])
        assert outcomes[0].status is TxStatus.CANCELED
        assert p.stable_hash() == before


class TestClassifyRedundant:
    def test_same_fix_twice_is_redundant(self):
        p = make_problem(CTX, [(0, 3, 1, False)], [({0: 1}, NEG_INF, 9)])
        upd = ModelUpdate(p)
        fix_a = Transaction("stuffing", [
            assert_col_bounds(0),
            ReductionStep(StepKind.FIX_COLUMN, col=0, value=0)])
        fix_b = Transaction("dualfix", [
            assert_col_bounds(0),
            ReductionStep(StepKind.FIX_COLUMN, col=0, value=0)])
        outcomes = apply_all(upd, [fix_a, fix_b])
        assert outcomes[1].status is TxStatus.DISCARDED
        assert outcomes[1].redundant
        assert outcomes[1].conflicting_presolver == "stuffing"

    def test_strictly_tighter_discard_is_not_redundant(self):
        p = make_problem(CTX, [(0, 10, 0, False)], [({0: 1}, NEG_INF, 20)])
        upd = ModelUpdate(p)
        txs = [Transaction("a", [assert_col_bounds(0),
                                 ReductionStep(StepKind.CHANGE_UPPER, col=0,
                                               value=8)]),
               Transaction("b", [assert_col_bounds(0),
                                 ReductionStep(StepKind.CHANGE_UPPER, col=0,
                                               value=5)])]
        outcomes = apply_all(upd, txs)
        assert outcomes[1].status is TxStatus.DISCARDED
        assert not outcomes[1].redundant

    def test_bound_change_on_deleted_column_is_redundant(self):
        p = singleton_equation_problem()
        upd = ModelUpdate(p)
        txs = [colsingleton_tx(),
               Transaction("propagation", [
                   ReductionStep(StepKind.CHANGE_UPPER, col=1, value=4)])]
        outcomes = apply_all(upd, txs)
        assert outcomes[1].status is TxStatus.DISCARDED
        assert outcomes[1].redundant

    def test_invariants_of_outcome(self):
        p = singleton_equation_problem()
        upd = ModelUpdate(p)
        outcomes = apply_all(upd, [
            Transaction("other", [ReductionStep(StepKind.CHANGE_RHS, row=0,
                                                value=5),
                                  ReductionStep(StepKind.CHANGE_LHS, row=0,
                                                value=5)]),
            colsingleton_tx()])
        for o in outcomes:
            if o.status is TxStatus.DISCARDED:
                assert o.conflicting_presolver is not None
            if o.redundant:
                assert o.status is TxStatus.DISCARDED


class TestConflictOrdering:
    """The two-reduction interplay on  y+z=1,  x+3y+3z <= 4."""

    def _problem(self):
        return make_problem(
            CTX,
            [(0, 1, -1, True), (0, 1, -1, True), (0, 1, -1, True)],
            [({1: 1, 2: 1}, 1, 1),
             ({0: 1, 1: 3, 2: 3}, NEG_INF, 4)])

    def _collect(self, upd):
        view = PresolveView(upd.problem, upd.activities)
        return run_simplifyineq(view), run_substitution(view)

    def test_mandated_order_applies_both(self):
        upd = ModelUpdate(self._problem())
        si, su = self._collect(upd)
        assert len(si) == 1 and len(su) == 1
        outcomes = apply_all(upd, si + su)
        assert [o.status for o in outcomes] == [TxStatus.APPLIED,
                                                TxStatus.APPLIED]

    def test_reversed_order_discards_the_row_simplification(self):
        upd = ModelUpdate(self._problem())
        si, su = self._collect(upd)
        outcomes = apply_all(upd, su + si)
        assert outcomes[0].status is TxStatus.APPLIED
        assert outcomes[1].status is TxStatus.DISCARDED
        assert outcomes[1].conflicting_presolver == "substitution"


class TestParallelRowMerging:
    """3x+3y <= 4,  6x+6y >= 4,  3x+3y >= 3  merged in one vs two steps."""

    def _problem(self):
        return make_problem(
            CTX,
            [(0, 1, 0, True), (0, 1, 0, True)],
            [({0: 3, 1: 3}, NEG_INF, 4),
             ({0: 6, 1: 6}, 4, INF),
             ({0: 3, 1: 3}, 3, INF)])

    def test_single_transaction_leaves_one_row(self):
        p = self._problem()
        upd = ModelUpdate(p)
        view = PresolveView(upd.problem, upd.activities)
        txs = run_parallelrows(view)
        assert len(txs) == 1
        outcomes = apply_all(upd, txs)
        assert outcomes[0].status is TxStatus.APPLIED
        assert p.active_rows() == [0]
        assert p.row_lhs[0] == 3 and p.row_rhs[0] == 4

    def test_pairwise_transactions_leave_two_rows(self):
        p = self._problem()
        upd = ModelUpdate(p)

        def pair_tx(keep, drop, lhs, rhs):
            steps = [assert_row(keep), assert_row_bounds(keep),
                     assert_row(drop), assert_row_bounds(drop)]
            if lhs is not None:
                steps.append(ReductionStep(StepKind.CHANGE_LHS, row=keep,
                                           value=lhs))
            if rhs is not None:
                steps.append(ReductionStep(StepKind.CHANGE_RHS, row=keep,
                                           value=rhs))
            steps.append(ReductionStep(StepKind.MARK_ROW_REDUNDANT, row=drop))
            return Transaction("parallelrows", steps)

        txs = [pair_tx(0, 1, 2.0, None),   # merge rows 0,1: sides [2, 4]
               pair_tx(0, 2, 3.0, None)]   # merge rows 0,2: needs row 0 again
        outcomes = apply_all(upd, txs)
        assert outcomes[0].status is TxStatus.APPLIED
        assert outcomes[1].status is TxStatus.DISCARDED
        assert len(p.active_rows()) == 2  # two parallel constraints remain


class TestWellFormed:
    def test_assertions_before_changes(self):
        good = colsingleton_tx()
        assert good.well_formed()
        bad = Transaction("x", [
            ReductionStep(StepKind.CHANGE_UPPER, col=0, value=1),
            assert_col_bounds(0)])
        assert not bad.well_formed()

    def test_needs_a_change_step(self):
        assert not Transaction("x", [assert_col_bounds(0)]).well_formed()
