import random

import pytest

from premip import (NumericContext, PresolveOptions, postsolve_primal,
                    presolve)
from premip.model import AggregateEntry, FixEntry, SubstituteEntry
from premip.numerics import INF, NEG_INF
from premip.postsolve import PostsolveError, Solution, replay
from premip.transactions import PostsolveRecord

from conftest import (brute_force, make_problem, point_feasible,
                      random_mixed_mip, random_small_mip)

CTX = NumericContext.float64()

BOTH_MODES = pytest.mark.parametrize(
    "ctx", [CTX, NumericContext.rational()], ids=["float64", "rational"])


def strengthened_knapsack():
    return make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                        [({0: 7, 1: 8}, NEG_INF, 13)])


class TestPostsolvePrimal:
    def test_identity_on_surviving_columns(self):
        p = strengthened_knapsack()
        res = presolve(p)
        sol = postsolve_primal(res.record, {0: 1, 1: 0})
        assert sol.values == [1, 0]
        assert sol.objective == -2
        assert point_feasible(p, {0: 1, 1: 0})

    def test_empty_record_is_identity(self):
        p = strengthened_knapsack()
        record = PostsolveRecord.for_problem(p)
        sol = postsolve_primal(record, {0: 1, 1: 0})
        assert sol.values == [1, 0]
        assert sol.objective == -2

    def test_merged_binary_pair_splits(self):
        record = PostsolveRecord.for_problem(
            make_problem(CTX, [(0, 1, -1, True), (0, 1, -1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 2)]))
        record.entries.append(AggregateEntry(0, 1, 1, 0, 1, 0, 1))
        sol = postsolve_primal(record, {0: 2})
        assert sol.values == [1, 1]

    def test_fixed_column_reinserted(self):
        p = make_problem(CTX, [(0, 5, 1, True), (0, 1, -1, True)],
                         [({0: 1, 1: 1}, NEG_INF, 4)])
        record = PostsolveRecord.for_problem(p)
        record.entries.append(FixEntry(0, 3))
        sol = postsolve_primal(record, {1: 1})
        assert sol.values == [3, 1]
        assert sol.objective == 3 - 1

    def test_unknown_record_kind_is_hard_error(self):
        class Mystery:
            kind = "mystery"
        p = strengthened_knapsack()
        record = PostsolveRecord.for_problem(p)
        record.entries.append(Mystery())
        with pytest.raises(PostsolveError):
            postsolve_primal(record, {0: 1, 1: 0})

    def test_substitution_out_of_bounds_reports_entry(self):
        # an infeasible reduced solution makes the inverted substitution
        # land outside the recorded bounds; the failing entry is named
        p = make_problem(CTX, [(0, 1, 0, False), (0, 1, 0, False)],
                         [({0: 1, 1: 1}, 1, 1)])
        record = PostsolveRecord.for_problem(p)
        record.entries.append(
            SubstituteEntry(0, 0, [(0, 1.0), (1, 1.0)], 1.0, 0.0, 1.0))
        with pytest.raises(PostsolveError) as err:
            postsolve_primal(record, {1: 55})
        assert err.value.entry_index == 0

    @BOTH_MODES
    def test_infinite_value_is_rejected(self, ctx):
        # an infinite reduced value gives an infinite substituted one,
        # which the feasibility test alone would accept
        p = make_problem(ctx, [(NEG_INF, INF, 0, False)] * 2, [])
        record = PostsolveRecord.for_problem(p)
        record.entries.append(SubstituteEntry(
            0, 0, [(0, ctx.number(1)), (1, ctx.number(1))], ctx.number(1),
            NEG_INF, INF))
        with pytest.raises(PostsolveError, match="column 0") as err:
            postsolve_primal(record, {1: INF})
        assert err.value.entry_index == 0


class TestAggregateSplit:
    """An AggregateEntry y = x + s*g splits at a finite end of x's range
    when the other end is infinite: at its upper end if finite, else its
    lower end, stepping into the range for an integral scale."""

    @BOTH_MODES
    def test_parallel_columns_with_an_open_merged_range(self, ctx):
        # ParallelCols merges x1 into x0; the merged column's range is the
        # whole line, and x0's own upper bound is infinite
        p = make_problem(ctx, [(0, INF, 1, False), (NEG_INF, 5, 1, False),
                               (0, 10, -1, False)],
                         [({0: 1, 1: 1, 2: 1}, 2, 8),
                          ({0: 2, 1: 2, 2: -1}, NEG_INF, 9)])
        res = presolve(p)
        assert any(isinstance(e, AggregateEntry) for e in res.record.entries)
        sol = postsolve_primal(res.record, {0: 2, 2: 0})
        assert sol.values == [0, 2, 0]
        assert sol.objective == 2
        assert point_feasible(p, dict(enumerate(sol.values)))

    @BOTH_MODES
    @pytest.mark.parametrize("scale,gone_lb,gone_ub,values", [
        (1, NEG_INF, 5, [2, 5]), (2, NEG_INF, 5, [1, 3]),
        (-2, -5, INF, [1, -3])])
    def test_split_from_the_finite_end(self, ctx, scale, gone_lb, gone_ub,
                                       values):
        # kept x in [0, inf), both integral, merged value y = 7
        p = make_problem(ctx, [(0, INF, 0, True),
                               (gone_lb, gone_ub, 0, True)], [])
        record = PostsolveRecord.for_problem(p)
        record.entries.append(AggregateEntry(
            0, 1, ctx.number(scale), ctx.number(0), INF,
            ctx.number(gone_lb), ctx.number(gone_ub)))
        sol = postsolve_primal(record, {0: 7})
        assert sol.values == values
        x, g = sol.values
        assert x + scale * g == 7

    def test_both_columns_free_split_at_zero(self):
        record = PostsolveRecord.for_problem(
            make_problem(CTX, [(NEG_INF, INF, 0, False)] * 2, []))
        record.entries.append(AggregateEntry(0, 1, 2.0, NEG_INF, INF,
                                             NEG_INF, INF))
        assert postsolve_primal(record, {0: 7}).values == [7, 0]


class TestRoundTripProperty:
    def test_random_corpus(self):
        for seed in range(80):
            p = random_small_mip(random.Random(7000 + seed))
            status, opt, _ = brute_force(p)
            res = presolve(p)
            if res.verdict.value == "infeasible":
                assert status == "infeasible"
                continue
            s2, o2, pt = brute_force(res.problem)
            assert s2 == status
            if status != "optimal":
                continue
            sol = postsolve_primal(res.record, pt)
            assert point_feasible(p, dict(enumerate(sol.values)))
            assert abs(sol.objective - opt) <= 1e-6


class TestReplay:
    def test_forward_replay_reproduces_reduced_problem(self):
        for seed in range(40):
            p = random_mixed_mip(random.Random(seed))
            res = presolve(p)
            if res.verdict.value in ("infeasible", "unbounded"):
                continue
            replayed = replay(res.record, p)
            assert replayed.stable_hash() == res.problem.stable_hash()

    def test_replay_rational(self):
        ctx = NumericContext.rational()
        p = make_problem(ctx, [(0, 1, -2, True), (0, 1, -1, True)],
                         [({0: 7, 1: 8}, NEG_INF, 13)])
        res = presolve(p)
        assert replay(res.record, p).stable_hash() == \
            res.problem.stable_hash()
