import random
from fractions import Fraction

import pytest

from premip import NumericContext, Problem
from premip.model import (ColState, InfeasibleError, Locks, ModelUpdate,
                          RowActivities)
from premip.numerics import INF, NEG_INF

from conftest import (make_problem, random_medium_mip, random_mixed_mip,
                      to_rational)

CTX = NumericContext.float64()
RATIONAL = NumericContext.rational()
SETTER = (0, "test")


def knapsack():
    # 7 x1 + 8 x2 <= 13, binaries
    return make_problem(CTX, [(0, 1, -2, True), (0, 1, -1, True)],
                        [({0: 7, 1: 8}, NEG_INF, 13)])


class TestActivities:
    def test_knapsack_row(self):
        act = RowActivities.compute(knapsack())
        assert act.min_effective(0) == 0
        assert act.max_effective(0) == 15
        assert act.n_min_inf[0] == 0 and act.n_max_inf[0] == 0

    def test_empty_row(self):
        p = make_problem(CTX, [(0, 1, 0, False)], [({}, NEG_INF, 5)])
        act = RowActivities.compute(p)
        assert act.min_effective(0) == 0 and act.max_effective(0) == 0

    def test_infinite_contributions(self):
        # x - y <= 0 with x in [0, inf), y in (-inf, 0]
        p = make_problem(CTX, [(0, INF, 0, False), (NEG_INF, 0, 0, False)],
                         [({0: 1, 1: -1}, NEG_INF, 0)])
        act = RowActivities.compute(p)
        assert act.n_max_inf[0] == 2
        assert act.min_effective(0) == 0
        assert act.max_effective(0) == INF

    def test_incremental_tighten_upper(self):
        p = knapsack()
        upd = ModelUpdate(p)
        upd.change_upper(1, 0, SETTER)
        assert upd.activities.max_effective(0) == 7
        fresh = RowActivities.compute(p)
        assert fresh.max_effective(0) == upd.activities.max_effective(0)

    def test_noop_change(self):
        p = knapsack()
        upd = ModelUpdate(p)
        before = upd.activities.snapshot(0)
        assert not upd.change_upper(1, 1, SETTER)
        assert upd.activities.snapshot(0) == before

    def test_infinite_to_finite_lower(self):
        p = make_problem(CTX, [(NEG_INF, 5, 0, False)],
                         [({0: 2}, NEG_INF, 10)])
        upd = ModelUpdate(p)
        assert upd.activities.n_min_inf[0] == 1
        upd.change_lower(0, 0, SETTER)
        assert upd.activities.n_min_inf[0] == 0
        assert upd.activities.min_effective(0) == 0  # contribution 2*0

    def test_incremental_equals_recompute_random(self):
        rng = random.Random(3)
        total_changes = 0
        while total_changes < 1000:
            ncols = rng.randint(2, 6)
            p = Problem(CTX)
            for _ in range(ncols):
                lo = rng.choice([NEG_INF, -3, 0])
                up = rng.choice([INF, 2, 5])
                p.add_col(lo, up, 0, integral=False)
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(1, ncols)
                cols = rng.sample(range(ncols), size)
                p.add_row({j: rng.choice([-2, -1, 1, 3]) for j in cols},
                          NEG_INF, 100)
            upd = ModelUpdate(p)
            for _ in range(rng.randint(1, 10)):
                j = rng.randrange(ncols)
                if rng.random() < 0.5:
                    cand = p.col_lower[j] + rng.choice([1, 0.5, 2])
                    if cand == NEG_INF:
                        cand = rng.choice([-5, 0])
                    try:
                        upd.change_lower(j, cand, SETTER)
                    except InfeasibleError:
                        break
                else:
                    base = p.col_upper[j]
                    cand = (rng.choice([4, 1, 0]) if base == INF
                            else base - rng.choice([1, 0.5]))
                    try:
                        upd.change_upper(j, cand, SETTER)
                    except InfeasibleError:
                        break
                total_changes += 1
                fresh = RowActivities.compute(p)
                for i in p.active_rows():
                    assert abs(fresh.min_sum[i] - upd.activities.min_sum[i]) < 1e-9
                    assert abs(fresh.max_sum[i] - upd.activities.max_sum[i]) < 1e-9
                    assert fresh.n_min_inf[i] == upd.activities.n_min_inf[i]
                    assert fresh.n_max_inf[i] == upd.activities.n_max_inf[i]
        # rational input: bounds move both ways, between finite values
        # (the shifted sums) and to and from infinity; the sums stay exact
        rng = random.Random(4)
        total_changes = 0
        while total_changes < 1000:
            ncols = rng.randint(2, 6)
            p = Problem(RATIONAL)
            for _ in range(ncols):
                p.add_col(rng.choice([NEG_INF, -3, 0]),
                          rng.choice([INF, 2, 5]), 0, integral=False)
            for _ in range(rng.randint(1, 4)):
                cols = rng.sample(range(ncols), rng.randint(1, ncols))
                p.add_row({j: Fraction(rng.choice([-5, -2, 1, 3]),
                                       rng.choice([1, 2, 3])) for j in cols},
                          NEG_INF, 100)
            upd = ModelUpdate(p)
            for _ in range(rng.randint(1, 10)):
                j = rng.randrange(ncols)
                lo, up = p.col_lower[j], p.col_upper[j]
                v = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 7]))
                if rng.random() < 0.5:
                    side = "lower"
                    v = NEG_INF if rng.random() < 0.2 else min(v, up)
                else:
                    side = "upper"
                    v = INF if rng.random() < 0.2 else max(v, lo)
                upd._set_col_bound_raw(j, side, v, SETTER)
                total_changes += 1
                fresh = RowActivities.compute(p)
                for i in p.active_rows():
                    assert upd.activities.snapshot(i) == fresh.snapshot(i)


class TestLocks:
    def test_basic_counts(self):
        # x + y <= 3 up-locks both; x - y >= 1 down-locks x, up-locks y
        p = make_problem(CTX, [(0, 5, 0, False), (0, 5, 0, False)],
                         [({0: 1, 1: 1}, NEG_INF, 3),
                          ({0: 1, 1: -1}, 1, INF)])
        locks = Locks.compute(p)
        assert locks.up == [1, 2]
        assert locks.down == [1, 0]

    def test_incremental_matches_recompute(self):
        rng = random.Random(5)
        for _ in range(50):
            p = Problem(CTX)
            ncols = rng.randint(2, 5)
            for _ in range(ncols):
                p.add_col(0, 5, 0, integral=False)
            for _ in range(rng.randint(1, 4)):
                cols = rng.sample(range(ncols), rng.randint(1, ncols))
                entries = {j: rng.choice([-2, 1]) for j in cols}
                kind = rng.random()
                if kind < 0.4:
                    p.add_row(entries, NEG_INF, 5)
                elif kind < 0.8:
                    p.add_row(entries, -5, INF)
                else:
                    p.add_row(entries, -5, 5)
            upd = ModelUpdate(p)
            for _ in range(4):
                act_rows = p.active_rows()
                if not act_rows:
                    break
                op = rng.random()
                if op < 0.4:
                    i = rng.choice(act_rows)
                    upd.mark_row_redundant(i, SETTER)
                elif op < 0.7:
                    i = rng.choice(act_rows)
                    upd._set_side_raw(i, "rhs", INF, SETTER)
                else:
                    i = rng.choice(act_rows)
                    if p.rows[i]:
                        j = sorted(p.rows[i])[0]
                        upd.change_coeff(i, j, 0, SETTER)
                fresh = Locks.compute(p)
                assert fresh.up == upd.locks.up
                assert fresh.down == upd.locks.down


class TestApplyChange:
    def test_fix_column_updates_row(self):
        p = knapsack()
        upd = ModelUpdate(p)
        upd.fix_column(1, 0, SETTER)
        assert p.col_state[1] is ColState.FIXED
        assert p.rows[0] == {0: 7}
        assert p.row_rhs[0] == 13
        assert p.nnz == 1
        p.check_consistent()

    def test_fix_shifts_sides(self):
        p = knapsack()
        upd = ModelUpdate(p)
        upd.fix_column(1, 1, SETTER)
        assert p.row_rhs[0] == 5  # 13 - 8
        p.check_consistent()

    def test_mark_redundant_reduces_nnz(self):
        p = knapsack()
        upd = ModelUpdate(p)
        upd.mark_row_redundant(0, SETTER)
        assert not p.row_is_active(0)
        assert p.nnz == 0
        assert p.active_rows() == []
        p.check_consistent()

    def test_bound_crossover_is_infeasible(self):
        p = knapsack()
        upd = ModelUpdate(p)
        with pytest.raises(InfeasibleError):
            upd.change_lower(0, 2, SETTER)  # above upper bound 1

    def test_fix_outside_bounds_is_infeasible(self):
        p = knapsack()
        upd = ModelUpdate(p)
        with pytest.raises(InfeasibleError):
            upd.fix_column(0, 3, SETTER)

    def test_substitute_column_via_equation(self):
        # y + z = 1 used to eliminate y from x + 3y + 3z <= 4
        p = make_problem(CTX, [(0, 1, -1, False), (0, 1, -1, False),
                               (0, 1, -1, False)],
                         [({1: 1, 2: 1}, 1, 1),
                          ({0: 1, 1: 3, 2: 3}, NEG_INF, 4)])
        upd = ModelUpdate(p)
        upd.substitute_column(1, 0, SETTER)
        assert p.col_state[1] is ColState.SUBSTITUTED
        # target row: x + 3(1 - z) + 3z = x + 3 <= 4  ->  x <= 1
        assert p.rows[1] == {0: 1}
        assert p.row_rhs[1] == 1
        # defining row now carries y's bounds on z: 1 - z in [0, 1]
        assert p.rows[0] == {2: 1.0}
        assert p.row_lhs[0] == 0 and p.row_rhs[0] == 1
        # objective: -y = -(1 - z) = -1 + z, folded into offset and c_z
        assert p.obj_offset == -1
        assert p.obj[2] == 0  # -1 + 1
        p.check_consistent()

    def test_view_consistency_random_mutations(self):
        rng = random.Random(31)
        for _ in range(30):
            p = Problem(CTX)
            ncols = rng.randint(2, 6)
            for _ in range(ncols):
                p.add_col(0, rng.randint(1, 4), rng.randint(-2, 2), True)
            for _ in range(rng.randint(1, 5)):
                cols = rng.sample(range(ncols), rng.randint(1, ncols))
                p.add_row({j: rng.choice([-2, -1, 1, 2]) for j in cols},
                          NEG_INF, rng.randint(2, 9))
            upd = ModelUpdate(p)
            for _ in range(8):
                op = rng.random()
                try:
                    if op < 0.3 and p.active_rows():
                        upd.mark_row_redundant(rng.choice(p.active_rows()),
                                               SETTER)
                    elif op < 0.6 and p.active_cols():
                        j = rng.choice(p.active_cols())
                        upd.fix_column(j, p.col_lower[j], SETTER)
                    elif p.active_rows():
                        i = rng.choice(p.active_rows())
                        if p.rows[i]:
                            j = rng.choice(sorted(p.rows[i]))
                            upd.change_coeff(i, j, rng.choice([0, 1, -3]),
                                             SETTER)
                except InfeasibleError:
                    break
                p.check_consistent()


def _fill_corpus():
    for seed in range(200):
        yield random_mixed_mip(random.Random(seed))
    for seed in range(12):
        yield random_medium_mip(random.Random(seed), 60, 48)


class TestFillPrediction:
    """predict_*_fill decides which substitutions are CANCELED, so it must
    equal the nnz change the elimination it predicts really makes."""

    @staticmethod
    def _realized(problem, eliminate):
        """(nnz change, problem) of eliminate(update), or None when the
        elimination proves infeasibility."""
        p = problem.copy()
        upd = ModelUpdate(p)
        before = p.nnz
        try:
            eliminate(upd)
        except InfeasibleError:
            return None
        return p.nnz - before, p

    @pytest.mark.parametrize("rational", [False, True])
    def test_prediction_equals_realized_change(self, rational):
        checked = {"substitute": 0, "pair": 0, "fill": 0}
        for base in _fill_corpus():
            problem = to_rational(base) if rational else base
            upd = ModelUpdate(problem)
            for i in range(problem.nrows):
                if not problem.is_equation(i):
                    continue
                row = problem.rows[i]
                for j, aij in row.items():
                    predicted = upd.predict_substitution_fill(j, i)
                    out = self._realized(
                        problem, lambda u: u.substitute_column(j, i, SETTER))
                    # a defining row left free is dropped with its entries
                    if out is not None and out[1].row_is_active(i):
                        assert out[0] == predicted, (i, j)
                        checked["substitute"] += 1
                        checked["fill"] += predicted > 0
                    for k, aik in row.items():
                        if k == j:
                            continue
                        # x_j := -(aik/aij) x_k cancels x_k out of row i
                        beta = -aik / aij
                        predicted = upd.predict_pair_fill(j, k, beta)
                        out = self._realized(
                            problem, lambda u: u.substitute_pair(
                                j, k, problem.ctx.number(0), beta, SETTER))
                        if out is not None:
                            assert out[0] == predicted, (i, j, k)
                            checked["pair"] += 1
                            checked["fill"] += predicted > 0
        assert min(checked.values()) > 100, checked


class TestProblemBasics:
    def test_stable_hash_reacts_to_changes(self):
        p = knapsack()
        h0 = p.stable_hash()
        assert p.copy().stable_hash() == h0
        upd = ModelUpdate(p)
        upd.change_upper(0, 0, SETTER)
        assert p.stable_hash() != h0

    def test_validate_warnings(self):
        p = make_problem(CTX, [(5, 1, 0, False), (0, 2e8, 0, False)], [])
        warnings = p.validate()
        assert any("lower bound above upper" in w for w in warnings)
        assert any("huge bound" in w for w in warnings)

    def test_equation_detection(self):
        p = make_problem(CTX, [(0, 1, 0, False)],
                         [({0: 1}, 2, 2), ({0: 1}, 1, 2)])
        assert p.is_equation(0)
        assert not p.is_equation(1)
