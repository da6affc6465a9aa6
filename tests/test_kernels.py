"""The shared implied-bound kernel and the exhaustive tier's fork fan-out."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import premip.presolvers.exhaustive as exhaustive
from premip import NumericContext, Problem, apply_all
from premip.model import InfeasibleError, ModelUpdate, RowActivities
from premip.numerics import INF, NEG_INF, is_finite
from premip.parallel import fork_map
from premip.presolvers import PresolveView, runner
from premip.presolvers.common import implied_bounds

from conftest import random_medium_mip

FLOAT = NumericContext.float64()
RATIONAL = NumericContext.rational()


# ---------------------------------------------------------------------------
# implied_bounds


def _numbers(rational):
    if rational:
        return st.fractions(min_value=-8, max_value=8, max_denominator=12)
    return st.floats(min_value=-8, max_value=8, allow_nan=False)


def _add_col(draw, p, nums):
    """A column with finite or infinite bounds, integral or continuous."""
    lo = draw(st.one_of(st.just(NEG_INF), nums))
    span = draw(st.one_of(st.just(INF), nums.map(abs)))
    up = INF if not is_finite(span) else (
        span if not is_finite(lo) else lo + span)
    p.add_col(lo, up, 0, draw(st.booleans()))


def _sides(draw, nums):
    """(lhs, rhs) of a <=, >=, ranged or equality row."""
    side = draw(nums)
    kind = draw(st.sampled_from(["le", "ge", "range", "eq"]))
    width = abs(draw(nums))
    lhs = NEG_INF if kind == "le" else side
    rhs = (INF if kind == "ge" else side + width if kind == "range"
           else side)
    return lhs, rhs


@st.composite
def rows(draw, rational):
    """A one- or two-sided row over columns with finite or infinite bounds."""
    ctx = RATIONAL if rational else FLOAT
    nums = _numbers(rational)
    p = Problem(ctx)
    n = draw(st.integers(1, 6))
    for _ in range(n):
        _add_col(draw, p, nums)
    coeffs = draw(st.lists(nums.filter(lambda v: abs(v) >= 1e-3),
                           min_size=n, max_size=n))
    p.add_row(dict(enumerate(coeffs)), *_sides(draw, nums))
    return p


def _expected_from_residuals(ctx, act, a, lo, up, lhs, rhs, integral):
    lower, upper = NEG_INF, INF
    if is_finite(rhs):
        res = act.min_residual(0, a, lo, up)
        if is_finite(res):
            cap = (rhs - res) / a
            if a > 0:
                upper = ctx.round_down_bound(cap) if integral else cap
            else:
                lower = ctx.round_up_bound(cap) if integral else cap
    if is_finite(lhs):
        res = act.max_residual(0, a, lo, up)
        if is_finite(res):
            cap = (lhs - res) / a
            if a > 0:
                lower = ctx.round_up_bound(cap) if integral else cap
            else:
                upper = ctx.round_down_bound(cap) if integral else cap
    return lower, upper


def _residuals_from_scratch(p, k, i=0, col=None):
    """Minimum and maximum activity of row i without column k; col(j) gives
    the bounds, the problem's by default."""
    mn, mx = Fraction(0), Fraction(0)
    for j, a in p.rows[i].items():
        if j == k:
            continue
        lo, up = col(j) if col else (p.col_lower[j], p.col_upper[j])
        low, high = (lo, up) if a > 0 else (up, lo)
        mn = mn + a * low if is_finite(low) and is_finite(mn) else NEG_INF
        mx = mx + a * high if is_finite(high) and is_finite(mx) else INF
    return mn, mx


def _bits(v):
    return type(v), repr(v)


class TestImpliedBounds:
    @settings(max_examples=250, deadline=None)
    @given(rows(rational=False))
    def test_float64_bit_equal_to_residual_formula(self, p):
        act = RowActivities.compute(p)
        lhs, rhs = p.row_lhs[0], p.row_rhs[0]
        for j, a in p.rows[0].items():
            lo, up, integral = p.col_lower[j], p.col_upper[j], \
                p.col_integral[j]
            got = implied_bounds(FLOAT, act.snapshot(0), a, lo, up, lhs, rhs,
                                 integral)
            want = _expected_from_residuals(FLOAT, act, a, lo, up, lhs, rhs,
                                            integral)
            assert list(map(_bits, got)) == list(map(_bits, want))

    @settings(max_examples=250, deadline=None)
    @given(rows(rational=True))
    def test_rational_equals_sum_over_other_entries(self, p):
        act = RowActivities.compute(p)
        lhs, rhs = p.row_lhs[0], p.row_rhs[0]
        for j, a in p.rows[0].items():
            integral = p.col_integral[j]
            mn, mx = _residuals_from_scratch(p, j)
            caps = {}
            if is_finite(rhs) and is_finite(mn):
                caps["upper" if a > 0 else "lower"] = (rhs - mn) / a
            if is_finite(lhs) and is_finite(mx):
                caps["lower" if a > 0 else "upper"] = (lhs - mx) / a
            lower = caps.get("lower", NEG_INF)
            upper = caps.get("upper", INF)
            if integral:
                lower = RATIONAL.round_up_bound(lower)
                upper = RATIONAL.round_down_bound(upper)
            got = implied_bounds(RATIONAL, act.snapshot(0), a,
                                 p.col_lower[j], p.col_upper[j], lhs, rhs,
                                 integral)
            assert got == (lower, upper)


# ---------------------------------------------------------------------------
# probing's overlay propagation


@st.composite
def probe_problems(draw):
    """Rational rows over a binary column 0 and columns with finite or
    infinite bounds, integral or continuous; coefficients of both signs."""
    nums = _numbers(True)
    p = Problem(RATIONAL)
    n = draw(st.integers(2, 5))
    p.add_col(0, 1, 0, True)
    for _ in range(n - 1):
        _add_col(draw, p, nums)
    for _ in range(draw(st.integers(1, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True))
        coeffs = [draw(nums.filter(lambda v: v != 0)) for _ in cols]
        p.add_row(dict(zip(cols, coeffs)), *_sides(draw, nums))
    return p


def _reference_probe(p, k, val):
    """_probe_propagate written from scratch: every activity and residual
    is summed anew from the overlay bounds."""
    bounds = {}

    def col(j):
        return bounds.get(j, (p.col_lower[j], p.col_upper[j]))

    def row_feasible(i):
        mn, mx = _residuals_from_scratch(p, None, i, col)
        return mn <= p.row_rhs[i] and p.row_lhs[i] <= mx

    v = Fraction(val)
    if (v, v) != col(k):
        bounds[k] = (v, v)
    affected = set(p.cols[k])
    for _ in range(2):
        next_affected = set()
        for i in sorted(affected):
            if not row_feasible(i):
                return None
            lhs, rhs = p.row_lhs[i], p.row_rhs[i]
            for j, a in sorted(p.rows[i].items()):
                lo, up = col(j)
                if lo == up:
                    continue
                mn, mx = _residuals_from_scratch(p, j, i, col)
                caps = []
                if is_finite(rhs) and is_finite(mn):
                    caps.append(("up" if a > 0 else "lo", (rhs - mn) / a))
                if is_finite(lhs) and is_finite(mx):
                    caps.append(("lo" if a > 0 else "up", (lhs - mx) / a))
                new_lo, new_up = lo, up
                for side, cap in caps:
                    if side == "lo":
                        cap = math.ceil(cap) if p.col_integral[j] else cap
                        new_lo = max(new_lo, cap)
                    else:
                        cap = math.floor(cap) if p.col_integral[j] else cap
                        new_up = min(new_up, cap)
                if new_lo > new_up:
                    return None
                if (new_lo, new_up) != (lo, up):
                    bounds[j] = (new_lo, new_up)
                    next_affected.update(p.cols[j])
        affected = next_affected
        if not affected:
            break
    touched = set(p.cols[k]).union(*(p.cols[j] for j in bounds))
    if not all(row_feasible(i) for i in touched):
        return None
    return bounds


class TestProbePropagate:
    @settings(max_examples=300, deadline=None)
    @given(probe_problems())
    def test_rational_equals_from_scratch_reference(self, p):
        upd = ModelUpdate(p)
        view = PresolveView(upd.problem, upd.activities, upd.locks)
        for val in (0, 1):
            got = exhaustive._probe_propagate(view, {}, 0, val)
            assert got == _reference_probe(p, 0, val)


# ---------------------------------------------------------------------------
# fork fan-out


def _open_bounds(p, rng):
    for j in range(p.ncols):
        if rng.random() < 0.25:
            p.col_lower[j] = NEG_INF
        if rng.random() < 0.25:
            p.col_upper[j] = INF
    return p


class TestFanOut:
    """Every fork path, forced on by zero thresholds, returns what the
    in-process path returns."""

    PRESOLVERS = ("domcol", "probing", "sparsify")

    def test_forked_transactions_equal_sequential(self, monkeypatch):
        for name in ("PROBING_PARALLEL_MIN_CANDIDATES",
                     "PROBING_PARALLEL_MIN_NNZ",
                     "DOMCOL_PARALLEL_MIN_GROUPS",
                     "SPARSIFY_PARALLEL_MIN_EQS"):
            monkeypatch.setattr(exhaustive, name, 0)
        forked = []

        def recording_fork_map(fn, items, workers):
            forked.append((fn.__name__, workers))
            return fork_map(fn, items, workers)

        monkeypatch.setattr(exhaustive, "fork_map", recording_fork_map)
        found = dict.fromkeys(self.PRESOLVERS, 0)
        # wide instances give domcol equal supports, tall ones give
        # sparsify overlapping equations
        for ncols, nrows in ((60, 20), (30, 60)):
            for seed in range(3):
                p = _open_bounds(
                    random_medium_mip(random.Random(seed), ncols, nrows),
                    random.Random(seed))
                upd = ModelUpdate(p)
                for name in self.PRESOLVERS:
                    txs = {workers: runner(name)(PresolveView(
                        upd.problem, upd.activities, upd.locks,
                        workers=workers)) for workers in (1, 2, 3)}
                    assert repr(txs[2]) == repr(txs[1]), (name, ncols, seed)
                    assert repr(txs[3]) == repr(txs[1]), (name, ncols, seed)
                    found[name] += len(txs[1])
        assert all(found.values()), found
        for chunk_fn in ("_domcol_chunk", "_probe_chunk", "_sparsify_chunk"):
            for workers in (2, 3):
                assert (chunk_fn, workers) in forked


def _probe_at_each_worker_count(upd):
    """run_probing's transactions (repr) or InfeasibleError message at
    workers 1, 2 and 3."""
    out = {}
    for workers in (1, 2, 3):
        view = PresolveView(upd.problem, upd.activities, upd.locks,
                            workers=workers)
        try:
            out[workers] = repr(exhaustive.run_probing(view))
        except InfeasibleError as err:
            out[workers] = f"InfeasibleError: {err}"
        assert exhaustive._VIEW is None and not exhaustive._SORTED_ROWS
    return out


def _infeasible_gadgets(offsets):
    """Binaries x0..x29; for each offset o, x_o = x_{o+1} and
    x_o + x_{o+1} = 1 make both probing branches of x_o infeasible."""
    p = Problem(FLOAT)
    for j in range(30):
        p.add_col(0, 1, 0, True, name=f"x{j}")
    for j in range(0, 30, 2):
        p.add_row({j: 1, j + 1: 1}, NEG_INF, 1)
    for o in offsets:
        p.add_row({o + 1: 1, o: -1}, 0, INF)
        p.add_row({o: 1, o + 1: -1}, 0, INF)
        p.add_row({o: 1, o + 1: 1}, 1, INF)
    return p


class TestProbingAcrossWorkers:
    """run_probing with every fork threshold at zero, so workers 2 and 3
    fork; the merge into transactions runs in the workers."""

    @pytest.fixture(autouse=True)
    def forced_forks(self, monkeypatch):
        monkeypatch.setattr(exhaustive, "PROBING_PARALLEL_MIN_CANDIDATES", 0)
        monkeypatch.setattr(exhaustive, "PROBING_PARALLEL_MIN_NNZ", 0)
        forked = []

        def recording_fork_map(fn, items, workers):
            forked.append(workers)
            return fork_map(fn, items, workers)

        monkeypatch.setattr(exhaustive, "fork_map", recording_fork_map)
        yield
        assert 2 in forked and 3 in forked

    def test_rows_out_of_key_order_after_substitution(self):
        found = unordered = 0
        for seed in range(4):
            p = random_medium_mip(random.Random(seed), 60, 40)
            for i in range(p.nrows):
                p.rows[i] = dict(sorted(p.rows[i].items()))
            upd = ModelUpdate(p)
            view = PresolveView(upd.problem, upd.activities, upd.locks)
            apply_all(upd, runner("substitution")(view))
            q = upd.problem
            unordered += sum(list(q.rows[i]) != sorted(q.rows[i])
                             for i in q.active_rows())
            txs = _probe_at_each_worker_count(upd)
            assert txs[2] == txs[1] and txs[3] == txs[1], seed
            found += txs[1].count("Transaction(")
        assert unordered and found

    def test_both_branches_infeasible_reports_first_candidate(self):
        # x10 comes first in candidate order, in an earlier chunk than
        # x22 and x26 at 2 and 3 workers
        upd = ModelUpdate(_infeasible_gadgets([22, 10, 26]))
        msgs = _probe_at_each_worker_count(upd)
        assert set(msgs.values()) == {
            "InfeasibleError: probing x10: both branches infeasible"}

    def test_sorted_rows_die_with_the_call(self, monkeypatch):
        """Probing A and then B equals probing B alone, with a cache that
        never saw A: no sorted row of A is read for B."""
        a = ModelUpdate(random_medium_mip(random.Random(5), 60, 40))
        b = ModelUpdate(random_medium_mip(random.Random(6), 60, 40))
        _probe_at_each_worker_count(a)
        after_a = _probe_at_each_worker_count(b)
        monkeypatch.setattr(exhaustive, "_SORTED_ROWS", {})
        assert _probe_at_each_worker_count(b) == after_a

