"""The shared implied-bound kernel and the exhaustive tier's fork fan-out."""
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import premip.presolvers.exhaustive as exhaustive
from premip import NumericContext, Problem
from premip.model import ModelUpdate, RowActivities
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


@st.composite
def rows(draw, rational):
    """A one- or two-sided row over columns with finite or infinite bounds."""
    ctx = RATIONAL if rational else FLOAT
    nums = _numbers(rational)
    p = Problem(ctx)
    n = draw(st.integers(1, 6))
    for _ in range(n):
        lo = draw(st.one_of(st.just(NEG_INF), nums))
        span = draw(st.one_of(st.just(INF), nums.map(abs)))
        up = INF if not is_finite(span) else (
            span if not is_finite(lo) else lo + span)
        p.add_col(lo, up, 0, draw(st.booleans()))
    coeffs = draw(st.lists(nums.filter(lambda v: abs(v) >= 1e-3),
                           min_size=n, max_size=n))
    side = draw(nums)
    kind = draw(st.sampled_from(["le", "ge", "range", "eq"]))
    width = abs(draw(nums))
    lhs = NEG_INF if kind == "le" else side
    rhs = (INF if kind == "ge" else side + width if kind == "range"
           else side)
    p.add_row(dict(enumerate(coeffs)), lhs, rhs)
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


def _residuals_from_scratch(p, k):
    """Minimum and maximum activity of row 0 without column k."""
    mn, mx = Fraction(0), Fraction(0)
    for j, a in p.rows[0].items():
        if j == k:
            continue
        lo, up = p.col_lower[j], p.col_upper[j]
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
