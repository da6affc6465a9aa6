"""The shared implied-bound kernel and the exhaustive tier's fork fan-out."""
import gc
import math
import multiprocessing
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import premip.presolvers.exhaustive as exhaustive
from premip import NumericContext, Problem, apply_all
from premip.model import InfeasibleError, ModelUpdate, RowActivities
from premip.numerics import (INF, NEG_INF, bound_improves_lower,
                             bound_improves_upper, is_finite)
from premip.parallel import fork_map
from premip.presolvers import PresolveView, runner
from premip.presolvers.common import (GATE_RTOL, finite_side,
                                      implied_bounds, slack_need,
                                      tightening_sides)
from premip.transactions import (ReductionStep, StepKind, Transaction,
                                 assert_col_bounds)

from conftest import random_medium_mip, to_rational
from test_acceptance import probing_chain_instance

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


def _kernel_with_infinite_sides(ctx, state, a, lo, up, lhs, rhs, integral):
    """implied_bounds as it was when infinite sides came as INF/NEG_INF."""
    min_sum, max_sum, n_min_inf, n_max_inf = state
    positive = a > 0
    lower, upper = NEG_INF, INF
    if is_finite(rhs):
        low = lo if positive else up
        if is_finite(low):
            res = min_sum - a * low if n_min_inf <= 0 else None
        else:
            res = min_sum if n_min_inf <= 1 else None
        if res is not None and is_finite(res):
            cap = (rhs - res) / a
            if positive:
                upper = ctx.round_down_bound(cap) if integral else cap
            else:
                lower = ctx.round_up_bound(cap) if integral else cap
    if is_finite(lhs):
        high = up if positive else lo
        if is_finite(high):
            res = max_sum - a * high if n_max_inf <= 0 else None
        else:
            res = max_sum if n_max_inf <= 1 else None
        if res is not None and is_finite(res):
            cap = (lhs - res) / a
            if positive:
                lower = ctx.round_up_bound(cap) if integral else cap
            else:
                upper = ctx.round_down_bound(cap) if integral else cap
    return lower, upper


class TestNoneSides:
    @settings(max_examples=250, deadline=None)
    @given(st.booleans().flatmap(lambda r: st.tuples(st.just(r), rows(r))))
    def test_none_side_gives_what_an_infinite_side_gave(self, drawn):
        rational, p = drawn
        ctx = RATIONAL if rational else FLOAT
        act = RowActivities.compute(p)
        lhs, rhs = p.row_lhs[0], p.row_rhs[0]
        for j, a in p.rows[0].items():
            args = (act.snapshot(0), a, p.col_lower[j], p.col_upper[j])
            got = implied_bounds(ctx, *args, finite_side(lhs),
                                 finite_side(rhs), p.col_integral[j])
            want = _kernel_with_infinite_sides(ctx, *args, lhs, rhs,
                                               p.col_integral[j])
            assert list(map(_bits, got)) == list(map(_bits, want))


# ---------------------------------------------------------------------------
# the slack test in front of the kernel


def _magnitude(rational):
    """m * 10**e from 1e-12 to about 1e12."""
    def build(m, e):
        if rational:
            return Fraction(m) * Fraction(10) ** e
        return m * 10.0 ** e
    return st.builds(build, st.integers(1000, 9999), st.integers(-15, 8))


# slack as a multiple of the entry's range: far inside, around and beyond
_FACTORS = [-0.5, 0, 0.5, 1, 1 + 1e-15, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6,
            1 + 1e-4, 1.01, 1.05, 1.5, 2, 10]


@st.composite
def gate_cases(draw, rational):
    """(state, a, lo, up, lhs, rhs, integral) of one entry of a row whose
    other entries contribute a finite part plus 0, 1 or 2 infinite shares
    to each activity sum; the sides sit around the entry's range."""
    mag = _magnitude(rational)
    num = (lambda v: Fraction(v)) if rational else float
    a = draw(mag) * draw(st.sampled_from([1, -1]))
    integral = draw(st.booleans())
    # a bound is infinite in one draw of four
    lo = draw(st.one_of(st.just(NEG_INF), *[mag.map(lambda v: -2 * v)] * 3))
    up = draw(st.one_of(st.just(INF), *[mag.map(
        lambda v: v if not is_finite(lo) else lo + v)] * 3))
    if integral:
        # integral bounds, or bounds half way between integers
        half = draw(st.booleans())
        shift = num(0.5) if half else num(0)
        lo = lo if not is_finite(lo) else num(math.floor(lo)) + shift
        up = up if not is_finite(up) else num(math.floor(up)) + shift + 1
    sums = []
    counts = []
    for share in ((lo, up) if a > 0 else (up, lo)):
        other = draw(mag) * draw(st.sampled_from([1, -1, 0]))
        n = draw(st.sampled_from([0, 0, 1, 2]))
        if is_finite(share):
            sums.append(other + a * share)
            counts.append(n)
        else:
            sums.append(other)
            counts.append(n + 1)
    state = (sums[0], sums[1], counts[0], counts[1])
    width = (abs(a) * (up - lo) if is_finite(lo) and is_finite(up)
             else draw(mag))
    sides = []
    for base, sign in ((sums[0], 1), (sums[1], -1)):
        if draw(st.integers(0, 4)) == 0:
            sides.append(None)
            continue
        factor = draw(st.sampled_from(_FACTORS + [1, 1, 1]))
        delta = width * (Fraction(factor) if rational else factor)
        if not rational:
            # around the whole step of an integral column, feastol*|a|
            delta += FLOAT.feastol * abs(a) * draw(st.sampled_from(
                [0, -1, -1 - 1e-9, -1 + 1e-9, -1.01, -1.5, -2, 1]))
        sides.append(base + sign * delta)
    rhs, lhs = sides
    return state, a, lo, up, lhs, rhs, integral


def _check_gate(ctx, rtol, case):
    state, a, lo, up, lhs, rhs, integral = case
    gated = tightening_sides(state, a, lo, up, lhs, rhs, integral, rtol,
                             ctx.feastol)
    assert gated[0] in (lhs, None) and gated[1] in (rhs, None)
    for name, kept in zip(("lhs", "rhs"), gated):
        side = lhs if name == "lhs" else rhs
        if side is None or kept is not None:
            continue
        only = (side, None) if name == "lhs" else (None, side)
        lower, upper = implied_bounds(ctx, state, a, lo, up, *only, integral)
        assert not upper < up and not lower > lo, (name, lower, upper)
    return gated


class TestSlackGate:
    """Whenever the gate drops a side, the kernel's bound from that side
    is not strictly tighter than the entry's bound."""

    @settings(max_examples=1500, deadline=None)
    @given(gate_cases(rational=False))
    def test_float64(self, case):
        _check_gate(FLOAT, GATE_RTOL, case)

    @settings(max_examples=600, deadline=None)
    @given(gate_cases(rational=True))
    def test_rational_exact(self, case):
        _check_gate(RATIONAL, 0, case)

    def test_drops_the_sides_of_a_loose_row(self):
        # 10*x0 - x1 - ... - x10 <= 0 over binaries: without the integral
        # step every entry's range fits in the slack except x0's
        state = (-10.0, 10.0, 0, 0)
        assert tightening_sides(state, -1.0, 0.0, 1.0, None, 0.0, True,
                                GATE_RTOL, 0.0) == (None, None)
        assert tightening_sides(state, 10.0, 0.0, 1.0, None, 0.0, True,
                                GATE_RTOL, 0.0) == (None, 0.0)
        # a half-integral bound of an integral column keeps its side
        assert tightening_sides(state, -1.0, 0.0, 1.5, None, 0.0, True,
                                GATE_RTOL, FLOAT.feastol) == (None, 0.0)

    def test_integral_step(self):
        """x0's cap sits exactly on its bound, 0 + 10/10 = 1: an integral
        x0 needs a whole step, so its side goes; a continuous one keeps
        it, and so does a slack a little short of the range."""
        state = (-10.0, 10.0, 0, 0)
        feastol = FLOAT.feastol
        assert tightening_sides(state, 10.0, 0.0, 1.0, None, 0.0, True,
                                GATE_RTOL, feastol) == (None, None)
        assert tightening_sides(state, 10.0, 0.0, 1.0, None, 0.0, False,
                                GATE_RTOL, feastol) == (None, 0.0)
        for rhs in (-20 * feastol, -0.5):
            assert tightening_sides(state, 10.0, 0.0, 1.0, None, rhs, True,
                                    GATE_RTOL, feastol) == (None, rhs)
            upper = implied_bounds(FLOAT, state, 10.0, 0.0, 1.0, None, rhs,
                                   True)[1]
            assert upper == 0.0
        # within feastol of the step the kernel rounds back up: no side
        rhs = -5 * feastol
        assert implied_bounds(FLOAT, state, 10.0, 0.0, 1.0, None, rhs,
                              True)[1] == 1.0
        assert tightening_sides(state, 10.0, 0.0, 1.0, None, rhs, True,
                                GATE_RTOL, feastol) == (None, None)


# ---------------------------------------------------------------------------
# probing's row screen


@st.composite
def screen_cases(draw):
    """(state, a, lo, up, sub_lo, sub_up, lhs, rhs, integral): an entry
    whose global box [lo, up] holds its branch box [sub_lo, sub_up], in a
    row with no infinite share built from the branch box; each side's
    slack sits around |a|*(up-lo), shifted by multiples of feastol*|a|,
    feastol and 1e-15."""
    feastol = FLOAT.feastol
    mag = _magnitude(False)
    a = draw(mag) * draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["integral", "half", "continuous"]))
    whole = draw(st.booleans())
    if kind == "continuous":
        lo = draw(mag) * draw(st.sampled_from([-1, 0, 1]))
        up = lo + draw(mag)
        t0, t1 = sorted(draw(st.floats(0, 1)) for _ in range(2))
        sub_lo = min(max(lo + (up - lo) * t0, lo), up)
        sub_up = max(min(lo + (up - lo) * t1, up), sub_lo)
    else:
        lo = float(draw(st.integers(-100, 100)))
        up = lo + draw(st.integers(0, 5))
        sub_lo = float(draw(st.integers(int(lo), int(up))))
        sub_up = float(draw(st.integers(int(sub_lo), int(up))))
        if kind == "half":
            lo, up = lo - 0.5, up + 0.5
    if whole:
        sub_lo, sub_up = lo, up
    integral = kind != "continuous"
    other_min = draw(mag) * draw(st.sampled_from([1, -1, 0]))
    other_max = other_min + draw(mag)
    if a > 0:
        state = (other_min + a * sub_lo, other_max + a * sub_up, 0, 0)
    else:
        state = (other_min + a * sub_up, other_max + a * sub_lo, 0, 0)
    sides = []
    for base, sign in ((state[0], 1), (state[1], -1)):
        if draw(st.integers(0, 3)) == 0:
            sides.append(None)
            continue
        factor = draw(st.sampled_from([0, 0.5, 1, 1, 1, 1 + 1e-12, 2]))
        c1, c2, c3 = (draw(st.sampled_from([-1, 0, 1])) for _ in range(3))
        slack = (abs(a) * (up - lo) * factor + c1 * feastol * abs(a)
                 + c2 * feastol + c3 * 1e-15)
        sides.append(base + sign * slack)
    rhs, lhs = sides
    return state, a, lo, up, sub_lo, sub_up, lhs, rhs, integral


class TestProbingScreen:
    """An entry the screen skips, its need from the global box below the
    row's threshold, cannot be tightened by the kernel in any branch box
    inside the global one."""

    @settings(max_examples=3000, deadline=None)
    @given(screen_cases())
    def test_need_below_threshold_cannot_tighten(self, case):
        state, a, lo, up, sub_lo, sub_up, lhs, rhs, integral = case
        need = slack_need(a, lo, up, integral, FLOAT.feastol, GATE_RTOL)
        if not need < exhaustive._screen_threshold(list(state), lhs, rhs,
                                                   GATE_RTOL):
            return
        lower, upper = implied_bounds(FLOAT, state, a, sub_lo, sub_up, lhs,
                                      rhs, integral)
        assert not upper < sub_up and not lower > sub_lo

    def test_skips_a_binary_whose_cap_sits_on_its_bound(self):
        # 10*x0 - x1 - ... - x10 <= 0 with x0's cap exactly 1
        st_ = [-10.0, 10.0, 0, 0]
        thr = exhaustive._screen_threshold(st_, None, 0.0, GATE_RTOL)
        assert slack_need(10.0, 0.0, 1.0, True, FLOAT.feastol,
                          GATE_RTOL) < thr
        assert not slack_need(10.0, 0.0, 1.0, False, FLOAT.feastol,
                              GATE_RTOL) < thr
        # with one window entry fixed to 0, x0 can reach 0: no skip
        thr = exhaustive._screen_threshold([-9.0, 10.0, 0, 0], None, 0.0,
                                           GATE_RTOL)
        assert not slack_need(10.0, 0.0, 1.0, True, FLOAT.feastol,
                              GATE_RTOL) < thr

    def test_probing_equals_probing_without_early_exits(self, monkeypatch):
        """run_probing's transactions with the screen and the slack test
        equal those of every entry going to the kernel, in float64 and in
        rational mode, where the screen runs with zero margin."""
        instances = [probing_chain_instance(60)]
        for seed in range(4):
            instances.append(_open_bounds(
                random_medium_mip(random.Random(seed), 60, 40),
                random.Random(seed)))
            instances.append(random_medium_mip(random.Random(seed), 60, 40))
        instances += [to_rational(p) for p in instances]

        def probe_all():
            out = []
            for p in instances:
                upd = ModelUpdate(p.copy())
                view = PresolveView(upd.problem, upd.activities, upd.locks)
                try:
                    out.append(repr(exhaustive.run_probing(view)))
                except InfeasibleError as err:
                    out.append(str(err))
            return out

        screened = probe_all()
        assert sum(t.count("Transaction(") for t in screened) > 100
        assert sum(t.count("Fraction(") for t in screened) > 100
        monkeypatch.setattr(exhaustive, "_screen_threshold",
                            lambda st_, lhs, rhs, rtol: NEG_INF)
        monkeypatch.setattr(exhaustive, "tightening_sides",
                            lambda st_, a, lo, up, lhs, rhs, *rest: (lhs, rhs))
        assert probe_all() == screened

    @pytest.mark.parametrize("ctx", [FLOAT, RATIONAL], ids=["float64",
                                                            "rational"])
    def test_row_with_an_open_column_made_finite_is_read(self, ctx):
        """y - 10*x0 <= 0 and z + y <= 5 with y in [0, inf), z in [0, 1]:
        x0 = 1 gives y <= 10, which leaves the second row without an
        infinite share, and that row then gives y <= 5.  y's need from its
        global bounds is INF, never NaN, so the row's largest need is INF
        and the screen reads the row; a NaN after z's need 1 would have
        been dropped by max() and the row skipped for its threshold 5."""
        p = Problem(ctx)
        p.add_col(0, 1, 0, True)
        p.add_col(0, 1, 0, False)
        p.add_col(0, INF, 0, False)
        p.add_row({0: -10, 2: 1}, NEG_INF, 0)
        p.add_row({1: 1, 2: 1}, NEG_INF, 5)
        rtol = GATE_RTOL if ctx is FLOAT else 0
        rows = {}
        entries, _, _, top = exhaustive._cache_row(rows, p, 1, rtol)
        assert entries[1][2] == INF and top == INF
        upd = ModelUpdate(p)
        view = PresolveView(upd.problem, upd.activities, upd.locks)
        assert exhaustive._probe_propagate(view, rows, 0, 1) == {
            0: (1, 1), 2: (0, 5)}
        if ctx is RATIONAL:
            assert _reference_probe(p, 0, 1) == {0: (1, 1), 2: (0, 5)}


# ---------------------------------------------------------------------------
# the merge of probing's two branches


def _union_merge(view, k, res0, res1):
    """_probe_merge over every column either branch moved, as it was
    written before it skipped the columns one branch moved."""
    p = view.problem
    ctx = view.ctx
    touched = sorted((set(res0) | set(res1)) - {k})
    bound_steps = []
    aggregations = []
    for j in touched:
        lo0, up0 = res0.get(j, (p.col_lower[j], p.col_upper[j]))
        lo1, up1 = res1.get(j, (p.col_lower[j], p.col_upper[j]))
        glb, gub = min(lo0, lo1), max(up0, up1)
        integral = p.col_integral[j]
        if bound_improves_lower(ctx, p.col_lower[j], glb, integral):
            bound_steps.append(ReductionStep(StepKind.CHANGE_LOWER,
                                             col=j, value=glb))
        if bound_improves_upper(ctx, p.col_upper[j], gub, integral):
            bound_steps.append(ReductionStep(StepKind.CHANGE_UPPER,
                                             col=j, value=gub))
        forced0 = ctx.approx_eq(lo0, up0)
        forced1 = ctx.approx_eq(lo1, up1)
        if forced0 and forced1 and not ctx.approx_eq(lo0, lo1):
            alpha, beta = lo0, lo1 - lo0
            if p.col_integral[j] and not (ctx.is_integral(alpha)
                                          and ctx.is_integral(beta)):
                continue
            aggregations.append(Transaction("probing", [
                assert_col_bounds(j), assert_col_bounds(k),
                ReductionStep(StepKind.SUBSTITUTE_COLUMN, col=j, col2=k,
                              value=alpha, scale=beta)]))
    return [Transaction("probing", [step]) for step in bound_steps] \
        + aggregations


def _branch_box(rng, lo, up, integral):
    """A box inside [lo, up]: fixed at a bound or inside, or shrunk."""
    pick = rng.random()
    if pick < 0.3:
        v = rng.choice([lo, up])
        return v, v
    if integral:
        a, b = sorted(rng.randint(math.ceil(lo), math.floor(up))
                      for _ in range(2))
        return float(a), float(b)
    a, b = sorted(lo + (up - lo) * rng.random() for _ in range(2))
    return (a, a) if pick < 0.5 else (a, b)


class TestProbeMerge:
    def test_equals_the_union_loop(self):
        """Branch results with columns moved in one or both branches, and
        columns whose global bounds are approx_eq without being equal."""
        found = near = 0
        for seed in range(400):
            rng = random.Random(seed)
            p = Problem(FLOAT)
            for _ in range(rng.randint(2, 12)):
                kind = rng.random()
                if kind < 0.4:
                    p.add_col(0, 1, 0, True)
                elif kind < 0.6:
                    lo = rng.randint(-5, 5)
                    p.add_col(lo, lo + rng.randint(1, 6), 0, True)
                elif kind < 0.8:
                    lo = rng.uniform(-5, 5)
                    p.add_col(lo, lo + rng.uniform(0.1, 5), 0, False)
                else:  # approx_eq bounds that differ
                    lo = rng.choice([0.0, 1.0, -3.0, 1e4])
                    p.add_col(lo, lo + 5e-10 * max(1, abs(lo)), 0,
                              rng.random() < 0.3)
            k = 0
            res = [{k: (float(v), float(v))} for v in (0, 1)]
            for j in range(1, p.ncols):
                lo, up = p.col_lower[j], p.col_upper[j]
                near += lo != up and FLOAT.approx_eq(lo, up)
                for branch in res:
                    if rng.random() < 0.6:
                        branch[j] = _branch_box(rng, lo, up,
                                                p.col_integral[j])
            upd = ModelUpdate(p)
            view = PresolveView(upd.problem, upd.activities, upd.locks)
            got = exhaustive._probe_merge(view, k, *res)
            assert repr(got) == repr(_union_merge(view, k, *res)), seed
            found += len(got)
        assert found > 200 and near > 50


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


def _frozen_in_worker(_):
    return gc.get_freeze_count()


def test_forked_workers_inherit_a_frozen_heap():
    """Workers see the parent's objects frozen, so their collections leave
    the shared pages alone; the parent's heap is unfrozen afterwards."""
    assert all(n > 0 for n in fork_map(_frozen_in_worker, [0, 1, 2], 2))
    assert gc.get_freeze_count() == 0


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


class TestProbingWorkspace:
    """After every branch the workspace holds the problem's bounds again,
    infeasible early exits included, in-process and in forked workers."""

    def test_restored_after_every_branch(self, monkeypatch):
        monkeypatch.setattr(exhaustive, "PROBING_PARALLEL_MIN_CANDIDATES", 0)
        monkeypatch.setattr(exhaustive, "PROBING_PARALLEL_MIN_NNZ", 0)
        # shared with forked workers: branches run, and infeasible ones
        calls = multiprocessing.Value("i", 0)
        infeasible = multiprocessing.Value("i", 0)
        inner = exhaustive._probe_propagate

        def checked(view, rows, k, val, ws=None):
            out = inner(view, rows, k, val, ws)
            p = view.problem
            assert ws is exhaustive._BOUNDS and ws is not None
            for mine, theirs in ((ws[0], p.col_lower), (ws[1], p.col_upper)):
                assert len(mine) == len(theirs)
                assert all(x is y for x, y in zip(mine, theirs)), (k, val)
            with calls.get_lock():
                calls.value += 1
            if out is None:
                with infeasible.get_lock():
                    infeasible.value += 1
            return out

        monkeypatch.setattr(exhaustive, "_probe_propagate", checked)
        problems = [_infeasible_gadgets([22, 10, 26]),
                    _infeasible_gadgets([])]
        for seed in range(3):
            problems.append(_open_bounds(
                random_medium_mip(random.Random(seed), 60, 40),
                random.Random(seed)))
        for workers in (1, 2, 3):
            calls.value = infeasible.value = 0
            for p in problems:
                upd = ModelUpdate(p)
                try:
                    exhaustive.run_probing(PresolveView(
                        upd.problem, upd.activities, upd.locks,
                        workers=workers))
                except InfeasibleError:
                    pass
                assert exhaustive._BOUNDS is None
            assert calls.value > 100 and infeasible.value > 0, workers

    def test_direct_call_restores_an_infeasible_branch(self):
        upd = ModelUpdate(_infeasible_gadgets([10]))
        view = PresolveView(upd.problem, upd.activities, upd.locks)
        p = upd.problem
        ws = exhaustive._workspace(p)
        for val in (0, 1):
            assert exhaustive._probe_propagate(view, {}, 10, val, ws) is None
            assert ws[:2] == (p.col_lower, p.col_upper)
        # a feasible branch reports its moves and leaves ws as it was
        got = exhaustive._probe_propagate(view, {}, 0, 1, ws)
        assert got and got[0] == (1.0, 1.0) and got[1] == (0.0, 0.0)
        assert ws[:2] == (p.col_lower, p.col_upper)
