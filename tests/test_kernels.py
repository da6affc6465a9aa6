"""The shared implied-bound kernel and the exhaustive tier's fork fan-out."""
import gc
import math
import multiprocessing
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import premip.presolvers as presolvers
import premip.presolvers.exhaustive as exhaustive
import premip.presolvers.fast as fast
from premip import (NumericContext, PresolveOptions, Problem, apply_all,
                    presolve)
from premip.model import InfeasibleError, ModelUpdate, RowActivities
from premip.numerics import (INF, NEG_INF, bound_improves_lower,
                             bound_improves_upper, is_finite)
import premip.parallel as parallel
from premip.parallel import fork_map
from premip.presolvers import PresolveView, runner
from premip.presolvers.common import (GATE_RTOL, finite_side,
                                      implied_bounds, max_residual,
                                      min_residual, screen_rtol,
                                      screen_threshold, slack_need)
from premip.transactions import (ReductionStep, StepKind, Transaction,
                                 assert_col_bounds)

from conftest import (quotient, random_medium_mip, random_mixed_mip,
                      random_small_mip, to_rational)
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


def _old_min_residual(state, a, lo, up):
    """The minimum residual as `RowActivities.min_residual` and
    `_min_contribution` computed it before the row state had one reader."""
    if a > 0:
        val, inf = (a * lo, False) if is_finite(lo) else (0, True)
    else:
        val, inf = (a * up, False) if is_finite(up) else (0, True)
    if state[2] - (1 if inf else 0) > 0:
        return NEG_INF
    return state[0] - val


def _old_max_residual(state, a, lo, up):
    if a > 0:
        val, inf = (a * up, False) if is_finite(up) else (0, True)
    else:
        val, inf = (a * lo, False) if is_finite(lo) else (0, True)
    if state[3] - (1 if inf else 0) > 0:
        return INF
    return state[1] - val


# the residual rules the kernel is checked against: the old formula, and
# the helpers that serve the kernel, DualFix and FixContinuous
RESIDUALS = ((_old_min_residual, _old_max_residual),
             (min_residual, max_residual))


def _expected_from_residuals(ctx, residuals, state, a, lo, up, lhs, rhs,
                             integral):
    min_res, max_res = residuals
    lower, upper = NEG_INF, INF
    if is_finite(rhs):
        res = min_res(state, a, lo, up)
        if is_finite(res):
            cap = (rhs - res) / a
            if a > 0:
                upper = ctx.round_down_bound(cap) if integral else cap
            else:
                lower = ctx.round_up_bound(cap) if integral else cap
    if is_finite(lhs):
        res = max_res(state, a, lo, up)
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
    """A float bit for bit (its type and repr); an exact value by its
    value, which an int and an integral Fraction write alike."""
    if isinstance(v, float):
        return float, repr(v)
    return "exact", str(v)


class TestImpliedBounds:
    @settings(max_examples=250, deadline=None)
    @given(rows(rational=False))
    def test_float64_bit_equal_to_residual_formula(self, p):
        state = RowActivities.compute(p).state[0]
        lhs, rhs = p.row_lhs[0], p.row_rhs[0]
        for j, a in p.rows[0].items():
            lo, up, integral = p.col_lower[j], p.col_upper[j], \
                p.col_integral[j]
            got = implied_bounds(FLOAT, state, a, lo, up, lhs, rhs,
                                 integral)
            for residuals in RESIDUALS:
                want = _expected_from_residuals(FLOAT, residuals, state, a,
                                                lo, up, lhs, rhs, integral)
                assert list(map(_bits, got)) == list(map(_bits, want))
            for new, old in zip(RESIDUALS[1], RESIDUALS[0]):
                assert _bits(new(state, a, lo, up)) == \
                    _bits(old(state, a, lo, up))

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
            got = implied_bounds(RATIONAL, act.state[0], a,
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
            cap = quotient(ctx, rhs - res, a)
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
            cap = quotient(ctx, lhs - res, a)
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
            args = (act.state[0], a, p.col_lower[j], p.col_upper[j])
            got = implied_bounds(ctx, *args, finite_side(lhs),
                                 finite_side(rhs), p.col_integral[j])
            want = _kernel_with_infinite_sides(ctx, *args, lhs, rhs,
                                               p.col_integral[j])
            assert list(map(_bits, got)) == list(map(_bits, want))
            if rational and p.col_integral[j]:  # rounded: an int
                assert all(type(v) is int for v in got if is_finite(v))


# ---------------------------------------------------------------------------
# the row screen in front of the kernel


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


def _check_screen(ctx, case):
    """On any row, infinite shares included, an entry whose need lies
    below the row's threshold gets no bound from the kernel that is
    tighter than its own."""
    state, a, lo, up, lhs, rhs, integral = case
    rtol = screen_rtol(ctx)
    need = slack_need(a, lo, up, integral, ctx.feastol, rtol)
    if need < screen_threshold(state, lhs, rhs, rtol):
        lower, upper = implied_bounds(ctx, state, a, lo, up, lhs, rhs,
                                      integral)
        assert not upper < up and not lower > lo, (lower, upper)


class TestSlackGate:
    """The row screen, the one slack gate in front of the kernel: an entry
    it skips cannot be tightened by the row."""

    @settings(max_examples=1500, deadline=None)
    @given(gate_cases(rational=False))
    def test_float64(self, case):
        _check_screen(FLOAT, case)

    @settings(max_examples=600, deadline=None)
    @given(gate_cases(rational=True))
    def test_rational_exact(self, case):
        _check_screen(RATIONAL, case)

    def test_drops_the_sides_of_a_loose_row(self):
        # 10*x0 - x1 - ... - x10 <= 0 over binaries: without the integral
        # step every entry's range fits in the slack except x0's
        state = (-10.0, 10.0, 0, 0)
        thr = screen_threshold(state, None, 0.0, GATE_RTOL)
        assert slack_need(-1.0, 0.0, 1.0, True, 0.0, GATE_RTOL) < thr
        assert not slack_need(10.0, 0.0, 1.0, True, 0.0, GATE_RTOL) < thr
        # a half-integral bound of an integral column is read
        assert not slack_need(-1.0, 0.0, 1.5, True, FLOAT.feastol,
                              GATE_RTOL) < thr
        # a second side with a small slack is the threshold: every entry
        # goes to the kernel with both sides
        thr = screen_threshold(state, 9.5, 0.0, GATE_RTOL)
        assert not slack_need(-1.0, 0.0, 1.0, True, 0.0, GATE_RTOL) < thr
        # no side: nothing can be tightened
        assert screen_threshold(state, None, None, GATE_RTOL) == INF

    def test_integral_step(self):
        """x0's cap sits exactly on its bound, 0 + 10/10 = 1: an integral
        x0 needs a whole step, so the screen skips it; a continuous one is
        read, and so is an integral one under a slack a little short of
        the range."""
        state = (-10.0, 10.0, 0, 0)
        feastol = FLOAT.feastol

        def skipped(rhs, integral):
            return slack_need(10.0, 0.0, 1.0, integral, feastol,
                              GATE_RTOL) < screen_threshold(state, None, rhs,
                                                            GATE_RTOL)

        assert skipped(0.0, True)
        assert not skipped(0.0, False)
        for rhs in (-20 * feastol, -0.5):
            assert not skipped(rhs, True)
            upper = implied_bounds(FLOAT, state, 10.0, 0.0, 1.0, None, rhs,
                                   True)[1]
            assert upper == 0.0
        # within feastol of the step the kernel rounds back up: skipped
        rhs = -5 * feastol
        assert implied_bounds(FLOAT, state, 10.0, 0.0, 1.0, None, rhs,
                              True)[1] == 1.0
        assert skipped(rhs, True)

    def test_exact_need_of_a_huge_coefficient_on_an_infinite_range(self):
        """An int above 1e308 next to an infinity raises OverflowError,
        both in the product and in the range: the exact need of an
        infinite range is INF without either.  Since every row is
        screened, propagation reads such needs."""
        big = 10 ** 400
        assert slack_need(big, 0, INF, False, 0, 0) == INF
        assert slack_need(-big, NEG_INF, 3, False, 0, 0) == INF
        assert slack_need(3, big, INF, False, 0, 0) == INF
        assert slack_need(3, NEG_INF, -big, False, 0, 0) == INF
        assert slack_need(big, 0, 2, False, 0, 0) == 2 * big
        p = Problem(RATIONAL)
        x = p.add_col(0, 1, -1, integral=True)
        y = p.add_col(0, INF, 1, integral=False)
        z = p.add_col(NEG_INF, 5, 0, integral=False)
        p.add_row({x: 3, y: big}, NEG_INF, 10 * big)
        p.add_row({x: 1, y: 2, z: 3}, 1, 7)
        presolve(p, PresolveOptions(numeric_mode="rational"))

    def test_rational_presolve_of_a_huge_bound_next_to_an_infinity(self):
        """A continuous column with lower bound 10**400 and no upper bound,
        as `LO BND X 1e400` reads in rational mode, and its mirror image:
        propagation screens their rows without an OverflowError."""
        big = 10 ** 400
        p = Problem(RATIONAL)
        x = p.add_col(0, 1, -1, integral=True)
        y = p.add_col(big, INF, 1, integral=False)
        z = p.add_col(NEG_INF, -big, -1, integral=False)
        p.add_row({x: 1, y: 1}, NEG_INF, 3 * big)
        p.add_row({x: 2, z: 1}, -3 * big, INF)
        result = presolve(p, PresolveOptions(numeric_mode="rational"))
        assert result.verdict.value != "infeasible"

    def test_margin_covers_the_kernels_rounding(self):
        """A slack equal to the entry's range, about 1.46e-6 above a
        minimum activity near 1000: the kernel's rounding puts the cap
        1e-11 inside the bound.  Without the margin the screen would skip
        the entry; with float64's margin it is read."""
        state = (999.999997081472, 999.999998540736, 0, 0)
        a = 0.0012079999999999999
        lo, up, rhs = -2 * a, -a, state[1]
        assert implied_bounds(FLOAT, state, a, lo, up, None, rhs,
                              False)[1] < up
        need = slack_need(a, lo, up, False, FLOAT.feastol, 0)
        assert need < screen_threshold(state, None, rhs, 0)
        rtol = screen_rtol(FLOAT)
        need = slack_need(a, lo, up, False, FLOAT.feastol, rtol)
        assert not need < screen_threshold(state, None, rhs, rtol)

    @pytest.mark.parametrize("rational", [False, True],
                             ids=["float64", "rational"])
    def test_propagation_equals_propagation_without_the_screen(
            self, monkeypatch, rational):
        """run_propagation's transactions, and those of the whole presolve
        around it, equal those of every entry going to the kernel."""
        instances = [probing_chain_instance(60)]
        for seed in range(4):
            rng = random.Random(seed)
            instances += [random_small_mip(rng), random_mixed_mip(rng)]
            instances.append(random_medium_mip(random.Random(seed), 60, 40))
            instances.append(_open_bounds(
                random_medium_mip(random.Random(seed), 60, 40),
                random.Random(seed)))
        if rational:
            instances = [to_rational(p) for p in instances]

        def propagate_all():
            out = []
            for p in instances:
                upd = ModelUpdate(p.copy())
                view = PresolveView(upd.problem, upd.activities)
                try:
                    out.append(repr(fast.run_propagation(view)))
                except InfeasibleError as err:
                    out.append(str(err))
                res = presolve(p.copy(), PresolveOptions(
                    disabled={"probing"}))
                out.append((res.problem.stable_hash(), res.stats.as_dict()))
            return out

        screened = propagate_all()
        assert sum(t.count("Transaction(") for t in screened[::2]) > 100
        assert sum(stats.get("presolver.propagation.found", 0)
                   for _, stats in screened[1::2]) > 100
        monkeypatch.setattr(fast, "screen_threshold",
                            lambda state, lhs, rhs, rtol: NEG_INF)
        assert propagate_all() == screened


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


# a step's value or scale written as a float: 3.0, -2.5, 1e-05
_FLOAT_VALUE = re.compile(r"(value|scale)=-?\d*(\.\d|\de[-+]?\d)")


class TestProbingScreen:
    """An entry probing's screen skips, its need from the global box below
    the row's threshold, cannot be tightened by the kernel in any branch
    box inside the global one."""

    @settings(max_examples=3000, deadline=None)
    @given(screen_cases())
    def test_need_below_threshold_cannot_tighten(self, case):
        state, a, lo, up, sub_lo, sub_up, lhs, rhs, integral = case
        need = slack_need(a, lo, up, integral, FLOAT.feastol, GATE_RTOL)
        if not need < screen_threshold(state, lhs, rhs, GATE_RTOL):
            return
        lower, upper = implied_bounds(FLOAT, state, a, sub_lo, sub_up, lhs,
                                      rhs, integral)
        assert not upper < sub_up and not lower > sub_lo

    def test_skips_a_binary_whose_cap_sits_on_its_bound(self):
        # 10*x0 - x1 - ... - x10 <= 0 with x0's cap exactly 1
        st_ = [-10.0, 10.0, 0, 0]
        thr = screen_threshold(st_, None, 0.0, GATE_RTOL)
        assert slack_need(10.0, 0.0, 1.0, True, FLOAT.feastol,
                          GATE_RTOL) < thr
        assert not slack_need(10.0, 0.0, 1.0, False, FLOAT.feastol,
                              GATE_RTOL) < thr
        # with one window entry fixed to 0, x0 can reach 0: no skip
        thr = screen_threshold([-9.0, 10.0, 0, 0], None, 0.0, GATE_RTOL)
        assert not slack_need(10.0, 0.0, 1.0, True, FLOAT.feastol,
                              GATE_RTOL) < thr

    def test_probing_equals_probing_without_early_exits(self, monkeypatch):
        """run_probing's transactions with the screen equal those of every
        entry going to the kernel, in float64 and in rational mode, where
        the screen runs with zero margin."""
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
                view = PresolveView(upd.problem, upd.activities)
                try:
                    out.append(repr(exhaustive.run_probing(view)))
                except InfeasibleError as err:
                    out.append(str(err))
            return out

        screened = probe_all()
        assert sum(t.count("Transaction(") for t in screened) > 100
        # the rational copies, the second half, give over 100 transactions
        # of their own, and no finite float among their values
        exact = screened[len(screened) // 2:]
        assert sum(t.count("Transaction(") for t in exact) > 100
        assert not any(_FLOAT_VALUE.search(t) for t in exact)
        monkeypatch.setattr(exhaustive, "screen_threshold",
                            lambda st_, lhs, rhs, rtol: NEG_INF)
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
        rows = {}
        entries, _, _, top = exhaustive._cache_row(rows, p, 1,
                                                   screen_rtol(ctx))
        assert entries[1][2] == INF and top == INF
        upd = ModelUpdate(p)
        view = PresolveView(upd.problem, upd.activities)
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
            view = PresolveView(upd.problem, upd.activities)
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
        view = PresolveView(upd.problem, upd.activities)
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
    """Every fork path, forced on by a zero gate, returns what the
    in-process path returns; the gate is FORK_MIN_ITEMS items and more
    than one worker."""

    PRESOLVERS = ("domcol", "probing", "sparsify")

    @staticmethod
    def _view(workers):
        p = Problem(FLOAT)
        return PresolveView(p, RowActivities.compute(p), workers=workers)

    def test_gate_is_item_count_and_workers(self, monkeypatch):
        forks = []

        def counting_fork_map(fn, items, workers):
            forks.append((len(items), workers))
            return fork_map(fn, items, workers)

        monkeypatch.setattr(exhaustive, "fork_map", counting_fork_map)
        assert exhaustive.FORK_MIN_ITEMS == 192
        for n in (191, 192):
            for workers in (1, 2):
                assert exhaustive._fan_out(
                    self._view(workers), lambda k: [k, -k], list(range(n))
                ) == [v for k in range(n) for v in (k, -k)]
        assert forks == [(192, 2)]

    def test_first_infeasible_item_in_order_is_raised(self):
        called = []

        def fn(k):
            called.append(k)
            if k in (40, 150):
                raise InfeasibleError(f"item {k}")
            return [k]

        for items, first in ((list(range(192)), 40),
                             (list(range(191, -1, -1)), 150)):
            # in-process: no item after the first error runs
            called.clear()
            with pytest.raises(InfeasibleError, match=f"item {first}$"):
                exhaustive._fan_out(self._view(1), fn, items)
            assert called == items[:items.index(first) + 1]
            # forked: the items run in workers, and the first error in
            # item order is raised
            with pytest.raises(InfeasibleError, match=f"item {first}$"):
                exhaustive._fan_out(self._view(2), fn, items)

    def test_forked_transactions_equal_sequential(self, monkeypatch):
        monkeypatch.setattr(exhaustive, "FORK_MIN_ITEMS", 0)
        # every fork gets _fan_out's one wrapper, so a fork is told apart
        # by the runner call it happens in
        forks = []

        def counting_fork_map(fn, items, workers):
            forks.append(workers)
            return fork_map(fn, items, workers)

        monkeypatch.setattr(exhaustive, "fork_map", counting_fork_map)
        forked = set()
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
                    txs = {}
                    for workers in (1, 2, 3):
                        forks.clear()
                        txs[workers] = runner(name)(PresolveView(
                            upd.problem, upd.activities, workers=workers))
                        if forks:
                            forked.add((name, workers))
                    assert repr(txs[2]) == repr(txs[1]), (name, ncols, seed)
                    assert repr(txs[3]) == repr(txs[1]), (name, ncols, seed)
                    found[name] += len(txs[1])
        assert all(found.values()), found
        assert forked == {(name, workers) for name in self.PRESOLVERS
                          for workers in (2, 3)}


def _gc_in_worker(_):
    return gc.isenabled()


def test_fork_map_keeps_the_callers_collector_state():
    """Workers run with the collector off, so their collections leave the
    shared pages alone; the caller's frozen objects and collector state
    are as they were before the call, whatever they were."""
    enabled = gc.isenabled()
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            for frozen in (False, True):
                (gc.freeze if frozen else gc.unfreeze)()
                before = gc.get_freeze_count()
                assert (before > 0) == frozen
                assert fork_map(_gc_in_worker, [0, 1, 2], 2) == [False] * 3
                assert gc.get_freeze_count() == before
                assert gc.isenabled() == collecting
                gc.unfreeze()
    finally:
        (gc.enable if enabled else gc.disable)()
    # a closure reaches the workers too: they inherit it
    base = [os.getpid()]
    assert fork_map(lambda k: (base[0], k), [0, 1, 2], 2) == [
        (base[0], 0), (base[0], 1), (base[0], 2)]


def _pid(_):
    return os.getpid()


def test_pool_capped_at_the_usable_cpus(monkeypatch):
    """fork_map opens min(workers, items, usable CPUs) processes, and no
    pool when that is one."""
    sizes = []
    fork_ctx = type(multiprocessing.get_context("fork"))
    pool = fork_ctx.Pool

    def recording_pool(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(fork_ctx, "Pool", recording_pool)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    pids = fork_map(_pid, range(12), 4)
    assert len(set(pids)) <= 2 and os.getpid() not in pids
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    fork_map(_pid, range(12), 3)
    fork_map(_pid, range(2), 4)
    assert sizes == [2, 3, 2]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert fork_map(_pid, range(12), 2) == [os.getpid()] * 12
    assert fork_map(lambda k: k * k, range(12), 2) == [
        k * k for k in range(12)]
    assert sizes == [2, 3, 2]


@pytest.fixture
def fanned_out(monkeypatch):
    """(workers, items) of every exhaustive._fan_out call."""
    calls = []
    fan_out = exhaustive._fan_out

    def recording_fan_out(view, fn, items):
        calls.append((view.workers, list(items)))
        return fan_out(view, fn, items)

    monkeypatch.setattr(exhaustive, "_fan_out", recording_fan_out)
    return calls


def _probe_at_each_worker_count(upd, changed_cols=None):
    """run_probing's transactions (repr) or InfeasibleError message at
    workers 1, 2 and 3; a fresh view unless changed_cols is given."""
    out = {}
    for workers in (1, 2, 3):
        view = PresolveView(upd.problem, upd.activities,
                            changed_cols=changed_cols, workers=workers)
        try:
            out[workers] = repr(exhaustive.run_probing(view))
        except InfeasibleError as err:
            out[workers] = f"InfeasibleError: {err}"
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
    """run_probing with the fork gate at zero, so workers 2 and 3 fork;
    the merge into transactions runs in the workers."""

    @pytest.fixture(autouse=True)
    def forced_forks(self, monkeypatch):
        monkeypatch.setattr(exhaustive, "FORK_MIN_ITEMS", 0)
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
            view = PresolveView(upd.problem, upd.activities)
            apply_all(upd, runner("substitution")(view))
            q = upd.problem
            unordered += sum(list(q.rows[i]) != sorted(q.rows[i])
                             for i in q.active_rows())
            txs = _probe_at_each_worker_count(upd)
            assert txs[2] == txs[1] and txs[3] == txs[1], seed
            found += txs[1].count("Transaction(")
        assert unordered and found

    def test_both_branches_infeasible_reports_first_candidate(self):
        # x10 comes first in candidate order, before x22 and x26
        upd = ModelUpdate(_infeasible_gadgets([22, 10, 26]))
        msgs = _probe_at_each_worker_count(upd)
        assert set(msgs.values()) == {
            "InfeasibleError: probing x10: both branches infeasible"}

    def test_reprobe_over_several_batches(self, monkeypatch, fanned_out):
        """A later call's batches and where it stops do not depend on the
        worker count; every batch forks."""
        monkeypatch.setattr(exhaustive, "PROBING_BATCH", 5)
        spans = []
        for seed in range(4):
            upd = ModelUpdate(_open_bounds(
                random_medium_mip(random.Random(seed), 60, 40),
                random.Random(seed)))
            changed = set(range(seed, upd.problem.ncols, 3))
            fanned_out.clear()
            txs = _probe_at_each_worker_count(upd, changed)
            assert txs[2] == txs[1] and txs[3] == txs[1], seed
            per_workers = {w: [items for v, items in fanned_out if v == w]
                           for w in (1, 2, 3)}
            assert per_workers[2] == per_workers[1] == per_workers[3]
            spans.append(len(per_workers[1]))
        assert max(spans) >= 2, spans

    def test_sorted_rows_die_with_the_call(self):
        """Probing A and then B twice gives B's transactions both times:
        no sorted row of A, or of B's first call, is read again."""
        a = ModelUpdate(random_medium_mip(random.Random(5), 60, 40))
        b = ModelUpdate(random_medium_mip(random.Random(6), 60, 40))
        _probe_at_each_worker_count(a)
        after_a = _probe_at_each_worker_count(b)
        assert _probe_at_each_worker_count(b) == after_a


def _relabelled(p, rng):
    """p with its columns in a random order."""
    order = list(range(p.ncols))
    rng.shuffle(order)
    new_index = {j: k for k, j in enumerate(order)}
    q = Problem(p.ctx)
    for j in order:
        q.add_col(p.col_lower[j], p.col_upper[j], p.obj[j],
                  p.col_integral[j], p.col_names[j])
    for i in range(p.nrows):
        q.add_row({new_index[j]: a for j, a in p.rows[i].items()},
                  p.row_lhs[i], p.row_rhs[i])
    return q


def _implication_ladder(n):
    """Binaries x0..x{n-1} with x_j <= x_{j+1} and x_{n-1} + x_{n-2} <= 1.
    Probing x_{n-3} or x_{n-2} to 1 is infeasible, so each is fixed to 0,
    and both branches of x_{n-1} bound them; within probing's two
    propagation passes the other binaries give nothing."""
    p = Problem(FLOAT)
    for j in range(n):
        p.add_col(0, 1, 0, True, name=f"x{j}")
    for j in range(n - 1):
        p.add_row({j: 1, j + 1: -1}, NEG_INF, 0)
    p.add_row({n - 2: 1, n - 1: 1}, NEG_INF, 1)
    return p


class TestProbingBatches:
    """The first call probes every binary in one fan-out; a later call
    probes the changed binaries first and then the others, in batches of
    PROBING_BATCH, and stops after the first batch that finds nothing."""

    def test_fresh_call_is_one_fan_out(self, fanned_out):
        upd = ModelUpdate(_implication_ladder(150))
        exhaustive.run_probing(PresolveView(upd.problem, upd.activities))
        assert fanned_out == [(1, list(range(150)))]

    def test_changed_binary_beyond_the_old_prefix_comes_first(
            self, fanned_out):
        """The old rule re-probed binaries[:10 * len(changed)], here x0..x9,
        and never x38."""
        upd = ModelUpdate(_implication_ladder(40))
        txs = exhaustive.run_probing(PresolveView(
            upd.problem, upd.activities, changed_cols={38}))
        first = fanned_out[0][1]
        assert first == [38] + [j for j in range(40) if j != 38]
        assert len(first) <= exhaustive.PROBING_BATCH
        assert txs[0].steps == [ReductionStep(StepKind.FIX_COLUMN, col=38,
                                              value=0)]

    def test_a_fruitless_batch_ends_the_call(self, fanned_out, monkeypatch):
        monkeypatch.setattr(exhaustive, "PROBING_BATCH", 8)
        upd = ModelUpdate(_implication_ladder(40))
        view = PresolveView(upd.problem, upd.activities,
                            changed_cols={38, 20})
        # x38's batch finds its fixing, the next finds nothing
        assert exhaustive.run_probing(view)
        assert [items for _, items in fanned_out] == [
            [20, 38] + list(range(6)), list(range(6, 14))]
        # no changed binary, nothing to probe
        fanned_out.clear()
        assert exhaustive.run_probing(PresolveView(
            upd.problem, upd.activities, changed_cols=set())) == []
        assert fanned_out == []

    def test_next_call_on_probe_chain_probes_one_batch(self, monkeypatch):
        """On a column-shuffled probing_chain_instance(1200), the call after
        the fresh one runs at most two branches per candidate of one
        batch."""
        branches = []
        inner = exhaustive._probe_propagate

        def counting(*args):
            branches[-1] += 1
            return inner(*args)

        probing = presolvers._RUNNERS["probing"]

        def counted(view):
            branches.append(0)
            return probing(view)

        monkeypatch.setattr(exhaustive, "_probe_propagate", counting)
        monkeypatch.setitem(presolvers._RUNNERS, "probing", counted)
        p = _relabelled(probing_chain_instance(1200), random.Random(1))
        presolve(p, PresolveOptions(threads=1))
        assert branches[0] == 2 * 1200
        assert len(branches) >= 2
        assert all(n <= 2 * exhaustive.PROBING_BATCH for n in branches[1:])


class TestProbingWorkspace:
    """After every branch the workspace holds the problem's bounds again,
    infeasible early exits included, in-process and in forked workers."""

    def test_restored_after_every_branch(self, monkeypatch):
        monkeypatch.setattr(exhaustive, "FORK_MIN_ITEMS", 0)
        # shared with forked workers: branches run, and infeasible ones
        calls = multiprocessing.Value("i", 0)
        infeasible = multiprocessing.Value("i", 0)
        inner = exhaustive._probe_propagate
        workspace = exhaustive._workspace
        made = []  # the workspace of each run_probing call

        def recording_workspace(p):
            made.append(workspace(p))
            return made[-1]

        def checked(view, rows, k, val, ws=None):
            out = inner(view, rows, k, val, ws)
            p = view.problem
            assert ws is made[-1]
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
        monkeypatch.setattr(exhaustive, "_workspace", recording_workspace)
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
                        upd.problem, upd.activities,
                        workers=workers))
                except InfeasibleError:
                    pass
            assert calls.value > 100 and infeasible.value > 0, workers

    def test_direct_call_restores_an_infeasible_branch(self):
        upd = ModelUpdate(_infeasible_gadgets([10]))
        view = PresolveView(upd.problem, upd.activities)
        p = upd.problem
        ws = exhaustive._workspace(p)
        for val in (0, 1):
            assert exhaustive._probe_propagate(view, {}, 10, val, ws) is None
            assert ws[:2] == (p.col_lower, p.col_upper)
        # a feasible branch reports its moves and leaves ws as it was
        got = exhaustive._probe_propagate(view, {}, 0, 1, ws)
        assert got and got[0] == (1.0, 1.0) and got[1] == (0.0, 0.0)
        assert ws[:2] == (p.col_lower, p.col_upper)
