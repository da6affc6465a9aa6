import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from premip.numerics import (INF, NEG_INF, Mode, NumericContext,
                             rational_gcd, is_finite)
from premip.presolvers.common import coeff_gcd


FLOAT = NumericContext.float64()
RAT = NumericContext.rational()


class TestContextInvariants:
    def test_defaults(self):
        assert FLOAT.epsilon == 1e-9
        assert FLOAT.feastol == 1e-6
        assert FLOAT.hugeval == 1e8

    def test_rational_requires_zero_tolerances(self):
        with pytest.raises(ValueError):
            NumericContext(Mode.RATIONAL, epsilon=1e-9, feastol=1e-6)

    def test_epsilon_must_not_exceed_feastol(self):
        with pytest.raises(ValueError):
            NumericContext(Mode.FLOAT64, epsilon=1e-3, feastol=1e-6)

    def test_hugeval_positive_finite(self):
        with pytest.raises(ValueError):
            NumericContext(Mode.FLOAT64, hugeval=0)
        with pytest.raises(ValueError):
            NumericContext(Mode.FLOAT64, hugeval=INF)


class TestApproxEq:
    def test_identity(self):
        assert FLOAT.approx_eq(1.0, 1.0)

    def test_within_epsilon(self):
        assert FLOAT.approx_eq(1.0, 1.0 + 1e-12)

    def test_rational_distinguishes_everything(self):
        assert not RAT.approx_eq(Fraction(1), Fraction(1) + Fraction(1, 10**12))

    def test_relative_scaling(self):
        # |a-b| <= eps * max(1, |a|, |b|)
        assert FLOAT.approx_eq(1e6, 1e6 + 5e-4)
        assert not FLOAT.approx_eq(1.0, 1.0 + 5e-9)

    def test_reflexive_symmetric(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(-1e4, 1e4)
            b = a + rng.uniform(-1e-7, 1e-7)
            assert FLOAT.approx_eq(a, a)
            assert FLOAT.approx_eq(a, b) == FLOAT.approx_eq(b, a)


class TestIntegrality:
    def test_exact_integer(self):
        assert FLOAT.is_integral(3.0)

    def test_half(self):
        assert not FLOAT.is_integral(2.5)

    def test_within_feastol(self):
        assert FLOAT.is_integral(2.9999999999)  # |v - 3| = 1e-10 <= 1e-6

    def test_rational_exact_only(self):
        assert RAT.is_integral(Fraction(3))
        assert not RAT.is_integral(Fraction(3) - Fraction(1, 10**12))


class TestFloorCeil:
    def test_agree_with_rational_floor(self):
        rng = random.Random(11)
        for _ in range(300):
            num = rng.randint(-10**6, 10**6)
            den = rng.randint(1, 997)
            f = Fraction(num, den)
            x = num / den
            if Fraction(x) == f:  # representable in both modes
                assert FLOAT.floor(x) == RAT.floor(f)
                assert FLOAT.ceil(x) == RAT.ceil(f)

    def test_bound_rounding_uses_feastol(self):
        assert FLOAT.round_down_bound(2.9999999) == 3
        assert FLOAT.round_up_bound(3.0000001) == 3
        assert FLOAT.round_down_bound(2.5) == 2
        assert RAT.round_down_bound(Fraction(5, 2)) == 2

    def test_rounding_keeps_the_mode_type_and_infinities(self):
        for ctx, v, kind in ((FLOAT, 2.5, float), (RAT, Fraction(5, 2),
                                                   Fraction)):
            for f in (ctx.round_down_bound, ctx.round_up_bound, ctx.floor,
                      ctx.ceil, ctx.round):
                assert type(f(v)) is kind
            for inf in (INF, NEG_INF):
                assert ctx.round_down_bound(inf) is inf
                assert ctx.round_up_bound(inf) is inf


class _NaiveFraction:
    """Slow big-integer pair arithmetic, the oracle for exactness."""

    def __init__(self, num, den=1):
        self.num, self.den = num, den

    def _norm(self):
        g = math.gcd(self.num, self.den)
        num, den = self.num // g, self.den // g
        if den < 0:
            num, den = -num, -den
        return _NaiveFraction(num, den)

    def add(self, o):
        return _NaiveFraction(self.num * o.den + o.num * self.den,
                              self.den * o.den)._norm()

    def sub(self, o):
        return _NaiveFraction(self.num * o.den - o.num * self.den,
                              self.den * o.den)._norm()

    def mul(self, o):
        return _NaiveFraction(self.num * o.num, self.den * o.den)._norm()

    def div(self, o):
        return _NaiveFraction(self.num * o.den, self.den * o.num)._norm()


class TestRationalExactness:
    def test_random_op_sequences_match_naive_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            num = rng.randint(-20, 20)
            den = rng.randint(1, 20)
            acc = Fraction(num, den)
            ora = _NaiveFraction(num, den)
            for _ in range(25):
                num = rng.randint(-20, 20) or 1
                den = rng.randint(1, 20)
                f = Fraction(num, den)
                n = _NaiveFraction(num, den)
                op = rng.randrange(4)
                if op == 0:
                    acc, ora = acc + f, ora.add(n)
                elif op == 1:
                    acc, ora = acc - f, ora.sub(n)
                elif op == 2:
                    acc, ora = acc * f, ora.mul(n)
                else:
                    acc, ora = acc / f, ora.div(n)
            assert acc.numerator == ora.num and acc.denominator == ora.den


class TestParsing:
    def test_float_literals(self):
        assert FLOAT.parse("1.5") == 1.5
        assert FLOAT.parse("2e3") == 2000.0

    def test_rational_literals(self):
        assert RAT.parse("0.5") == Fraction(1, 2)
        assert RAT.parse("1e3") == 1000
        assert RAT.parse("2/3") == Fraction(2, 3)

    @pytest.mark.parametrize("ctx", [FLOAT, RAT])
    def test_infinite_literals_in_both_modes(self, ctx):
        for text in ("inf", "+inf", "INF", "infinity", "Infinity", " inf "):
            assert ctx.parse(text) == INF
        for text in ("-inf", "-Infinity", "-INFINITY"):
            assert ctx.parse(text) == NEG_INF
        # the format of an infinite bound reads back
        assert ctx.parse(ctx.format(INF)) == INF
        assert ctx.parse(ctx.format(NEG_INF)) == NEG_INF

    def test_rational_nan_literal_rejected(self):
        for text in ("nan", "-NaN", "snan"):
            with pytest.raises(ValueError):
                RAT.parse(text)

    def test_format_roundtrip(self):
        for v in (0.1, -7.25, 1e-9, 123456789.123):
            assert float(FLOAT.format(v)) == v
        assert RAT.parse(RAT.format(Fraction(22, 7))) == Fraction(22, 7)


class TestMisc:
    def test_huge_detection(self):
        assert FLOAT.is_huge(1e8)
        assert not FLOAT.is_huge(9.9e7)
        assert not FLOAT.is_huge(INF)  # infinity is a sentinel, not huge

    def test_rational_gcd(self):
        assert rational_gcd(Fraction(1, 2), Fraction(3, 4)) == Fraction(1, 4)
        assert rational_gcd(Fraction(6), Fraction(4)) == 2

    def test_extended_values(self):
        assert not is_finite(INF)
        assert not is_finite(NEG_INF)
        assert is_finite(Fraction(10**30))

    def test_is_finite_over_accepted_types(self):
        import numpy
        assert is_finite(numpy.float64(1.5)) and is_finite(10**400)
        assert not is_finite(numpy.float64("inf"))
        assert not is_finite(numpy.float64("nan"))
        assert not is_finite(math.nan)
        assert is_finite(Fraction(-7, 3)) and is_finite(0) and is_finite(True)
        assert Fraction(1, 2) < INF


def _old_feas_leq(ctx, a, b):
    """feas_leq before its a <= b fast path."""
    if ctx.feastol == 0:
        return a <= b
    if a == NEG_INF or b == INF:
        return True
    if a == INF or b == NEG_INF:
        return False
    return a <= b + ctx.feastol * max(1, abs(a), abs(b))


def _old_coeff_gcd(values):
    g = Fraction(0)
    for v in values:
        g = rational_gcd(g, Fraction(v))
    return g


_FRACTIONS = st.fractions(min_value=-10**6, max_value=10**6,
                          max_denominator=50)
_INTEGRAL_FRACTIONS = st.integers(-10**30, 10**30).map(Fraction)


class TestExactShortcuts:
    """The rational shortcuts equal the formulas they replace."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_INTEGRAL_FRACTIONS, max_size=6))
    def test_integral_coeff_gcd_equals_chained_rational_gcd(self, values):
        got = coeff_gcd(RAT, values)
        assert type(got) is Fraction and got == _old_coeff_gcd(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_FRACTIONS, _INTEGRAL_FRACTIONS), max_size=5))
    def test_mixed_coeff_gcd_equals_chained_rational_gcd(self, values):
        assert coeff_gcd(RAT, values) == _old_coeff_gcd(values)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_FRACTIONS, _INTEGRAL_FRACTIONS))
    def test_rational_bound_rounding_without_the_tolerance(self, v):
        down, up = RAT.round_down_bound(v), RAT.round_up_bound(v)
        assert type(down) is Fraction and down == math.floor(v + 0)
        assert type(up) is Fraction and up == math.ceil(v - 0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_zero_feastol_float_bound_rounding(self, v):
        ctx = NumericContext.float64(epsilon=0, feastol=0)
        assert ctx.round_down_bound(v) == float(math.floor(v + 0.0))
        assert ctx.round_up_bound(v) == float(math.ceil(v - 0.0))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(), st.floats(),
           st.sampled_from([FLOAT, NumericContext.float64(0, 0)]))
    def test_feas_leq_equals_the_full_test(self, a, b, ctx):
        assert ctx.feas_leq(a, b) == _old_feas_leq(ctx, a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_FRACTIONS, st.sampled_from([INF, NEG_INF])),
           st.one_of(_FRACTIONS, st.sampled_from([INF, NEG_INF])))
    def test_rational_feas_leq_equals_the_full_test(self, a, b):
        assert RAT.feas_leq(a, b) == _old_feas_leq(RAT, a, b)
