import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from premip.numerics import (INF, NEG_INF, Mode, NumericContext,
                             affine_range, div, exact, quotient_range,
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

    def test_an_infinity_equals_only_itself(self):
        """abs(a - b) and the tolerance are both infinite next to an
        infinity; probing's merge compares branch bounds that may be."""
        for inf in (INF, NEG_INF):
            assert FLOAT.approx_eq(inf, inf)
            for other in (-inf, 5.0, 0.0, 1e308):
                assert not FLOAT.approx_eq(inf, other)
                assert not FLOAT.approx_eq(other, inf)


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
        # an exact result is integral, so rational mode holds it as an int
        for ctx, v, kind in ((FLOAT, 2.5, float), (RAT, Fraction(5, 2), int),
                             (RAT, 5, int)):
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
# an integral value in both exact representations: int and Fraction(n, 1)
_INTEGRALS = st.one_of(st.integers(-10**30, 10**30), _INTEGRAL_FRACTIONS)


class TestExactShortcuts:
    """The rational shortcuts equal the formulas they replace."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_INTEGRALS, max_size=6))
    def test_integral_coeff_gcd_equals_chained_rational_gcd(self, values):
        got = coeff_gcd(RAT, values)
        assert type(got) is int and got == _old_coeff_gcd(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_FRACTIONS, _INTEGRAL_FRACTIONS), max_size=5))
    def test_mixed_coeff_gcd_equals_chained_rational_gcd(self, values):
        assert coeff_gcd(RAT, values) == _old_coeff_gcd(values)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_FRACTIONS, _INTEGRALS))
    def test_rational_bound_rounding_without_the_tolerance(self, v):
        down, up = RAT.round_down_bound(v), RAT.round_up_bound(v)
        assert type(down) is int and down == math.floor(v + 0)
        assert type(up) is int and up == math.ceil(v - 0)

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


class TestExactValues:
    """Rational mode holds an integral value as an int, any other finite
    value as a Fraction, and never a float."""

    @pytest.mark.parametrize("a, b", [(-7, 2), (7, -2), (-7, -2), (7, 2),
                                      (-8, 2), (8, -2), (0, -5), (1, 3)])
    def test_div_of_ints_is_the_exact_quotient(self, a, b):
        q, r = divmod(a, b)  # floors toward -inf: divmod(-7, 2) == (-4, 1)
        got = div(a, b)
        assert got == Fraction(a, b)
        assert type(got) is (int if r == 0 else Fraction)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(-10**40, 10**40),
           st.integers(-10**40, 10**40).filter(bool))
    def test_div_of_ints_beyond_doubles(self, a, b):
        got = div(a, b)
        assert got == Fraction(a, b) and not isinstance(got, float)
        assert type(div(a * b, b)) is int and div(a * b, b) == a

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False),
           st.floats(allow_nan=False).filter(bool))
    def test_div_of_floats_is_ieee_division(self, a, b):
        assert repr(div(a, b)) == repr(a / b)
        assert repr(div(a, 3)) == repr(a / 3)
        assert repr(div(7, b)) == repr(7 / b)

    def test_div_with_a_fraction_or_an_infinity(self):
        assert div(Fraction(1, 2), 3) == Fraction(1, 6)
        assert div(3, Fraction(3, 2)) == 2
        assert div(INF, 2) == INF and div(-7, INF) == 0
        with pytest.raises(ZeroDivisionError):
            div(1, 0)

    @pytest.mark.parametrize("text, want", [
        ("3", 3), ("-0", 0), ("+12", 12), ("3.0", 3), ("1e3", 1000),
        ("6/2", 3), ("2**0", None), ("1/2", Fraction(1, 2)),
        ("-0.25", Fraction(-1, 4)), ("1e-2", Fraction(1, 100)),
        (str(2**60 + 1), 2**60 + 1)])
    def test_parse_gives_an_int_when_integral(self, text, want):
        if want is None:  # read_mps reports either as a bad literal
            with pytest.raises((ValueError, ArithmeticError)):
                RAT.parse(text)
            return
        got = RAT.parse(text)
        assert got == want
        assert type(got) is (int if Fraction(want).denominator == 1
                             else Fraction)

    @pytest.mark.parametrize("v", [0, -4, 2.0, -3.5, Fraction(6, 3),
                                   Fraction(1, 3), 2**60 + 1])
    def test_number_and_exact_give_an_int_when_integral(self, v):
        for got in (RAT.number(v), exact(v)):
            assert got == Fraction(v)
            assert type(got) is (int if Fraction(v).denominator == 1
                                 else Fraction)
        assert type(FLOAT.number(v)) is float

    def test_thresholds_and_formatting(self):
        assert RAT.markowitz_threshold == 0
        assert type(RAT.markowitz_threshold) is int
        assert RAT.bound_improvement_threshold == Fraction(1, 1000)
        for v in (3, Fraction(3), Fraction(3, 1)):
            assert RAT.format(v) == "3"
        assert RAT.format(2**60 + 1) == str(2**60 + 1)
        assert rational_gcd(4, Fraction(6)) == 2
        assert type(rational_gcd(4, Fraction(6))) is int
        assert rational_gcd(Fraction(1, 2), 3) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the range helpers against the hand-written branches they replaced


def _old_minus_range(b_lo, b_up, a, lo, up):
    """[b_lo, b_up] - a*[lo, up]: substitute_column, DoubletonEq's
    numerator and delete_free_singleton."""
    if a > 0:
        return (b_lo - a * up if (is_finite(b_lo) and is_finite(up))
                else NEG_INF,
                b_up - a * lo if (is_finite(b_up) and is_finite(lo))
                else INF)
    return (b_lo - a * lo if (is_finite(b_lo) and is_finite(lo)) else NEG_INF,
            b_up - a * up if (is_finite(b_up) and is_finite(up)) else INF)


def _old_plus_range(lo_k, up_k, s, lo, up):
    """[lo_k, up_k] + s*[lo, up]: ParallelCols and
    aggregate_parallel_cols."""
    if s > 0:
        return (lo_k + s * lo if (is_finite(lo_k) and is_finite(lo))
                else NEG_INF,
                up_k + s * up if (is_finite(up_k) and is_finite(up)) else INF)
    return (lo_k + s * up if (is_finite(lo_k) and is_finite(up)) else NEG_INF,
            up_k + s * lo if (is_finite(up_k) and is_finite(lo)) else INF)


def _old_aggregate_caps(y, s, lo, up):
    """Postsolve's Aggregate inversion: y - s*[lo, up]."""
    if s > 0:
        return (y - s * up if is_finite(up) else NEG_INF,
                y - s * lo if is_finite(lo) else INF)
    return (y - s * lo if is_finite(lo) else NEG_INF,
            y - s * up if is_finite(up) else INF)


def _old_shares(asn, lo, up):
    """Stuffing's minimum and desired shares asn*[lo, up]."""
    if asn > 0:
        return (asn * lo if is_finite(lo) else NEG_INF,
                asn * up if is_finite(up) else INF)
    return (asn * up if is_finite(up) else NEG_INF,
            asn * lo if is_finite(lo) else INF)


def _old_quotient(lo, up, s):
    """[lo, up] / s: trivial presolve's singleton row and ParallelRows."""
    if s > 0:
        return (div(lo, s) if is_finite(lo) else NEG_INF,
                div(up, s) if is_finite(up) else INF)
    return (div(up, s) if is_finite(up) else NEG_INF,
            div(lo, s) if is_finite(lo) else INF)


def _old_shifted_quotient(lo, up, alpha, beta):
    """([lo, up] - alpha) / beta: substitute_pair and postsolve's
    FreeSingleton inversion."""
    if beta > 0:
        return (div(lo - alpha, beta) if is_finite(lo) else NEG_INF,
                div(up - alpha, beta) if is_finite(up) else INF)
    return (div(up - alpha, beta) if is_finite(up) else NEG_INF,
            div(lo - alpha, beta) if is_finite(lo) else INF)


def _bits(pair):
    """A pair of numbers by type and repr: -0.0 differs from 0.0, an int
    from an equal Fraction."""
    return [(type(v).__name__, repr(v)) for v in pair]


def _checks(c_lo, c_up, s, lo, up, k, nil):
    """(new, old) pairs of every replaced site's form; k is a finite
    constant, as y and alpha are."""
    return [
        (affine_range(c_lo, c_up, -s, lo, up),
         _old_minus_range(c_lo, c_up, s, lo, up)),
        (affine_range(c_lo, c_up, s, lo, up),
         _old_plus_range(c_lo, c_up, s, lo, up)),
        (affine_range(k, k, -s, lo, up), _old_aggregate_caps(k, s, lo, up)),
        (affine_range(nil, nil, s, lo, up), _old_shares(s, lo, up)),
        (quotient_range(lo, up, s), _old_quotient(lo, up, s)),
        (quotient_range(*affine_range(lo, up, 1, -k, -k), s),
         _old_shifted_quotient(lo, up, k, s)),
    ]


def _float_cases():
    finite = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
    nonzero = finite.filter(lambda v: v != 0)
    return st.tuples(st.one_of(finite, st.just(NEG_INF)),
                     st.one_of(finite, st.just(INF)), nonzero,
                     st.one_of(finite, st.just(NEG_INF)),
                     st.one_of(finite, st.just(INF)), finite)


def _rational_cases():
    huge = st.integers(10 ** 308, 10 ** 400).flatmap(
        lambda v: st.sampled_from([v, -v]))
    finite = st.one_of(st.integers(-50, 50), huge,
                       st.fractions(-50, 50, max_denominator=12))
    nonzero = finite.filter(lambda v: v != 0)
    return st.tuples(st.one_of(finite, st.just(NEG_INF)),
                     st.one_of(finite, st.just(INF)), nonzero,
                     st.one_of(finite, st.just(NEG_INF)),
                     st.one_of(finite, st.just(INF)), finite)


class TestRangeHelpers:
    """affine_range and quotient_range give what the twelve hand-written
    branches gave: bit for bit in float64, exactly in rational mode."""

    @settings(max_examples=1000, deadline=None)
    @given(_float_cases())
    def test_float64_bit_for_bit(self, case):
        for new, old in _checks(*case, nil=-0.0):
            assert _bits(new) == _bits(old), case

    @settings(max_examples=600, deadline=None)
    @given(_rational_cases())
    def test_rational_exact(self, case):
        for new, old in _checks(*case, nil=0):
            assert _bits(new) == _bits(old), case

    def test_both_signs(self):
        assert affine_range(1, 2, 3, 0, 1) == (1, 5)
        assert affine_range(1, 2, -3, 0, 1) == (-2, 2)
        assert quotient_range(2, 6, 2) == (1, 3)
        assert quotient_range(2, 6, -2) == (-3, -1)
        assert quotient_range(1, 2, 3) == (Fraction(1, 3), Fraction(2, 3))

    def test_infinite_ends(self):
        assert affine_range(0.0, 0.0, 2.0, NEG_INF, 1.0) == (NEG_INF, 2.0)
        assert affine_range(0.0, 0.0, -2.0, NEG_INF, 1.0) == (-2.0, INF)
        assert affine_range(NEG_INF, 1.0, 2.0, 0.0, 1.0) == (NEG_INF, 3.0)
        assert affine_range(0.0, INF, -1.0, 0.0, 1.0) == (-1.0, INF)
        assert quotient_range(NEG_INF, 4.0, 2.0) == (NEG_INF, 2.0)
        assert quotient_range(NEG_INF, 4.0, -2.0) == (-2.0, INF)
        assert quotient_range(NEG_INF, INF, -1.0) == (NEG_INF, INF)

    def test_zero_bounds_keep_their_sign(self):
        # -0.0 + x is x bit for bit: Stuffing's shares of a zero bound
        assert _bits(affine_range(-0.0, -0.0, -3.0, 0.0, 1.0)) == \
            _bits((-3.0, -0.0))
        assert _bits(affine_range(-0.0, -0.0, 3.0, -0.0, 0.0)) == \
            _bits((-0.0, 0.0))
        assert _bits(affine_range(0.0, 0.0, 3.0, -0.0, 1.0)) == \
            _bits((0.0, 3.0))

    def test_huge_ints_next_to_infinite_bounds(self):
        """An int above 1e308 never meets an infinity in arithmetic, which
        raises OverflowError."""
        big = 10 ** 400
        assert affine_range(big, big, 3, NEG_INF, 5) == (NEG_INF, big + 15)
        assert affine_range(big, big, -3, NEG_INF, 5) == (big - 15, INF)
        assert affine_range(NEG_INF, big, big, 1, INF) == (NEG_INF, INF)
        assert affine_range(-big, INF, -big, 1, INF) == (NEG_INF, INF)
        assert quotient_range(NEG_INF, big, big) == (NEG_INF, 1)
        assert quotient_range(NEG_INF, big, -big) == (-1, INF)
        assert quotient_range(-big, INF, 3) == (Fraction(-big, 3), INF)
        # the shift of substitute_pair and FreeSingleton, then the quotient
        assert quotient_range(*affine_range(NEG_INF, big, 1, -big, -big),
                              big) == (NEG_INF, 0)
        assert quotient_range(*affine_range(big, INF, 1, -1, -1),
                              -big) == (NEG_INF, Fraction(1 - big, big))
