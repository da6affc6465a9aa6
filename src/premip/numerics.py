"""Number handling shared by every other module.

All model data (coefficients, bounds, sides, activities) is a Python float
in FLOAT64 mode.  In RATIONAL mode a finite value is an int when it is
integral and a fractions.Fraction when it is not, and never a float: int
arithmetic runs in C, Fraction arithmetic in Python code.  int is a
numbers.Rational, so the two mix exactly; 3 == Fraction(3), both hash
alike and str() gives "3" for both.  Sums and products of the two stay
exact, but int / int gives a float, so every division of model numbers
goes through `div`.  Infinite bounds are represented by math.inf /
-math.inf in both modes; mixed int/Fraction/inf arithmetic and
comparisons behave correctly in CPython.

A NumericContext carries the mode plus the comparison tolerances.  In
RATIONAL mode both tolerances are zero, so every comparison is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Tuple, Union

INF = math.inf
NEG_INF = -math.inf

Number = Union[int, float, Fraction]


class Mode(Enum):
    FLOAT64 = "float64"
    RATIONAL = "rational"


def is_finite(v: Number) -> bool:
    if isinstance(v, float):
        return math.isfinite(v)
    return True


def div(a: Number, b: Number) -> Number:
    """a / b, exact for two ints: their quotient as an int when b divides
    a, else as a Fraction.  Any other operands give a / b, which is exact
    when one of them is a Fraction and IEEE division for floats."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return a / b


def affine_range(lo_c: Number, up_c: Number, s: Number, lo: Number,
                 up: Number) -> Tuple[Number, Number]:
    """[lo_c, up_c] + s*[lo, up] as (lower, upper), the range of c + s*x
    over a box; s < 0 swaps the ends of x's range.  An end with an
    infinite operand is NEG_INF or INF: an infinite bound is never
    multiplied, since 0*inf is NaN and an int above 1e308 times inf raises
    OverflowError.  c - s*x is affine_range(c, c, -s, lo, up), bit for bit:
    negation is exact and IEEE rounding is sign-symmetric."""
    if s < 0:
        lo, up = up, lo
    return (lo_c + s * lo if is_finite(lo_c) and is_finite(lo) else NEG_INF,
            up_c + s * up if is_finite(up_c) and is_finite(up) else INF)


def quotient_range(lo: Number, up: Number, s: Number) -> Tuple[Number, Number]:
    """[lo, up] / s as (lower, upper) through `div`; s < 0 swaps the ends,
    and an infinite end stays NEG_INF or INF.  A shift before the division
    goes through `affine_range` first, so it meets finite ends only."""
    if s < 0:
        lo, up = up, lo
    return (div(lo, s) if is_finite(lo) else NEG_INF,
            div(up, s) if is_finite(up) else INF)


def exact(v: Union[str, Number]) -> Number:
    """A finite rational literal or value as rational mode stores it: an
    int when it is integral, else a Fraction.  Text that is no rational
    literal raises ValueError (or ZeroDivisionError for 'p/0')."""
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def rational_gcd(a: Number, b: Number) -> Number:
    """gcd extended to rationals: largest g with a/g and b/g integral."""
    a, b = abs(Fraction(a)), abs(Fraction(b))
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return exact(Fraction(num, a.denominator * b.denominator))


@dataclass(frozen=True)
class NumericContext:
    """Tolerances and parsing rules for one arithmetic mode.

    epsilon  -- relative tolerance for comparing two numbers
    feastol  -- feasibility / integrality tolerance
    hugeval  -- finite magnitude that validation flags as suspicious
    """

    mode: Mode = Mode.FLOAT64
    epsilon: float = 1e-9
    feastol: float = 1e-6
    hugeval: float = 1e8

    def __post_init__(self):
        if self.epsilon < 0 or self.feastol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.epsilon > self.feastol:
            raise ValueError("epsilon must not exceed feastol")
        if not (self.hugeval > 0 and is_finite(self.hugeval)):
            raise ValueError("hugeval must be positive and finite")
        if self.mode is Mode.RATIONAL and (self.epsilon != 0 or self.feastol != 0):
            raise ValueError("rational mode requires zero tolerances")

    @staticmethod
    def float64(epsilon: float = 1e-9, feastol: float = 1e-6,
                hugeval: float = 1e8) -> "NumericContext":
        return NumericContext(Mode.FLOAT64, epsilon, feastol, hugeval)

    @staticmethod
    def rational(hugeval: float = 1e8) -> "NumericContext":
        return NumericContext(Mode.RATIONAL, 0, 0, hugeval)

    # -- construction ------------------------------------------------------

    def parse(self, text: str) -> Number:
        """Parse a numeric literal ('1.5', '2e3', and 'p/q' in rational
        mode).  'inf', 'infinity' and their signed forms, in any case, give
        INF or NEG_INF in both modes; NaN parses in float64 only."""
        text = text.strip()
        if self.mode is Mode.RATIONAL:
            try:
                return int(text)
            except ValueError:
                pass
            try:
                return exact(text)
            except ValueError:
                value = Decimal(text)
                if value.is_infinite():
                    return NEG_INF if value.is_signed() else INF
                return exact(value)
        return float(text)

    def number(self, v: Number) -> Number:
        """Coerce an int/float literal into this mode's representation."""
        if not is_finite(v):
            return v
        if self.mode is Mode.RATIONAL:
            return v if type(v) is int else exact(v)
        return float(v)

    def format(self, v: Number) -> str:
        if v == INF:
            return "inf"
        if v == NEG_INF:
            return "-inf"
        if isinstance(v, (int, Fraction)):
            return str(v)
        return repr(float(v))

    # -- comparisons -------------------------------------------------------

    def approx_eq(self, a: Number, b: Number) -> bool:
        """|a - b| <= epsilon * max(1, |a|, |b|); exact in rational mode.
        An infinity is approx_eq only to itself: its tolerance would be
        infinite."""
        if self.epsilon == 0:
            return a == b
        return a == b or abs(a - b) <= self.epsilon * max(
            1, abs(a), abs(b)) < INF

    def eq_zero(self, v: Number) -> bool:
        if self.epsilon == 0:
            return v == 0
        return abs(v) <= self.epsilon

    def feas_leq(self, a: Number, b: Number) -> bool:
        """a <= b up to the feasibility tolerance (relative)."""
        if a <= b:  # holds with any tolerance
            return True
        if self.feastol == 0:
            return False
        if a == NEG_INF or b == INF:
            return True
        if a == INF or b == NEG_INF:
            return False
        return a <= b + self.feastol * max(1, abs(a), abs(b))

    def feas_geq(self, a: Number, b: Number) -> bool:
        return self.feas_leq(b, a)

    def is_huge(self, v: Number) -> bool:
        return is_finite(v) and abs(v) >= self.hugeval

    # -- integrality -------------------------------------------------------

    def is_integral(self, v: Number) -> bool:
        """Distance to the nearest integer is within feastol (0 if rational)."""
        if not isinstance(v, float):  # an int or a Fraction
            if self.feastol == 0:
                return v.denominator == 1
            return abs(v - round(v)) <= self.feastol
        if not is_finite(v):
            return False
        return abs(v - round(v)) <= self.feastol

    def round(self, v: Number) -> Number:
        return self._from_int(round(v))

    def floor(self, v: Number) -> Number:
        """Exact floor (no tolerance); agrees with rational floor."""
        return self._from_int(math.floor(v))

    def ceil(self, v: Number) -> Number:
        return self._from_int(math.ceil(v))

    def round_down_bound(self, v: Number) -> Number:
        """Round an upper bound inward for an integral column."""
        if not is_finite(v):
            return v
        if self.feastol == 0:  # exact: no addition
            return self._from_int(math.floor(v))
        return self._from_int(math.floor(v + self.feastol))

    def round_up_bound(self, v: Number) -> Number:
        if not is_finite(v):
            return v
        if self.feastol == 0:
            return self._from_int(math.ceil(v))
        return self._from_int(math.ceil(v - self.feastol))

    def _from_int(self, v: int) -> Number:
        """number() of an int, which is always finite."""
        if self.mode is Mode.RATIONAL:
            return v
        return float(v)

    # -- derived thresholds -------------------------------------------------

    @property
    def bound_improvement_threshold(self) -> Number:
        """Minimum relative improvement for emitting a continuous bound change."""
        if self.mode is Mode.RATIONAL:
            return Fraction(1, 1000)
        return 1e-3

    @property
    def markowitz_threshold(self) -> Number:
        """Pivot acceptability ratio for substitutions (0 = any nonzero)."""
        if self.mode is Mode.RATIONAL:
            return 0
        return 1e-2


def bound_improves_lower(ctx: NumericContext, old: Number, new: Number,
                         integral: bool) -> bool:
    """True if replacing lower bound old by new is a worthwhile tightening."""
    if new <= old:
        return False
    if old == NEG_INF:
        return is_finite(new)
    if integral:
        return new >= old + 1 - ctx.feastol
    thr = ctx.bound_improvement_threshold
    return new - old > max(ctx.feastol, thr * max(1, abs(old)))


def bound_improves_upper(ctx: NumericContext, old: Number, new: Number,
                         integral: bool) -> bool:
    if new >= old:
        return False
    if old == INF:
        return is_finite(new)
    if integral:
        return new <= old - 1 + ctx.feastol
    thr = ctx.bound_improvement_threshold
    return old - new > max(ctx.feastol, thr * max(1, abs(old)))
