"""Exact cost arithmetic: rationals extended with +inf and -inf.

Everything cost-valued in this package is a `Cost`. Finite costs are
`fractions.Fraction`; the two infinities saturate under addition, and
adding infinities of opposite sign raises `InfinityClash` instead of
silently producing a value. `over_common_denominator` is the one rule
that turns rationals into ints: problem costs, hand-built graph costs
and behavioural probabilities alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import lcm

from .errors import InfinityClash

_FIN = 0
_POS = 1
_NEG = -1


@total_ordering
class Cost:
    """An exact rational, +inf, or -inf, with saturating addition."""

    __slots__ = ("sign", "value")

    def __init__(self, value, _sign=_FIN):
        if _sign == _FIN:
            self.value = value if isinstance(value, Fraction) else Fraction(value)
            self.sign = _FIN
        else:
            self.value = None
            self.sign = _sign

    # -- predicates -----------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.sign == _FIN

    def as_fraction(self) -> Fraction:
        if self.sign != _FIN:
            raise ValueError(f"not a finite cost: {self}")
        return self.value

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cost):
            other = Cost(other)
        if self.sign == _FIN and other.sign == _FIN:
            return Cost(self.value + other.value)
        if self.sign == _FIN:
            return other
        if other.sign == _FIN:
            return self
        if self.sign != other.sign:
            raise InfinityClash("(+inf) + (-inf) has no value")
        return self

    __radd__ = __add__

    # -- total order: -inf < finite < +inf ------------------------------

    def _key(self):
        if self.sign == _FIN:
            return (0, self.value)
        return (self.sign, 0)

    def __eq__(self, other):
        if isinstance(other, Cost):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self.sign == _FIN and self.value == other
        return NotImplemented

    def __hash__(self):
        # a finite cost equals its int / Fraction value, so it hashes like it
        return hash(self.value) if self.sign == _FIN else hash(self._key())

    def __lt__(self, other):
        if not isinstance(other, Cost):
            other = Cost(other)
        return self._key() < other._key()

    def __repr__(self):
        return f"Cost({self})"

    def __str__(self):
        if self.sign == _POS:
            return "+inf"
        if self.sign == _NEG:
            return "-inf"
        return format_rational(self.value)


POS_INF = Cost(0, _POS)
NEG_INF = Cost(0, _NEG)
ZERO = Cost(0)


def cost_sum(items) -> Cost:
    """Saturating sum of an iterable of Cost (0 for an empty iterable)."""
    total = ZERO
    for item in items:
        total = total + item
    return total


def parse_rational(text) -> Fraction:
    """Parse "p/q", a decimal string, or a number into an exact Fraction."""
    if isinstance(text, bool):
        raise ValueError(f"{text} is not a rational")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        # floats in hand-written documents mean their decimal literal
        return Fraction(str(text))
    return Fraction(str(text).strip())


def over_common_denominator(values):
    """(numerators, den): the rationals of the sequence `values` over den,
    the lcm of their denominators (1 when there are none)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def format_rational(x: Fraction) -> str:
    """Render exactly: an integer or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def decimal4(x: Fraction) -> str:
    """Fixed 4-fractional-digit rendering, round-half-even."""
    scaled = round(x * 10_000)  # round() on Fraction is exact half-even
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10_000}.{scaled % 10_000:04d}"


def ratio_texts(ratio: Cost) -> tuple:
    """(exact, 4-decimal) renderings of a ratio; ("inf", "inf") if infinite."""
    if not ratio.is_finite:
        return "inf", "inf"
    value = ratio.as_fraction()
    return format_rational(value), decimal4(value)
