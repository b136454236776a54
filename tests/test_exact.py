from fractions import Fraction

import pytest

from tlsynth.errors import InfinityClash
from tlsynth.exact import (
    NEG_INF,
    POS_INF,
    Cost,
    cost_sum,
    decimal4,
    format_rational,
    over_common_denominator,
    parse_rational,
)


def test_finite_arithmetic_is_exact():
    assert Cost(Fraction(1, 3)) + Cost(Fraction(1, 6)) == Cost(Fraction(1, 2))
    assert cost_sum([Cost(1), Cost(2), Cost(Fraction(1, 2))]) == Cost(Fraction(7, 2))
    assert cost_sum([]) == Cost(0)


def test_saturating_addition():
    assert Cost(5) + POS_INF == POS_INF
    assert NEG_INF + Cost(-17) == NEG_INF
    assert POS_INF + POS_INF == POS_INF


def test_opposite_infinities_clash():
    with pytest.raises(InfinityClash):
        POS_INF + NEG_INF
    with pytest.raises(InfinityClash):
        cost_sum([Cost(1), NEG_INF, POS_INF])


def test_total_order():
    """< and == order the costs; <=, > and >= agree with them between the
    infinities and finite costs, with Cost, int and Fraction operands on
    either side."""
    assert NEG_INF < Cost(-1000) < Cost(0) < Cost(Fraction(1, 10)) < POS_INF
    assert not POS_INF < POS_INF
    assert max([Cost(3), POS_INF, Cost(7)]) == POS_INF
    for inf in (NEG_INF, POS_INF):
        assert inf <= inf and inf >= inf and not inf > inf
    assert NEG_INF <= POS_INF and POS_INF >= NEG_INF and POS_INF > NEG_INF
    assert not POS_INF <= NEG_INF and not NEG_INF >= POS_INF and not NEG_INF > POS_INF
    for value in (-2, 0, 3, Fraction(-1, 2), Fraction(7, 3)):
        for operand in (value, Cost(value)):
            assert NEG_INF <= operand and not NEG_INF >= operand and not NEG_INF > operand
            assert not POS_INF <= operand and POS_INF >= operand and POS_INF > operand
            assert operand <= POS_INF and not operand >= POS_INF and not operand > POS_INF
            assert not operand <= NEG_INF and operand >= NEG_INF and operand > NEG_INF
            assert Cost(value) <= operand and Cost(value) >= operand
            assert not Cost(value) > operand and not operand > Cost(value)
        larger = value + Fraction(1, 3)
        for low, high in ((Cost(value), larger), (value, Cost(larger)), (Cost(value), Cost(larger))):
            assert low <= high and not low >= high and not low > high
            assert high > low and high >= low and not high <= low


def test_hash_agrees_with_equality():
    for value in (3, Fraction(1, 2), Fraction(-7, 3), 0):
        assert Cost(value) == value
        assert hash(Cost(value)) == hash(value)
        assert len({Cost(value), value}) == 1
    assert len({POS_INF, NEG_INF, Cost(0)}) == 3


def test_parse_and_format_round_trip():
    for text in ["3", "-2", "5/4", "0"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("0.25") == Fraction(1, 4)
    assert str(Cost(Fraction(7, 2))) == "7/2"
    # a JSON true or false is no number
    for flag in (True, False):
        with pytest.raises(ValueError):
            parse_rational(flag)


def test_over_common_denominator():
    assert over_common_denominator([Fraction(1, 2), Fraction(-2, 3), 3]) == ([3, -4, 18], 6)
    assert over_common_denominator([Fraction(5, 4)]) == ([5], 4)
    assert over_common_denominator([]) == ([], 1)


def test_decimal4_round_half_even():
    assert decimal4(Fraction(2672, 1000)) == "2.6720"
    assert decimal4(Fraction(1, 3)) == "0.3333"
    # ties round to the even last digit
    assert decimal4(Fraction(25, 100000)) == "0.0002"
    assert decimal4(Fraction(15, 100000)) == "0.0002"
    assert decimal4(Fraction(3)) == "3.0000"
