"""The integer rules for one limit-ray component in gfans.quadratic (fold,
text and float), held to Fraction arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gfans import QuadraticNumber
from gfans.quadratic import (components, fold, parts_float, parts_text,
                             ratio_text)
from test_quadratic import float_oracle

DELTAS = (0, 1, 4, 5, 12, 45, 49)


def fraction_fold(x: Fraction, y: Fraction, delta: int):
    """x + y*sqrt(delta) folded in Fraction arithmetic: a perfect-square
    delta goes into x, and y = 0 drops delta."""
    root = math.isqrt(delta)
    if root * root == delta:
        x, y = x + y * root, Fraction(0)
    return x, y, delta if y else 0


def check_parts(parts, x, y, delta):
    """`parts` are the folded x + y*sqrt(delta): the same reduced integers,
    the text str(Fraction) writes, and a float within one ulp."""
    assert parts == (x.numerator, x.denominator, y.numerator, y.denominator,
                     delta)
    assert ratio_text(*parts[:2]) == str(x)
    assert ratio_text(*parts[2:4]) == str(y)
    assert parts_text(*parts) == (f"{x} + {y}*sqrt({delta})" if y else str(x))
    try:
        want = float_oracle(QuadraticNumber(x, y, delta))
    except OverflowError:
        with pytest.raises(OverflowError):
            parts_float(*parts)
        return
    got = parts_float(*parts)
    assert got == float(QuadraticNumber(x, y, delta))
    assert abs(got - want) <= math.ulp(want)


def check_ray(p, q, delta, den):
    got = components(p, q, delta, den)
    assert len(got) == len(p)
    for parts, pi, qi in zip(got, p, q):
        check_parts(parts, *fraction_fold(Fraction(pi, den), Fraction(qi, den),
                                          delta))


@pytest.mark.parametrize("delta", DELTAS)
def test_components_fold_write_and_convert_like_fractions(delta):
    # zero q entries, and a den that shares factors with p and q
    check_ray((6, -4, 0, 9, 0), (0, 2, -6, 3, 0), delta, 6)
    check_ray((12, 0), (-8, 4), delta, 4)
    check_ray((0,), (1,), delta, 1)
    # entries past 2^600: in the float range over a den as large, past it
    # over a small one
    big = 2 ** 600
    check_ray((big, -3 * big, big + 1), (big, 0, -big), delta, 2 * big)
    check_ray((big * big, -big), (0, big * big), delta, 3)


_small = st.integers(-50, 50)
_big = st.integers(-(2 ** 700), 2 ** 700) | st.sampled_from(
    [2 ** 600 + 1, -(2 ** 601), 2 ** 1100])


@st.composite
def rays(draw):
    """(p, q, delta, den), entries often sharing a factor g with den."""
    g = draw(st.integers(1, 12) | st.just(2 ** 600))
    den = g * draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))

    def entry():
        return draw(st.just(0) | _small | _big) * draw(st.sampled_from([1, g]))

    p = [entry() for _ in range(n)]
    q = [entry() for _ in range(n)]
    return p, q, draw(st.sampled_from(DELTAS) | st.integers(2, 10 ** 6)), den


@given(rays())
@example(([2 ** 1100], [1], 5, 1))  # past the float range
@example(([3, -3], [0, 0], 45, 9))
def test_components_match_fraction_arithmetic(ray):
    check_ray(*ray)


_fractions = st.fractions(max_denominator=10 ** 6) | st.builds(
    Fraction, _big, st.integers(1, 2 ** 650))


_deltas = st.sampled_from(DELTAS) | st.integers(0, 10 ** 9)


@given(_fractions, _fractions, _deltas)
def test_fold_of_two_denominators_matches_fraction_arithmetic(x, y, delta):
    # QuadraticNumber's x and y need not share a denominator
    parts = fold(x.numerator, x.denominator, y.numerator, y.denominator, delta,
                 math.isqrt(delta))
    check_parts(parts, *fraction_fold(x, y, delta))
