import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfans import QuadraticNumber


def test_perfect_square_discriminant_folds_to_rational():
    q = QuadraticNumber(Fraction(1), Fraction(3), 49)
    assert q.delta == 0
    assert q == 22


def test_zero_irrational_part_drops_discriminant():
    q = QuadraticNumber(Fraction(5), Fraction(0), 12)
    assert q.delta == 0


def test_arithmetic_closure():
    s = QuadraticNumber.sqrt(12)
    a = 1 + s  # 1 + 2*sqrt(3)
    b = 2 - s
    assert a + b == 3
    assert a * b == QuadraticNumber(Fraction(2) - 12, Fraction(1), 12)
    # (1+sqrt(12))(1-sqrt(12)) = -11
    assert a * (2 - a) == -11


def test_division_and_inverse():
    s = QuadraticNumber.sqrt(5)
    a = 2 + s
    assert a * (1 / a) == 1
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        _ = 1 / QuadraticNumber.rational(0)


def test_exact_comparison_near_tie():
    # sqrt(2) vs 1.41421356...: decided algebraically, not by float
    s = QuadraticNumber.sqrt(2)
    close = Fraction(141421356, 100000000)
    assert s > close
    assert (s - close).sign() == 1
    assert QuadraticNumber.sqrt(4) == 2


def test_sign_of_mixed_terms():
    s = QuadraticNumber.sqrt(3)
    assert (2 - s).sign() == 1
    assert (s - 2).sign() == -1
    assert (s - s).sign() == 0
    assert QuadraticNumber(Fraction(-3), Fraction(1), 9).sign() == 0


def test_mixed_discriminants_rejected():
    a = QuadraticNumber.sqrt(2)
    b = QuadraticNumber.sqrt(3)
    with pytest.raises(ValueError):
        _ = a + b


def test_ordering_total_on_shared_field():
    s = QuadraticNumber.sqrt(5)
    values = [2 - s, QuadraticNumber.rational(0), s - 2, 1 + s]
    ordered = sorted(values)
    assert ordered == [2 - s, QuadraticNumber.rational(0), s - 2, 1 + s]


def test_float_and_hash():
    s = QuadraticNumber.sqrt(2)
    assert abs(float(s) - 2 ** 0.5) < 1e-12
    assert hash(QuadraticNumber.rational(7)) == hash(
        QuadraticNumber(Fraction(7), Fraction(0), 0)
    )


def float_oracle(q):
    """Correctly rounded float of q: x + y*r at both ends of a bracket
    [r, r + 2^-p] around sqrt(delta), with p doubled until the two ends
    round to the same float."""
    if q.y == 0:
        return float(q.x)
    p = 64
    while True:
        r = Fraction(math.isqrt(q.delta << 2 * p), 1 << p)
        ends = {float(q.x + q.y * e) for e in (r, r + Fraction(1, 1 << p))}
        if len(ends) == 1:
            return ends.pop()
        p *= 2


def assert_within_one_ulp(q):
    want = float_oracle(q)
    assert abs(float(q) - want) <= math.ulp(want), (q, float(q), want)


def test_float_resolves_cancellation():
    # 2^80 - sqrt(2^160 + 1) is about -2^-81; x + y*sqrt(delta) in floats
    # gives 0.0
    q = QuadraticNumber(Fraction(2 ** 80), Fraction(-1), 2 ** 160 + 1)
    assert float(q) < 0
    assert_within_one_ulp(q)
    assert_within_one_ulp(-q)


def test_float_of_a_huge_discriminant():
    # math.sqrt raises OverflowError on an int above about 2^1024
    for q in (QuadraticNumber.sqrt(2 ** 1100 + 1),
              QuadraticNumber(Fraction(3, 7), Fraction(1, 2 ** 600),
                              2 ** 1300 + 7),
              QuadraticNumber(Fraction(-(2 ** 550)), Fraction(1),
                              2 ** 1100 + 3)):
        assert_within_one_ulp(q)


_fractions = st.fractions(max_denominator=10 ** 6)


@given(_fractions, _fractions, st.integers(2, 2 ** 300),
       st.integers(-(2 ** 20), 2 ** 20))
def test_float_within_one_ulp(x, y, delta, nudge):
    assert_within_one_ulp(QuadraticNumber(x, y, delta))
    if y:
        # x chosen next to -y*sqrt(delta), so the two terms nearly cancel
        near = -y * Fraction(math.isqrt(delta << 200), 1 << 100) \
            + Fraction(nudge, 1 << 120)
        assert_within_one_ulp(QuadraticNumber(near, y, delta))
