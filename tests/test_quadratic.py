import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfans import QuadraticNumber, QuadraticRay
from gfans.quadratic import fold, parts_text, root_sign


def test_perfect_square_discriminant_folds_to_rational():
    q = QuadraticNumber(Fraction(1), Fraction(3), 49)
    assert q.delta == 0
    assert q == QuadraticNumber(22, 0)


def test_zero_irrational_part_drops_discriminant():
    q = QuadraticNumber(Fraction(5), Fraction(0), 12)
    assert q.delta == 0


def test_exact_comparison_near_tie():
    # sqrt(2) vs 1.41421356...: decided algebraically, not by float
    close = Fraction(141421356, 100000000)
    assert QuadraticNumber(-close, 1, 2).sign() == 1
    assert root_sign(-close, 1, 2) == 1
    assert QuadraticNumber(0, 1, 4) == QuadraticNumber(2, 0)


def test_sign_of_mixed_terms():
    assert QuadraticNumber(2, -1, 3).sign() == 1
    assert QuadraticNumber(-2, 1, 3).sign() == -1
    assert QuadraticNumber(0, 0, 3).sign() == 0
    assert QuadraticNumber(Fraction(-3), Fraction(1), 9).sign() == 0
    # root_sign on an unfolded perfect square and on delta = 0
    assert root_sign(-3, 1, 9) == 0
    assert root_sign(Fraction(-1, 2), 5, 0) == -1


_ints = st.integers(-10 ** 6, 10 ** 6)


@st.composite
def quadratic_rays(draw):
    n = draw(st.integers(1, 4))
    vector = st.lists(_ints, min_size=n, max_size=n)
    return QuadraticRay(draw(vector), draw(vector),
                        draw(st.sampled_from([0, 1, 4, 2, 5, 12, 45])),
                        draw(st.integers(1, 10 ** 4)))


@given(quadratic_rays())
def test_quadratic_ray_is_the_tuple_of_its_components(ray):
    components = tuple(
        QuadraticNumber(Fraction(pi, ray.den), Fraction(qi, ray.den),
                        ray.delta)
        for pi, qi in zip(ray.p, ray.q))
    assert tuple(ray) == components
    assert ray == components and components == ray
    assert hash(ray) == hash(components)
    assert len(ray) == len(ray.p) == len(ray.q)
    assert all(type(v) is int for v in ray.p + ray.q)
    assert ray[-1] == components[-1] and ray[:1] == components[:1]


def test_quadratic_ray_keeps_its_integer_parts():
    ray = QuadraticRay([4, -6], [0, 2], 12, 4)
    assert (ray.p, ray.q, ray.delta, ray.den) == ((4, -6), (0, 2), 12, 4)
    assert ray == (QuadraticNumber(1, 0),
                   QuadraticNumber(Fraction(-3, 2), Fraction(1, 2), 12))
    first, second = ray
    assert first == QuadraticNumber(1, 0)
    # an unfolded perfect square stays in the parts and folds per component
    square = QuadraticRay((1,), (3,), 49, 2)
    assert square.delta == 49 and square == (QuadraticNumber(11, 0),)
    for p, q, den in (((1, 2), (3,), 1), ((1,), (3,), 0), ((1,), (3,), -2)):
        with pytest.raises(ValueError):
            QuadraticRay(p, q, 5, den)
    with pytest.raises(ValueError, match="discriminant must be nonnegative"):
        QuadraticRay((1,), (3,), -5, 1)


@given(quadratic_rays())
def test_quadratic_ray_copies_and_pickles(ray):
    copies = [copy.copy(ray), copy.deepcopy(ray)]
    copies += [pickle.loads(pickle.dumps(ray, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is QuadraticRay
        assert other == ray
        assert (other.p, other.q, other.delta, other.den) == \
            (ray.p, ray.q, ray.delta, ray.den)


def test_float_and_hash():
    assert abs(float(QuadraticNumber(0, 1, 2)) - 2 ** 0.5) < 1e-12
    assert hash(QuadraticNumber(7, 0)) == hash(
        QuadraticNumber(Fraction(7), Fraction(0), 0)
    )
    # equality is structural, so it agrees with the hash: a
    # QuadraticNumber never equals a plain rational
    assert QuadraticNumber(7, 0) != 7
    assert len({QuadraticNumber(7, 0), 7}) == 2
    assert len({QuadraticNumber(7, 0), QuadraticNumber(3, 1, 16)}) == 1


# int() used to truncate or convert these: 2.9 printed as sqrt(2), '5'
# was accepted, and True became 1 and folded 1 + sqrt(1) to 2
@pytest.mark.parametrize("delta", [2.9, "5", True, Fraction(5), 5.0])
def test_a_discriminant_that_is_not_an_int_is_refused(delta):
    with pytest.raises(ValueError, match="discriminant must be an int"):
        QuadraticNumber(1, 1, delta)
    with pytest.raises(ValueError, match="discriminant must be nonnegative"):
        QuadraticNumber(1, 1, -5)


# Fraction() used to take these: '1/3' printed as 1/3, 0.1 as its binary
# fraction, and True as 1
@pytest.mark.parametrize("x, y", [
    ("1/3", 0), (0, "1/3"), (0.1, 1), (1, 0.5), (True, 0), (0, False),
    (1.0, 0)])
def test_parts_that_are_not_ints_or_fractions_are_refused(x, y):
    with pytest.raises(ValueError, match="x and y must be ints or Fractions"):
        QuadraticNumber(x, y, 5)


# QuadraticRay(p, q, 5, True) used to keep den = True
@pytest.mark.parametrize("delta, den", [
    (5, True), (5, 2.0), (5, "2"), (5, Fraction(2)),
    (True, 2), (2.9, 2), ("5", 2)])
def test_a_ray_refuses_a_delta_or_den_that_is_not_an_int(delta, den):
    for p, q in (((1, 2), (3, 4)), ((), ())):  # with and without components
        with pytest.raises(ValueError, match="delta and den must be ints"):
            QuadraticRay(p, q, delta, den)


# QuadraticRay((True, 2), (0, 1), 5, 1) used to keep p == (True, 2), a
# Fraction entry was taken, and a float one escaped as TypeError
@pytest.mark.parametrize("p, q", [
    ((True, 2), (0, 1)), ((1, 2), (0, False)), ((Fraction(1), 2), (0, 1)),
    ((1, 2), (0, Fraction(1, 2))), ((1.0, 2), (0, 1)), ((1, 2), (0, 0.5)),
    (("1", 2), (0, 1))])
def test_a_ray_refuses_parts_that_are_not_int_vectors(p, q):
    with pytest.raises(ValueError, match="p and q must be int vectors"):
        QuadraticRay(p, q, 5, 1)


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
    assert_within_one_ulp(QuadraticNumber(-q.x, -q.y, q.delta))


def test_float_of_a_huge_discriminant():
    # math.sqrt raises OverflowError on an int above about 2^1024
    for q in (QuadraticNumber(0, 1, 2 ** 1100 + 1),
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


@pytest.mark.parametrize("q, text", [
    (QuadraticNumber(Fraction(1, 2), 3, 5), "1/2 + 3*sqrt(5)"),
    (QuadraticNumber(Fraction(-4, 6), Fraction(3, -9), 12),
     "-2/3 + -1/3*sqrt(12)"),
    (QuadraticNumber(2, 3, 4), "8"),  # 2 + 3*sqrt(4) folds
    (QuadraticNumber(Fraction(1, 3), Fraction(1, 2), 9), "11/6"),
    (QuadraticNumber(Fraction(-7, 3), 0, 5), "-7/3"),  # y = 0 drops delta
    (QuadraticNumber(0, 0, 5), "0"),
])
def test_repr_is_the_exact_text(q, text):
    assert repr(q) == text


@given(_fractions, _fractions, st.integers(0, 2 ** 70) | st.sampled_from(
    [0, 1, 4, 5, 9, 12, 49]))
def test_repr_is_the_text_of_the_folded_parts(x, y, delta):
    parts = fold(*x.as_integer_ratio(), *y.as_integer_ratio(), delta,
                 math.isqrt(delta))
    assert repr(QuadraticNumber(x, y, delta)) == parts_text(*parts)
