import math
import re
from fractions import Fraction

import pytest

from gfans import chebyshev_u, nu_ratio


def u_float(n, ab):
    """Floating-point oracle: U_n(cos th) = sin((n+1) th)/sin th at
    t = sqrt(ab)/2 = cosh s, using the hyperbolic form for ab > 4."""
    t = math.sqrt(ab) / 2.0
    if ab == 4:
        return float(n + 1)
    s = math.acosh(t)
    return math.sinh((n + 1) * s) / math.sinh(s)


@pytest.mark.parametrize("ab", [4, 5, 6, 8, 12])
def test_values_match_analytic_form(ab):
    kappa = math.sqrt(ab)
    for n in range(-2, 15):
        even, odd = chebyshev_u(n, ab)
        approx = even + odd * kappa
        assert abs(approx - u_float(n, ab)) < 1e-6 * max(1.0, abs(approx))


def test_parity_of_parts():
    # U_n is an integer for even n and an integer multiple of kappa for odd n
    for n in range(-2, 20):
        even, odd = chebyshev_u(n, 6)
        if n % 2 == 0:
            assert odd == 0
        else:
            assert even == 0


def test_base_cases():
    assert chebyshev_u(-2, 6) == (-1, 0)
    assert chebyshev_u(-1, 6) == (0, 0)
    assert chebyshev_u(0, 6) == (1, 0)
    assert chebyshev_u(1, 6) == (0, 1)  # U_1 = kappa
    assert chebyshev_u(2, 6) == (5, 0)  # ab - 1


def test_recursion_holds_in_pair_form():
    ab = 10
    for n in range(0, 12):
        un = chebyshev_u(n, ab)
        un1 = chebyshev_u(n - 1, ab)
        un2 = chebyshev_u(n - 2, ab)
        # kappa * U_{n-1} = U_n + U_{n-2}, in (integer, kappa) components
        lhs = (ab * un1[1], un1[0])
        rhs = (un[0] + un2[0], un[1] + un2[1])
        assert lhs == rhs


def test_index_guard():
    with pytest.raises(ValueError):
        chebyshev_u(-3, 6)
    with pytest.raises(ValueError, match="requires ab >= 4"):
        chebyshev_u(0, 3)
    with pytest.raises(ValueError, match="index must be >= -2"):
        nu_ratio(-3, 0, 3, 2)


def test_nu_ratio_against_floats():
    a, b = 3, 2
    nu = math.sqrt(b / a)
    for p, q in [(1, 0), (2, 1), (3, 2), (0, 1), (5, 4), (4, 5), (-1, 0),
                 (1, 2), (-2, 1)]:
        got = nu_ratio(p, q, a, b)
        want = nu * u_float(p, a * b) / u_float(q, a * b)
        assert isinstance(got, Fraction)
        assert abs(float(got) - want) < 1e-9


def test_nu_ratio_needs_opposite_parity():
    with pytest.raises(ValueError):
        nu_ratio(2, 0, 3, 2)
    with pytest.raises(ValueError):
        nu_ratio(1, 3, 3, 2)


@pytest.mark.parametrize("p", [-2, 0, 2])
def test_nu_ratio_rejects_u_minus_one_as_denominator(p):
    # U_{-1} = 0, so nu*U_p/U_{-1} is undefined: an input error, not a
    # division by zero
    with pytest.raises(ValueError):
        nu_ratio(p, -1, 3, 2)


def test_nu_ratio_monotone_bands():
    # the sequences bounding the 4-2 and 4-3 bands are strictly monotone
    a, b = 3, 2
    down = [nu_ratio(n + 1, n, a, b) for n in range(8)]
    up = [nu_ratio(n, n + 1, a, b) for n in range(8)]
    assert all(x > y for x, y in zip(down, down[1:]))
    assert all(x < y for x, y in zip(up, up[1:]))


@pytest.mark.parametrize("call, message", [
    # islice's message, "requires ab >= 4", (0, 1), 3 and Fraction's
    # TypeError before the parameters were checked
    (lambda: chebyshev_u(2.5, 5), "n must be an int, not 2.5"),
    (lambda: chebyshev_u(3, 2.5), "ab must be an int, not 2.5"),
    (lambda: chebyshev_u(True, 5), "n must be an int, not True"),
    (lambda: chebyshev_u(0, False), "ab must be an int, not False"),
    (lambda: nu_ratio(2, 1, True, 4), "a must be an int, not True"),
    (lambda: nu_ratio(2, 1, 2.5, 2), "a must be an int, not 2.5"),
    (lambda: nu_ratio(2, 1, 3, "2"), "b must be an int, not '2'"),
    (lambda: nu_ratio(2.0, 1, 3, 2), "p must be an int, not 2.0"),
    (lambda: nu_ratio(2, True, 3, 2), "q must be an int, not True"),
], ids=["u-n-float", "u-ab-float", "u-n-bool", "u-ab-bool", "nu-a-bool",
        "nu-a-float", "nu-b-str", "nu-p-float", "nu-q-bool"])
def test_int_parameters_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("a, b", [(-3, -2), (-2, -2), (-1, -4), (-4, -1)])
def test_nu_ratio_refuses_a_or_b_below_1(a, b):
    # ab >= 4, but nu = sqrt(b/a) needs a, b >= 1: nu_ratio(1, 0, -3, -2)
    # returned -2
    with pytest.raises(ValueError, match=r"^requires a, b >= 1$"):
        nu_ratio(1, 0, a, b)
    # the earlier checks keep their messages
    with pytest.raises(ValueError, match="^p and q must have opposite parity$"):
        nu_ratio(2, 0, a, b)
    with pytest.raises(ValueError, match="^a must be an int, not 2.5$"):
        nu_ratio(1, 0, 2.5, b)


@pytest.mark.parametrize("a, b", [(0, 5), (-1, 3), (1, 3)])
def test_nu_ratio_keeps_the_ab_message_below_4(a, b):
    with pytest.raises(ValueError, match=r"^requires ab >= 4$"):
        nu_ratio(1, 0, a, b)
