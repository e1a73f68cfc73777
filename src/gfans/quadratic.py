"""Limit rays in one real quadratic field Q(sqrt(delta)).

Every component of a limit ray lies in the field of delta = ab(ab - 4) and
is linear in the rank-2 slope, so a ray is exactly (P + Q*sqrt(delta)) /
den with integer vectors P, Q and one positive integer den.
`QuadraticRay` is that value: a tuple of components that keeps P, Q, delta
and den, so its pairing with an integer vector is two integer dot products
and one exact sign (`root_sign`), never a float.  A component's rules live
in integers, once: `fold` (a perfect-square delta folds into the rational
part), its text (`ratio_text`, `parts_text`) and float (`parts_float`).
The CLI prints from these; `QuadraticNumber` keeps Fractions for callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


def root_sign(x, y, delta: int) -> int:
    """Exact sign in {-1, 0, 1} of x + y*sqrt(delta), for rationals x, y
    and an integer delta >= 0."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0) if delta else 0
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    lhs = x * x
    rhs = y * y * delta
    if lhs == rhs:
        return 0
    return sx if lhs > rhs else sy


def fold(xn: int, xd: int, yn: int, yd: int, delta: int, root: int):
    """Folded parts (xn, xd, yn, yd, delta) of x + y*sqrt(delta), x = xn/xd
    and y = yn/yd with xd, yd > 0 and root = isqrt(delta): a perfect-square
    delta folds into x, y = 0 sets delta to 0, and x and y are reduced."""
    if root * root == delta:
        xn, xd, yn = xn * yd + yn * root * xd, xd * yd, 0
    g, h = gcd(xn, xd), gcd(yn, yd)
    return xn // g, xd // g, yn // h, yd // h, delta if yn else 0


def components(p, q, delta: int, den: int) -> list:
    """Folded parts of each component (p_i + q_i*sqrt(delta)) / den."""
    root = isqrt(delta)
    return [fold(pi, den, qi, den, delta, root) for pi, qi in zip(p, q)]


def ratio_text(n: int, d: int) -> str:
    """n/d as str(Fraction) writes it, for a reduced n/d with d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def parts_text(xn: int, xd: int, yn: int, yd: int, delta: int) -> str:
    """Exact text of folded parts: x, or x + y*sqrt(delta)."""
    x = ratio_text(xn, xd)
    return f"{x} + {ratio_text(yn, yd)}*sqrt({delta})" if yn else x


def parts_float(xn: int, xd: int, yn: int, yd: int, delta: int) -> float:
    """Folded parts as a float within one ulp, or OverflowError past range.

    Write the value as (n + m*sqrt(delta)) / den with integers.  The sum
    s = |n| + |m|*sqrt(delta) cannot cancel: scaled by 2^k so that
    |m|*sqrt(delta)*2^k >= 2^71, an integer square root fixes it to
    2^-71 relative.  If n and m have one sign the value is +-s / den;
    otherwise it is (n^2 - m^2*delta) / (+-den*s), with an exact
    numerator.  The one rounding is the final integer division.
    """
    if not yn:
        return xn / xd
    den, n, m = xd * yd, xn * yd, yn * xd
    m2d = m * m * delta
    k = max(0, 72 - m2d.bit_length() // 2)
    s = (abs(n) << k) + isqrt(m2d << 2 * k)
    if n == 0 or (n > 0) == (m > 0):
        return (s if m > 0 else -s) / (den << k)
    return ((n * n - m2d) << k) / (den * s if n > 0 else -den * s)


def _number(number, xn, xd, yn, yd, delta):
    """Give `number` the folded parts as its x, y and delta; returns it."""
    object.__setattr__(number, "x", Fraction(xn, xd))
    object.__setattr__(number, "y", Fraction(yn, yd))
    object.__setattr__(number, "delta", delta)
    return number


@dataclass(frozen=True)
class QuadraticNumber:
    x: Fraction
    y: Fraction
    delta: int = 0

    def __post_init__(self):
        x, y, delta = self.x, self.y, self.delta
        # a float and a bool have as_integer_ratio too
        if type(x) not in (int, Fraction) or type(y) not in (int, Fraction):
            raise ValueError("x and y must be ints or Fractions")
        if type(delta) is not int:
            raise ValueError("discriminant must be an int")
        if delta < 0:
            raise ValueError("discriminant must be nonnegative")
        _number(self, *fold(*x.as_integer_ratio(), *y.as_integer_ratio(),
                            delta, isqrt(delta)))

    def _parts(self):
        return (*self.x.as_integer_ratio(), *self.y.as_integer_ratio(),
                self.delta)

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return root_sign(self.x, self.y, self.delta)

    def __float__(self) -> float:
        """Within one ulp of the exact value (`parts_float`)."""
        return parts_float(*self._parts())

    def __repr__(self) -> str:
        return parts_text(*self._parts())


class QuadraticRay(tuple):
    """The ray (p + q*sqrt(delta)) / den, with int vectors p, q, an int
    delta >= 0 and an int den > 0.

    As a tuple it is the QuadraticNumber components (p_i + q_i*sqrt(delta))
    / den, so equality, hashing and indexing are those of that tuple; it
    also keeps p, q, delta and den, which containment reads directly.  The
    arguments are checked once per ray, and each component is folded by
    `components`, with one integer square root per ray.
    """

    def __new__(cls, p, q, delta: int, den: int):
        p, q = tuple(p), tuple(q)
        if type(delta) is not int or type(den) is not int:
            raise ValueError("delta and den must be ints")
        for v in p + q:
            if type(v) is not int:
                raise ValueError("p and q must be int vectors")
        if len(p) != len(q) or den <= 0:
            raise ValueError("need p and q of one length and den > 0")
        if delta < 0:
            raise ValueError("discriminant must be nonnegative")
        ray = super().__new__(cls, (
            _number(object.__new__(QuadraticNumber), *parts)
            for parts in components(p, q, delta, den)))
        ray.p, ray.q, ray.delta, ray.den = p, q, delta, den
        return ray

    def __getnewargs__(self):
        return self.p, self.q, self.delta, self.den
