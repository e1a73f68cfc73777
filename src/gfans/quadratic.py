"""Limit rays in one real quadratic field Q(sqrt(delta)).

Every component of a limit ray lies in the field of delta = ab(ab - 4) and
is linear in the rank-2 slope, so a ray is exactly (P + Q*sqrt(delta)) /
den with integer vectors P, Q and one positive integer den.
`QuadraticRay` is that value: a tuple of components that keeps P, Q, delta
and den, so its pairing with an integer vector is two integer dot products
and one exact sign (`root_sign`), never a float.  `QuadraticNumber` is the
output value of one component: exact sign, float and repr.  A
perfect-square discriminant is folded into the rational part of a
component on construction, so affine-type limits collapse to rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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


_ZERO = Fraction(0)


def _set_parts(number, x: Fraction, y: Fraction, delta: int, root: int):
    """Give `number` the value x + y*sqrt(delta), with root = isqrt(delta):
    a perfect-square delta folds into x, and y = 0 sets delta to 0.
    Returns `number`."""
    if root * root == delta:
        x, y, delta = x + y * root, _ZERO, 0
    elif not y:
        delta = 0
    object.__setattr__(number, "x", x)
    object.__setattr__(number, "y", y)
    object.__setattr__(number, "delta", delta)
    return number


@dataclass(frozen=True)
class QuadraticNumber:
    x: Fraction
    y: Fraction
    delta: int = 0

    def __post_init__(self):
        # Fraction() would also take a str, a float or a bool
        if type(self.x) not in (int, Fraction) or \
                type(self.y) not in (int, Fraction):
            raise ValueError("x and y must be ints or Fractions")
        delta = self.delta
        if type(delta) is not int:
            raise ValueError("discriminant must be an int")
        if delta < 0:
            raise ValueError("discriminant must be nonnegative")
        _set_parts(self, Fraction(self.x), Fraction(self.y), delta,
                   math.isqrt(delta))

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return root_sign(self.x, self.y, self.delta)

    def __float__(self) -> float:
        """Within one ulp of the exact value, for every value in float range.

        Write the value as (n + m*sqrt(delta)) / den with integers.  The sum
        s = |n| + |m|*sqrt(delta) cannot cancel: scaled by 2^k so that
        |m|*sqrt(delta)*2^k >= 2^71, an integer square root fixes it to
        2^-71 relative.  If n and m have one sign the value is +-s / den;
        otherwise it is (n^2 - m^2*delta) / (+-den*s), with an exact
        numerator.  The one rounding is the final integer division.
        """
        if self.y == 0:
            return float(self.x)
        den = self.x.denominator * self.y.denominator
        n = self.x.numerator * self.y.denominator
        m = self.y.numerator * self.x.denominator
        m2d = m * m * self.delta
        k = max(0, 72 - m2d.bit_length() // 2)
        s = (abs(n) << k) + math.isqrt(m2d << 2 * k)
        if n == 0 or (n > 0) == (m > 0):
            return (s if m > 0 else -s) / (den << k)
        return ((n * n - m2d) << k) / (den * s if n > 0 else -den * s)

    def __repr__(self) -> str:
        if self.y == 0:
            return f"{self.x}"
        return f"{self.x} + {self.y}*sqrt({self.delta})"


class QuadraticRay(tuple):
    """The ray (p + q*sqrt(delta)) / den, with int vectors p, q, an int
    delta >= 0 and an int den > 0.

    As a tuple it is the QuadraticNumber components (p_i + q_i*sqrt(delta))
    / den, so equality, hashing and indexing are those of that tuple; it
    also keeps p, q, delta and den, which containment reads directly.  The
    arguments are checked once per ray, and each component is folded by
    the rule of `QuadraticNumber` with one integer square root per ray.
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
        root = math.isqrt(delta)
        ray = super().__new__(cls, (
            _set_parts(object.__new__(QuadraticNumber), Fraction(pi, den),
                       Fraction(qi, den) if qi else _ZERO, delta, root)
            for pi, qi in zip(p, q)))
        ray.p, ray.q, ray.delta, ray.den = p, q, delta, den
        return ray

    def __getnewargs__(self):
        return self.p, self.q, self.delta, self.den
