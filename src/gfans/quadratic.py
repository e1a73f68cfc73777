"""Exact arithmetic in a real quadratic extension Q(sqrt(delta)).

Values are x + y*sqrt(delta) with rational x, y and a fixed nonnegative
integer discriminant.  Comparisons are decided algebraically, never through
floating point.  A perfect-square discriminant is folded into the rational
part on construction, so affine-type limits collapse to rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_Rat = (int, Fraction)


def _isqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class QuadraticNumber:
    x: Fraction
    y: Fraction
    delta: int = 0

    def __post_init__(self):
        x = Fraction(self.x)
        y = Fraction(self.y)
        delta = int(self.delta)
        if delta < 0:
            raise ValueError("discriminant must be nonnegative")
        root = _isqrt_exact(delta)
        if root is not None:
            x, y, delta = x + y * root, Fraction(0), 0
        if y == 0:
            delta = 0
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", delta)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def rational(cls, x) -> "QuadraticNumber":
        return cls(Fraction(x), Fraction(0), 0)

    @classmethod
    def sqrt(cls, delta: int) -> "QuadraticNumber":
        return cls(Fraction(0), Fraction(1), delta)

    def _coerce(self, other) -> "QuadraticNumber | None":
        if isinstance(other, QuadraticNumber):
            if self.delta and other.delta and self.delta != other.delta:
                raise ValueError("mixed discriminants")
            return other
        if isinstance(other, _Rat):
            return QuadraticNumber.rational(other)
        return None

    def _delta_with(self, other: "QuadraticNumber") -> int:
        return self.delta or other.delta

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(self.x + o.x, self.y + o.y, self._delta_with(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.x, -self.y, self.delta)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._delta_with(o)
        return QuadraticNumber(
            self.x * o.x + self.y * o.y * d,
            self.x * o.y + self.y * o.x,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._delta_with(o)
        norm = o.x * o.x - o.y * o.y * d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        conj = QuadraticNumber(o.x, -o.y, d)
        num = self * conj
        return QuadraticNumber(num.x / norm, num.y / norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        if self.y == 0:
            return (self.x > 0) - (self.x < 0)
        if self.x == 0:
            return 1 if self.y > 0 else -1
        sx = 1 if self.x > 0 else -1
        sy = 1 if self.y > 0 else -1
        if sx == sy:
            return sx
        lhs = self.x * self.x
        rhs = self.y * self.y * self.delta
        if lhs == rhs:
            return 0
        return sx if lhs > rhs else sy

    def is_zero(self) -> bool:
        return self.sign() == 0

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticNumber with {other!r}")
        return (self - o).sign()

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return (self - o).sign() == 0

    def __hash__(self):
        return hash((self.x, self.y, self.delta))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- output --------------------------------------------------------------

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
