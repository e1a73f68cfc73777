"""Chebyshev recursion of the second kind, specialized at kappa/2.

With kappa^2 = ab, the values U_n live alternately in Z and Z*kappa, so
U_n is the pair (even_part, odd_part) meaning even_part + odd_part*kappa:
odd_part is 0 for even n and even_part is 0 for odd n.  `u_pairs` is the
one recurrence over these pairs; `chebyshev_u` and `nu_ratio` read it by
index.  The paper's closed forms stay in exact integers because every
expression pairs an odd-index U with a factor of nu or 1/nu (nu*kappa = b,
kappa/nu = a).

No engine module reads this one.  The band ratios nu U_{n+1}/U_n and
nu U_{n-1}/U_n are the slopes of the pair's g-vectors, so the band search
walks `rank2.g_vectors`, and `rank2.rank2_matrices` takes G_t's columns
from the same walk; the values here are public API and the tests' oracle
for both.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice


def u_pairs(ab: int):
    """U_{-2}, U_{-1}, U_0, ... at t = kappa/2 as (even_part, odd_part),
    from one running recurrence U_n = kappa U_{n-1} - U_{n-2}."""
    if ab < 4:
        raise ValueError("requires ab >= 4")
    prev2, prev1 = (-1, 0), (0, 0)
    yield prev2
    yield prev1
    while True:
        cur = (ab * prev1[1] - prev2[0], prev1[0] - prev2[1])
        yield cur
        prev2, prev1 = prev1, cur


def pair_ratio(up, uq, a: int, b: int) -> Fraction:
    """nu * U_p / U_q as a Fraction, the value `nu_ratio` returns, from
    the (even_part, odd_part) pairs of U_p and U_q, p and q of opposite
    parity."""
    if uq[1]:  # U_q = w*kappa, so nu*U_p/U_q = U_p / (a*w)
        return Fraction(up[0], a * uq[1])
    # U_q integer, so U_p = w*kappa and nu*U_p/U_q = w*b / U_q
    return Fraction(up[1] * b, uq[0])


def _check_ints(**params):
    """Refuse a parameter that is not an int, a bool included."""
    for name, x in params.items():
        if type(x) is not int:
            raise ValueError(f"{name} must be an int, not {x!r}")


def chebyshev_u(n: int, ab: int) -> tuple[int, int]:
    """U_n at t = kappa/2 for kappa = sqrt(ab) as (even_part, odd_part);
    defined for n >= -2."""
    _check_ints(n=n, ab=ab)
    if n < -2:
        raise ValueError("index must be >= -2")
    return next(islice(u_pairs(ab), n + 2, None))


def nu_ratio(p: int, q: int, a: int, b: int) -> Fraction:
    """nu * U_p / U_q as an exact rational (p, q of opposite parity).

    Requires U_q != 0, i.e. q >= 0 or q = -2, and a, b >= 1 with ab >= 4,
    as the paper's pairs (a, b) have: nu = sqrt(b/a).
    """
    _check_ints(p=p, q=q, a=a, b=b)
    if min(p, q) < -2:
        raise ValueError("index must be >= -2")
    if q == -1:
        raise ValueError("U_{-1} = 0 cannot be a denominator")
    if (p - q) % 2 == 0:
        raise ValueError("p and q must have opposite parity")
    ab = a * b
    if ab >= 4 and (a < 1 or b < 1):  # ab < 4 is chebyshev_u's to refuse
        raise ValueError("requires a, b >= 1")
    return pair_ratio(chebyshev_u(p, ab), chebyshev_u(q, ab), a, b)
