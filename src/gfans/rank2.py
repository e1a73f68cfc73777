"""Rank-2 cluster patterns of infinite type.

The forward and backward g-vector walks along the alternating mutations,
the C- and G-matrices indexed by the integer-labeled tree (vertex 0
initial, edge labels alternating 1, 2 rightward starting with 1), and the
limit directions of the walks in Q(sqrt(ab(ab-4))).  `g_vectors` is the
one walk: G_t takes its two columns from it and C_t follows by tropical
duality, so the paper's Chebyshev closed forms (`gfans.chebyshev`) are
not read here.
"""

from __future__ import annotations

from itertools import chain, islice

from .quadratic import QuadraticRay

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def _check_ab(a: int, b: int):
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"a and b must be ints, not {a!r} and {b!r}")
    if a < 1 or b < 1 or a * b < 4:
        raise ValueError("requires a, b >= 1 with ab >= 4")


def rank2_matrices(t: int, a: int, b: int) -> tuple[Mat2, Mat2]:
    """(C_t, G_t) for the initial matrix [[0,-b],[a,0]], ab >= 4.

    The columns of G_t are g-vectors of one walk: the forward walk for
    t > 0, the backward walk for t < 0.  g_{|t|} is the column of the
    word's last letter, 1 for odd t > 0 and even t < 0, and g_{|t|-1} the
    other column, with g_0 = e_2 and g'_0 = e_1.  C_t = D^-1 G_t^-T D by
    tropical duality C_t^T D G_t = D (Nakanishi-Zelevinsky), with
    D = diag(a, b)/gcd(a, b) and det G_t = (-1)^t.  The matrices agree
    with direct mutation along the alternating word toward t.
    """
    _check_ab(a, b)  # t = 0 reads no g-vector
    if type(t) is not int:
        raise ValueError(f"t must be an int, not {t!r}")
    # each walk starts from G_0 = I, listed other column first
    if t > 0:
        walk = chain(((1, 0), (0, 1)), g_vectors("forward", a, b))
    else:
        walk = chain(((0, 1), (1, 0)), g_vectors("backward", a, b))
    other, last = islice(walk, abs(t), abs(t) + 2)
    if (t > 0) == (t % 2 == 1):  # the last letter is 1, or t = 0
        (p, r), (q, s) = last, other
    else:
        (p, r), (q, s) = other, last
    # G_t^-T = det * [[s, -r], [-q, p]]; D^-1 M D scales m_12 by b/a and
    # m_21 by a/b, and the quotients are exact because C_t is integral
    det = -1 if t % 2 else 1
    c = ((det * s, -det * r * b // a), (-det * q * a // b, det * p))
    return c, ((p, q), (r, s))


def g_vectors(direction: str, a: int, b: int):
    """g_1, g_2, ... along the forward or backward alternating mutations.

    Forward: g_1 = (-1,0), g_2 = (0,-1), g_{m+2} = -g_m + a g_{m+1} (m odd)
    or -g_m + b g_{m+1} (m even).  Backward: g'_1 = (b,-1),
    g'_2 = (ab-1,-a) with the roles of a and b exchanged in the recursion.
    """
    _check_ab(a, b)
    if direction == "forward":
        prev, cur, f, h = (-1, 0), (0, -1), a, b
    elif direction == "backward":
        prev, cur, f, h = (b, -1), (a * b - 1, -a), b, a
    else:
        raise ValueError("direction must be 'forward' or 'backward'")
    yield prev
    while True:
        yield cur
        prev, cur = cur, (f * cur[0] - prev[0], f * cur[1] - prev[1])
        f, h = h, f


def g_sequence(direction: str, m: int, a: int, b: int) -> tuple[int, int]:
    """m-th g-vector along the forward or backward alternating mutations,
    entry m - 1 of `g_vectors`."""
    if type(m) is not int:
        raise ValueError(f"m must be an int, not {m!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    return next(islice(g_vectors(direction, a, b), m - 1, None))


def limit_parts(a: int, b: int) -> tuple[tuple[int, int], int, int]:
    """(p, delta, den) with p = (2b, -ab), delta = ab(ab-4) and den = 2b:
    the limit directions are v = (p - sqrt(delta)*(0, 1)) / den and v' =
    (p + sqrt(delta)*(0, 1)) / den, in integers."""
    _check_ab(a, b)
    return (2 * b, -a * b), a * b * (a * b - 4), 2 * b


def limit_vectors(a: int, b: int):
    """(v, v'): the limit directions of the normalized g-vector sequences.

    v = (1, -(ab + sqrt(ab(ab-4)))/2b) and v' with the minus branch;
    they coincide exactly when ab = 4.
    """
    p, delta, den = limit_parts(a, b)
    return tuple(QuadraticRay(p, (0, root), delta, den) for root in (-1, 1))
