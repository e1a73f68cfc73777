"""Closed forms for rank-2 cluster patterns of infinite type.

Explicit C- and G-matrices indexed by the integer-labeled tree (vertex 0
initial, edge labels alternating 1, 2 rightward starting with 1), the
forward/backward g-vector sequences, and their limit directions in
Q(sqrt(ab(ab-4))).
"""

from __future__ import annotations

from itertools import islice

from .chebyshev import u_pairs
from .quadratic import QuadraticRay

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def _check_ab(a: int, b: int):
    if a < 1 or b < 1 or a * b < 4:
        raise ValueError("requires a, b >= 1 with ab >= 4")


def rank2_matrices(t: int, a: int, b: int) -> tuple[Mat2, Mat2]:
    """(C_t, G_t) for the initial matrix [[0,-b],[a,0]], ab >= 4.

    det C_t = (-1)^t; the matrices agree with direct mutation along the
    alternating word toward t.
    """
    _check_ab(a, b)
    if t == 1:
        return ((-1, 0), (0, 1)), ((-1, 0), (0, 1))
    # U_k is the pair values[k + 2] = (even, odd).  The forms below read
    # U_k only for even k, where U_k = even, and nu*U_k and U_k/nu only for
    # odd k, where U_k = odd*kappa, so nu*U_k = odd*b and U_k/nu = odd*a.
    values = list(islice(u_pairs(a * b), abs(t) + 3))

    def u(k):
        return values[k + 2][0]

    def nu_u(k):
        return values[k + 2][1] * b

    def inv_nu_u(k):
        return values[k + 2][1] * a

    if t >= 2 and t % 2 == 0:
        n = t // 2
        c = ((-u(2 * n - 2), nu_u(2 * n - 3)),
             (-inv_nu_u(2 * n - 3), u(2 * n - 4)))
        g = ((u(2 * n - 4), nu_u(2 * n - 3)),
             (-inv_nu_u(2 * n - 3), -u(2 * n - 2)))
    elif t >= 3:
        n = (t - 1) // 2
        c = ((u(2 * n - 2), -nu_u(2 * n - 1)),
             (inv_nu_u(2 * n - 3), -u(2 * n - 2)))
        g = ((u(2 * n - 2), nu_u(2 * n - 3)),
             (-inv_nu_u(2 * n - 1), -u(2 * n - 2)))
    elif t <= 0 and t % 2 == 0:
        n = -t // 2
        c = ((-u(2 * n - 2), nu_u(2 * n - 1)),
             (-inv_nu_u(2 * n - 1), u(2 * n)))
        g = ((u(2 * n), nu_u(2 * n - 1)),
             (-inv_nu_u(2 * n - 1), -u(2 * n - 2)))
    else:
        n = (-t - 1) // 2
        c = ((u(2 * n), -nu_u(2 * n - 1)),
             (inv_nu_u(2 * n + 1), -u(2 * n)))
        g = ((u(2 * n), nu_u(2 * n + 1)),
             (-inv_nu_u(2 * n - 1), -u(2 * n)))
    return c, g


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
