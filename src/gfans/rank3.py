"""Classification of elementary vertices of rank-3 G-fans.

Each vertex v_i of a totally-infinite rank-3 fan is assigned one of six
asymptotic types (1, 2, 3, 4-1, 4-2, 4-3) by orienting the pair
complementary to i into the frame [[0,-b,-b c0],[a,0,-a d0],[c0,d0,0]] and
inspecting (c0, d0).  Types 4-2 and 4-3 carry a band index N located by
the slopes of the pair's g-vectors, compared in integers.  One
third-component rule gives both the lifted g-vector sequences and, as its
m -> infinity case, the limit rays of any alternating pair; the module
also labels the triplet/case of a whole fan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice, pairwise

from .exchange import (
    ExchangeMatrix,
    NotTotallyInfinite,
    cyclic_presentation,
    is_totally_infinite,
    markov_constant,
)
from .quadratic import QuadraticRay
from .rank2 import g_vectors, limit_parts


class PairNotInfinite(ValueError):
    """The alternating pair has |b_ij b_ji| < 4, so no asymptotic type."""


class InternalBandSearchFailure(RuntimeError):
    """Band search exceeded its safety bound; indicates a bug."""


class UnexpectedCyclicTriplet(RuntimeError):
    """A cyclic fan's vertex types match no case C-1 .. C-5; a bug."""


_NATURAL_PAIR = {3: (1, 2), 1: (2, 3), 2: (3, 1)}
_TAG_LABEL = {"T1": "1", "T2": "2", "T3": "3",
              "T41": "4-1", "T42": "4-2", "T43": "4-3"}


@dataclass(frozen=True)
class VertexTypeReport:
    vertex: int
    tag: str  # one of T1, T2, T3, T41, T42, T43
    c0_d0: tuple[int, int]
    pair_ab: tuple[int, int]
    swap_applied: bool
    band_index: int | None = None
    boundary_equality: bool | None = None


@dataclass(frozen=True)
class FanTypeReport:
    triplet: tuple[str, str, str]
    case_label: str  # A or C-1 .. C-5
    markov_constant: int | None
    swap_applied: bool
    reports: tuple[VertexTypeReport, VertexTypeReport, VertexTypeReport]


def natural_pair(i) -> tuple[int, int]:
    """The pair complementary to vertex i, in its natural order."""
    if type(i) is not int or not 1 <= i <= 3:
        raise ValueError(f"vertex index {i!r} is not 1, 2 or 3")
    return _NATURAL_PAIR[i]


def _orient(B: ExchangeMatrix, j: int, k: int):
    """Orient the alternating pair (j, k) into the reduced frame.

    Returns (a, b, j, k), swapped if needed, with B[j,k] = -b < 0 < a = B[k,j].
    """
    product = B[j, k] * B[k, j]
    if product > -4:  # also catches product >= 0
        raise PairNotInfinite(f"pair ({j},{k}) has product {product}")
    if B[j, k] > 0:
        j, k = k, j
    return B[k, j], -B[j, k], j, k


def _tag(a: int, b: int, c0: int, d0: int) -> str:
    """Asymptotic type of a row (c0, d0) against the oriented pair (a, b)."""
    if c0 >= 0 and d0 >= 0:
        return "T1"
    if c0 > 0 and d0 < 0:
        return "T2"
    if c0 <= 0 and d0 <= 0:
        return "T3"
    # c0 < 0 < d0
    if a * b * c0 * d0 + a * d0 * d0 + b * c0 * c0 <= 0:
        return "T41"
    return "T42" if 2 * d0 + b * c0 > 0 else "T43"


def _third(tag: str, forward: bool, past_band: bool, alpha, beta,
           c0: int, d0: int, b: int):
    """Third component of a lifted g-vector (alpha, beta) of the pair.

    past_band says whether the step lies beyond the band index N + 1; a
    limit ray is the case past_band = True with (alpha, beta) its rank-2
    direction.  The rule is linear in (alpha, beta).
    """
    if tag == "T2":
        return d0 * beta
    if tag == "T41":
        full = forward
    elif tag == "T42":
        full = forward and not past_band
    elif tag == "T43":
        full = forward or past_band
    else:
        full = tag == "T3"
    return c0 * alpha + (d0 + b * c0) * beta if full else 0


def find_band_index(c0: int, d0: int, a: int, b: int) -> tuple[int, bool]:
    """(N, boundary_equality) for a Type 4-2 or 4-3 vertex.

    The ratio r = -d0/c0 falls into exactly one Chebyshev band:
    nu U_{N+1}/U_N <= r < nu U_N/U_{N-1} for 4-2 (upper bound ignored
    at N = 0), or nu U_{N-1}/U_N <= r < nu U_N/U_{N+1} for 4-3.  Each
    bound is the slope x/-y, y < 0, of a g-vector of the pair:
    nu U_{n+1}/U_n of the backward g'_{n+1} and nu U_{n-1}/U_n of the
    forward g_{n+2}.  With e = -c0 > 0, r against x/-y compares the
    integers x*e and -y*d0.  c0, d0, a and b must be ints.
    """
    for x in (c0, d0, a, b):
        if type(x) is not int:
            raise ValueError("c0, d0, a and b must be ints")
    tag = _tag(a, b, c0, d0)
    if tag not in ("T42", "T43"):
        raise ValueError(f"band index undefined for type {_TAG_LABEL[tag]}")
    e = -c0
    bound = range(10 * max(d0.bit_length(), e.bit_length(), 4))
    if tag == "T42":  # first n with nu U_{n+1}/U_n <= r
        for n, (x, y) in zip(bound, g_vectors("backward", a, b)):
            if x * e <= -y * d0:
                return n, x * e == -y * d0
    else:  # first n with r < nu U_n/U_{n+1}, read on g_{n+3}
        walk = pairwise(islice(g_vectors("forward", a, b), 1, None))
        for n, ((px, py), (x, y)) in zip(bound, walk):
            if -y * d0 < x * e:
                return n, px * e == -py * d0
    raise InternalBandSearchFailure(
        f"no band within bound for (c0,d0)=({c0},{d0}), (a,b)=({a},{b})"
    )


def vertex_type(B: ExchangeMatrix, i: int) -> VertexTypeReport:
    """Asymptotic type of the elementary vertex v_i."""
    if B.n != 3:
        raise ValueError("vertex classification requires rank 3")
    natural = natural_pair(i)
    a, b, j, k = _orient(B, *natural)
    c0, d0 = B[i, j], B[i, k]
    tag = _tag(a, b, c0, d0)
    band = equality = None
    if tag in ("T42", "T43"):
        band, equality = find_band_index(c0, d0, a, b)
    return VertexTypeReport(
        vertex=i, tag=tag, c0_d0=(c0, d0), pair_ab=(a, b),
        swap_applied=(j, k) != natural, band_index=band,
        boundary_equality=equality,
    )


def lifted_sequences(B: ExchangeMatrix, i: int, m_max: int):
    """Forward and backward lifted g-vector sequences at vertex v_i.

    Returns two lists of integer 3-vectors in the original coordinates;
    entry m-1 is the m-th g-vector of the alternating mutations.
    """
    rep = vertex_type(B, i)
    if type(m_max) is not int:
        raise ValueError(f"m_max must be an int, not {m_max!r}")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    a, b = rep.pair_ab
    c0, d0 = rep.c0_d0
    j, k = _NATURAL_PAIR[i][::-1] if rep.swap_applied else _NATURAL_PAIR[i]
    out = []
    for forward, direction in ((True, "forward"), (False, "backward")):
        seq = []
        walk = g_vectors(direction, a, b)
        for m, (alpha, beta) in zip(range(1, m_max + 1), walk):
            past_band = rep.band_index is not None and m > rep.band_index + 1
            vec = [0, 0, 0]
            vec[j - 1] = alpha
            vec[k - 1] = beta
            vec[i - 1] = _third(rep.tag, forward, past_band, alpha, beta,
                                c0, d0, b)
            seq.append(tuple(vec))
        out.append(seq)
    return out[0], out[1]


def limit_rays(B: ExchangeMatrix, i: int):
    """(v, v'): limit directions of the lifted sequences at vertex v_i."""
    if B.n != 3:
        raise ValueError("vertex classification requires rank 3")
    return pair_asymptotics(B, *natural_pair(i))


def pair_asymptotics(B: ExchangeMatrix, i: int, j: int):
    """(v, v'): the limit rays of `pair_parts` as `QuadraticRay`s."""
    return tuple(QuadraticRay(*parts) for parts in pair_parts(B, i, j))


def pair_parts(B: ExchangeMatrix, i: int, j: int):
    """Integer parts (p, q, delta, den) of the limit rays (p + q*sqrt(delta))
    / den, v first, of alternating (i, j) mutations at any rank n >= 2.

    Components i and j carry the rank-2 limits (`limit_parts`); every
    other component is the m -> infinity case of the third-component rule
    for its own row, which is linear: it runs once on p and once on q.
    """
    n = B.n
    for x in (i, j):
        if type(x) is not int:
            raise ValueError(f"pair index {x!r} is not an int")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need two distinct indices in range")
    a, b, j, k = _orient(B, i, j)
    (alpha, beta), delta, den = limit_parts(a, b)
    rays = []
    for forward, root in ((True, -1), (False, 1)):
        p, q = [0] * n, [0] * n
        p[j - 1], p[k - 1], q[k - 1] = alpha, beta, root
        for ell in set(range(1, n + 1)) - {j, k}:
            c0, d0 = B[ell, j], B[ell, k]
            tag = _tag(a, b, c0, d0)
            p[ell - 1] = _third(tag, forward, True, alpha, beta, c0, d0, b)
            q[ell - 1] = _third(tag, forward, True, 0, root, c0, d0, b)
        rays.append((p, q, delta, den))
    return tuple(rays)


def fan_type(B: ExchangeMatrix) -> FanTypeReport:
    """Triplet of vertex types and the global-pattern case label.

    Normalized so that p_3 > 0, exchanging indices 1 and 2 if necessary.
    Acyclic matrices get case A; cyclic ones get C-1 .. C-5.  When the
    exchange is applied, `triplet` and `reports` use the normalized labels
    (v1 and v2 are the input's v2 and v1).  The exchange reverses each
    vertex's complementary pair, so B's own reports are only relabelled,
    `swap_applied` negated, and the Markov constant is unchanged.
    `limit_rays(B, i)` reads B in its own labels.
    """
    if B.n != 3:
        raise ValueError("fan type requires rank 3")
    if not is_totally_infinite(B):
        raise NotTotallyInfinite("fan type requires a totally-infinite matrix")
    pres = cyclic_presentation(B)
    swapped = pres.p[2] < 0
    # B's labels of the normalized v1, v2 and v3
    order = (2, 1, 3) if swapped else (1, 2, 3)
    reports = tuple(vertex_type(B, i) for i in order)
    if swapped:
        reports = tuple(replace(r, vertex=i, swap_applied=not r.swap_applied)
                        for i, r in enumerate(reports, 1))
    triplet = tuple(_TAG_LABEL[r.tag] for r in reports)
    if not pres.cyclic:
        return FanTypeReport(triplet, "A", None, swapped, reports)
    c = markov_constant(B)
    tags = sorted(r.tag for r in reports)
    if tags == ["T41", "T41", "T41"]:
        label = "C-1" if c <= 4 else "C-2"
    elif tags == ["T41", "T41", "T42"]:
        label = "C-3"
    elif tags == ["T41", "T41", "T43"]:
        label = "C-4"
    elif tags == ["T41", "T42", "T43"]:
        label = "C-5"
    else:
        raise UnexpectedCyclicTriplet(f"unexpected cyclic triplet {triplet}")
    return FanTypeReport(triplet, label, c, swapped, reports)
