"""Classification of elementary vertices of rank-3 G-fans.

Each vertex v_i of a totally-infinite rank-3 fan is assigned one of six
asymptotic types (1, 2, 3, 4-1, 4-2, 4-3) by reducing the matrix to the
frame [[0,-b,-b c0],[a,0,-a d0],[c0,d0,0]] for the pair complementary to i
and inspecting (c0, d0).  Types 4-2 and 4-3 carry a band index N located by
exact rational Chebyshev ratios.  The module also produces the lifted
g-vector sequences, limit rays, and the triplet/case label of a whole fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import nu_ratio
from .exchange import (
    ExchangeMatrix,
    NotTotallyInfinite,
    cyclic_presentation,
    is_totally_infinite,
    markov_constant,
    swap_indices_12,
)
from .quadratic import QuadraticNumber
from .rank2 import g_sequence, limit_vectors


class PairNotInfinite(ValueError):
    """The alternating pair has |b_ij b_ji| < 4, so no asymptotic type."""


class InternalBandSearchFailure(RuntimeError):
    """Band search exceeded its safety bound; indicates a bug."""


class UnexpectedCyclicTriplet(RuntimeError):
    """A cyclic fan's vertex types match no case C-1 .. C-5; a bug."""


_NATURAL_PAIR = {3: (1, 2), 1: (2, 3), 2: (3, 1)}


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


def _reduce(B: ExchangeMatrix, i: int):
    """Orient the pair complementary to i into the reduced frame.

    Returns (a, b, c0, d0, j, k, swapped) with B[j,k] = -b < 0 < a = B[k,j],
    c0 = B[i,j], d0 = B[i,k].
    """
    if B.n != 3:
        raise ValueError("vertex classification requires rank 3")
    j, k = _NATURAL_PAIR[i]
    if B[j, k] * B[k, j] >= 0 or abs(B[j, k] * B[k, j]) < 4:
        raise PairNotInfinite(
            f"pair ({j},{k}) has product {B[j, k] * B[k, j]}"
        )
    swapped = False
    if B[j, k] > 0:
        j, k = k, j
        swapped = True
    a = B[k, j]
    b = -B[j, k]
    return a, b, B[i, j], B[i, k], j, k, swapped


def find_band_index(c0: int, d0: int, a: int, b: int,
                    tag: str) -> tuple[int, bool]:
    """(N, boundary_equality) for a Type 4-2 or 4-3 vertex.

    The ratio -d0/c0 falls into exactly one Chebyshev band:
    nu U_{N+1}/U_N <= -d0/c0 < nu U_N/U_{N-1} for 4-2 (upper bound ignored
    at N = 0), or nu U_{N-1}/U_N <= -d0/c0 < nu U_N/U_{N+1} for 4-3.
    """
    if not (c0 < 0 < d0):
        raise ValueError("band index requires c0 < 0 < d0")
    r = Fraction(d0, -c0)
    bound = 10 * max(d0.bit_length(), (-c0).bit_length(), 4)
    if tag == "T42":
        for n in range(bound):
            lo = nu_ratio(n + 1, n, a, b)
            if lo <= r:
                return n, lo == r
    elif tag == "T43":
        for n in range(bound):
            if r < nu_ratio(n, n + 1, a, b):
                return n, nu_ratio(n - 1, n, a, b) == r
    else:
        raise ValueError(f"band index undefined for tag {tag}")
    raise InternalBandSearchFailure(
        f"no band within bound for (c0,d0)=({c0},{d0}), (a,b)=({a},{b})"
    )


def vertex_type(B: ExchangeMatrix, i: int) -> VertexTypeReport:
    """Asymptotic type of the elementary vertex v_i."""
    a, b, c0, d0, _, _, swapped = _reduce(B, i)
    band = None
    equality = None
    if c0 >= 0 and d0 >= 0:
        tag = "T1"
    elif c0 > 0 and d0 < 0:
        tag = "T2"
    elif c0 <= 0 and d0 <= 0:
        tag = "T3"
    else:  # c0 < 0 < d0
        disc = a * b * c0 * d0 + a * d0 * d0 + b * c0 * c0
        if disc <= 0:
            tag = "T41"
        elif 2 * d0 + b * c0 > 0:
            tag = "T42"
        else:
            tag = "T43"
        if tag in ("T42", "T43"):
            band, equality = find_band_index(c0, d0, a, b, tag)
    return VertexTypeReport(
        vertex=i, tag=tag, c0_d0=(c0, d0), pair_ab=(a, b),
        swap_applied=swapped, band_index=band, boundary_equality=equality,
    )


def _third_components(tag: str, direction: str, m: int, alpha: int, beta: int,
                      c0: int, d0: int, b: int, band: int | None) -> int:
    full = c0 * alpha + (d0 + b * c0) * beta
    if tag == "T1":
        return 0
    if tag == "T2":
        return d0 * beta
    if tag == "T3":
        return full
    if tag == "T41":
        return full if direction == "forward" else 0
    if tag == "T42":
        if direction == "backward":
            return 0
        return full if m <= band + 1 else 0
    if tag == "T43":
        if direction == "forward":
            return full
        return 0 if m <= band + 1 else full
    raise ValueError(f"unknown tag {tag}")


def lifted_sequences(B: ExchangeMatrix, i: int, m_max: int):
    """Forward and backward lifted g-vector sequences at vertex v_i.

    Returns two lists of integer 3-vectors in the original coordinates;
    entry m-1 is the m-th g-vector of the alternating mutations.
    """
    rep = vertex_type(B, i)
    a, b = rep.pair_ab
    c0, d0 = rep.c0_d0
    _, _, _, _, j, k, _ = _reduce(B, i)
    out = []
    for direction in ("forward", "backward"):
        seq = []
        for m in range(1, m_max + 1):
            alpha, beta = g_sequence(direction, m, a, b)
            third = _third_components(
                rep.tag, direction, m, alpha, beta, c0, d0, b, rep.band_index
            )
            vec = [0, 0, 0]
            vec[j - 1] = alpha
            vec[k - 1] = beta
            vec[i - 1] = third
            seq.append(tuple(vec))
        out.append(seq)
    return out[0], out[1]


def _limit_third(tag: str, c0: int, d0: int, b: int, v2, vp2):
    full = c0 + (d0 + b * c0) * v2
    full_p = c0 + (d0 + b * c0) * vp2
    zero = QuadraticNumber.rational(0)
    if tag in ("T1", "T42"):
        return zero, zero
    if tag == "T2":
        return d0 * v2, d0 * vp2
    if tag in ("T3", "T43"):
        return full, full_p
    if tag == "T41":
        return full, zero
    raise ValueError(f"unknown tag {tag}")


def limit_rays(B: ExchangeMatrix, i: int):
    """(v, v'): limit directions of the lifted sequences at vertex v_i."""
    rep = vertex_type(B, i)
    a, b = rep.pair_ab
    c0, d0 = rep.c0_d0
    _, _, _, _, j, k, _ = _reduce(B, i)
    (one, v2), (_, vp2) = limit_vectors(a, b)
    t3, t3p = _limit_third(rep.tag, c0, d0, b, v2, vp2)
    v = [None, None, None]
    vp = [None, None, None]
    v[j - 1], v[k - 1], v[i - 1] = one, v2, t3
    vp[j - 1], vp[k - 1], vp[i - 1] = one, vp2, t3p
    return tuple(v), tuple(vp)


def pair_asymptotics(B: ExchangeMatrix, i: int, j: int):
    """Limit directions for alternating (i, j) mutations at any rank n >= 2.

    Components i and j carry the rank-2 limits; every other component is
    computed from its own row of B by the per-type third-component formulas.
    """
    entries = B.entries
    n = B.n
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need two distinct indices in range")
    if entries[i - 1][j - 1] * entries[j - 1][i - 1] >= 0 or \
            abs(entries[i - 1][j - 1] * entries[j - 1][i - 1]) < 4:
        raise PairNotInfinite(f"pair ({i},{j})")
    jj, kk = i, j
    if entries[jj - 1][kk - 1] > 0:
        jj, kk = kk, jj
    a = entries[kk - 1][jj - 1]
    b = -entries[jj - 1][kk - 1]
    (one, v2), (_, vp2) = limit_vectors(a, b)
    zero = QuadraticNumber.rational(0)
    v = [zero] * n
    vp = [zero] * n
    v[jj - 1], v[kk - 1] = one, v2
    vp[jj - 1], vp[kk - 1] = one, vp2
    for ell in range(1, n + 1):
        if ell in (jj, kk):
            continue
        c0 = entries[ell - 1][jj - 1]
        d0 = entries[ell - 1][kk - 1]
        if c0 >= 0 and d0 >= 0:
            tag = "T1"
        elif c0 > 0 and d0 < 0:
            tag = "T2"
        elif c0 <= 0 and d0 <= 0:
            tag = "T3"
        else:
            disc = a * b * c0 * d0 + a * d0 * d0 + b * c0 * c0
            if disc <= 0:
                tag = "T41"
            elif 2 * d0 + b * c0 > 0:
                tag = "T42"
            else:
                tag = "T43"
        v[ell - 1], vp[ell - 1] = _limit_third(tag, c0, d0, b, v2, vp2)
    return tuple(v), tuple(vp)


_TAG_LABEL = {"T1": "1", "T2": "2", "T3": "3",
              "T41": "4-1", "T42": "4-2", "T43": "4-3"}


def fan_type(B: ExchangeMatrix) -> FanTypeReport:
    """Triplet of vertex types and the global-pattern case label.

    Normalized so that p_3 > 0, swapping indices 1 and 2 if necessary.
    Acyclic matrices get case A; cyclic ones get C-1 .. C-5.
    """
    if B.n != 3:
        raise ValueError("fan type requires rank 3")
    if not is_totally_infinite(B):
        raise NotTotallyInfinite("fan type requires a totally-infinite matrix")
    swapped = False
    pres = cyclic_presentation(B)
    if pres.p[2] < 0:
        B = swap_indices_12(B)
        pres = cyclic_presentation(B)
        swapped = True
    reports = tuple(vertex_type(B, i) for i in (1, 2, 3))
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
