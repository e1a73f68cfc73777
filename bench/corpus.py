"""Seeded matrix corpus for the classify-sweep workload.

Three parts:

1. the named fixtures, with fan types the paper states or that exercise
   the tunnel-type entry sizes;
2. random cyclic totally-infinite matrices with entries of at most 60,
   mostly of type (4-1)^3, so classification is dominated by reduction,
   Markov constants and limit rays rather than band search;
3. frame(c0, d0, a, b) matrices whose vertex v3 is planted in a Type 4-2
   or 4-3 band.  Band indices are drawn one from each stratum of
   [0, 300), so every seed covers the range evenly, and three of the six
   (a, b) pairs have ab = 4, where bands close in linearly and the
   entries stay small.

Band search costs O(N^2) in the band index N, so the planted indices set
the workload's cost; stratification keeps that cost about the same from
seed to seed.

On ab = 4 pairs find_band_index searches bands below ten times the bit
length of the entries, so it fails (InternalBandSearchFailure) on every
band from 110 on and on none below 60; between the two the outcome
depends on where in its band the ratio falls.  The ab = 4 strata cover
[0, 60) and [110, 300), so each seed plants the same number of bands on
either side and the count of failing calls does not depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

BAND_STRATA = tuple((50 * k, 50 * (k + 1)) for k in range(6))
AFFINE_BAND_STRATA = ((0, 30), (30, 60), (110, 158), (158, 206), (206, 253),
                      (253, 300))
FRAME_PAIRS = ((3, 2), (2, 3), (1, 5), (2, 2), (1, 4), (4, 1))
NAMED = {
    "markov": (ref.MARKOV, "fan type (4-1)^3, case C-1, stated by the paper"),
    "wing": (ref.WING, "fan type (3,2,1), case A, stated by the paper"),
    "pinwheel": (ref.PINWHEEL, "acyclic fixture with D != I"),
    "c5": (ref.C5_EXAMPLE, "fan type (4-2,4-1,4-3), case C-5: both bands"),
    "tunnel": (ref.TUNNEL, "13-bit entries, Markov constant 28"),
    "wide-tunnel": (ref.WIDE_TUNNEL, "tunnel type with D != I"),
    "tunnel-closeup": (ref.TUNNEL_CLOSEUP, "19-bit entries"),
}


def frame(c0, d0, a, b):
    """Rank-3 matrix whose vertex v3 reduces to the pair (a, b) with the
    given (c0, d0)."""
    return ((0, -b, -b * c0), (a, 0, -a * d0), (c0, d0, 0))


def random_cyclic(rng: random.Random, entry_bound: int = 60):
    """A * D with A skew-symmetric of cyclic sign pattern and D a random
    positive diagonal, rejection-sampled to be totally infinite."""
    while True:
        d = [rng.choice([1, 2, 3]) for _ in range(3)]
        a21, a32, a13 = (rng.randint(1, 12) for _ in range(3))
        a = ((0, -a21, a13), (a21, 0, -a32), (-a13, a32, 0))
        m = tuple(tuple(a[i][j] * d[j] for j in range(3)) for i in range(3))
        if all(abs(x) <= entry_bound for row in m for x in row) \
                and ref.totally_infinite(m):
            return m


def _ratio_in(lo: Fraction, hi: Fraction | None, u: float) -> Fraction:
    """A rational of small denominator at relative position u of [lo, hi);
    an unbounded band is read as [lo, 2 lo)."""
    if hi is None:
        hi = 2 * lo
    target = lo + (hi - lo) * Fraction(u)
    limit = 1
    while True:
        r = target.limit_denominator(limit)
        if lo <= r < hi:
            return r
        limit *= 2


def planted_frame(a, b, tag, n, u, on_boundary):
    """frame(c0, d0, a, b) whose v3 has type tag and band index n."""
    lo, hi = ref.Chebyshev(a, b).band(tag, n)
    if on_boundary and lo > 0:
        r = lo
    else:  # for T43 band 0, lo is 0 and d0/(-c0) must be positive
        r = _ratio_in(lo or hi / 2, hi, u)
    scale = 1
    while b * (r.denominator * scale) ** 2 < 4 or \
            a * (r.numerator * scale) ** 2 < 4:
        scale += 1  # keep every pair totally infinite
    c0, d0 = -r.denominator * scale, r.numerator * scale
    return frame(c0, d0, a, b), {"c0_d0": [c0, d0], "pair_ab": [a, b],
                                 "tag": tag, "band": n,
                                 "boundary": r == lo}


def build(seed: int, n_random: int, smoke: bool = False):
    """[(name, matrix, planted or None, why)] for the three parts.  The
    smoke corpus keeps the first and the last band stratum only."""
    rng = random.Random(seed)
    corpus = [(name, m, None, why) for name, (m, why) in NAMED.items()]
    corpus += [(f"random-{i}", random_cyclic(rng), None,
                "random cyclic totally-infinite, entries of at most 60")
               for i in range(n_random)]
    for a, b in FRAME_PAIRS:
        strata = AFFINE_BAND_STRATA if a * b == 4 else BAND_STRATA
        if smoke:
            strata = strata[:1] + strata[-1:]
        for tag in ("T42", "T43"):
            for k, (lo, hi) in enumerate(strata):
                n = lo + int((hi - lo) * rng.random())
                m, planted = planted_frame(a, b, tag, n, rng.uniform(0.1, 0.9),
                                           on_boundary=(k == 1))
                corpus.append((f"frame-{a}x{b}-{tag}-{n}", m, planted,
                               f"{tag} band {n} planted at v3, ab = {a * b}"))
    return corpus
