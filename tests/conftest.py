"""Shared fixture matrices used across the test modules."""

import pytest

from gfans import ExchangeMatrix

# Global-pattern exemplars.  The nicknames follow the figures these
# matrices are drawn from in the literature on rank-3 G-fans.
MARKOV = ((0, -2, 2), (2, 0, -2), (-2, 2, 0))
PINWHEEL = ((0, -2, 4), (3, 0, -6), (-2, 2, 0))
WING = ((0, -2, -4), (3, 0, -6), (2, 2, 0))
TUNNEL = ((0, -6, 4886), (9, 0, -830), (-7329, 830, 0))
WIDE_TUNNEL = ((0, -15, 2013), (2, 0, -139), (-1342, 695, 0))
TUNNEL_CLOSEUP = ((0, -16, 237602), (24, 0, -14889), (-356403, 14889, 0))
# Case C-5: its vertices have types 4-2, 4-1 and 4-3, so the band search runs.
C5 = ((0, -2, 7), (3, 0, -3), (-7, 2, 0))

# Finite-type controls: complete fans of 14 and 12 cones; B2 x A1 has D != I.
A3 = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
B2_A1 = ((0, 1, 0), (-2, 0, 0), (0, 0, 0))

# Rank 4: the finite type A4, and R4, whose fan keeps growing with depth;
# walks on both meet both signs of eps and many zero entries of B.
A4 = ((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0))
R4 = ((0, 2, -1, 0), (-2, 0, 2, -1), (1, -2, 0, 2), (0, 1, -2, 0))


def frame(c0, d0, a=3, b=2):
    """Rank-3 matrix whose vertex v3 reduces to the pair (a, b) with the
    given (c0, d0); the workhorse for vertex-type tests."""
    return ExchangeMatrix((
        (0, -b, -b * c0),
        (a, 0, -a * d0),
        (c0, d0, 0),
    ))


def random_cyclic_totally_infinite(rng, entry_bound=60):
    """Random cyclic totally-infinite rank-3 matrix with entries bounded
    in absolute value.  Built as A * D with A skew-symmetric and a cyclic
    sign pattern, then rejection-sampled for the remaining conditions."""
    while True:
        d = [rng.choice([1, 2, 3]) for _ in range(3)]
        a21 = rng.randint(1, 12)
        a32 = rng.randint(1, 12)
        a13 = rng.randint(1, 12)
        a = ((0, -a21, a13), (a21, 0, -a32), (-a13, a32, 0))
        b = tuple(
            tuple(a[i][j] * d[j] for j in range(3)) for i in range(3)
        )
        if any(abs(x) > entry_bound for row in b for x in row):
            continue
        if any(
            abs(b[i][j] * b[j][i]) < 4
            for i in range(3) for j in range(i + 1, 3)
        ):
            continue
        return ExchangeMatrix(b)


@pytest.fixture
def markov():
    return ExchangeMatrix(MARKOV)


@pytest.fixture
def wing():
    return ExchangeMatrix(WING)


@pytest.fixture
def tunnel():
    return ExchangeMatrix(TUNNEL)


def swap_indices_12(B):
    """B with the roles of indices 1 and 2 exchanged (conjugation by the
    swap): an oracle for `fan_type`'s relabelling, which permutes no
    matrix."""
    perm = [1, 0, *range(2, B.n)]
    return ExchangeMatrix(tuple(tuple(B.entries[p][q] for q in perm)
                                for p in perm))
