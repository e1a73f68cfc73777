import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gfans import (
    ExchangeMatrix,
    InternalBandSearchFailure,
    PairNotInfinite,
    fan_type,
    find_band_index,
    g_sequence,
    initial_seed,
    is_totally_infinite,
    lifted_sequences,
    limit_rays,
    limit_vectors,
    nu_ratio,
    pair_asymptotics,
    vertex_type,
)
from gfans.chebyshev import pair_ratio, u_pairs
from gfans.rank3 import _tag
from gfans.seeds import apply_word, mutate_seed
from conftest import MARKOV, PINWHEEL, TUNNEL, WING, frame, swap_indices_12


def alternating_word(first, second, length):
    return [first if i % 2 == 0 else second for i in range(length)]


# -- vertex types ------------------------------------------------------------

@pytest.mark.parametrize("c0,d0,tag", [
    (2, 2, "T1"),
    (0, 0, "T1"),
    (2, -2, "T2"),
    (-2, -2, "T3"),
    (0, -2, "T3"),
    (-2, 2, "T41"),
    (-100, 159, "T42"),
    (-50, 21, "T43"),
])
def test_vertex_tags_on_frames(c0, d0, tag):
    rep = vertex_type(frame(c0, d0), 3)
    assert rep.tag == tag
    assert rep.pair_ab == (3, 2)
    assert rep.c0_d0 == (c0, d0)


@pytest.mark.parametrize("c0,d0,tag,n,equality", [
    (-100, 159, "T42", 3, False),
    (-50, 79, "T42", 4, False),
    (-12, 19, "T42", 3, True),
    (-50, 21, "T43", 3, False),
    (-500, 211, "T43", 4, False),
    (-12, 5, "T43", 3, True),
])
def test_band_indices(c0, d0, tag, n, equality):
    rep = vertex_type(frame(c0, d0), 3)
    assert rep.tag == tag
    assert rep.band_index == n
    assert rep.boundary_equality == equality


def test_band_index_guards():
    with pytest.raises(ValueError, match="type 1"):
        find_band_index(1, 1, 3, 2)
    with pytest.raises(ValueError, match="type 4-1"):
        find_band_index(-1, 1, 3, 2)
    with pytest.raises(ValueError, match="ab >= 4"):
        find_band_index(-1, 3, 1, 1)  # a 4-2 row against a finite pair


@pytest.mark.parametrize("c0,d0", [
    (-2, 2),
    pytest.param(-(2 ** 150), 2 ** 150, id="150-bit"),
])
def test_band_index_names_the_type_it_refuses(c0, d0):
    # the search derives its type from the row; a 4-1 row has no band
    with pytest.raises(ValueError, match="undefined for type 4-1"):
        find_band_index(c0, d0, 3, 2)


def band_oracle(c0, d0, a, b, tag):
    """The band search as first written: O(N^2), one nu_ratio per bound.
    None when no band lies below the search bound."""
    r = Fraction(d0, -c0)
    bound = 10 * max(d0.bit_length(), (-c0).bit_length(), 4)
    for n in range(bound):
        if tag == "T42":
            lo = nu_ratio(n + 1, n, a, b)
            if lo <= r:
                return n, lo == r
        elif r < nu_ratio(n, n + 1, a, b):
            return n, nu_ratio(n - 1, n, a, b) == r
    return None


@st.composite
def band_points(draw):
    """(c0, d0, a, b) with c0 < 0 < d0, ab >= 4, often on a band bound."""
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 6))
    assume(a * b >= 4)
    if draw(st.booleans()):
        n = draw(st.integers(0, 8))
        r = nu_ratio(n + 1, n, a, b) if draw(st.booleans()) \
            else nu_ratio(n - 1, n, a, b)
        assume(r > 0)
        k = draw(st.integers(1, 3))
        return -r.denominator * k, r.numerator * k, a, b
    return -draw(st.integers(1, 400)), draw(st.integers(1, 400)), a, b


@settings(max_examples=300, deadline=None)
@given(band_points())
def test_band_index_matches_the_quadratic_search(point):
    c0, d0, a, b = point
    tag = _tag(a, b, c0, d0)
    assume(tag in ("T42", "T43"))
    want = band_oracle(c0, d0, a, b, tag)
    if want is None:
        with pytest.raises(InternalBandSearchFailure):
            find_band_index(c0, d0, a, b)
    else:
        assert find_band_index(c0, d0, a, b) == want


def fraction_band_search(c0, d0, a, b, tag):
    """The band search as it ran on Fractions: (N, boundary_equality), or
    the message of its failure past the search bound."""
    r = Fraction(d0, -c0)
    bound = 10 * max(d0.bit_length(), (-c0).bit_length(), 4)
    u = u_pairs(a * b)
    next(u)
    prev, cur = next(u), next(u)
    for n in range(bound):
        nxt = next(u)
        if tag == "T42":
            lo = pair_ratio(nxt, cur, a, b)
            if lo <= r:
                return n, lo == r
        elif r < pair_ratio(cur, nxt, a, b):
            return n, pair_ratio(prev, cur, a, b) == r
        prev, cur = cur, nxt
    return f"no band within bound for (c0,d0)=({c0},{d0}), (a,b)=({a},{b})"


@st.composite
def band_search_points(draw):
    """(c0, d0, a, b) with c0 < 0 < d0.  Half have ab = 4, where bands
    close in linearly and a band past the search bound is reachable with
    small entries; most points lie on a band bound or inside a band."""
    if draw(st.booleans()):
        a, b = draw(st.sampled_from([(1, 4), (2, 2), (4, 1)]))
        top = 300
    else:
        a, b = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        assume(a * b > 4)
        top = 12
    kind = draw(st.sampled_from(["bound", "inside", "any"]))
    if kind == "any":
        return -draw(st.integers(1, 500)), draw(st.integers(1, 500)), a, b
    n = draw(st.integers(1, top))
    if draw(st.booleans()):  # T42 bounds nu U_{n+1}/U_n, decreasing in n
        r, nxt = nu_ratio(n + 1, n, a, b), nu_ratio(n + 2, n + 1, a, b)
    else:  # T43 bounds nu U_{n-1}/U_n, increasing in n
        r, nxt = nu_ratio(n - 1, n, a, b), nu_ratio(n, n + 1, a, b)
    if kind == "inside":
        r = (r + nxt) / 2
    k = draw(st.integers(1, 3))
    return -r.denominator * k, r.numerator * k, a, b


@settings(max_examples=400, deadline=None)
@given(band_search_points())
@example((-2, 5, 1, 4))  # 4-2 with N = 3 on its lower bound
@example((-127, 256, 1, 4))  # 4-2 with its band past the bound
def test_band_index_matches_the_fraction_search(point):
    c0, d0, a, b = point
    tag = _tag(a, b, c0, d0)
    assume(tag in ("T42", "T43"))
    want = fraction_band_search(c0, d0, a, b, tag)
    if isinstance(want, str):
        with pytest.raises(InternalBandSearchFailure) as failure:
            find_band_index(c0, d0, a, b)
        assert str(failure.value) == want
    else:
        assert find_band_index(c0, d0, a, b) == want


# a float used to escape as TypeError from Fraction, and bools were taken
@pytest.mark.parametrize("args", [
    (-1.0, 3, 1, 4), (-1, 3.0, 1, 4), (-1, 3, 1.0, 4),
    (-1, 3, 1, 4.0), (-1, 3, 1, Fraction(4)),
    (Fraction(-1), 3, 1, 4), (-1, True, 1, 4),
    (-1, 3, True, 4), (-1, 3, 1, "4")])
def test_band_index_refuses_arguments_that_are_not_ints(args):
    with pytest.raises(ValueError, match="c0, d0, a and b must be ints"):
        find_band_index(*args)


def test_finite_pair_rejected():
    B = ExchangeMatrix(((0, -1, -2), (3, 0, -6), (2, 2, 0)))
    with pytest.raises(PairNotInfinite):
        vertex_type(B, 3)


# -- lifted sequences --------------------------------------------------------

GOLDEN_LIFTED = {
    # (c0, d0): {(direction, m): vector}
    (2, -2): {("fwd", 5): (5, -12, 24), ("bwd", 5): (30, -19, 38)},
    (-2, -2): {("fwd", 5): (5, -12, 62), ("bwd", 5): (30, -19, 54)},
    (-2, 2): {("fwd", 5): (5, -12, 14), ("bwd", 5): (30, -19, 0)},
    (-100, 159): {("fwd", 4): (2, -5, 5), ("fwd", 5): (5, -12, 0)},
    (-50, 79): {("fwd", 5): (5, -12, 2), ("fwd", 6): (8, -19, 0)},
    (-50, 21): {("bwd", 5): (30, -19, 1), ("bwd", 6): (71, -45, 5),
                ("bwd", 7): (112, -71, 9)},
    (-500, 211): {("bwd", 5): (30, -19, 0), ("bwd", 6): (71, -45, 5),
                  ("bwd", 7): (112, -71, 19)},
}


def test_golden_lifted_vectors():
    for (c0, d0), cases in GOLDEN_LIFTED.items():
        fwd, bwd = lifted_sequences(frame(c0, d0), 3, 8)
        for (direction, m), want in cases.items():
            got = fwd[m - 1] if direction == "fwd" else bwd[m - 1]
            assert got == want, (c0, d0, direction, m)


def test_type1_lifts_stay_in_the_plane():
    fwd, bwd = lifted_sequences(frame(2, 2), 3, 8)
    for m in range(1, 9):
        assert fwd[m - 1][2] == 0
        assert bwd[m - 1][2] == 0
        assert fwd[m - 1][:2] == g_sequence("forward", m, 3, 2)
        assert bwd[m - 1][:2] == g_sequence("backward", m, 3, 2)


@pytest.mark.parametrize("c0,d0", [
    (2, 2), (2, -2), (-2, -2), (-2, 2),
    (-100, 159), (-50, 79), (-50, 21), (-500, 211),
])
def test_lifted_sequences_equal_seed_mutation(c0, d0):
    """The closed-form lifts agree with actual seed mutation.

    The m-th forward vector is the g-vector of the column mutated last
    along the alternating word 1,2,1,...; backward uses 2,1,2,...
    """
    B = frame(c0, d0)
    m_max = 10
    fwd, bwd = lifted_sequences(B, 3, m_max)
    for m in range(1, m_max + 1):
        s = apply_word(initial_seed(B), alternating_word(1, 2, m))
        col = 1 if m % 2 == 1 else 2
        assert s.g_vector(col) == fwd[m - 1], ("fwd", m)
        s = apply_word(initial_seed(B), alternating_word(2, 1, m))
        col = 2 if m % 2 == 1 else 1
        assert s.g_vector(col) == bwd[m - 1], ("bwd", m)


C5 = ((0, -2, 7), (3, 0, -3), (-7, 2, 0))


def negated(rows):
    return tuple(tuple(-x for x in row) for row in rows)


@pytest.mark.parametrize("rows", [
    MARKOV, negated(MARKOV), WING, negated(WING), PINWHEEL,
    negated(PINWHEEL), TUNNEL, negated(TUNNEL), C5, negated(C5),
], ids=["markov", "-markov", "wing", "-wing", "pinwheel", "-pinwheel",
        "tunnel", "-tunnel", "c5", "-c5"])
def test_lifted_sequences_equal_seed_mutation_at_every_vertex(rows):
    """At every vertex, swapped or not, the lifts are the g-vectors that
    seed mutation reaches along the oriented alternating words: forward
    j,k,j,... and backward k,j,k,..., with B[j,k] < 0 < B[k,j]; -C5
    swaps its 4-2 and 4-3 vertices."""
    B = ExchangeMatrix(rows)
    m_max = 12
    for i, (j, k) in ((3, (1, 2)), (1, (2, 3)), (2, (3, 1))):
        swap = B[j, k] > 0
        assert vertex_type(B, i).swap_applied == swap
        if swap:
            j, k = k, j
        for word, want in zip((alternating_word(j, k, m_max),
                               alternating_word(k, j, m_max)),
                              lifted_sequences(B, i, m_max)):
            s = initial_seed(B)
            for m, letter in enumerate(word):
                s = mutate_seed(s, letter)
                assert s.g_vector(letter) == want[m], (i, word[0], m + 1)


@pytest.mark.parametrize("m_max, message", [
    (2.5, "m_max must be an int, not 2.5"),
    (True, "m_max must be an int, not True"),
    ("3", "m_max must be an int, not '3'"),
    (None, "m_max must be an int, not None"),
    (-1, "m_max must be >= 0"),
    (-3, "m_max must be >= 0"),
])
def test_lifted_sequences_check_m_max(m_max, message):
    # 2.5 died with range's TypeError, True gave one vector per walk and
    # -3 two empty lists; the rank and then the vertex index still come
    # first
    B = ExchangeMatrix(MARKOV)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lifted_sequences(B, 1, m_max)
    with pytest.raises(ValueError, match="^vertex index 4 is not 1, 2 or 3$"):
        lifted_sequences(B, 4, m_max)
    with pytest.raises(ValueError,
                       match="^vertex classification requires rank 3$"):
        lifted_sequences(ExchangeMatrix(((0, 1), (-1, 0))), 4, m_max)
    assert lifted_sequences(B, 1, 0) == ([], [])


# -- limit rays --------------------------------------------------------------

def test_limit_rays_attract_lifted_sequences():
    for c0, d0 in [(2, -2), (-2, -2), (-50, 21)]:
        B = frame(c0, d0)
        v, vp = limit_rays(B, 3)
        fwd, bwd = lifted_sequences(B, 3, 40)
        g = fwd[-1]
        for want, got in zip(v, g):
            assert abs(float(want) - got / g[0]) < 1e-6
        g = bwd[-1]
        for want, got in zip(vp, g):
            assert abs(float(got / g[0]) - float(want)) < 1e-6


def test_limit_ray_third_components_vanish_where_expected():
    v, vp = limit_rays(frame(-100, 159), 3)  # 4-2: both limits planar
    assert v[2].sign() == 0 and vp[2].sign() == 0
    v, vp = limit_rays(frame(-2, 2), 3)  # 4-1: backward limit planar
    assert v[2].sign() != 0 and vp[2].sign() == 0


def test_pair_asymptotics_matches_limit_rays_on_frames():
    B = frame(-2, -2)
    v, vp = limit_rays(B, 3)
    w, wp = pair_asymptotics(B, 1, 2)
    assert v == w and vp == wp
    with pytest.raises(ValueError):
        pair_asymptotics(B, 1, 1)
    # vertex types and limit rays are defined at rank 3 only
    for other in (ExchangeMatrix(((0, -2), (3, 0))),
                  ExchangeMatrix(((0, -1, 0, 0), (1, 0, -1, 0),
                                  (0, 1, 0, -1), (0, 0, 1, 0)))):
        for classify in (vertex_type, limit_rays):
            with pytest.raises(ValueError, match="requires rank 3"):
                classify(other, 1)
    finite_pair = ExchangeMatrix(((0, -1, -2), (3, 0, -6), (2, 2, 0)))
    with pytest.raises(PairNotInfinite):
        pair_asymptotics(finite_pair, 1, 2)


def test_limit_rays_need_no_band_index():
    # an ab = 4 vertex whose band lies beyond the search bound: the limit
    # rays do not depend on the band, so they are still found
    B = frame(-127, 128, 2, 2)
    v, vp = limit_rays(B, 3)
    assert (v, vp) == pair_asymptotics(B, 1, 2)
    assert v == vp


def test_pair_asymptotics_rank_two_slice():
    (one, y), (_, yp) = limit_vectors(3, 2)
    v, vp = pair_asymptotics(ExchangeMatrix(((0, -2), (3, 0))), 1, 2)
    assert v == (one, y)
    assert vp == (one, yp)


@pytest.mark.parametrize("f,args,index", [
    pytest.param(vertex_type, (4,), "vertex index 4", id="vertex_type-4"),
    pytest.param(vertex_type, (0,), "vertex index 0", id="vertex_type-0"),
    pytest.param(vertex_type, (True,), "vertex index True",
                 id="vertex_type-True"),
    pytest.param(vertex_type, (1.0,), "vertex index 1.0",
                 id="vertex_type-1.0"),
    pytest.param(limit_rays, (0,), "vertex index 0", id="limit_rays-0"),
    pytest.param(limit_rays, (False,), "vertex index False",
                 id="limit_rays-False"),
    pytest.param(lifted_sequences, (5, 3), "vertex index 5",
                 id="lifted_sequences-5"),
    pytest.param(pair_asymptotics, (1.0, 2), "pair index 1.0",
                 id="pair_asymptotics-1.0"),
    pytest.param(pair_asymptotics, (True, 2), "pair index True",
                 id="pair_asymptotics-True"),
    pytest.param(pair_asymptotics, (3, False), "pair index False",
                 id="pair_asymptotics-False"),
])
def test_bad_vertex_and_pair_indices_are_input_errors(f, args, index):
    with pytest.raises(ValueError, match=f"^{index} is not"):
        f(ExchangeMatrix(MARKOV), *args)


@pytest.mark.parametrize("f,args", [
    (vertex_type, (4,)), (limit_rays, (0,)), (lifted_sequences, (5, 3)),
])
def test_rank_is_checked_before_the_vertex_index(f, args):
    with pytest.raises(ValueError, match="requires rank 3"):
        f(ExchangeMatrix(((0, -2), (3, 0))), *args)


# -- whole-fan classification ------------------------------------------------

def test_fan_types_of_named_matrices():
    rep = fan_type(ExchangeMatrix(WING))
    assert rep.triplet == ("3", "2", "1")
    assert rep.case_label == "A"
    assert rep.markov_constant is None

    rep = fan_type(ExchangeMatrix(MARKOV))
    assert rep.triplet == ("4-1", "4-1", "4-1")
    assert rep.case_label == "C-1"
    assert rep.markov_constant == 4

    rep = fan_type(ExchangeMatrix(PINWHEEL))
    assert rep.case_label == "C-1"
    assert rep.markov_constant == 2

    rep = fan_type(ExchangeMatrix(TUNNEL))
    assert rep.triplet == ("4-1", "4-1", "4-1")
    assert rep.case_label == "C-2"
    assert rep.markov_constant == 28


def test_fan_type_mixed_cyclic_case():
    B = ExchangeMatrix(((0, -2, 7), (3, 0, -3), (-7, 2, 0)))
    rep = fan_type(B)
    assert rep.triplet == ("4-2", "4-1", "4-3")
    assert rep.case_label == "C-5"


def test_fan_type_normalizes_orientation():
    B = ExchangeMatrix(WING)
    rep = fan_type(B)
    swapped = fan_type(swap_indices_12(B))
    # the triplet is reported in the normalized labeling either way
    assert swapped.triplet == rep.triplet
    assert swapped.case_label == rep.case_label
    assert swapped.swap_applied != rep.swap_applied


@st.composite
def exchanged_matrices(draw):
    """Totally-infinite rank-3 matrices with p_3 < 0, which fan_type
    normalizes: A * D with A skew-symmetric, or frames with ab = 4, whose
    band search can fail; one with p_3 > 0 is exchanged or negated."""
    if draw(st.booleans()):
        a, b = draw(st.sampled_from([(1, 4), (2, 2), (4, 1)]))
        c0, d0 = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
        rows = frame(c0, d0, a, b).entries
    else:
        d = [draw(st.integers(1, 3)) for _ in range(3)]
        x, y, z = (draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
                   for _ in range(3))
        a = ((0, x, y), (-x, 0, z), (-y, -z, 0))
        rows = tuple(tuple(a[i][j] * d[j] for j in range(3))
                     for i in range(3))
    B = ExchangeMatrix(rows)
    assume(is_totally_infinite(B))
    if B[2, 1] > 0:
        if draw(st.booleans()):
            return swap_indices_12(B)
        return ExchangeMatrix(tuple(tuple(-x for x in r) for r in rows))
    return B


@settings(max_examples=300, deadline=None)
@given(exchanged_matrices())
@example(swap_indices_12(frame(-127, 256, a=1, b=4)))  # no band within bound
@example(ExchangeMatrix(((0, 2, -7), (-3, 0, 3), (7, -2, 0))))  # -C5
def test_fan_type_relabels_as_the_exchanged_matrix_classifies(B):
    # fan_type permutes no matrix; the oracle does: each report is the
    # exchanged matrix's own, and so are the case and the Markov constant
    assert B[2, 1] < 0
    S = swap_indices_12(B)
    try:
        want = tuple(vertex_type(S, i) for i in (1, 2, 3))
    except InternalBandSearchFailure as exc:
        with pytest.raises(InternalBandSearchFailure) as failure:
            fan_type(B)
        assert str(failure.value) == str(exc)
        return
    got, oracle = fan_type(B), fan_type(S)
    assert (got.swap_applied, oracle.swap_applied) == (True, False)
    assert got.reports == want
    assert (got.triplet, got.case_label, got.markov_constant) == \
        (oracle.triplet, oracle.case_label, oracle.markov_constant)


def test_fan_type_rejects_finite_pairs():
    from gfans import NotTotallyInfinite
    with pytest.raises(NotTotallyInfinite):
        fan_type(ExchangeMatrix(((0, -1, -2), (3, 0, -6), (2, 2, 0))))


def test_random_cyclic_matrices_have_a_type41_vertex():
    # small spot check; the full 500-sample sweep lives in the acceptance run
    from conftest import random_cyclic_totally_infinite
    rng = random.Random(17)
    for _ in range(40):
        B = random_cyclic_totally_infinite(rng)
        rep = fan_type(B)
        assert "T41" in [r.tag for r in rep.reports]
