"""Acceptance gate: end-to-end checks of the engine's headline behaviors.

Each test prints a single PASS/FAIL line on the live terminal, so a full
run reads as a checklist.  The golden numbers are fixed reference values
for the running examples used throughout the package.
"""

import itertools
import random
import xml.etree.ElementTree as ET

from gfans import (
    ExchangeMatrix,
    QuadraticNumber,
    apply_matrix_word,
    cone_contains,
    explore,
    fan_type,
    find_negative_orthant,
    g_sequence,
    is_cluster_cyclic,
    initial_seed,
    lifted_sequences,
    limit_rays,
    limit_vectors,
    markov_constant,
    rank2_matrices,
    render_svg,
    verify_seed,
)
from gfans.seeds import apply_word, mutate_seed, transpose
from conftest import (
    MARKOV,
    PINWHEEL,
    TUNNEL,
    TUNNEL_CLOSEUP,
    WIDE_TUNNEL,
    WING,
    frame,
    random_cyclic_totally_infinite,
)
from test_exchange import random_skew_symmetrizable
from test_rank2 import chebyshev_closed_form, word_to
from test_rank3 import GOLDEN_LIFTED


def checked(capsys, label):
    """Decorator: run the body, then report one PASS/FAIL line."""
    def wrap(fn):
        try:
            fn()
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"[acceptance] {label}: PASS")
    return wrap


def test_1_rank2_golden_tables(capsys):
    @checked(capsys, "1 rank-2 golden tables")
    def _():
        fwd = [g_sequence("forward", m, 3, 2) for m in range(1, 8)]
        bwd = [g_sequence("backward", m, 3, 2) for m in range(1, 8)]
        assert fwd == [(-1, 0), (0, -1), (1, -3), (2, -5), (5, -12),
                       (8, -19), (19, -45)]
        assert bwd == [(2, -1), (5, -3), (8, -5), (19, -12), (30, -19),
                       (71, -45), (112, -71)]


def test_2_closed_form_agreement(capsys):
    @checked(capsys, "2 closed forms equal mutation")
    def _():
        for a, b in [(3, 2), (2, 2), (4, 1), (5, 1)]:
            B = ExchangeMatrix(((0, -b), (a, 0)))
            for t in range(-12, 13):
                s = apply_word(initial_seed(B), word_to(t))
                assert rank2_matrices(t, a, b) == (
                    transpose(s.c), transpose(s.g)), (t, a, b)
                assert rank2_matrices(t, a, b) == chebyshev_closed_form(
                    t, a, b), (t, a, b)


def test_3_type_worked_examples(capsys):
    @checked(capsys, "3 vertex-type worked examples")
    def _():
        for (c0, d0), cases in GOLDEN_LIFTED.items():
            fwd, bwd = lifted_sequences(frame(c0, d0), 3, 8)
            for (direction, m), want in cases.items():
                got = fwd[m - 1] if direction == "fwd" else bwd[m - 1]
                assert got == want, (c0, d0, direction, m)
        # Type 1 keeps both lifts in the coordinate plane
        fwd, bwd = lifted_sequences(frame(2, 2), 3, 8)
        assert all(v[2] == 0 for v in fwd + bwd)


def test_4_classification_constants(capsys):
    @checked(capsys, "4 Markov constants and cyclicity")
    def _():
        expected = [(MARKOV, 4, True), (PINWHEEL, 2, True),
                    (TUNNEL, 28, False), (WIDE_TUNNEL, 11, False),
                    (TUNNEL_CLOSEUP, 39, False)]
        for entries, constant, cyclic_verdict in expected:
            B = ExchangeMatrix(entries)
            assert markov_constant(B) == constant
            assert is_cluster_cyclic(B) == cyclic_verdict


def test_5_fan_types(capsys):
    @checked(capsys, "5 fan-type triplets and case labels")
    def _():
        rep = fan_type(ExchangeMatrix(WING))
        assert rep.triplet == ("3", "2", "1") and rep.case_label == "A"
        rep = fan_type(ExchangeMatrix(MARKOV))
        assert rep.triplet == ("4-1", "4-1", "4-1")
        assert rep.case_label == "C-1"
        rep = fan_type(ExchangeMatrix(((0, -2, 7), (3, 0, -3), (-7, 2, 0))))
        assert rep.triplet == ("4-2", "4-1", "4-3")
        assert rep.case_label == "C-5"


def test_6_tunnel_reproduction(capsys):
    # Note: exhaustive search shows the shortest route from the initial
    # seed to the negative orthant for this matrix has length 13, so the
    # depth bound here is 13, not lower.
    @checked(capsys, "6 tunnel route to the negative orthant")
    def _():
        B = ExchangeMatrix(TUNNEL)
        landing = apply_matrix_word(B, (2, 1, 2, 1, 3))
        assert landing.entries == ((0, -2, -2), (3, 0, 2), (3, -2, 0))
        word = find_negative_orthant(explore(B, 13))
        assert word == (2, 1, 2, 1, 3, 1, 3, 2, 3, 1, 2, 1, 2)
        assert word[:5] == (2, 1, 2, 1, 3)
        # the cluster-cyclic Markov quiver never reaches it
        assert find_negative_orthant(explore(ExchangeMatrix(MARKOV), 12)) \
            is None


def test_7_property_suites(capsys):
    @checked(capsys, "7 randomized invariant suites")
    def _():
        # (a) seed invariants to depth 6 on a random corpus
        rng = random.Random(20260825)
        for _ in range(50):
            B = random_skew_symmetrizable(rng, rng.choice([2, 3]))
            level = [initial_seed(B)]
            for _ in range(6):
                nxt = []
                for s in level:
                    last = s.word[-1] if s.word else 0
                    for k in range(1, B.n + 1):
                        if k == last:
                            continue
                        child = mutate_seed(s, k)
                        report = verify_seed(child)
                        assert all(report.values()), (B.entries, child.word)
                        nxt.append(child)
                level = nxt

        # (b) structural facts about cyclic totally-infinite matrices:
        # some vertex is of type 4-1; a lone 4-1 at v2 forces (4-2, _, 4-3);
        # a Markov constant <= 4 forces all three vertices to 4-1
        for _ in range(500):
            B = random_cyclic_totally_infinite(rng)
            rep = fan_type(B)
            tags = [r.tag for r in rep.reports]
            assert "T41" in tags, B.entries
            if tags.count("T41") == 1 and tags[1] == "T41":
                assert tags[0] == "T42" and tags[2] == "T43", B.entries
            if markov_constant(B) <= 4:
                assert tags == ["T41", "T41", "T41"], B.entries

        # (c) limit rays stay outside every explored cone
        for c0, d0 in [(2, 2), (2, -2), (-2, -2), (-2, 2), (-100, 159),
                       (-50, 79), (-50, 21), (-500, 211)]:
            B = frame(c0, d0)
            fan = explore(B, 8)
            v, vp = limit_rays(B, 3)
            for cone in fan.cones.values():
                assert not cone_contains(cone, v, "interior"), (c0, d0)
                assert not cone_contains(cone, vp, "interior"), (c0, d0)


def test_8_finite_type_sanity(capsys):
    @checked(capsys, "8 finite-type and affine sanity")
    def _():
        fan = explore(ExchangeMatrix(((0, 1), (-1, 0))), 6)
        assert len(fan.cones) == 5
        assert fan.frontier == set()

        v, vp = limit_vectors(4, 1)
        assert v == vp == (QuadraticNumber(1, 0), QuadraticNumber(-2, 0))
        fan = explore(ExchangeMatrix(((0, -1), (4, 0))), 10)
        for cone in fan.cones.values():
            assert not cone_contains(cone, v, "interior")


def test_9_rendering(capsys):
    @checked(capsys, "9 SVG rendering")
    def _():
        from gfans import RenderOptions, arc_polyline

        fan = explore(ExchangeMatrix(MARKOV), 5)
        svg = render_svg(fan)
        assert svg == render_svg(explore(ExchangeMatrix(MARKOV), 5))
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        cones = [e for e in root.iter(ns + "path")
                 if e.get("class") == "cone"]
        assert len(cones) == len(fan.cones)
        # cone paths come in sorted key order
        paths = {key: e.get("d") for key, e in zip(sorted(fan.cones), cones)}

        opts = RenderOptions()
        checked_edges = 0
        for edge in itertools.islice(iter(fan.adjacency), 40):
            k1, k2 = tuple(edge)
            shared = sorted(set(fan.cones[k1].rays) & set(fan.cones[k2].rays))
            if len(shared) != 2:
                continue
            arc = arc_polyline(shared[0], shared[1], opts, {})
            fragment = "M " + " L ".join(arc)
            for key in (k1, k2):
                assert fragment in paths[key]
            checked_edges += 1
        assert checked_edges > 0
