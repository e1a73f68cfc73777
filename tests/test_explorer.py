import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfans.explorer
from gfans import (
    ExchangeMatrix,
    QuadraticNumber,
    ResourceCapExceeded,
    cone_contains,
    explore,
    find_negative_orthant,
    interiors_disjoint,
    limit_rays,
    load_fan,
    load_fan_file,
    save_fan,
    save_fan_file,
)
from gfans.explorer import Fan
from gfans.seeds import g_cone, initial_seed, mutate_seed
from conftest import MARKOV, WING, frame
from test_exchange import skew_symmetrizable_matrices

A3 = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))


def explore_every_word(B, depth, max_cones=100_000):
    """Oracle: BFS that expands every mutation word, not every cone."""
    s0 = initial_seed(B)
    cone0 = g_cone(s0)
    fan = Fan(B, depth, {cone0.key: cone0}, {cone0.key: ()})
    level = [(s0, cone0.key)]
    for _ in range(depth):
        next_level = []
        for seed, parent_key in level:
            last = seed.word[-1] if seed.word else 0
            for k in range(1, B.n + 1):
                if k == last:
                    continue
                child = mutate_seed(seed, k)
                cone = g_cone(child)
                key = cone.key
                if key != parent_key:
                    fan.adjacency.add(frozenset((parent_key, key)))
                if key not in fan.cones:
                    if len(fan.cones) >= max_cones:
                        raise ResourceCapExceeded(
                            f"cone cap {max_cones} reached at depth "
                            f"{len(child.word)}"
                        )
                    fan.cones[key] = cone
                    fan.words[key] = child.word
                next_level.append((child, key))
        level = next_level
    return fan


def _document_or_cap(explorer, B, depth, max_cones):
    try:
        return json.dumps(save_fan(explorer(B, depth, max_cones=max_cones)))
    except ResourceCapExceeded as exc:
        return f"cap: {exc}"


def test_depth_zero_is_the_positive_orthant():
    fan = explore(ExchangeMatrix(MARKOV), 0)
    assert len(fan.cones) == 1
    key = next(iter(fan.cones))
    assert key == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert fan.words[key] == ()
    assert fan.frontier == {key}


def test_a2_fan_closes_up():
    fan = explore(ExchangeMatrix(((0, 1), (-1, 0))), 6)
    assert len(fan.cones) == 5
    assert fan.frontier == set()
    # the pentagon: every cone has exactly two neighbors
    degree = {}
    for edge in fan.adjacency:
        for k in edge:
            degree[k] = degree.get(k, 0) + 1
    assert sorted(degree.values()) == [2, 2, 2, 2, 2]


def test_rank2_infinite_growth_is_linear():
    B = ExchangeMatrix(((0, -2), (3, 0)))
    for depth in (3, 5, 8):
        fan = explore(B, depth)
        assert len(fan.cones) == 1 + 2 * depth
        assert len(fan.frontier) == 2


def test_markov_depth_one():
    fan = explore(ExchangeMatrix(MARKOV), 1)
    assert len(fan.cones) == 4
    assert len(fan.frontier) == 3
    assert len(fan.adjacency) == 3


def test_witness_words_are_shortest():
    fan = explore(ExchangeMatrix(MARKOV), 4)
    for key, word in fan.words.items():
        assert len(word) <= 4
        # replaying the witness lands on the same cone
        from gfans.seeds import apply_word, g_cone, initial_seed
        s = apply_word(initial_seed(fan.source), word)
        assert g_cone(s).key == key


def test_acyclic_matrix_reaches_negative_orthant():
    fan = explore(ExchangeMatrix(WING), 3)
    assert find_negative_orthant(fan) == (1, 2, 3)


def test_negative_orthant_absent_at_shallow_depth():
    fan = explore(ExchangeMatrix(MARKOV), 4)
    assert find_negative_orthant(fan) is None


def test_resource_cap():
    with pytest.raises(ResourceCapExceeded):
        explore(ExchangeMatrix(MARKOV), 8, max_cones=20)
    with pytest.raises(ValueError):
        explore(ExchangeMatrix(MARKOV), -1)


def test_exploration_is_order_independent():
    # the cone set depends only on the matrix and depth, not on traversal
    B = ExchangeMatrix(MARKOV)
    fan = explore(B, 4)
    fan2 = explore(B, 4)
    assert set(fan.cones) == set(fan2.cones)
    assert fan.words == fan2.words
    assert fan.adjacency == fan2.adjacency


def test_cone_membership_interior_vs_closure():
    fan = explore(ExchangeMatrix(MARKOV), 0)
    cone = next(iter(fan.cones.values()))
    assert cone_contains(cone, (1, 1, 1), "interior")
    assert cone_contains(cone, (1, 0, 0), "closure")
    assert not cone_contains(cone, (1, 0, 0), "interior")
    assert not cone_contains(cone, (-1, 1, 1), "closure")
    with pytest.raises(ValueError):
        cone_contains(cone, (1, 1, 1), "boundary")


def test_cone_membership_with_irrational_rays():
    fan = explore(ExchangeMatrix(MARKOV), 0)
    cone = next(iter(fan.cones.values()))
    s = QuadraticNumber.sqrt(5)
    point = (1 + s, QuadraticNumber.rational(1), 2 - s)
    assert not cone_contains(cone, point, "interior")  # third entry < 0
    point = (1 + s, QuadraticNumber.rational(1), s - 2)
    assert cone_contains(cone, point, "interior")


def test_pairwise_interior_disjointness():
    fan = explore(ExchangeMatrix(MARKOV), 4)
    cones = list(fan.cones.values())
    for a, b in itertools.combinations(cones, 2):
        assert interiors_disjoint(a, b)


def test_interiors_disjoint_detects_overlap():
    from gfans.seeds import GCone
    a = GCone(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0),
                                                  (0, 0, 1)))
    # a strictly smaller cone inside the positive orthant
    b = GCone(((1, 1, 1), (0, 1, 1), (0, 0, 1)), ((1, 0, 0), (-1, 1, 0),
                                                  (0, -1, 1)))
    assert not interiors_disjoint(a, b)
    assert interiors_disjoint(a, a) is False


def test_limit_rays_never_interior():
    B = frame(-2, 2)
    fan = explore(B, 6)
    v, vp = limit_rays(B, 3)
    for cone in fan.cones.values():
        assert not cone_contains(cone, v, "interior")
        assert not cone_contains(cone, vp, "interior")


def test_save_load_round_trip(tmp_path):
    fan = explore(ExchangeMatrix(MARKOV), 3)
    path = tmp_path / "fan.json"
    save_fan_file(fan, str(path))
    back = load_fan_file(str(path))
    assert back.source.entries == fan.source.entries
    assert back.depth == fan.depth
    assert set(back.cones) == set(fan.cones)
    assert back.words == fan.words
    assert back.adjacency == fan.adjacency
    assert back.frontier == fan.frontier


def test_save_is_json_stable():
    fan = explore(ExchangeMatrix(MARKOV), 3)
    doc1 = json.dumps(save_fan(fan), sort_keys=True)
    doc2 = json.dumps(save_fan(explore(ExchangeMatrix(MARKOV), 3)),
                      sort_keys=True)
    assert doc1 == doc2


def test_load_rejects_bad_documents():
    fan = explore(ExchangeMatrix(MARKOV), 1)
    doc = save_fan(fan)
    with pytest.raises(ValueError):
        load_fan({**doc, "format": 99})
    broken = json.loads(json.dumps(doc))
    broken["cones"][0]["g"] = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        load_fan(broken)
    mismatched = json.loads(json.dumps(doc))
    mismatched["cones"][0]["key"] = [[9, 9, 9], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        load_fan(mismatched)


def test_reexploring_a_loaded_source_reproduces_the_fan(tmp_path):
    B = ExchangeMatrix(MARKOV)
    path = tmp_path / "fan.json"
    save_fan_file(explore(B, 3), str(path))
    loaded = load_fan_file(str(path))
    again = explore(loaded.source, loaded.depth)
    assert set(again.cones) == set(loaded.cones)
    assert again.words == loaded.words


@settings(max_examples=150, deadline=None)
@given(skew_symmetrizable_matrices, st.sampled_from(range(6)),
       st.integers(1, 120))
def test_expanding_each_cone_once_matches_expanding_every_word(
        B, depth, max_cones):
    # same document byte for byte, and the cap trips on the same cone
    assert _document_or_cap(explore, B, depth, max_cones) == \
        _document_or_cap(explore_every_word, B, depth, max_cones)


def test_each_cone_is_expanded_once(monkeypatch):
    calls = []

    def counted(seed, k):
        calls.append(k)
        return mutate_seed(seed, k)

    monkeypatch.setattr(gfans.explorer, "mutate_seed", counted)
    fan = explore(ExchangeMatrix(A3), 11)
    assert len(fan.cones) == 14
    assert len(calls) <= 3 * len(fan.cones)


def test_interiors_disjoint_inverts_each_cone_once(monkeypatch):
    calls = []
    inverse = gfans.explorer.unimodular_inverse

    def counted(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(gfans.explorer, "unimodular_inverse", counted)
    fan = explore(ExchangeMatrix(MARKOV), 2)
    a, b = list(fan.cones.values())[:2]
    assert interiors_disjoint(a, b)
    assert len(calls) == 2
