import copy
import functools
import gc
import io
import itertools
import json
import math
import operator
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gfans.explorer
import gfans.seeds
from gfans import (
    ExchangeMatrix,
    QuadraticNumber,
    QuadraticRay,
    ResourceCapExceeded,
    cone_contains,
    explore,
    find_negative_orthant,
    interiors_disjoint,
    limit_rays,
    load_fan,
    load_fan_file,
    mutate_matrix,
    pair_asymptotics,
    save_fan,
    save_fan_file,
    write_fan,
)
from gfans.explorer import Fan
from gfans.seeds import (
    GCone,
    SignCoherenceViolation,
    g_cone,
    initial_seed,
    mutate_seed,
    transpose,
    unimodular_inverse,
)
from conftest import A3, B2_A1, MARKOV, PINWHEEL, TUNNEL, WING, frame
from test_exchange import (
    random_skew_symmetrizable,
    skew_symmetrizable_matrices,
)

A4 = ((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0))

_rank3_matrices = st.builds(random_skew_symmetrizable,
                            st.randoms(use_true_random=False), st.just(3))


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


@pytest.mark.parametrize("max_cones", [0, -1])
def test_cone_cap_below_one_is_an_input_error(max_cones):
    # a precondition, not a cap reached at depth 1
    with pytest.raises(ValueError, match="max_cones must be >= 1"):
        explore(ExchangeMatrix(MARKOV), 2, max_cones=max_cones)


@pytest.mark.parametrize("depth, max_cones, name", [
    (2.5, 10, "depth"), (True, 10, "depth"), ("3", 10, "depth"),
    (3, 2.5, "max_cones"), (3, True, "max_cones"), (3, None, "max_cones"),
])
def test_depth_and_cone_cap_must_be_ints(depth, max_cones, name,
                                         monkeypatch):
    # not a TypeError from the walk, a cap "reached" at 2.5 cones or True
    # read as depth 1: an input error before any mutation
    def refuse(s, k):
        raise AssertionError("mutated before the inputs were checked")

    monkeypatch.setattr(gfans.seeds, "mutate_seed", refuse)
    with pytest.raises(ValueError, match=f"^{name} must be an int$"):
        explore(ExchangeMatrix(MARKOV), depth, max_cones=max_cones)


# -- the cyclic garbage collector is paused over the walk ---------------------

@pytest.fixture
def collector_enabled():
    # every test here starts and ends with the collector enabled
    gc.enable()
    yield
    gc.enable()


def test_explore_pauses_the_collector_and_enables_it_again(
        collector_enabled, monkeypatch):
    states = []

    def recording(s, k):
        states.append(gc.isenabled())
        return mutate_seed(s, k)

    monkeypatch.setattr(gfans.seeds, "mutate_seed", recording)
    fan = explore(ExchangeMatrix(MARKOV), 4)
    assert len(fan.cones) == 46
    assert states and not any(states)
    assert gc.isenabled()


def test_collector_enabled_after_the_cone_cap_while_the_error_is_held(
        collector_enabled):
    # the kept traceback holds explore's frame, and that frame the
    # suspended walk
    with pytest.raises(ResourceCapExceeded) as info:
        explore(ExchangeMatrix(TUNNEL), 8, max_cones=700)
    assert info.value.__traceback__ is not None
    assert gc.isenabled()


def test_collector_enabled_after_an_error_mid_walk(collector_enabled,
                                                   monkeypatch):
    calls = []

    def failing(s, k):
        calls.append(k)
        if len(calls) == 5:
            raise SignCoherenceViolation("planted")
        return mutate_seed(s, k)

    monkeypatch.setattr(gfans.seeds, "mutate_seed", failing)
    with pytest.raises(SignCoherenceViolation, match="planted"):
        explore(ExchangeMatrix(MARKOV), 4)
    assert len(calls) == 5
    assert gc.isenabled()


def test_explore_leaves_a_disabled_collector_disabled(collector_enabled):
    gc.disable()
    explore(ExchangeMatrix(MARKOV), 4)
    assert not gc.isenabled()
    with pytest.raises(ResourceCapExceeded):
        explore(ExchangeMatrix(MARKOV), 8, max_cones=20)
    assert not gc.isenabled()


@settings(max_examples=40, deadline=None)
@given(_rank3_matrices, st.integers(0, 6))
def test_explore_makes_no_cyclic_garbage(B, depth):
    # so pausing the collector lets nothing pile up: reference counting
    # frees all the walk makes, the fan included once it is dropped
    enabled = gc.isenabled()
    gc.disable()  # no automatic pass may collect a cycle before we count
    try:
        gc.collect()
        fan = explore(B, depth)
        del fan
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


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
    point = QuadraticRay((1, 1, 2), (1, 0, -1), 5, 1)  # (1+√5, 1, 2-√5)
    assert not cone_contains(cone, point, "interior")  # third entry < 0
    point = QuadraticRay((1, 1, -2), (1, 0, 1), 5, 1)  # (1+√5, 1, -2+√5)
    assert cone_contains(cone, point, "interior")
    # the same components in a plain tuple are not a quadratic ray
    with pytest.raises(TypeError):
        cone_contains(cone, tuple(point), "interior")


def test_cone_contains_rejects_a_ray_of_the_wrong_rank():
    cone = next(iter(explore(ExchangeMatrix(MARKOV), 0).cones.values()))
    # zipped pairings once called the first interior and tested the
    # second on two coordinates only; the rank is refused before the
    # strictness is read
    for ray in ((1, 1, 1, -7), (1, 1), QuadraticRay((1, 1), (1, 0), 5, 1),
                QuadraticRay((1, 1, 1, 1), (0, 0, 0, 1), 5, 2)):
        for strictness in ("interior", "closure", "boundary"):
            with pytest.raises(ValueError, match="rank"):
                cone_contains(cone, ray, strictness)
    wing = next(iter(explore(ExchangeMatrix(WING), 0).cones.values()))
    with pytest.raises(ValueError, match="rank"):
        cone_contains(wing, (1, 1, 1, 1))


def test_pairwise_interior_disjointness():
    # the complete A3 and B2 x A1 fans close up by depth 8; B2 x A1 and
    # Wing have D != I
    for B, depth, size in ((MARKOV, 4, None), (WING, 5, None),
                           (PINWHEEL, 5, None), (A3, 8, 14), (B2_A1, 8, 12)):
        fan = explore(ExchangeMatrix(B), depth)
        if size is not None:
            assert len(fan.cones) == size and fan.frontier == set()
        for a, b in itertools.combinations(fan.cones.values(), 2):
            assert interiors_disjoint(a, b), (B, a, b)


def _counted_cross(monkeypatch):
    """The list of calls that interiors_disjoint makes to _cross."""
    cross, calls = gfans.explorer._cross, []

    def counted(u, v):
        calls.append((u, v))
        return cross(u, v)

    monkeypatch.setattr(gfans.explorer, "_cross", counted)
    return calls


@pytest.mark.parametrize("B", [MARKOV, WING, TUNNEL],
                         ids=["MARKOV", "WING", "TUNNEL"])
def test_adjacent_cones_are_separated_by_their_shared_facet(B, monkeypatch):
    fan = explore(ExchangeMatrix(B), 5)
    crossed = _counted_cross(monkeypatch)
    for edge in fan.adjacency:
        a, b = (fan.cones[k] for k in edge)
        for one, other in ((a, b), (b, a)):
            assert interiors_disjoint(one, other)
            # the facet of `one` opposite its unshared ray contains the
            # shared facet, and the other cone's third ray lies strictly
            # on its far side
            [i] = [i for i, g in enumerate(one.rays) if g not in other.rays]
            [far] = [g for g in other.rays if g not in one.rays]
            assert sum(map(operator.mul, one.facets[i], far)) < 0
    assert crossed == []


def test_interiors_disjoint_detects_overlap():
    a = GCone(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0),
                                                  (0, 0, 1)), (1, 1, 1))
    # a strictly smaller cone inside the positive orthant
    b = GCone(((1, 1, 1), (0, 1, 1), (0, 0, 1)), ((1, 0, 0), (-1, 1, 0),
                                                  (0, -1, 1)), (1, 1, 1))
    assert not interiors_disjoint(a, b)
    assert interiors_disjoint(a, a) is False


# Rays of cone pairs with disjoint interiors that only one kind of plane
# separates.  In the last pair, the dual cone of the first and the negated
# dual cone of the second cross like the two triangles of a hexagram, so
# no plane through a facet of either cone separates them.
_SEPARATED_ONLY_BY = {
    "a facet of the first cone": (((-1, -1, -1), (3, 2, 0), (-1, 0, 3)),
                                  ((-1, 0, 1), (-2, 0, 3), (-1, 1, 0))),
    "a facet of the second cone": (((-1, -1, 0), (-1, 0, 0), (0, -2, -1)),
                                   ((2, -1, 1), (0, 0, 1), (-3, 2, -3))),
    "a cross product": (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                        ((-2, 1, -2), (3, -2, 2), (-1, 0, -1))),
}


@pytest.mark.parametrize("kind", list(_SEPARATED_ONLY_BY))
def test_each_kind_of_separating_plane_is_found(kind, monkeypatch):
    a, b = (GCone(rays, unimodular_inverse(transpose(rays)), (1, 1, 1))
            for rays in _SEPARATED_ONLY_BY[kind])
    assert _adjugate_disjoint(a, b)
    crossed = _counted_cross(monkeypatch)
    assert interiors_disjoint(a, b)
    assert bool(crossed) == (kind == "a cross product")


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
    # broken references, each of which once loaded without error
    for edit, message in [
        (lambda d: d["cones"][1].update(word=[4]), "not a word"),
        (lambda d: d["cones"][1].update(word=[0]), "not a word"),
        (lambda d: d["cones"][1].update(word=[1, 2]), "not a word"),
        (lambda d: d["cones"][1].update(word="1"), "cone word must be"),
        (lambda d: d["cones"][1].update(word=[True]), "cone word must be"),
        (lambda d: d["cones"][1].update(word=[1.0]), "cone word must be"),
        (lambda d: d["cones"][1].update(word=[[1]]), "cone word must be"),
        (lambda d: d.update(depth=-4), "negative"),
        (lambda d: d["adjacency"][0][1][0].__setitem__(0, 9), "no cone has"),
        (lambda d: d["cones"].append(d["cones"][0]), "duplicate"),
        (lambda d: d["adjacency"][0].__setitem__(1, d["adjacency"][0][0]),
         "to itself"),
        (lambda d: d["adjacency"][0].pop(), "exactly two keys"),
        (lambda d: d["adjacency"][0].append(d["cones"][2]["key"]),
         "exactly two keys"),
    ]:
        edited = json.loads(json.dumps(doc))
        edit(edited)
        with pytest.raises(ValueError, match=message):
            load_fan(edited)


@pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
def test_load_refuses_an_adjacency_key_equal_to_a_cone_key(entry):
    # 1.0 and true hash and compare equal to 1, so a lookup in the cone
    # table alone would take them for a cone's key
    fan = explore(ExchangeMatrix(MARKOV), 1)
    doc = json.loads(json.dumps(save_fan(fan)))
    key = doc["adjacency"][0][1]
    i, j = next((i, j) for i, row in enumerate(key)
                for j, x in enumerate(row) if x == 1)
    key[i][j] = entry
    assert tuple(map(tuple, key)) in fan.cones
    with pytest.raises(ValueError,
                       match="^adjacency key must be integers in JSON lists$"):
        load_fan(doc)


def test_loaded_edges_hold_their_cones_keys():
    fan = explore(ExchangeMatrix(TUNNEL), 5)
    loaded = load_fan(json.loads(_written(fan)))
    assert loaded == fan
    own = {key: key for key in loaded.cones}
    assert len(loaded.adjacency) == len(fan.adjacency) > 0
    for edge in loaded.adjacency:
        for key in edge:
            assert key is own[key]


def _written(fan):
    fh = io.StringIO()
    write_fan(fan, fh)
    return fh.getvalue()


@settings(max_examples=100, deadline=None)
@given(skew_symmetrizable_matrices, st.integers(0, 5), st.booleans())
@example(ExchangeMatrix(MARKOV), 0, False)  # one cone, no adjacency
@example(ExchangeMatrix(TUNNEL), 8, False)  # entries past 600 bits
def test_write_fan_writes_the_one_shot_document(B, depth, read_adjacency):
    fan = explore(B, depth)
    if read_adjacency:
        fan.adjacency  # else the writer builds it on its own read
    doc = _written(fan)
    assert doc == json.dumps(save_fan(fan))
    # a fan read back holds equal keys and vectors as new objects
    assert _written(load_fan(json.loads(doc))) == doc


@pytest.mark.parametrize("adjacency", [False, True])
def test_write_fan_writes_hand_built_fans(adjacency):
    B = ExchangeMatrix(WING)
    built = explore_every_word(B, 3)
    if not adjacency:
        built = Fan(B, 3, built.cones, built.words)
        assert built.adjacency == set()
    assert _written(built) == json.dumps(save_fan(built))


@pytest.mark.parametrize("matrix, depth", [(A3, 11), (TUNNEL, 6)])
def test_write_fan_encodes_each_distinct_vector_once(matrix, depth,
                                                     monkeypatch):
    # the keys repeat the g-vectors, the edges repeat the keys, and
    # neighbors share all but one g-vector and some c-vectors
    calls = []
    encode = gfans.explorer._vector_text

    def counting(v):
        calls.append(tuple(v))
        return encode(v)

    monkeypatch.setattr(gfans.explorer, "_vector_text", counting)
    fan = explore(ExchangeMatrix(matrix), depth)
    doc = _written(fan)
    vectors = {v for cone in fan.cones.values()
               for v in cone.rays + cone.normals}
    # each word is written once, by the same encoder
    assert Counter(calls) == Counter([*vectors, *fan.words.values()])
    assert doc == json.dumps(save_fan(fan))


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


@settings(max_examples=60, deadline=None)
@given(_rank3_matrices, st.integers(0, 6))
def test_explore_equals_the_eager_oracle(B, depth):
    fan = explore(B, depth)
    assert "adjacency" not in vars(fan)
    oracle = explore_every_word(B, depth)
    assert fan == oracle  # adjacency included, which this read builds
    assert list(fan.words.items()) == list(oracle.words.items())


def test_a_route_search_builds_no_adjacency():
    fan = explore(ExchangeMatrix(TUNNEL), 8)
    assert find_negative_orthant(fan) is None
    assert len(fan.cones) == 766 and len(fan.frontier) == 384
    assert "adjacency" not in vars(fan)
    # the first read builds the edge set and drops the list it came from
    assert len(fan.adjacency) == 765
    assert "adjacency" in vars(fan) and fan._edges is None


def _pickled(fan, protocol):
    return pickle.loads(pickle.dumps(fan, protocol))


@pytest.mark.parametrize("B, depth", [(A3, 11), (WING, 4), (MARKOV, 0)])
def test_an_unread_fan_compares_prints_copies_and_pickles_as_an_eager_one(
        B, depth):
    eager = explore_every_word(ExchangeMatrix(B), depth)

    def unread():
        fan = explore(ExchangeMatrix(B), depth)
        assert "adjacency" not in vars(fan)
        return fan

    assert unread() == eager and eager == unread()
    assert repr(unread()) == repr(eager)
    clones = [copy.copy, copy.deepcopy] + [
        functools.partial(_pickled, protocol=p)
        for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        other = clone(unread())
        assert other == eager
        assert repr(other) == repr(eager)
    # a shallow copy shares the edge list: reading one side must leave the
    # other's adjacency whole
    fan = unread()
    twin = copy.copy(fan)
    assert twin.adjacency == eager.adjacency
    assert fan.adjacency == eager.adjacency


def test_each_cone_is_expanded_once(monkeypatch):
    calls = []

    def counted(seed, k):
        calls.append(k)
        return mutate_seed(seed, k)

    monkeypatch.setattr(gfans.seeds, "mutate_seed", counted)
    fan = explore(ExchangeMatrix(A3), 11)
    assert len(fan.cones) == 14
    assert len(calls) <= 3 * len(fan.cones)


@pytest.mark.parametrize("B, depth, built", [(A3, 11, 13), (TUNNEL, 8, 381)])
def test_only_expanded_seeds_build_their_b(B, depth, built, monkeypatch):
    # a child builds mu_k(B) when its B is first read, and explore reads
    # the B of the seeds it expands, at depths 1..depth-1, and of no other
    calls = []

    def counted(b, k):
        calls.append(k)
        return mutate_matrix(b, k)

    monkeypatch.setattr(gfans.seeds, "mutate_matrix", counted)
    fan = explore(ExchangeMatrix(B), depth)
    assert len(calls) == built == sum(
        1 for w in fan.words.values() if 1 <= len(w) < depth)


def test_interiors_disjoint_needs_rank_3():
    # rank 4 used to call a cone disjoint from itself; rank 2 raised
    # IndexError
    for B in (A4, ((0, 1), (-1, 0))):
        cone = next(iter(explore(ExchangeMatrix(B), 0).cones.values()))
        with pytest.raises(ValueError):
            interiors_disjoint(cone, cone)


def test_load_rejects_c_vectors_not_dual_to_g():
    doc = save_fan(explore(ExchangeMatrix(WING), 1))
    c = doc["cones"][1]["c"]
    c[0], c[1] = c[1], c[0]
    with pytest.raises(ValueError, match="not dual"):
        load_fan(doc)
    # a cone with a ray missing once raised IndexError
    doc = save_fan(explore(ExchangeMatrix(WING), 1))
    doc["cones"][0]["g"].pop()
    with pytest.raises(ValueError, match="not dual"):
        load_fan(doc)


# -- the duality rule against the adjugate rule it replaced -----------------

def _adjugate_normals(cone):
    """Reference facet normals: the rows of G^-1, computed by adjugate."""
    return unimodular_inverse(transpose(cone.rays))


def _pairing(row, ray):
    """<row, ray> summed in Fractions as (X, Y, delta), X + Y sqrt(delta)."""
    x, y, delta = Fraction(0), Fraction(0), 0
    for r, c in zip(row, ray):
        if isinstance(c, QuadraticNumber):
            x, y, delta = x + r * c.x, y + r * c.y, delta or c.delta
        else:
            x += r * c
    return x, y, delta


def _inside(normals, ray, strictness):
    """Reference membership: each pairing summed in Fractions, its sign
    taken by QuadraticNumber."""
    least = {"interior": 1, "closure": 0}[strictness]
    return all(QuadraticNumber(*_pairing(row, ray)).sign() >= least
               for row in normals)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _adjugate_disjoint(a, b):
    """Reference interiors_disjoint on adjugate normals: candidates are rays
    of one cone in the closure of the other and crossed normal pairs in
    both closures; the interiors meet iff their sum is interior to both."""
    na, nb = _adjugate_normals(a), _adjugate_normals(b)
    cands = [r for r in a.rays if _inside(nb, r, "closure")]
    cands += [r for r in b.rays if _inside(na, r, "closure")]
    for ra in na:
        for rb in nb:
            for cand in (_cross(ra, rb), _cross(rb, ra)):
                if any(cand) and _inside(na, cand, "closure") \
                        and _inside(nb, cand, "closure"):
                    cands.append(cand)
    if not cands:
        return True
    total = tuple(sum(c[i] for c in cands) for i in range(3))
    return not (_inside(na, total, "interior")
                and _inside(nb, total, "interior"))


def test_interiors_disjoint_matches_the_oracle_across_fans():
    # cones of one fan never overlap, so pairs drawn from the fans of two
    # independent matrices are what reaches the overlapping answer
    seen = set()

    @settings(max_examples=20, deadline=None)
    @given(_rank3_matrices, _rank3_matrices, st.integers(1, 3),
           st.integers(1, 3), st.randoms(use_true_random=False))
    def check(B1, B2, d1, d2, rng):
        c1 = list(explore(B1, d1).cones.values())
        c2 = list(explore(B2, d2).cones.values())
        for cone in c1 + c2:
            assert interiors_disjoint(cone, cone) is False
        pairs = list(itertools.product(c1, c2))
        for a, b in rng.sample(pairs, min(len(pairs), 40)):
            disjoint = interiors_disjoint(a, b)
            assert disjoint == _adjugate_disjoint(a, b), (B1, B2, a, b)
            seen.add((disjoint, a.key == b.key))

    check()
    # both answers occur, and some overlap is between different cones
    assert {(True, False), (False, False)} <= seen


def _limit_rays(B):
    """Quadratic limit rays of every alternating pair of infinite type."""
    rays = []
    for i, j in itertools.combinations(range(1, B.n + 1), 2):
        if B[i, j] * B[j, i] <= -4:
            rays.extend(pair_asymptotics(B, i, j))
    return rays


def _exact_variants(ray):
    """A ray of ints and Fractions as a list, in thirds, and as a list in
    thirds nudged by a third along its first axis: exact rays whose
    pairings are not integers, of every sign, some strictly between -1
    and 1.  A `QuadraticRay` has no variants."""
    if isinstance(ray, QuadraticRay):
        return []
    thirds = [Fraction(x, 3) for x in ray]
    nudged = [thirds[0] + Fraction(1, 3)] + thirds[1:]
    return [list(ray), tuple(thirds), nudged]


def _assert_rules_agree(fan, rays):
    cones = [fan.cones[k] for k in sorted(fan.cones)]
    # rays of the fan itself: a ray and the sum of two rays of a cone lie
    # on its boundary, the sum of all its rays inside it, and the sum over
    # two cones crosses the walls between
    rays = list(rays)
    start = len(rays)
    for a, b in zip(cones[:8], cones[1:9] + cones[:1]):
        rays += [a.rays[0], tuple(map(sum, zip(*a.rays[:2]))),
                 tuple(map(sum, zip(*a.rays))),
                 tuple(map(sum, zip(*a.rays, *b.rays)))]
    # the first cone's four again, as lists and in Fractions
    rays += [v for ray in rays[start:start + 4] for v in _exact_variants(ray)]
    for cone in cones:
        normals = _adjugate_normals(cone)
        for ray in rays:
            for strictness in ("interior", "closure"):
                assert cone_contains(cone, ray, strictness) == \
                    _inside(normals, ray, strictness), (cone, ray)
    if fan.source.n == 3:
        pairs = list(itertools.combinations(cones, 2))[:40]
        for a, b in pairs + [(c, c) for c in cones[:3]]:
            assert interiors_disjoint(a, b) == _adjugate_disjoint(a, b)


def _reloaded(fan):
    return load_fan(json.loads(json.dumps(save_fan(fan))))


@pytest.mark.parametrize("B", [MARKOV, WING, frame(-2, 2).entries])
def test_duality_rule_matches_adjugate_rule_on_fixtures(B):
    # WING and the frame have D != I
    B = ExchangeMatrix(B)
    fan = explore(B, 3)
    rays = _limit_rays(B)
    _assert_rules_agree(fan, rays)
    _assert_rules_agree(_reloaded(fan), rays)


_exact_coordinates = st.one_of(st.integers(-4, 4),
                               st.fractions(-4, 4, max_denominator=6))


@settings(max_examples=40, deadline=None)
@given(skew_symmetrizable_matrices, st.sampled_from(range(4)),
       st.booleans(),
       st.lists(st.tuples(st.lists(_exact_coordinates, min_size=4,
                                   max_size=4),
                          st.sampled_from([tuple, list])),
                max_size=6))
# the generic path at both ranks it serves, with pairings in (0, 1)
@example(ExchangeMatrix(((0, 3), (-2, 0))), 3, False,
         [([Fraction(1, 2), Fraction(1, 3), 0, 0], list)])
@example(ExchangeMatrix(A4), 2, True,
         [([Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), 1], tuple)])
def test_duality_rule_matches_adjugate_rule(B, depth, reload, points):
    # ranks 2 to 4; points mix ints and Fractions, as tuples or lists
    fan = explore(B, depth)
    if reload:
        fan = _reloaded(fan)
    rays = [kind(p[:B.n]) for p, kind in points] + _limit_rays(B)[:4]
    _assert_rules_agree(fan, rays)


@pytest.mark.parametrize("B", [((0, 3), (-2, 0)), A4],
                         ids=["rank 2", "rank 4"])
def test_components_of_a_quadratic_ray_are_no_ray(B):
    # as at rank 3, a plain tuple or list of QuadraticNumbers is refused
    # rather than paired component by component
    cone = next(iter(explore(ExchangeMatrix(B), 0).cones.values()))
    n = len(B)
    ray = QuadraticRay((1,) * n, (1,) + (0,) * (n - 1), 5, 1)
    assert cone_contains(cone, ray, "interior")
    for strictness in ("interior", "closure"):
        for plain in (tuple(ray), list(ray)):
            with pytest.raises(TypeError):
                cone_contains(cone, plain, strictness)


# -- containment on quadratic rays against a bracketing oracle ---------------

def _sign_by_bracket(x, y, delta):
    """Sign of x + y*sqrt(delta), independent of root_sign: exact for a
    perfect square; otherwise the value is 0 only if x = y = 0, and its
    sign is that of x + y*r at both ends of a shrinking bracket around the
    root."""
    def sign(v):
        return (v > 0) - (v < 0)
    root = math.isqrt(delta)
    if root * root == delta or y == 0:
        return sign(x + y * root)
    p = 32
    while True:
        lo = Fraction(math.isqrt(delta << 2 * p), 1 << p)
        ends = {sign(x + y * lo), sign(x + y * (lo + Fraction(1, 1 << p)))}
        if len(ends) == 1:
            return ends.pop()
        p *= 2


_discriminants = st.one_of(st.sampled_from([0, 1, 4, 9, 16, 2, 5, 12, 32]),
                           st.integers(0, 10 ** 12))


@st.composite
def _quadratic_rays(draw):
    n = draw(st.integers(2, 4))
    vector = st.lists(st.integers(-2000, 2000), min_size=n, max_size=n)
    return QuadraticRay(draw(vector), draw(vector), draw(_discriminants),
                        draw(st.integers(1, 40)))


@settings(max_examples=200, deadline=None)
@given(_quadratic_rays(), st.data())
def test_quadratic_containment_matches_the_oracle(ray, data):
    n = len(ray)
    rows = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    normals = data.draw(st.lists(rows, min_size=1, max_size=4))
    d = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    cone = GCone((), tuple(map(tuple, normals)), tuple(d))
    facets = [[di * r for di, r in zip(d, row)] for row in normals]
    signs = [_sign_by_bracket(*_pairing(row, ray)) for row in facets]
    assert cone_contains(cone, ray, "interior") == (min(signs) >= 1)
    assert cone_contains(cone, ray, "closure") == (min(signs) >= 0)
