"""`seeds.built_on_read`, the attribute behind `Seed.b` and `Fan.adjacency`:
built on first read, stored before its source is dropped, so safe to read
from two threads at once, and invisible to equality, copies and pickles.

The race of the concurrent test shows only on Python 3.12 and later,
where `functools.cached_property`, which these attributes used before,
takes no lock."""

import copy
import pickle
import sys
import threading

import gfans.seeds
from gfans import ExchangeMatrix, explore
from gfans.exchange import mutate_matrix
from gfans.seeds import Seed, initial_seed, mutate_seed, walk

from conftest import MARKOV, TUNNEL


def _read_in_two_threads(objs, read):
    """read(obj) for every obj in each of two threads that start together,
    switching as often as the interpreter allows; returns what raised."""
    errors = []
    barrier = threading.Barrier(2, timeout=30)

    def run():
        barrier.wait()
        for obj in objs:
            try:
                read(obj)
            except Exception as exc:  # the race raised TypeError
                errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_concurrent_first_reads_raise_nothing():
    # functools.cached_property takes no lock from Python 3.12 on: with B
    # dropped before the value was stored, a second reader unpacked None
    parent = mutate_seed(initial_seed(ExchangeMatrix(MARKOV)), 1)
    directions = [k % 3 + 1 for k in range(5000)]
    children = [mutate_seed(parent, k) for k in directions]
    assert not _read_in_two_threads(children, lambda s: s.b)
    want = {k: mutate_matrix(parent.b, k) for k in (1, 2, 3)}
    assert all(s.b == want[k] for s, k in zip(children, directions))

    B = ExchangeMatrix(MARKOV)
    fans = [explore(B, 3) for _ in range(500)]
    assert not _read_in_two_threads(fans, lambda fan: fan.adjacency)
    edges = explore(B, 3).adjacency
    assert len(edges) == 21
    assert all(fan.adjacency == edges for fan in fans)


def test_a_child_builds_b_once_on_first_read():
    parent = mutate_seed(initial_seed(ExchangeMatrix(MARKOV)), 1)
    child = mutate_seed(parent, 2)
    assert "b" not in vars(child) and child._from == (parent.b, 2)
    b = child.b
    assert b == mutate_matrix(parent.b, 2)
    assert vars(child)["b"] is b and child.b is b
    assert child._from is None
    assert Seed.b.__get__(None, Seed) is Seed.b


def _copies(obj):
    return [copy.copy(obj), pickle.loads(pickle.dumps(obj))]


def test_a_child_seed_copies_and_pickles_before_and_after_its_first_read():
    parent = mutate_seed(initial_seed(ExchangeMatrix(MARKOV)), 3)
    child = mutate_seed(parent, 1)
    built = Seed(mutate_matrix(parent.b, 1), child.c, child.g, child.word)
    unread = _copies(child)
    assert "b" not in vars(child)
    assert all("b" not in vars(s) for s in unread)
    assert all(s == built for s in unread)  # each builds its own B
    assert child == built  # reads b
    read = _copies(child)
    assert all(vars(s)["b"] == built.b and s._from is None for s in read)
    assert all(s == built and hash(s) == hash(built) for s in read)


def test_an_explored_fan_copies_and_pickles_before_and_after_its_first_read():
    B = ExchangeMatrix(MARKOV)
    built = explore(B, 3)
    built.adjacency
    fan = explore(B, 3)
    unread = _copies(fan)
    assert all("adjacency" not in vars(f) for f in (fan, *unread))
    assert all(f == built for f in unread)
    edges = fan.adjacency
    assert fan.adjacency is edges and fan._edges is None
    assert fan == built
    read = _copies(fan)
    assert all(f._edges is None and f == built for f in read)


def test_seeds_at_the_depth_bound_never_build_b(monkeypatch):
    # every Tunnel child is a new cone, so the walk expands each seed
    # above the bound, and only an expansion reads B: 3 + 6 + ... + 48
    # seeds build their B, and the 96 at depth 6 build none
    calls = []

    def counted(B, k):
        calls.append(k)
        return mutate_matrix(B, k)

    monkeypatch.setattr(gfans.seeds, "mutate_matrix", counted)
    s0 = initial_seed(ExchangeMatrix(TUNNEL))
    bound = [child for child, *_ in walk(s0, lambda s: s.g, 6, {})
             if len(child.word) == 6]
    assert len(bound) == 96 and len(calls) == 93
    assert not any("b" in vars(s) for s in bound)
    calls.clear()
    fan = explore(ExchangeMatrix(TUNNEL), 6)
    assert len(fan.cones) == 190 and len(calls) == 93
