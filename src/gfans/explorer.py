"""Depth-bounded breadth-first construction of G-fans.

`seeds.walk` walks the mutation tree keyed by G-cone, the sorted ray set,
and states which seeds it expands.  The stored witness of a cone is the
first word found, a shortest one.  Exploration is capped by depth and
cone count because the fans of infinite type grow without bound.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .exchange import ExchangeMatrix, int_rows, json_value
from .quadratic import QuadraticRay, root_sign
from .seeds import (
    GCone,
    _new_cone,
    collector_paused,
    cone_key,
    d_paired,
    g_cone,
    initial_seed,
    walk,
)

Key = tuple[tuple[int, ...], ...]


class ResourceCapExceeded(RuntimeError):
    """The cone-count cap was hit before the depth bound."""


@dataclass
class Fan:
    """The cones an exploration met, keyed by G-cone, with the first word
    that reached each and the adjacency: the pairs of distinct cones that
    one mutation joins, as frozensets of two keys.

    A fan from `explore` builds its adjacency on first read, from a flat
    list of (parent key, key) pairs, and then drops the list, so a caller
    that reads only cones and words, such as a route search, never pays
    for the edge set.  Equality and `repr` read it, and copies and
    pickles carry the list, so all four match those of a fan built with
    its adjacency."""

    source: ExchangeMatrix
    depth: int
    cones: dict[Key, GCone]
    words: dict[Key, tuple[int, ...]]
    adjacency: set[frozenset] = field(default_factory=set)

    _edges = None  # parent key, key, ... until adjacency is first read

    @property
    def frontier(self) -> set[Key]:
        """Keys whose witness seed sits at the depth bound, so its
        neighbors were never expanded."""
        return {k for k, w in self.words.items() if len(w) == self.depth}


def _edge_set(fan: Fan) -> set[frozenset]:
    """The adjacency of an explored fan from its flat list of (parent key,
    key) pairs; drops the list."""
    pairs = iter(fan._edges)
    fan._edges = None
    return {frozenset(edge) for edge in zip(pairs, pairs)}


Fan.adjacency = cached_property(_edge_set)  # after @dataclass, as Seed.b
Fan.adjacency.__set_name__(Fan, "adjacency")


def explore(B: ExchangeMatrix, depth: int,
            max_cones: int = 100_000) -> Fan:
    """BFS to depth `depth` from the initial seed, expanding each cone
    once from its first witness seed.

    `depth` and `max_cones` must be ints (not bools).  The walk's table of
    first words is the fan's `words`, and the fan builds its adjacency on
    first read (see `Fan`).  The walk runs with the cyclic garbage
    collector paused (`seeds.collector_paused`), since nothing it
    allocates is cyclic.  The pause is process-wide: cyclic garbage that
    other threads make meanwhile waits until `explore` returns or
    raises."""
    if type(depth) is not int:
        raise ValueError("depth must be an int")
    if type(max_cones) is not int:
        raise ValueError("max_cones must be an int")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if max_cones < 1:
        raise ValueError("max_cones must be >= 1")
    s0 = initial_seed(B)
    cones = {cone_key(s0.g): g_cone(s0)}
    fan = Fan(B, depth, cones, {})
    del fan.adjacency  # built from fan._edges on first read
    fan._edges = edges = []
    with collector_paused():
        steps = walk(s0, lambda s: cone_key(s.g), depth, fan.words)
        for child, key, parent_key, new in steps:
            # only g_k changes and det G flips sign, so key != parent_key
            edges.append(parent_key)
            edges.append(key)
            if new:
                if len(cones) >= max_cones:
                    raise ResourceCapExceeded(
                        f"cone cap {max_cones} reached at depth "
                        f"{len(child.word)}"
                    )
                cones[key] = g_cone(child)
    return fan


def find_negative_orthant(fan: Fan):
    """Shortest stored word whose G-cone is the negative orthant, or None."""
    n = fan.source.n
    target = cone_key(
        tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
    )
    return fan.words.get(target)


def cone_contains(cone: GCone, ray, strictness: str = "interior") -> bool:
    """Exact membership test of a ray in a simplicial unimodular cone.

    By tropical duality <c_i, D g_j> = d_i delta_ij, the i-th barycentric
    coordinate of the ray is <D c_i, ray> / d_i with d_i > 0, so its sign
    is that of the pairing with the facet normal D c_i.  A ray of ints and
    Fractions takes one dot product per facet.  A `QuadraticRay` is
    (P + Q sqrt(delta)) / den with integer P, Q and den > 0, so each of its
    pairings is two integer dot products and one `root_sign`.  The ray must
    have one coordinate per row of the cone's matrix.

    The facets are tried in order and the first pairing of the wrong sign
    decides.  At rank 3 the ray (or P and Q) is unpacked once and each
    pairing is written out as a*x + b*y + c*z; any other rank takes
    `sum(map(mul, ...))`.  Both give the same answer on every input.
    """
    n = len(cone.symmetrizer)
    if len(ray) != n:
        raise ValueError(f"ray of rank {len(ray)} for a cone of rank {n}")
    least = _least(strictness)
    facets = cone.facets
    if isinstance(ray, QuadraticRay):
        delta = ray.delta
        if n == 3:
            p1, p2, p3 = ray.p
            q1, q2, q3 = ray.q
            for a, b, c in facets:
                if root_sign(a * p1 + b * p2 + c * p3,
                             a * q1 + b * q2 + c * q3, delta) < least:
                    return False
            return True
        p, q = ray.p, ray.q
        for row in facets:
            if root_sign(sum(map(mul, row, p)), sum(map(mul, row, q)),
                         delta) < least:
                return False
        return True
    # compare the sign of s with least, not s itself: a Fraction pairing
    # can lie strictly between 0 and 1
    if n == 3:
        x, y, z = ray
        for a, b, c in facets:
            s = a * x + b * y + c * z
            if (s > 0) - (s < 0) < least:
                return False
        return True
    for row in facets:
        s = sum(map(mul, row, ray))
        if (s > 0) - (s < 0) < least:
            return False
    return True


def _least(strictness: str) -> int:
    """Smallest sign a pairing may have: 1 for the interior, 0 for the
    closure."""
    if strictness == "interior":
        return 1
    if strictness == "closure":
        return 0
    raise ValueError("strictness must be 'interior' or 'closure'")


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _none_positive(n, rays) -> bool:
    """<n, g> <= 0 for every ray g, all of rank 3; stops at the first
    positive pairing."""
    x, y, z = n
    for g0, g1, g2 in rays:
        if x * g0 + y * g1 + z * g2 > 0:
            return False
    return True


def interiors_disjoint(a: GCone, b: GCone) -> bool:
    """Exact test that two full rank-3 simplicial cones have disjoint
    interiors, by a separating plane.

    The interiors are disjoint iff some n != 0 has <n, g> >= 0 on every
    ray g of a and <n, g> <= 0 on every ray g of b (if so, n is positive
    on a's interior and negative on b's).  These n form a polyhedral
    cone, pointed because a's rays span R^3, so if it is not {0} it has
    an extreme ray, orthogonal to two independent rays among the six.
    By duality <c_i, D g_j> = d_i delta_ij, that ray is one of:

    - a facet normal D c_i of a, which pairs positively with a's ray g_i,
      so only b's rays need checking;
    - minus a facet normal of b, so only a's rays need checking;
    - u x v for a ray u of a and a ray v of b, when u x v != 0; v x u is
      never needed.  An extreme ray orthogonal to two rays of one cone is
      a facet-normal candidate.  If none is, the cone of separating n is
      full-dimensional (else its implicit equations name two rays of one
      cone or a ray shared by a and b, and either way each extreme ray is
      orthogonal to two rays of one cone), so its facets, on the planes
      <n, g> = 0, alternate between rays u of a and v of b; going round
      it, its extreme rays alternate between u x (-v) = -(u x v) and
      (-v') x u' = u' x v'.

    The 15 candidates are tried in that order, and the first that
    separates decides; the interiors meet only if none does.  Each
    candidate is checked by `_none_positive`, in straight-line integer
    arithmetic, up to the first ray on its wrong side.  Two cones that
    share a facet are decided by the first kind, without a cross product.
    """
    if len(a.rays) != 3 or len(b.rays) != 3:
        raise ValueError("interiors_disjoint needs two rank-3 cones")
    ra, rb = a.rays, b.rays
    for n in a.facets:
        if _none_positive(n, rb):
            return True
    for n in b.facets:
        if _none_positive(n, ra):
            return True
    for u in ra:
        for v in rb:
            n = x, y, z = _cross(u, v)
            if (x or y or z) and _none_positive(n, rb) \
                    and _none_positive((-x, -y, -z), ra):
                return True
    return False


# -- persistence -------------------------------------------------------------

_FORMAT = 1


def save_fan(fan: Fan) -> dict:
    """The fan document as a dict of JSON values: the format, the source
    matrix, the depth, the cones sorted by key and the adjacency edges,
    each a sorted pair of keys, sorted.  `write_fan` does not build it; it
    writes exactly its `json.dumps` straight from the fan, and the tests
    hold the two to the same bytes."""
    cones = []
    for key, cone in sorted(fan.cones.items()):
        cones.append({
            "key": [list(r) for r in key],
            "g": [list(r) for r in cone.rays],
            "c": [list(r) for r in cone.normals],
            "word": list(fan.words[key]),
        })
    adjacency = sorted(
        [[[list(r) for r in k] for k in sorted(edge)]
         for edge in fan.adjacency]
    )
    return {
        "format": _FORMAT,
        "source": fan.source.to_json(),
        "depth": fan.depth,
        "cones": cones,
        "adjacency": adjacency,
    }


def load_fan(doc: dict) -> Fan:
    """Decode a fan document, rejecting one whose cones are not D-dual,
    whose keys repeat or do not match their rays, whose words are not
    mutation words of length at most its depth, or whose adjacency edges
    do not join two distinct cones that it has.  The edges hold the cone
    table's own key objects."""
    if json_value(doc, dict, "fan document").get("format") != _FORMAT:
        raise ValueError(f"unsupported fan document format {doc.get('format')}")
    source = ExchangeMatrix.from_json(doc["source"])
    depth = json_value(doc["depth"], int, "fan depth")
    if depth < 0:
        raise ValueError(f"fan depth {depth} is negative")
    n, d = source.n, source.symmetrizer
    cones: dict[Key, GCone] = {}
    words: dict[Key, tuple[int, ...]] = {}
    own: dict[Key, Key] = {}  # each cone key -> itself
    for entry in json_value(doc["cones"], list, "cones"):
        json_value(entry, dict, "cone")
        rays = int_rows(entry["g"], "cone g")
        normals = int_rows(entry["c"], "cone c")
        if not d_paired(normals, rays, d):
            raise ValueError(
                f"c-vectors not dual to the g-vectors in document: {rays}")
        key = cone_key(rays)
        if int_rows(entry["key"], "cone key") != key:
            raise ValueError("cone key does not match its rays")
        if key in cones:
            raise ValueError(f"duplicate cone key {[list(r) for r in key]}")
        word = int_rows([entry["word"]], "cone word")[0]
        if len(word) > depth or not all(1 <= k <= n for k in word):
            raise ValueError(f"cone word {list(word)} is not a word in "
                             f"1..{n} of length at most {depth}")
        cones[key] = _new_cone(rays, normals, d)
        words[key] = word
        own[key] = key
    adjacency = set()
    for edge in json_value(doc["adjacency"], list, "adjacency"):
        if len(json_value(edge, list, "adjacency edge")) != 2:
            raise ValueError("adjacency edge must name exactly two keys")
        # int_rows refuses 1.0 or true for 1, which hash and compare equal
        # to it, so a lookup alone would take them; a key the cone table
        # has is then replaced by the table's own key object
        a, b = edge
        a = int_rows(a, "adjacency key")
        b = int_rows(b, "adjacency key")
        edge = frozenset((own.get(a, a), own.get(b, b)))
        if len(edge) != 2:
            raise ValueError("adjacency edge joins a cone to itself")
        if not edge <= cones.keys():
            raise ValueError("adjacency edge names a key that no cone has")
        adjacency.add(edge)
    return Fan(source, depth, cones, words, adjacency)


def _vector_text(v) -> str:
    """JSON text of a vector of ints, as `json.dumps(list(v))` has it: the
    repr of a list of ints is that text."""
    return repr([*v])


def _fan_writer(fan: Fan):
    """`write(fh)` for the document of `fan`, with every vector of the fan
    already turned into text.

    Each distinct vector is encoded once, into a table local to the call,
    and each cone's key text is joined once from it and reused for the
    cone and for every edge that names the key.  The edges are sorted as
    pairs of key ranks, which orders them as their keys would.  All of
    this happens here, before anything is written, so an entry past
    `sys.get_int_max_str_digits()` raises ValueError while the target is
    still untouched.  Every edge must join two cones of the fan, as in
    the fans of `explore` and `load_fan`."""
    cones = fan.cones
    order = sorted(cones)
    texts = {}  # each distinct vector -> its JSON text
    keys = []  # the key texts, in key order
    try:
        for key in order:
            cone = cones[key]
            for v in cone.rays + cone.normals:
                if v not in texts:
                    texts[v] = _vector_text(v)
            keys.append(f"[{', '.join([texts[v] for v in key])}]")
        head = json.dumps({"format": _FORMAT, "source": fan.source.to_json(),
                           "depth": fan.depth})[:-1]
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(
            f"depth {fan.depth} is too deep to write its fan document (an "
            f"entry has more than {sys.get_int_max_str_digits()} digits)"
        ) from None
    rank = {key: i for i, key in enumerate(order)}
    edges = []
    for a, b in fan.adjacency:
        i, j = rank[a], rank[b]
        edges.append((i, j) if i < j else (j, i))
    edges.sort()

    def write(fh):
        fh.write(f'{head}, "cones": [')
        sep = ""
        for key, key_text in zip(order, keys):
            cone = cones[key]
            g = ", ".join([texts[v] for v in cone.rays])
            c = ", ".join([texts[v] for v in cone.normals])
            word = _vector_text(fan.words[key])
            fh.write(f'{sep}{{"key": {key_text}, "g": [{g}], "c": [{c}], '
                     f'"word": {word}}}')
            sep = ", "
        fh.write('], "adjacency": [')
        sep = ""
        for i, j in edges:
            fh.write(f"{sep}[{keys[i]}, {keys[j]}]")
            sep = ", "
        fh.write("]}")

    return write


def write_fan(fan: Fan, fh):
    """Write exactly `json.dumps(save_fan(fan))` to the text file fh.

    The document is written from the fan itself, not from `save_fan`'s
    dict: the head, then one cone or edge at a time, with the text of
    each distinct vector made once and kept in a table local to the call
    (see `_fan_writer`).  Nothing is written unless every vector could
    be encoded."""
    _fan_writer(fan)(fh)


def save_fan_file(fan: Fan, path: str):
    """Write the document of `fan` to `path`.  The file is opened only
    after every vector has been encoded, so a fan that cannot be written
    leaves an existing file unchanged and creates no new one."""
    write = _fan_writer(fan)
    with open(path, "w") as fh:
        write(fh)


def load_fan_file(path: str) -> Fan:
    with open(path) as fh:
        return load_fan(json.load(fh))
