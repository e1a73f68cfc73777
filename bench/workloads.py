"""The four workloads: which inputs each runs, through which stages, and
how each output is checked.

Every workload runs the same pipeline of stages, so every end-to-end
metric is defined on every workload; the inputs decide which layer
dominates.  A stage is a list of operations.  An operation is one
`gfans` CLI call made in-process through gfans.cli.main, or one library
call where the package has no CLI (route search, containment,
disjointness).  Each operation has a check built from the references in
reference.py, never from the code under test.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import gfans.explorer
import gfans.rank2
import gfans.rank3
from gfans import ExchangeMatrix

import corpus
import reference as ref

STAGES = ("classify", "explore", "render", "verify", "route", "contain",
          "disjoint")
VERIFY_CHECKS = ("det_c", "det_g", "sign_coherence", "duality", "d_pairing")


class Wrong(Exception):
    """An operation completed but its output disagrees with the reference."""


class Stage(NamedTuple):
    reps: int  # times each op runs per pass
    ops: list
    every: int = 1  # runs on every k-th pass of an end-to-end run only


@dataclass
class Op:
    stage: str
    label: str
    argv: list = field(default_factory=list)  # CLI operation
    output: Path | None = None  # file the CLI call writes
    call: Callable | None = None  # library operation: call(prepared)
    prepare: Callable | None = None  # untimed, once, before the first call
    check: Callable | None = None  # (outcome, ctx) -> work done; raises Wrong
    expect_exit: int = 0
    locked: bool = False  # output is under the byte-identity lock
    # exception type -> whether a failure of that type is a known defect
    known_defect: Callable | None = None


@dataclass
class Context:
    workload: str
    seed: int
    smoke: bool
    workdir: Path
    fans: dict = field(default_factory=dict)  # explore label -> Fan
    builders: dict = field(default_factory=dict)  # label -> builds a Fan
    sizes: dict = field(default_factory=dict)  # label -> size record
    inputs: dict = field(default_factory=dict)  # name -> (matrix, why)

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")

    def matrix_file(self, name: str) -> Path:
        return self.workdir / f"{name}.json"

    def fan(self, label: str):
        """A fan an earlier stage wrote, or a library fan built now."""
        if label not in self.fans:
            self.builders[label]()
        return self.fans[label]


@dataclass
class Outcome:
    exit_code: int | None
    error: str | None  # exception type escaping the call
    message: str
    stdout: str
    stderr: str
    data: bytes | None  # output file contents, or None
    result: object = None  # library result
    handled: str | None = None  # exception type the CLI made an exit code


# -- CLI operations ----------------------------------------------------------

def classify_op(ctx, name, planted=None, expect_exit=0):
    out = ctx.workdir / f"{name}.classify.json"
    m = ctx.inputs[name][0]

    def check(o, ctx):
        if o.exit_code == 2 and expect_exit == 2:
            return _check_rejection(m, o)
        doc = json.loads(o.data)
        triplet = tuple(doc["triplet"])
        if m in ref.FAN_TYPES and (triplet, doc["case"]) != ref.FAN_TYPES[m]:
            raise Wrong(f"fan type {triplet} {doc['case']}")
        if doc["case"] != ref.case_label(m, triplet):
            raise Wrong(f"case {doc['case']} for triplet {triplet}")
        want_c = ref.markov_constant(m) if ref.is_cyclic(m) else None
        if doc["markov_constant"] != want_c:
            raise Wrong(f"Markov constant {doc['markov_constant']} != {want_c}")
        if doc["cluster_cyclic"] != ref.cluster_cyclic(m):
            raise Wrong("cluster-cyclic verdict")
        for v in doc["vertices"]:
            if v["band_index"] is None:
                continue
            if not ref.band_holds(*v["c0_d0"], *v["pair_ab"], v["type"],
                                  v["band_index"], v["boundary_equality"]):
                raise Wrong(f"band {v['band_index']} fails its inequality "
                            f"at v{v['vertex']}")
        if planted is not None:
            v3 = doc["vertices"][2]
            got = (v3["type"], v3["band_index"], v3["c0_d0"], v3["pair_ab"],
                   v3["boundary_equality"])
            want = (planted["tag"], planted["band"], planted["c0_d0"],
                    planted["pair_ab"], planted["boundary"])
            if got != want:
                raise Wrong(f"v3 is {got}, planted {want}")
        rank = ctx.sizes.setdefault("classify", {"max_band_index": 0})
        bands = [v["band_index"] or 0 for v in doc["vertices"]]
        rank["max_band_index"] = max([rank["max_band_index"]] + bands)
        return 1

    return Op("classify", f"classify:{name}",
              ["classify", str(ctx.matrix_file(name)), "--format", "json",
               "--out", str(out)],
              output=out, check=check, expect_exit=expect_exit,
              known_defect=lambda error: band_search_defect(m, error))


# Known defects of the package as it stood when the benchmark was
# defined.  A call failing this way is counted as failed and leaves the
# run correct; any other failure makes the run incorrect.

def band_search_defect(m, error) -> bool:
    """find_band_index searches bands below 10 * bit length, which cannot
    reach the bands of an ab = 4 pair: they close in linearly, so band N
    needs entries of only about log2(N) bits.  The search escapes the CLI
    as InternalBandSearchFailure (exit 1)."""
    return error == "InternalBandSearchFailure" and ref.has_affine_pair(m)


def render_defect(ctx, source, error) -> bool:
    """render squares floats of the entries: past 512 bits that gives
    ValueError 'cannot project the zero vector' (exit 2), and past 1,024
    bits float() itself raises OverflowError."""
    bits = ctx.sizes.get(source, {}).get("max_entry_bits", 0)
    return error in ("ValueError", "OverflowError") and bits > 512


def _check_rejection(m, o):
    """A matrix outside the classifier's domain must be refused as an
    input error (exit 2) with the precondition it violates."""
    want = "rank 3" if len(m) != 3 else "totally-infinite"
    if want not in o.stderr:
        raise Wrong(f"rejection without '{want}': {o.stderr.strip()}")
    return 1


def explore_op(ctx, name, depth):
    out = ctx.workdir / f"{name}-d{depth}.fan.json"
    m = ctx.inputs[name][0]
    label = f"explore:{name}:d{depth}"

    def check(o, ctx):
        doc = json.loads(o.data)
        fan = gfans.explorer.load_fan(doc)
        again = gfans.explorer.save_fan(fan)
        if gfans.explorer.load_fan(again) != fan:
            raise Wrong("load_fan(save_fan(f)) != f")
        if json.dumps(again).encode() != o.data:
            raise Wrong("re-saved document differs from the written one")
        keys = {json.dumps(c["key"]) for c in doc["cones"]}
        if len(keys) != len(doc["cones"]):
            raise Wrong("duplicate cones in document")
        want = ref.expected_cones(m, depth)
        if want is not None and len(keys) != want:
            raise Wrong(f"{len(keys)} cones, expected {want}")
        ctx.fans[label] = fan
        ctx.sizes[label] = {"cones": len(keys),
                            "max_entry_bits": _max_bits(fan),
                            "doc_bytes": len(o.data)}
        return len(keys)

    return Op("explore", label,
              ["explore", str(ctx.matrix_file(name)), "--depth", str(depth),
               "--out", str(out)],
              output=out, check=check, locked=True)


def render_op(ctx, name, depth):
    fan_file = ctx.workdir / f"{name}-d{depth}.fan.json"
    out = ctx.workdir / f"{name}-d{depth}.svg"
    source = f"explore:{name}:d{depth}"

    def check(o, ctx):
        root = ET.fromstring(o.data)
        paths = [p for p in root.iter("{http://www.w3.org/2000/svg}path")
                 if p.get("class") == "cone"]
        cones = len(ctx.fans[source].cones)
        if not 1 <= len(paths) <= cones:
            raise Wrong(f"{len(paths)} cone paths for {cones} cones")
        ctx.sizes[f"render:{name}:d{depth}"] = {"cone_paths": len(paths),
                                                "svg_bytes": len(o.data)}
        return len(paths)

    return Op("render", f"render:{name}:d{depth}",
              ["render", str(fan_file), "--out", str(out)],
              output=out, check=check, locked=True,
              known_defect=lambda error: render_defect(ctx, source, error))


def verify_op(ctx, name, depth):
    m = ctx.inputs[name][0]

    def check(o, ctx):
        lines = o.stdout.splitlines()
        for c in VERIFY_CHECKS:
            if f"{c}: ok" not in lines:
                raise Wrong(f"check {c} not ok")
        want = ref.words_count(len(m), depth)
        if f"verified {want} seeds to depth {depth}" not in lines:
            raise Wrong(f"seed count is not {want}")
        return want

    return Op("verify", f"verify:{name}:d{depth}",
              ["verify", str(ctx.matrix_file(name)), "--depth", str(depth),
               "--seed", str(ctx.seed)],
              check=check)


# -- library operations ------------------------------------------------------

def route_op(ctx, name, depth):
    """explore + find_negative_orthant.  References: the paper's tunnel
    word; no route for cluster-cyclic matrices (Markov); for the other
    (mutation-acyclic) inputs the word must have length n, the minimum,
    and reach -I under the benchmark's own mutation rule; the cone counts
    of reference.expected_cones (Markov, finite types, rank 2)."""
    m = ctx.inputs[name][0]

    label = f"route:{name}:d{depth}"

    def call(_):
        fan = gfans.explorer.explore(ExchangeMatrix(m), depth)
        return gfans.explorer.find_negative_orthant(fan), fan

    def check(o, ctx):
        word, fan = o.result
        if m == ref.TUNNEL:
            ok = word == ref.TUNNEL_ROUTE
        elif ref.cluster_cyclic(m):
            ok = word is None
        else:
            ok = word is not None and len(word) == len(m) \
                and ref.reaches_negative_orthant(m, word)
        if not ok:
            raise Wrong(f"route {word}")
        want = ref.expected_cones(m, depth)
        if want is not None and len(fan.cones) != want:
            raise Wrong(f"{len(fan.cones)} cones, expected {want}")
        if label not in ctx.sizes:
            ctx.sizes[label] = {"cones": len(fan.cones),
                                "max_entry_bits": _max_bits(fan)}
        return 1

    return Op("route", label, call=call, check=check)


def _max_bits(fan) -> int:
    return max(abs(x).bit_length() for c in fan.cones.values()
               for vec in c.rays + c.normals for x in vec)


def _bits(cone) -> int:
    return sum(abs(x).bit_length() for vec in cone.rays + cone.normals
               for x in vec)


def _stratified(rng, items, k, size):
    """k items, one drawn from each of k equal strata of the items ordered
    by size (repeating items when k exceeds their number).  The cost of a
    geometry call grows with the bit length of its cones, so a sample
    drawn this way costs about the same whatever the seed."""
    items = sorted(items, key=lambda item: (size(item), item))
    n = len(items)
    picks = []
    for i in range(k):
        lo = n * i // k
        picks.append(items[rng.randrange(lo, max(lo + 1, n * (i + 1) // k))])
    return picks


def _cone_sample(ctx, label, k):
    fan = ctx.fan(label)
    keys = _stratified(ctx.rng(label), fan.cones, min(k, len(fan.cones)),
                       lambda key: _bits(fan.cones[key]))
    return [fan.cones[key] for key in keys]


def limit_ray_op(ctx, name, source, k):
    """cone_contains of the exact limit rays of every vertex against k
    sampled cones (k=None: every cone).  Reference: no limit ray lies in
    the interior of an explored cone."""
    m = ctx.inputs[name][0]

    def prepare():
        B = ExchangeMatrix(m)
        if len(m) == 2:
            a, b = m[1][0], -m[0][1]
            rays = list(gfans.rank2.limit_vectors(a, b))
        else:
            rays = [r for i in (1, 2, 3) for r in gfans.rank3.limit_rays(B, i)]
        cones = _cone_sample(ctx, source, k or len(ctx.fan(source).cones))
        _control(cones[0])
        return [(c, r) for c in cones for r in rays]

    def call(pairs):
        contains = gfans.explorer.cone_contains
        return [contains(c, r) for c, r in pairs]

    def check(o, ctx):
        if any(o.result):
            raise Wrong("a limit ray lies in the interior of a cone")
        return len(o.result)

    return Op("contain", f"contain:{name}:limits", call=call,
              prepare=prepare, check=check)


def random_ray_op(ctx, source, n_rays):
    """cone_contains of seeded integer rays against every cone of a
    complete finite-type fan.  Reference: each ray lies in the closure of
    at least one cone and in the interior of at most one."""
    def prepare():
        fan = ctx.fan(source)
        n = fan.source.n
        rng = ctx.rng(source + ":rays")
        rays = []
        while len(rays) < n_rays:
            r = tuple(rng.randint(-50, 50) for _ in range(n))
            if any(r):
                rays.append(r)
        cones = [fan.cones[k] for k in sorted(fan.cones)]
        _control(cones[0])
        return [(c, r) for r in rays for c in cones], len(cones)

    def call(prepared):
        pairs, _ = prepared
        contains = gfans.explorer.cone_contains
        return [(contains(c, r, "interior"), contains(c, r, "closure"))
                for c, r in pairs], prepared[1]

    def check(o, ctx):
        flags, per_ray = o.result
        for i in range(0, len(flags), per_ray):
            chunk = flags[i:i + per_ray]
            if sum(f[0] for f in chunk) > 1 or not any(f[1] for f in chunk):
                raise Wrong("a ray is not covered exactly once")
        return 2 * len(flags)

    return Op("contain", f"contain:{source}:rays", call=call,
              prepare=prepare, check=check)


def _control(cone):
    """Positive control for containment: the sum of a cone's rays is
    interior to it."""
    total = tuple(sum(col) for col in zip(*cone.rays))
    if not gfans.explorer.cone_contains(cone, total, "interior"):
        raise Wrong("control: ray sum not interior to its own cone")


def disjoint_op(ctx, source, n_pairs):
    """interiors_disjoint on a seeded sample of adjacent and non-adjacent
    cone pairs.  Reference: distinct cones of a fan have disjoint
    interiors; a cone is not disjoint from itself (control)."""
    def prepare():
        fan = ctx.fan(source)
        rng = ctx.rng(source + ":pairs")
        size = {key: _bits(c) for key, c in fan.cones.items()}
        edges = [tuple(sorted(e)) for e in fan.adjacency]
        adjacent = _stratified(rng, edges, min(n_pairs // 2, len(edges)),
                               lambda e: size[e[0]] + size[e[1]])
        # Non-adjacent pairs: the i-th smallest of one stratified sample
        # with the i-th largest of another, each moved to the next cone in
        # size order while the two coincide or are adjacent.
        m = n_pairs - len(adjacent)
        order = sorted(fan.cones, key=lambda key: (size[key], key))
        firsts = _stratified(rng, order, m, size.get)
        seconds = _stratified(rng, order, m, size.get)[::-1]
        others = []
        for a, b in zip(firsts, seconds):
            j = order.index(b)
            for _ in order:
                if b != a and frozenset((a, b)) not in fan.adjacency:
                    others.append((a, b))
                    break
                j = (j + 1) % len(order)
                b = order[j]
        cone = fan.cones[order[0]]
        if gfans.explorer.interiors_disjoint(cone, cone):
            raise Wrong("control: a cone is disjoint from itself")
        return [(fan.cones[a], fan.cones[b]) for a, b in adjacent + others]

    def call(pairs):
        disjoint = gfans.explorer.interiors_disjoint
        return [disjoint(a, b) for a, b in pairs]

    def check(o, ctx):
        if not all(o.result):
            raise Wrong("two cones of one fan overlap")
        return len(o.result)

    return Op("disjoint", f"disjoint:{source}", call=call, prepare=prepare,
              check=check)


def library_fan(ctx, name, depth):
    """Label of a library explore of a corpus matrix, built on first use
    outside the timed region; the containment and disjointness stages
    then use its cones."""
    label = f"library:{name}:d{depth}"

    def build():
        fan = gfans.explorer.explore(ExchangeMatrix(ctx.inputs[name][0]),
                                     depth)
        ctx.fans[label] = fan
        ctx.sizes[label] = {"cones": len(fan.cones),
                            "max_entry_bits": _max_bits(fan)}

    ctx.builders[label] = build
    return label


# -- the workloads -----------------------------------------------------------

WORKLOADS = {}


def workload(fn):
    WORKLOADS[fn.__name__.replace("_", "-")] = fn
    return fn


def _pick(full, smoke, ctx):
    return smoke if ctx.smoke else full


@workload
def tunnel_deep(ctx):
    """Every mutation yields a new cone (the control for finite-revisit:
    explorer deduplication saves nothing here), and entries reach
    thousands of bits, so mutation, persistence and rendering scale with
    cone count and big-integer arithmetic.  Depth 7 (377-bit entries) renders,
    so the render rate also covers working renders; depth 8 (618 bits)
    passes 512 bits, where rendering fails today and the failure is
    counted."""
    ctx.inputs["tunnel"] = (ref.TUNNEL, "entries reach 6,978 bits at depth 13")
    depths = _pick((7, 8), (3, 8), ctx)
    deep = f"explore:tunnel:d{depths[-1]}"
    # The depth-13 route search takes longer than five passes of all the
    # other stages, so it runs on every sixth pass only: the other calls
    # are then sampled about as often as in the other workloads, and the
    # route search two to three times a run.
    return {
        "classify": (_pick(20, 1, ctx), [classify_op(ctx, "tunnel")]),
        "explore": (1, [explore_op(ctx, "tunnel", d) for d in depths]),
        "render": (1, [render_op(ctx, "tunnel", d) for d in depths]),
        "verify": (1, [verify_op(ctx, "tunnel", _pick(7, 3, ctx))]),
        "route": (1, [route_op(ctx, "tunnel", 13)], 6),
        "contain": (1, [limit_ray_op(ctx, "tunnel", deep,
                                     _pick(40, 4, ctx))]),
        "disjoint": (1, [disjoint_op(ctx, deep, _pick(60, 6, ctx))]),
    }


@workload
def finite_revisit(ctx):
    """Nearly every mutation revisits a known cone (A3: 14 cones from
    6,141 mutations at depth 11), so the explorer's expansion policy
    dominates while rendering and persistence cost almost nothing."""
    ctx.inputs.update({
        "a3": (ref.A3, "finite type A3, 14 cones"),
        "affine-a2": (ref.AFFINE_A2, "affine type, cones grow linearly"),
        "b2xa1": (ref.B2_A1, "finite type B2 x A1, 12 cones, D != I"),
        "rank2-a2": (ref.RANK2_A2, "finite rank 2, 5 cones"),
        "rank2-affine": (ref.RANK2_AFFINE,
                         "affine rank 2 (ab = 4), a line of cones"),
    })
    d = _pick(11, 6, ctx)
    names = list(ctx.inputs)
    rank3 = ["a3", "affine-a2", "b2xa1"]
    complete = ["a3", "b2xa1", "rank2-a2"]
    return {
        # Classification is defined for totally-infinite rank 3 only; the
        # reference outcome here is the documented input error (exit 2).
        "classify": (_pick(10, 1, ctx),
                     [classify_op(ctx, n, expect_exit=2) for n in names]),
        "explore": (1, [explore_op(ctx, n, d) for n in names]),
        "render": (1, [render_op(ctx, n, d) for n in rank3]),
        "verify": (1, [verify_op(ctx, n, _pick(8, 3, ctx)) for n in names]),
        "route": (1, [route_op(ctx, n, _pick(10, 3, ctx)) for n in names]),
        "contain": (1, [random_ray_op(ctx, f"explore:{n}:d{d}",
                                      _pick(40, 5, ctx)) for n in complete]
                    + [limit_ray_op(ctx, "rank2-affine",
                                    f"explore:rank2-affine:d{d}", None)]),
        "disjoint": (1, [disjoint_op(ctx, f"explore:{n}:d{d}",
                                     _pick(30, 6, ctx)) for n in rank3]),
    }


@workload
def classify_sweep(ctx):
    """The only workload that reaches rank3, rank2, chebyshev and
    quadratic in bulk: band search is O(N^2) in the band index N and
    quadratic-ray containment costs about 0.4 ms a call."""
    entries = corpus.build(ctx.seed, n_random=_pick(24, 2, ctx),
                           smoke=ctx.smoke)
    planted = {}
    for name, m, plant, why in entries:
        ctx.inputs[name] = (m, why)
        planted[name] = plant
    ctx.sizes["corpus"] = {"matrices": len(entries),
                           "planted": sum(p is not None for p in planted.values())}
    # Containment runs on a seeded subset of the random part, whose small
    # entries keep its cost about the same from seed to seed; the CLI
    # pipeline runs on two named fixtures explored nowhere else, which do
    # not depend on the seed, so their bytes are under the lock.
    randoms = [n for n in planted if n.startswith("random-")]
    subset = ctx.rng("subset").sample(randoms, _pick(4, 1, ctx))
    d = _pick(8, 3, ctx)
    drawn = ("pinwheel", "c5")
    fans = [library_fan(ctx, n, _pick(4, 3, ctx)) for n in subset]
    return {
        "classify": (1, [classify_op(ctx, n, planted[n]) for n in planted]),
        "explore": (1, [explore_op(ctx, n, d) for n in drawn]),
        "render": (1, [render_op(ctx, n, d) for n in drawn]),
        "verify": (1, [verify_op(ctx, n, _pick(6, 2, ctx)) for n in drawn]),
        "route": (1, [route_op(ctx, n, d) for n in ("markov", "wing")]),
        "contain": (1, [limit_ray_op(ctx, n, f, None)
                        for n, f in zip(subset, fans)]),
        "disjoint": (1, [disjoint_op(ctx, f, _pick(16, 6, ctx))
                         for f in fans]),
    }


def write_inputs(ctx):
    for name, (m, _) in ctx.inputs.items():
        ctx.matrix_file(name).write_text(
            json.dumps({"n": len(m), "b": [list(r) for r in m]}))
