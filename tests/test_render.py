import hashlib
import itertools
import math
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gfans.render
from gfans import (
    ExchangeMatrix,
    NearAntipode,
    RenderOptions,
    arc_polyline,
    explore,
    load_fan,
    project_ray,
    render_svg,
    save_fan,
)
from gfans.render import _B1, _B2, _CLIP_COSINE, _P, _fmt, _to_pixels
from conftest import A3, B2_A1, C5, MARKOV, TUNNEL
from test_exchange import random_skew_symmetrizable

SVG_NS = "{http://www.w3.org/2000/svg}"


def cone_elements(fan, svg):
    """{cone key: [its path, then its labels]} from an SVG of `fan` in
    which no cone is clipped; cone paths come in sorted key order."""
    keys = iter(sorted(fan.cones))
    out = {}
    for e in ET.fromstring(svg):
        if e.get("class") == "cone":
            current = out[next(keys)] = [e]
        elif e.get("class") == "normal":
            current.append(e)
    assert len(out) == len(fan.cones)
    return out


def segment(ray_a, ray_b, opts):
    """The `M ... L ...` segment of the arc between two rays."""
    return "M " + " L ".join(arc_polyline(ray_a, ray_b, opts, {}))


def pixel_text(ray):
    """The `x y` pixel text of a ray's image, one point of a segment."""
    x, y = _to_pixels(project_ray(ray))
    return f"{_fmt(x)} {_fmt(y)}"


def test_projection_fixes_the_center():
    x, y = project_ray((1, 1, 1))
    assert abs(x) < 1e-12 and abs(y) < 1e-12


def test_projection_is_scale_invariant():
    assert project_ray((1, 2, 3)) == project_ray((10, 20, 30))


def test_projection_of_axes_is_symmetric():
    # the three elementary rays sit at equal distance from the center
    pts = [project_ray(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    dists = [math.hypot(*p) for p in pts]
    assert max(dists) - min(dists) < 1e-12


def test_antipode_clipping():
    with pytest.raises(NearAntipode):
        project_ray((-1, -1, -1))
    with pytest.raises(ValueError):
        project_ray((0, 0, 0))


def test_arc_polyline_endpoints_and_density():
    opts = RenderOptions(arc_resolution=1.0)
    ends = {}
    pts = arc_polyline((1, 0, 0), (0, 1, 0), opts, ends)
    assert pts[0] == pixel_text((1, 0, 0))
    assert pts[-1] == pixel_text((0, 1, 0))
    assert len(pts) >= 90  # a 90-degree arc at 1 degree per step
    # the endpoints are kept in the caller's table, one entry per ray
    assert set(ends) == {(1, 0, 0), (0, 1, 0)}
    coarse = arc_polyline((1, 0, 0), (0, 1, 0),
                          RenderOptions(arc_resolution=30.0), ends)
    assert len(coarse) < len(pts)
    assert (coarse[0], coarse[-1]) == (pts[0], pts[-1])
    assert arc_polyline((1, 1, 0), (2, 2, 0), opts, {}) == [
        pixel_text((1, 1, 0))
    ]


NEAR = (-1, -1, -1)  # the antipode of the projection center
ZERO = (2**600, 2**600, 1)  # past the float range: its unit vector is 0
NEAR_MESSAGE = ("ray (-0.5773502691896258, -0.5773502691896258, "
                "-0.5773502691896258) is within the clipped cap")
ZERO_MESSAGE = "cannot project the zero vector"


@pytest.mark.parametrize("ray_a, ray_b, error, message", [
    (NEAR, (1, 0, 0), NearAntipode, NEAR_MESSAGE),
    # at 30 degrees the last interior sample is outside the clipped cap,
    # so the end itself raises
    ((1, 0, 0), NEAR, NearAntipode, NEAR_MESSAGE),
    (ZERO, (1, 0, 0), ValueError, ZERO_MESSAGE),
    ((1, 0, 0), ZERO, ValueError, ZERO_MESSAGE),
    (NEAR, ZERO, NearAntipode, NEAR_MESSAGE),  # ray_a is sampled first
    (ZERO, NEAR, ValueError, ZERO_MESSAGE),
    (NEAR, NEAR, NearAntipode, NEAR_MESSAGE),  # a one-point arc
], ids=["near-a", "near-b", "zero-a", "zero-b", "near-zero", "zero-near",
        "near-near"])
def test_a_failing_end_raises_the_same_error_each_time(ray_a, ray_b, error,
                                                       message):
    # the messages were recorded when the table kept the errors; each
    # call that reaches a failing end projects it again
    opts = RenderOptions(arc_resolution=30.0)
    ends = {}
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            arc_polyline(ray_a, ray_b, opts, ends)
        assert type(info.value) is error
        assert str(info.value) == message
    assert set(ends) == {ray_a, ray_b}
    # the table keeps the unit vector and no text for a failing end, and
    # so holds no exception, nor through it a traceback or a frame
    for ray, (unit, text) in ends.items():
        assert len(unit) == 3 and all(type(x) is float for x in unit)
        assert text == (None if ray in (NEAR, ZERO) else pixel_text(ray))


def test_a_pixel_that_rounds_to_minus_zero_is_written_as_zero(monkeypatch):
    # the sampling loop formats both coordinates of a point at once; a
    # "-0.0000" must still come out as _fmt writes it
    opts = RenderOptions(arc_resolution=30.0)
    plane, images = gfans.render._plane, []

    def recording(x, y, z):
        images.append(plane(x, y, z))
        return images[-1]

    monkeypatch.setattr(gfans.render, "_plane", recording)
    arc_polyline((1, 0, 0), (0, 1, 0), opts, {})
    u, v = images[3]  # the second interior sample; ends come first
    monkeypatch.setattr(gfans.render, "_CX", -gfans.render._SCALE * u - 1e-9)
    monkeypatch.setattr(gfans.render, "_CY", gfans.render._SCALE * v - 1e-9)
    images.clear()
    texts = arc_polyline((1, 0, 0), (0, 1, 0), opts, {})
    assert texts[2] == "0.0000 0.0000"
    a, b, *interior = images
    assert texts == [f"{_fmt(x)} {_fmt(y)}"
                     for x, y in map(_to_pixels, [a, *interior, b])]


def test_render_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(arc_resolution=0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_arc_resolution_must_be_finite(x):
    # nan <= 0 is false, so a sign test alone lets NaN through
    with pytest.raises(ValueError, match="positive finite number"):
        RenderOptions(arc_resolution=x)


@pytest.fixture
def no_sampling(monkeypatch):
    """Make sampling an arc or a guide circle fail at once, so a test of a
    refused resolution cannot start the loop it guards against."""
    def refuse(*args):
        raise AssertionError("sampled at a refused resolution")

    monkeypatch.setattr(gfans.render, "arc_polyline", refuse)
    monkeypatch.setattr(gfans.render, "_guide_circle", refuse)


@pytest.mark.parametrize("x", [1e-9, 0.0099, 5e-324])
def test_a_resolution_finer_than_the_floor_is_refused(x, no_sampling):
    # 1e-9 degrees would be 360,000,000,000 samples per guide circle
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        RenderOptions(arc_resolution=x)
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == "arc_resolution must be at least 0.01 degrees"


def test_the_floor_resolution_is_drawn():
    # 0.01 degrees: 35,999 samples per guide circle, bounded work
    fan = explore(ExchangeMatrix(MARKOV), 0)
    opts = RenderOptions(arc_resolution=0.01)
    guide = ET.fromstring(render_svg(fan, opts)).find(SVG_NS + "path")
    assert guide.get("d").count(" L ") == int(360.0 / 0.01)


def test_svg_structure_matches_fan():
    fan = explore(ExchangeMatrix(MARKOV), 3)
    svg = render_svg(fan)
    root = ET.fromstring(svg)
    cones = [e for e in root.iter(SVG_NS + "path")
             if e.get("class") == "cone"]
    guides = [e for e in root.iter(SVG_NS + "path")
              if e.get("class") == "guide"]
    vertices = [e for e in root.iter(SVG_NS + "circle")
                if e.get("class") == "vertex"]
    assert len(cones) == len(fan.cones)
    assert len(guides) == 3
    assert len(vertices) == 3
    shaded = [e for e in cones if e.get("fill") != "none"]
    assert len(shaded) == len(fan.frontier)


def test_rendering_a_loaded_fan_builds_no_adjacency():
    # a render reads cones and words, so the document's edges stay a list
    fan = explore(ExchangeMatrix(MARKOV), 3)
    loaded = load_fan(save_fan(fan))
    assert render_svg(loaded) == render_svg(fan)
    assert "adjacency" not in vars(loaded)
    assert loaded.adjacency == fan.adjacency


def test_svg_byte_determinism():
    fan = explore(ExchangeMatrix(MARKOV), 4)
    assert render_svg(fan) == render_svg(explore(ExchangeMatrix(MARKOV), 4))


def test_shared_boundaries_sample_identically():
    fan = explore(ExchangeMatrix(MARKOV), 3)
    opts = RenderOptions()
    paths = {key: elements[0].get("d") for key, elements
             in cone_elements(fan, render_svg(fan, opts)).items()}
    checked = 0
    for edge in fan.adjacency:
        k1, k2 = tuple(edge)
        shared = sorted(set(fan.cones[k1].rays) & set(fan.cones[k2].rays))
        if len(shared) != 2:
            continue
        fragment = segment(shared[0], shared[1], opts)
        assert fragment in paths[k1]
        assert fragment in paths[k2]
        checked += 1
    assert checked > 0


def test_normal_labels_toggle():
    fan = explore(ExchangeMatrix(MARKOV), 1)
    plain = render_svg(fan)
    labeled = render_svg(fan, RenderOptions(label_normals=True))
    assert "<text" not in plain
    assert ET.fromstring(labeled) is not None
    texts = [e for e in ET.fromstring(labeled).iter(SVG_NS + "text")]
    assert texts and all(e.get("class") == "normal" for e in texts)


@pytest.mark.parametrize("b", [MARKOV, B2_A1, A3],
                         ids=["MARKOV", "B2_A1", "A3"])
def test_normal_labels_sit_on_their_facets(b):
    # c_i labels the facet normal to D c_i: the arc from g_{i+1} to g_{i+2}
    fan = explore(ExchangeMatrix(b), 4)
    opts = RenderOptions(label_normals=True)
    for key, (_, *labels) in cone_elements(fan, render_svg(fan, opts)).items():
        cone = fan.cones[key]
        assert len(labels) == 3
        for i, label in enumerate(labels):
            assert label.text == f"({','.join(map(str, cone.normals[i]))})"
            at = f"{label.get('x')} {label.get('y')}"
            on = []
            for pair in itertools.combinations(sorted(cone.rays), 2):
                arc = arc_polyline(*pair, opts, {})
                if arc[len(arc) // 2] == at:
                    on.append(pair)
            assert len(on) == 1
            for ray in on[0]:
                assert sum(f * g for f, g in zip(cone.facets[i], ray)) == 0


def test_rank2_fan_not_renderable():
    fan = explore(ExchangeMatrix(((0, -2), (3, 0))), 2)
    with pytest.raises(ValueError):
        render_svg(fan)


# -- byte identity ----------------------------------------------------------

# SHA-256 of the SVG that render_svg draws from the fan document
# `explore` writes, as `gfans render` reads it
GOLDEN_OPTIONS = {
    "default": RenderOptions(),
    "fine": RenderOptions(arc_resolution=0.7, shade_frontier=False),
    "labels": RenderOptions(label_normals=True),
    "labels-0.7": RenderOptions(arc_resolution=0.7, label_normals=True),
}
SVG_GOLDENS = {
    ("MARKOV", 4, "default"):
        "6370384e0f0b9213466b067a7293401af50327c8ffa799001941458dfe45f124",
    ("MARKOV", 4, "fine"):
        "f7f56e8f7d48973f7a2d05cd782246fb3964ff00dc5345f2183c4ee62019c8aa",
    ("MARKOV", 4, "labels"):
        "84aa67a5b81bbe2d6582d3472e9c9c242fba40fe4649be8e5b7e7901ba2ffe04",
    ("A3", 6, "default"):
        "a2a5decaa6021c4981590ae20dab1d7d80152df4722c522b4c37176556277206",
    ("A3", 6, "fine"):
        "24d14a3ee33233ccbb3db6a0051e40d262fb92ac165c50c5c65385d34ee94317",
    ("A3", 6, "labels"):
        "4bb1024f1b51ac3a940eeed070af1c01604a2616c730db5a80799f2e910348fd",
    ("B2_A1", 6, "default"):
        "6446027a2e51004674d136d1f345b10d8ddd9d6f4fc837c24a7851e1c568d53a",
    ("B2_A1", 6, "fine"):
        "00b73f6ea579632d1ff019e0cfb54dc435ecbb4bc100344eb681fa3749a6b8fd",
    ("B2_A1", 6, "labels"):
        "19e6f9abf4a6d3d02e3524c3a685e70b3accd69cbdf60df4333c4e08bc2c6490",
    ("TUNNEL", 5, "default"):
        "8d4c96c376aba7cd4d86b75f2d074adbc48a0cb949583e529415c808531b4923",
    ("TUNNEL", 5, "fine"):
        "9f2ceacb2a67605ec0f63c182530b714c3acdba586128f68d4004a738a672f81",
    ("TUNNEL", 5, "labels"):
        "a748fe1da04b6a53fdb48323dbb3169b684af16a8c462949c414f951a43bc657",
    # the deepest Tunnel fan that renders, with 377-bit ray entries
    ("TUNNEL", 7, "default"):
        "b49975f49f729315ce33bb2ce2d9d7154b7fc5842f74032588d162ffd989d495",
    # at depth 8 most points are arc ends
    ("C5", 8, "default"):
        "2198f242b568f88dd69099b0fb159551d47700d178f618e644782f1e927147d9",
    ("C5", 8, "labels-0.7"):
        "a5819cf07ffd4af33476a0646d628c31e1196aaf68d06e9a35c668fb5fb8fff4",
}
GOLDEN_FANS = {"MARKOV": MARKOV, "A3": A3, "B2_A1": B2_A1, "TUNNEL": TUNNEL,
               "C5": C5}


@pytest.mark.parametrize("name,depth,options", sorted(SVG_GOLDENS))
def test_svg_golden(name, depth, options):
    fan = load_fan(save_fan(explore(ExchangeMatrix(GOLDEN_FANS[name]), depth)))
    svg = render_svg(fan, GOLDEN_OPTIONS[options])
    assert hashlib.sha256(svg.encode()).hexdigest() == \
        SVG_GOLDENS[name, depth, options]


# Reference renderer: every arc of every cone sampled on its own, dot
# products and norms summed in a loop, coordinates rounded and then
# formatted.  render_svg must match it byte for byte.

def ref_sum(terms):
    """Left to right from the integer 0: sum() of floats before Python
    3.12, which compensates rounding instead."""
    total = 0
    for t in terms:
        total += t
    return total


def ref_unit(ray):
    norm = math.sqrt(ref_sum(float(x) * float(x) for x in ray))
    if norm == 0.0:
        raise ValueError("cannot project the zero vector")
    return tuple(float(x) / norm for x in ray)


def ref_project(ray):
    u = ref_unit(ray)
    c = ref_sum(x * y for x, y in zip(u, _P))
    if c <= _CLIP_COSINE:
        raise NearAntipode(f"ray {ray} is within the clipped cap")
    q = tuple(-p + 2.0 * (x + p) / (1.0 + c) for x, p in zip(u, _P))
    return (ref_sum(x * y for x, y in zip(q, _B1)),
            ref_sum(x * y for x, y in zip(q, _B2)))


def ref_arc(ray_a, ray_b, opts):
    ua, ub = ref_unit(ray_a), ref_unit(ray_b)
    dot = ref_sum(x * y for x, y in zip(ua, ub))
    phi = math.acos(max(-1.0, min(1.0, dot)))
    if phi < 1e-7:
        return [ref_project(ua)]
    steps = int(phi / math.radians(opts.arc_resolution)) + 1
    points = []
    for s in range(steps + 1):
        f = s / steps
        w1 = math.sin((1.0 - f) * phi) / math.sin(phi)
        w2 = math.sin(f * phi) / math.sin(phi)
        points.append(ref_project(
            tuple(w1 * x + w2 * y for x, y in zip(ua, ub))))
    return points


def ref_fmt(x):
    """The two-step rule _fmt replaced: round to 4 places, erase -0.0,
    then format."""
    v = round(x, 4)
    if v == 0.0:
        v = 0.0
    return f"{v:.4f}"


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.00005)
@example(-0.00005)
@example(0.00015)
@example(1.00005)
@example(-0.0)
@example(-1e-300)
@example(5e-324)
@example(2.0 ** 40 + 0.00005)
@example(-123.45665)
@example(1e308)
def test_fmt_matches_round_then_format(x):
    assert _fmt(x) == ref_fmt(x)


def ref_pixels(pt):
    w, h = 640, 640
    scale = min(w, h) / 6.0
    return (w / 2.0 + scale * pt[0], h / 2.0 - scale * pt[1])


def ref_d(polylines):
    return " ".join(
        "M " + " L ".join(f"{ref_fmt(x)} {ref_fmt(y)}"
                          for x, y in map(ref_pixels, pl))
        for pl in polylines)


def ref_guide(axis, opts):
    others = [i for i in range(3) if i != axis]
    u, v = [0.0] * 3, [0.0] * 3
    u[others[0]] = v[others[1]] = 1.0
    segments, current = [], []
    steps = max(int(360.0 / opts.arc_resolution), 12)
    for s in range(steps + 1):
        ang = 2.0 * math.pi * s / steps
        try:
            current.append(ref_project(tuple(
                math.cos(ang) * x + math.sin(ang) * y for x, y in zip(u, v))))
        except NearAntipode:
            if current:
                segments.append(current)
            current = []
    if current:
        segments.append(current)
    return ref_d(segments)


def reference_svg(fan, opts):
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="640" height="640" viewBox="0 0 640 640">',
        '<rect width="640" height="640" fill="white"/>',
    ]
    for axis in range(3):
        lines.append(f'<path class="guide" d="{ref_guide(axis, opts)}" '
                     f'fill="none" stroke="#bbbbbb" stroke-width="0.8"/>')
    frontier = fan.frontier if opts.shade_frontier else set()
    for key in sorted(fan.cones):
        cone = fan.cones[key]
        rays = cone.rays
        try:
            arcs = [ref_arc(*sorted([rays[i], rays[(i + 1) % 3]]), opts)
                    for i in range(3)]
        except NearAntipode:
            continue
        fill = "#d9d9d9" if key in frontier else "none"
        lines.append(f'<path class="cone" d="{ref_d(arcs)}" fill="{fill}" '
                     f'stroke="black" stroke-width="0.6"/>')
        if opts.label_normals:
            for i, normal in enumerate(cone.normals):
                arc = arcs[(i + 1) % 3]
                x, y = ref_pixels(arc[len(arc) // 2])
                text = ",".join(str(c) for c in normal)
                lines.append(f'<text class="normal" x="{ref_fmt(x)}" '
                             f'y="{ref_fmt(y)}" font-size="7">({text})</text>')
    for axis in range(3):
        x, y = ref_pixels(ref_project(tuple(int(i == axis) for i in range(3))))
        lines.append(f'<circle class="vertex" cx="{ref_fmt(x)}" '
                     f'cy="{ref_fmt(y)}" '
                     f'r="4" fill="none" stroke="black" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.builds(random_skew_symmetrizable, st.randoms(use_true_random=False),
                 st.just(3)),
       st.integers(0, 4),
       st.builds(RenderOptions, st.floats(0.5, 30.0), st.booleans(),
                 st.booleans()))
# Tunnel at depth 7: most facets are one-point arcs (phi < 1e-7) or
# one-step arcs, the kinds that dominate deep fans
@example(ExchangeMatrix(TUNNEL), 7, RenderOptions())
@example(ExchangeMatrix(TUNNEL), 7, RenderOptions(label_normals=True))
def test_render_matches_the_reference(B, depth, opts):
    fan = explore(B, depth)
    got = render_svg(fan, opts).split("\n")
    want = reference_svg(fan, opts).split("\n")
    # line by line: a failing example reports one element, not a diff of
    # two whole SVGs (which made shrinking four times slower)
    assert len(got) == len(want)
    for line, ref_line in zip(got, want):
        assert line == ref_line


# -- work --------------------------------------------------------------------

def counting_arcs(monkeypatch, fail=frozenset()):
    """Count arc_polyline calls by ray pair; pairs in `fail` raise
    NearAntipode."""
    calls = []

    def counting(ray_a, ray_b, opts, ends):
        calls.append((ray_a, ray_b))
        if (ray_a, ray_b) in fail:
            raise NearAntipode("clipped")
        return arc_polyline(ray_a, ray_b, opts, ends)

    monkeypatch.setattr(gfans.render, "arc_polyline", counting)
    return calls


def test_each_facet_is_sampled_once(monkeypatch):
    # the complete A3 fan: 14 cones, 3 * 14 / 2 = 21 facets
    fan = explore(ExchangeMatrix(A3), 6)
    calls = counting_arcs(monkeypatch)
    render_svg(fan)
    assert len(fan.cones) == 14
    assert len(calls) == len(set(calls)) == 21


def test_each_ray_is_converted_and_projected_once(monkeypatch):
    # the complete A3 fan: 14 cones on 9 rays, 21 facets
    fan = explore(ExchangeMatrix(A3), 6)
    rays = {ray for cone in fan.cones.values() for ray in cone.rays}
    render_svg(fan)  # the guide circles are kept across renders
    projected = []
    plane = gfans.render._plane

    def counting(x, y, z):
        projected.append((x, y, z))
        return plane(x, y, z)

    monkeypatch.setattr(gfans.render, "_plane", counting)
    svg = render_svg(fan)
    assert (len(fan.cones), len(rays)) == (14, 9)
    # a ray's unit vector is the one sample that projects it; the vertex
    # circles project the three axes once more
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    for ray in rays:
        u = gfans.render._unit(*map(float, ray))
        assert projected.count(u) == 1 + (u in axes)
    # each facet is in two cone paths; apart from the rays, only its
    # interior points are projected, once
    segments = [segment for e in ET.fromstring(svg)
                if e.get("class") == "cone"
                for segment in e.get("d").split(" M ")]
    assert len(segments) == 2 * 21
    interior = sum(seg.count(" L ") - 1 for seg in segments) // 2
    assert len(projected) == len(rays) + interior + len(axes)


def test_a_clipped_facet_is_not_remembered(monkeypatch):
    # both cones on a clipped facet are skipped, each after its own try
    fan = explore(ExchangeMatrix(A3), 6)
    pair = tuple(sorted(fan.cones[min(fan.cones)].rays)[:2])
    calls = counting_arcs(monkeypatch, fail={pair})
    svg = render_svg(fan)
    assert calls.count(pair) == 2
    cones = [e for e in ET.fromstring(svg).iter(SVG_NS + "path")
             if e.get("class") == "cone"]
    assert len(cones) == 12


def test_guide_circles_are_kept_per_resolution(monkeypatch):
    fan = explore(ExchangeMatrix(MARKOV), 3)
    cached = gfans.render._guide_circle
    cached.cache_clear()
    for resolution in (2.0, 5.0, 2.0):
        opts = RenderOptions(arc_resolution=resolution)
        svg = render_svg(fan, opts)
        with monkeypatch.context() as m:
            m.setattr(gfans.render, "_guide_circle", cached.__wrapped__)
            assert svg == render_svg(fan, opts)
    info = cached.cache_info()
    assert (info.misses, info.hits) == (6, 3)
