import math
import xml.etree.ElementTree as ET

import pytest

from gfans import (
    ExchangeMatrix,
    NearAntipode,
    RenderOptions,
    arc_polyline,
    explore,
    project_ray,
    render_svg,
)
from conftest import MARKOV

SVG_NS = "{http://www.w3.org/2000/svg}"


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
    pts = arc_polyline((1, 0, 0), (0, 1, 0), opts)
    assert pts[0] == pytest.approx(project_ray((1, 0, 0)))
    assert pts[-1] == pytest.approx(project_ray((0, 1, 0)))
    assert len(pts) >= 90  # a 90-degree arc at 1 degree per step
    coarse = arc_polyline((1, 0, 0), (0, 1, 0), RenderOptions(arc_resolution=30.0))
    assert len(coarse) < len(pts)
    assert arc_polyline((1, 1, 0), (2, 2, 0), opts) == [
        project_ray((1, 1, 0))
    ]


def test_render_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(arc_resolution=0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_arc_resolution_must_be_finite(x):
    # nan <= 0 is false, so a sign test alone lets NaN through
    with pytest.raises(ValueError, match="positive finite number"):
        RenderOptions(arc_resolution=x)


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


def test_svg_byte_determinism():
    fan = explore(ExchangeMatrix(MARKOV), 4)
    assert render_svg(fan) == render_svg(explore(ExchangeMatrix(MARKOV), 4))


def test_shared_boundaries_sample_identically():
    from gfans.render import _cone_arcs, _path_d
    fan = explore(ExchangeMatrix(MARKOV), 3)
    opts = RenderOptions()
    checked = 0
    for edge in fan.adjacency:
        k1, k2 = tuple(edge)
        shared = sorted(set(fan.cones[k1].rays) & set(fan.cones[k2].rays))
        if len(shared) != 2:
            continue
        arc = arc_polyline(shared[0], shared[1], opts)
        fragment = _path_d([arc])
        d1 = _path_d(_cone_arcs(list(fan.cones[k1].rays), opts))
        d2 = _path_d(_cone_arcs(list(fan.cones[k2].rays), opts))
        assert fragment in d1
        assert fragment in d2
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


def test_rank2_fan_not_renderable():
    fan = explore(ExchangeMatrix(((0, -2), (3, 0))), 2)
    with pytest.raises(ValueError):
        render_svg(fan)
