"""SVG rendering of rank-3 fans by stereographic projection.

Rays are pushed to the unit sphere and projected to the tangent plane at
p = (1,1,1)/sqrt(3) from the antipode -p.  This is the only module that
uses floating point; everything upstream is exact, and the tolerances here
are purely visual.  `_plane` is the one place the projection is written.

A render turns each distinct ray into floats and projects it once: a
table local to the call holds, for each ray, its unit vector and the
pixel text of its image, or None if projecting it raised, and both
endpoints of every arc are read from it.  An arc that reaches an end
without text projects it again, to raise that error.  One loop samples
the interior of an arc: each sample goes through `_plane` and is mapped
to pixels and formatted with the float operations of `_to_pixels` and
`_fmt`, in their order, so the bytes are those of projecting, mapping
and formatting every point on its own.

A facet shared by two cones is one great-circle arc.  Its endpoints are
sorted before it is sampled, so its polyline, and the `M ... L ...`
segment formatted from it, depend on the facet alone, not on the cone
drawing it.  `render_svg` therefore samples and formats each facet once
and reuses the segment in the second cone's path; the bytes are those of
sampling every arc of every cone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .explorer import Fan

_SQ3 = math.sqrt(3.0)
_P = (1.0 / _SQ3, 1.0 / _SQ3, 1.0 / _SQ3)
_B1 = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0)
_B2 = (1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0))
_VIEWPORT = (640, 640)  # SVG width and height in pixels
_CLIP_COSINE = -0.95  # rays this close to the antipode -p are not drawn
_CX, _CY = _VIEWPORT[0] / 2.0, _VIEWPORT[1] / 2.0  # pixel image of p
_SCALE = min(_VIEWPORT) / 6.0  # pixels per tangent-plane unit
_MIN_ARC_RESOLUTION = 0.01  # degrees: at most 36,000 samples per circle


class NearAntipode(ValueError):
    """Ray too close to the projection center's antipode to draw."""


@dataclass(frozen=True)
class RenderOptions:
    """How `render_svg` draws.  `arc_resolution` is the angle in degrees
    between samples along an arc: a finite number of at least 0.01, so a
    guide circle takes at most 36,000 samples.  A finer one is refused
    here, before anything is sampled."""

    arc_resolution: float = 2.0  # degrees per sample along an arc
    shade_frontier: bool = True
    label_normals: bool = False

    def __post_init__(self):
        x = self.arc_resolution
        if not (math.isfinite(x) and x > 0):
            raise ValueError("arc_resolution must be a positive finite number")
        if x < _MIN_ARC_RESOLUTION:
            raise ValueError(
                f"arc_resolution must be at least {_MIN_ARC_RESOLUTION} degrees")


# Dot products and norms below are written out as a + b + c, left to right,
# the order in which sum() added floats before Python 3.12 (3.12's sum()
# compensates rounding), so every float is the same on every version.  Only
# the sign of an exact zero can differ from sum(), which starts from the
# integer 0; _fmt and _to_pixels erase it.

def _unit(x: float, y: float, z: float):
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("cannot project the zero vector")
    return (x / norm, y / norm, z / norm)


def _plane(x: float, y: float, z: float) -> tuple[float, float]:
    """Stereographic image of a nonzero float 3-vector in tangent-plane
    coords: the one place the projection is written."""
    x, y, z = _unit(x, y, z)
    px, py, pz = _P
    c = x * px + y * py + z * pz
    if c <= _CLIP_COSINE:
        raise NearAntipode(f"ray {(x, y, z)} is within the clipped cap")
    k = 1.0 + c
    qx = -px + 2.0 * (x + px) / k
    qy = -py + 2.0 * (y + py) / k
    qz = -pz + 2.0 * (z + pz) / k
    return (
        qx * _B1[0] + qy * _B1[1] + qz * _B1[2],
        qx * _B2[0] + qy * _B2[1] + qz * _B2[2],
    )


def project_ray(ray) -> tuple[float, float]:
    """Stereographic image of a nonzero 3-vector in tangent-plane coords."""
    return _plane(*map(float, ray))


def _fmt(x: float) -> str:
    # One correctly rounded format.  Normalize "-0.0000" (from -0.0 or a
    # tiny negative x) so output is byte-stable across equivalent inputs.
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _to_pixels(pt):
    return (_CX + _SCALE * pt[0], _CY - _SCALE * pt[1])


def _text(u) -> str:
    """Pixel text `x y` of the image of a unit vector."""
    x, y = _to_pixels(_plane(*u))
    return f"{_fmt(x)} {_fmt(y)}"


def _end(ends, ray):
    """(unit vector, pixel text) of a ray, from the table `ends` or put
    into it.  The sample at an arc's end is that unit vector, so the text
    is that of projecting the unit vector, as for the arc's interior.  The
    text is None if projecting raised ValueError (NearAntipode, or a ray
    past the float range that normalizes to zero): an arc that reaches
    that end projects the unit vector again, to raise the same error."""
    end = ends.get(ray)
    if end is None:
        u = _unit(*map(float, ray))
        try:
            text = _text(u)
        except ValueError:
            text = None
        end = ends[ray] = (u, text)
    return end


def arc_polyline(ray_a, ray_b, opts: RenderOptions, ends) -> list[str]:
    """The sampled great-circle arc between two rays, as the pixel text
    `x y` of each point.

    Both endpoints come from `ends`, the caller's table of ray ends (see
    `_end`), which is filled for a ray it lacks.  One loop carries each
    interior sample through `_plane`, `_to_pixels` and `_fmt`, written
    out: both coordinates are formatted in one f-string, and only a text
    that holds `-0.0000` goes through `_fmt`.  Two `_fmt` calls per
    sample made renders of long arcs about 2% slower.  Points raise in
    the order they are sampled, from ray_a."""
    (ax, ay, az), text_a = _end(ends, ray_a)
    (bx, by, bz), text_b = _end(ends, ray_b)
    dot = max(-1.0, min(1.0, ax * bx + ay * by + az * bz))
    phi = math.acos(dot)
    if phi < 1e-7:  # identical rays up to rounding (acos amplifies ulps)
        return [text_a or _text((ax, ay, az))]
    steps = int(phi / math.radians(opts.arc_resolution)) + 1
    sin_phi = math.sin(phi)
    texts = [text_a or _text((ax, ay, az))]
    for s in range(1, steps):
        f = s / steps
        w1 = math.sin((1.0 - f) * phi) / sin_phi
        w2 = math.sin(f * phi) / sin_phi
        x, y = _plane(w1 * ax + w2 * bx, w1 * ay + w2 * by, w1 * az + w2 * bz)
        x, y = _CX + _SCALE * x, _CY - _SCALE * y
        text = f"{x:.4f} {y:.4f}"
        texts.append(text if "-0.0000" not in text
                     else f"{_fmt(x)} {_fmt(y)}")
    texts.append(text_b or _text((bx, by, bz)))
    return texts


def _arc(drawn, ends, ray_a, ray_b, opts: RenderOptions):
    """(pixel texts, path segment) of the arc between two rays of a cone,
    sampled from the lexicographically smaller ray so that a facet shared
    by two cones is sampled identically from both sides, and only once
    per `drawn`.  A facet that raises NearAntipode is not stored."""
    pair = (ray_a, ray_b) if ray_a <= ray_b else (ray_b, ray_a)
    hit = drawn.get(pair)
    if hit is None:
        arc = arc_polyline(pair[0], pair[1], opts, ends)
        hit = drawn[pair] = (arc, "M " + " L ".join(arc))
    return hit


@functools.lru_cache(maxsize=6)  # the three circles at two resolutions
def _guide_circle(axis: int, arc_resolution: float) -> str:
    """The great circle of the hyperplane e_axis-perp, as a sampled path.
    It depends on its arguments alone, so it is kept across calls."""
    others = [i for i in range(3) if i != axis]
    u = [0.0, 0.0, 0.0]
    v = [0.0, 0.0, 0.0]
    u[others[0]] = 1.0
    v[others[1]] = 1.0
    # every sample has <x, p> = (cos + sin)/sqrt(3) >= -sqrt(2/3), far
    # above _CLIP_COSINE, so no sample is clipped
    steps = max(int(360.0 / arc_resolution), 12)
    angles = (2.0 * math.pi * s / steps for s in range(steps + 1))
    return "M " + " L ".join(
        _text([math.cos(a) * x + math.sin(a) * y for x, y in zip(u, v)])
        for a in angles)


def render_svg(fan: Fan, opts: RenderOptions | None = None) -> str:
    """Standalone SVG: guide circles, one closed path per cone, shaded
    frontier cones, and encircled elementary vertices."""
    if opts is None:
        opts = RenderOptions()
    if fan.source.n != 3:
        raise ValueError("rendering requires a rank-3 fan")
    w, h = _VIEWPORT
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for axis in range(3):
        d = _guide_circle(axis, opts.arc_resolution)
        lines.append(
            f'<path class="guide" d="{d}" fill="none" '
            f'stroke="#bbbbbb" stroke-width="0.8"/>'
        )
    frontier = fan.frontier if opts.shade_frontier else set()
    ends = {}  # ray -> (unit vector, pixel text or None), this call only
    drawn = {}  # sorted ray pair -> (pixel texts, segment), this call only
    for key in sorted(fan.cones):
        cone = fan.cones[key]
        r0, r1, r2 = cone.rays
        try:
            arcs = [_arc(drawn, ends, r0, r1, opts),
                    _arc(drawn, ends, r1, r2, opts),
                    _arc(drawn, ends, r2, r0, opts)]
        except NearAntipode:
            continue
        d = " ".join(segment for _, segment in arcs)
        fill = "#d9d9d9" if key in frontier else "none"
        lines.append(
            f'<path class="cone" d="{d}" fill="{fill}" '
            f'stroke="black" stroke-width="0.6"/>'
        )
        if opts.label_normals:
            # c_i is normal to the facet spanned by g_{i+1} and g_{i+2}
            for i, normal in enumerate(cone.normals):
                arc = arcs[(i + 1) % 3][0]
                x, y = arc[len(arc) // 2].split(" ")
                text = ",".join(str(c) for c in normal)
                lines.append(
                    f'<text class="normal" x="{x}" y="{y}" '
                    f'font-size="7">({text})</text>'
                )
    for axis in range(3):
        ray = tuple(int(i == axis) for i in range(3))
        x, y = _to_pixels(project_ray(ray))
        lines.append(
            f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
