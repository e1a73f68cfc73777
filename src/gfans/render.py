"""SVG rendering of rank-3 fans by stereographic projection.

Rays are pushed to the unit sphere and projected to the tangent plane at
p = (1,1,1)/sqrt(3) from the antipode -p.  This is the only module that
uses floating point; everything upstream is exact, and the tolerances here
are purely visual.

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


class NearAntipode(ValueError):
    """Ray too close to the projection center's antipode to draw."""


@dataclass(frozen=True)
class RenderOptions:
    arc_resolution: float = 2.0  # degrees per sample along an arc
    shade_frontier: bool = True
    label_normals: bool = False

    def __post_init__(self):
        x = self.arc_resolution
        if not (math.isfinite(x) and x > 0):
            raise ValueError("arc_resolution must be a positive finite number")


# Dot products and norms below are written out as a + b + c, left to right,
# the order in which sum() added floats before Python 3.12 (3.12's sum()
# compensates rounding), so every float is the same on every version.  Only
# the sign of an exact zero can differ from sum(), which starts from the
# integer 0; _fmt and _to_pixels erase it.

def _unit(ray):
    x, y, z = map(float, ray)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("cannot project the zero vector")
    return (x / norm, y / norm, z / norm)


def project_ray(ray) -> tuple[float, float]:
    """Stereographic image of a nonzero 3-vector in tangent-plane coords."""
    x, y, z = _unit(ray)
    px, py, pz = _P
    c = x * px + y * py + z * pz
    if c <= _CLIP_COSINE:
        raise NearAntipode(f"ray {ray} is within the clipped cap")
    k = 1.0 + c
    qx = -px + 2.0 * (x + px) / k
    qy = -py + 2.0 * (y + py) / k
    qz = -pz + 2.0 * (z + pz) / k
    return (
        qx * _B1[0] + qy * _B1[1] + qz * _B1[2],
        qx * _B2[0] + qy * _B2[1] + qz * _B2[2],
    )


def arc_polyline(ray_a, ray_b, opts: RenderOptions):
    """Sampled great-circle arc between two rays, projected pointwise."""
    ua = ax, ay, az = _unit(ray_a)
    bx, by, bz = _unit(ray_b)
    dot = max(-1.0, min(1.0, ax * bx + ay * by + az * bz))
    phi = math.acos(dot)
    if phi < 1e-7:  # identical rays up to rounding (acos amplifies ulps)
        return [project_ray(ua)]
    steps = int(phi / math.radians(opts.arc_resolution)) + 1
    sin_phi = math.sin(phi)
    points = []
    for s in range(steps + 1):
        f = s / steps
        w1 = math.sin((1.0 - f) * phi) / sin_phi
        w2 = math.sin(f * phi) / sin_phi
        points.append(project_ray(
            (w1 * ax + w2 * bx, w1 * ay + w2 * by, w1 * az + w2 * bz)))
    return points


def _fmt(x: float) -> str:
    # One correctly rounded format.  Normalize "-0.0000" (from -0.0 or a
    # tiny negative x) so output is byte-stable across equivalent inputs.
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _to_pixels(pt):
    return (_CX + _SCALE * pt[0], _CY - _SCALE * pt[1])


def _path(pixels) -> str:
    return "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pixels)


def _arc(drawn, ray_a, ray_b, opts: RenderOptions):
    """(polyline, path segment) of the arc between two rays of a cone,
    sampled from the lexicographically smaller ray so that a facet shared
    by two cones is sampled identically from both sides, and only once
    per `drawn`.  A facet that raises NearAntipode is not stored."""
    pair = (ray_a, ray_b) if ray_a <= ray_b else (ray_b, ray_a)
    hit = drawn.get(pair)
    if hit is None:
        arc = arc_polyline(pair[0], pair[1], opts)
        hit = drawn[pair] = (arc, _path(map(_to_pixels, arc)))
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
    points = []
    for s in range(steps + 1):
        ang = 2.0 * math.pi * s / steps
        sample = tuple(
            math.cos(ang) * x + math.sin(ang) * y for x, y in zip(u, v)
        )
        points.append(_to_pixels(project_ray(sample)))
    return _path(points)


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
    drawn = {}  # sorted ray pair -> (polyline, segment), this call only
    for key in sorted(fan.cones):
        cone = fan.cones[key]
        r0, r1, r2 = cone.rays
        try:
            arcs = [_arc(drawn, r0, r1, opts),
                    _arc(drawn, r1, r2, opts),
                    _arc(drawn, r2, r0, opts)]
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
                mid = arc[len(arc) // 2]
                x, y = _to_pixels(mid)
                text = ",".join(str(c) for c in normal)
                lines.append(
                    f'<text class="normal" x="{_fmt(x)}" y="{_fmt(y)}" '
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
