"""SVG rendering of rank-3 fans by stereographic projection.

Rays are pushed to the unit sphere and projected to the tangent plane at
p = (1,1,1)/sqrt(3) from the antipode -p.  This is the only module that
uses floating point; everything upstream is exact, and the tolerances here
are purely visual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .explorer import Fan

_SQ3 = math.sqrt(3.0)
_P = (1.0 / _SQ3, 1.0 / _SQ3, 1.0 / _SQ3)
_B1 = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0)
_B2 = (1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0))
_VIEWPORT = (640, 640)  # SVG width and height in pixels
_CLIP_COSINE = -0.95  # rays this close to the antipode -p are not drawn


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


def _unit(ray):
    norm = math.sqrt(sum(float(x) * float(x) for x in ray))
    if norm == 0.0:
        raise ValueError("cannot project the zero vector")
    return tuple(float(x) / norm for x in ray)


def project_ray(ray) -> tuple[float, float]:
    """Stereographic image of a nonzero 3-vector in tangent-plane coords."""
    u = _unit(ray)
    c = sum(x * y for x, y in zip(u, _P))
    if c <= _CLIP_COSINE:
        raise NearAntipode(f"ray {ray} is within the clipped cap")
    q = tuple(-p + 2.0 * (x + p) / (1.0 + c) for x, p in zip(u, _P))
    return (
        sum(x * y for x, y in zip(q, _B1)),
        sum(x * y for x, y in zip(q, _B2)),
    )


def arc_polyline(ray_a, ray_b, opts: RenderOptions):
    """Sampled great-circle arc between two rays, projected pointwise."""
    ua = _unit(ray_a)
    ub = _unit(ray_b)
    dot = max(-1.0, min(1.0, sum(x * y for x, y in zip(ua, ub))))
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
        sample = tuple(w1 * x + w2 * y for x, y in zip(ua, ub))
        points.append(project_ray(sample))
    return points


def _fmt(x: float) -> str:
    # Normalize -0.0 so output is byte-stable across equivalent inputs.
    v = round(x, 4)
    if v == 0.0:
        v = 0.0
    return f"{v:.4f}"


def _to_pixels(pt):
    w, h = _VIEWPORT
    scale = min(w, h) / 6.0
    return (w / 2.0 + scale * pt[0], h / 2.0 - scale * pt[1])


def _cone_arcs(rays, opts: RenderOptions):
    """One polyline per boundary arc, endpoints ordered canonically so a
    facet shared by two cones is sampled identically from both sides."""
    arcs = []
    m = len(rays)
    for idx in range(m):
        pair = sorted([rays[idx], rays[(idx + 1) % m]])
        arcs.append(arc_polyline(pair[0], pair[1], opts))
    return arcs


def _path_d(arcs) -> str:
    parts = []
    for arc in arcs:
        pix = [_to_pixels(p) for p in arc]
        parts.append(
            "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pix)
        )
    return " ".join(parts)


def _guide_circle(axis: int, opts: RenderOptions) -> str:
    """The great circle of the hyperplane e_axis-perp, as a sampled path."""
    others = [i for i in range(3) if i != axis]
    u = [0.0, 0.0, 0.0]
    v = [0.0, 0.0, 0.0]
    u[others[0]] = 1.0
    v[others[1]] = 1.0
    segments = []
    current = []
    steps = max(int(360.0 / opts.arc_resolution), 12)
    for s in range(steps + 1):
        ang = 2.0 * math.pi * s / steps
        sample = tuple(
            math.cos(ang) * x + math.sin(ang) * y for x, y in zip(u, v)
        )
        try:
            current.append(_to_pixels(project_ray(sample)))
        except NearAntipode:
            if current:
                segments.append(current)
            current = []
    if current:
        segments.append(current)
    return " ".join(
        "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in seg)
        for seg in segments
    )


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
        d = _guide_circle(axis, opts)
        lines.append(
            f'<path class="guide" d="{d}" fill="none" '
            f'stroke="#bbbbbb" stroke-width="0.8"/>'
        )
    frontier = fan.frontier if opts.shade_frontier else set()
    for key in sorted(fan.cones):
        cone = fan.cones[key]
        try:
            arcs = _cone_arcs(list(cone.rays), opts)
        except NearAntipode:
            continue
        d = _path_d(arcs)
        fill = "#d9d9d9" if key in frontier else "none"
        lines.append(
            f'<path class="cone" d="{d}" fill="{fill}" '
            f'stroke="black" stroke-width="0.6"/>'
        )
        if opts.label_normals:
            for arc, normal in zip(arcs, cone.normals):
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
