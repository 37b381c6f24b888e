"""SVG rendering of a construction run.

Floats appear here and nowhere else: the curve is sampled numerically per
viewport column (solving the restricted cubic with numpy, which is
imported only when a curve is drawn), the exact data is never touched.
Far-out and infinite points are dropped from the view.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .cubic import Cubic, tangent_at
from .errors import SchroeterError

_SIZE = 640
_PAD = 0.08
_VIEW_LIMIT = 60.0
_PALETTE = (
    "#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085",
    "#7f8c8d", "#f39c12", "#2c3e50", "#e74c3c", "#3498db", "#9b59b6",
)


def _finite_xy(point):
    if point.is_infinite:
        return None
    x, y = point.to_affine()
    try:
        fx, fy = float(x), float(y)
    except OverflowError:
        return None
    if abs(fx) > _VIEW_LIMIT or abs(fy) > _VIEW_LIMIT:
        return None
    return fx, fy


def _viewport(points):
    xs, ys = [], []
    for p in points:
        xy = _finite_xy(p)
        if xy:
            xs.append(xy[0])
            ys.append(xy[1])
    if not xs:
        return (-5.0, 5.0, -5.0, 5.0)
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1.0)
    pad = span * _PAD + 0.5
    cx, cy = (xmin + xmax) / 2, (ymin + ymax) / 2
    half = span / 2 + pad
    return (cx - half, cx + half, cy - half, cy + half)


class _Canvas:
    def __init__(self, box):
        self.xmin, self.xmax, self.ymin, self.ymax = box
        self.parts: list[str] = []

    def sx(self, x):
        return (x - self.xmin) / (self.xmax - self.xmin) * _SIZE

    def sy(self, y):
        return _SIZE - (y - self.ymin) / (self.ymax - self.ymin) * _SIZE

    def circle(self, x, y, r, fill, opacity="1"):
        self.parts.append(
            f'<circle cx="{self.sx(x):.2f}" cy="{self.sy(y):.2f}" r="{r}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>'
        )

    def segment(self, x1, y1, x2, y2, stroke, width="1"):
        self.parts.append(
            f'<line x1="{self.sx(x1):.2f}" y1="{self.sy(y1):.2f}" '
            f'x2="{self.sx(x2):.2f}" y2="{self.sy(y2):.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def text(self, x, y, message, fill="#555"):
        self.parts.append(
            f'<text x="{x}" y="{y}" font-family="monospace" font-size="11" fill="{fill}">'
            f"{message}</text>"
        )

    def finish(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
            f'viewBox="0 0 {_SIZE} {_SIZE}">\n'
            f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>'
        )
        return head + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _poly_roots(coeffs):
    import numpy as np

    trimmed = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if trimmed.size <= 1:
        return []
    roots = np.roots(trimmed)
    return [float(r.real) for r in roots if abs(r.imag) < 1e-9]


def _curve_dots(canvas: _Canvas, cubic: Cubic, columns=420):
    import numpy as np

    scale = max(abs(c) for c in cubic.coeffs)
    c = [float(Fraction(v, scale)) for v in cubic.coeffs]
    for x in np.linspace(canvas.xmin, canvas.xmax, columns):
        ys = _poly_roots([
            c[6],
            c[3] * x + c[7],
            c[1] * x * x + c[4] * x + c[8],
            c[0] * x ** 3 + c[2] * x * x + c[5] * x + c[9],
        ])
        for y in ys:
            if canvas.ymin <= y <= canvas.ymax:
                canvas.circle(x, y, 0.9, "#b0c4d8")
    for y in np.linspace(canvas.ymin, canvas.ymax, columns):
        xs = _poly_roots([
            c[0],
            c[1] * y + c[2],
            c[3] * y * y + c[4] * y + c[5],
            c[6] * y ** 3 + c[7] * y * y + c[8] * y + c[9],
        ])
        for x in xs:
            if canvas.xmin <= x <= canvas.xmax:
                canvas.circle(x, y, 0.9, "#b0c4d8")


def _axes(canvas: _Canvas):
    if canvas.xmin < 0 < canvas.xmax:
        canvas.segment(0, canvas.ymin, 0, canvas.ymax, "#dddddd")
    if canvas.ymin < 0 < canvas.ymax:
        canvas.segment(canvas.xmin, 0, canvas.xmax, 0, "#dddddd")


def _tangent_segment(canvas: _Canvas, cubic: Cubic, point):
    try:
        line = tangent_at(cubic, point)
    except SchroeterError:
        return
    # Scale into [-1, 1] exactly before going to floats: the integer
    # coefficients can exceed the float range.
    scale = max(abs(c) for c in line.coeffs)
    u, v, w = (float(Fraction(c, scale)) for c in line.coeffs)
    hits = []
    for x in (canvas.xmin, canvas.xmax):
        if v:
            y = -(u * x + w) / v
            if canvas.ymin <= y <= canvas.ymax:
                hits.append((x, y))
    for y in (canvas.ymin, canvas.ymax):
        if u:
            x = -(v * y + w) / u
            if canvas.xmin <= x <= canvas.xmax:
                hits.append((x, y))
    if len(hits) >= 2:
        (x1, y1), (x2, y2) = hits[0], hits[1]
        canvas.segment(x1, y1, x2, y2, "#999999", "0.6")


def render_svg(pairs, cubic: Cubic | None = None, *, tangents: bool = False) -> str:
    """Render the pair points (colored per pair) over the sampled curve."""
    all_points = [p for pair in pairs for p in pair.points]
    canvas = _Canvas(_viewport(all_points))
    _axes(canvas)
    if cubic is not None:
        _curve_dots(canvas, cubic)
    skipped = 0
    for idx, pair in enumerate(pairs):
        color = _PALETTE[idx % len(_PALETTE)]
        for point in pair.points:
            xy = _finite_xy(point)
            if xy is None:
                skipped += 1
                continue
            if tangents and cubic is not None:
                _tangent_segment(canvas, cubic, point)
            canvas.circle(xy[0], xy[1], 3.2, color, "0.9")
    canvas.text(8, 14, f"{len(pairs)} pairs, {2 * len(pairs)} points")
    if skipped:
        canvas.text(8, 28, f"{skipped} point(s) outside the view or at infinity")
        print(f"plot: {skipped} point(s) not drawn", file=sys.stderr)
    return canvas.finish()
