"""SVG rendering of a construction run.

Floats appear here and nowhere else: the curve is sampled numerically per
viewport column and row (the real roots of the restricted cubic inside the
view, bracketed and bisected in plain Python), the exact data is never
touched.  Far-out and infinite points are dropped from the view.
"""

from __future__ import annotations

import math
import sys

from .cubic import Cubic, gradient

_SIZE = 640
_PAD = 0.08
_COLUMNS = 420  # curve samples across the view, each way
_BISECTIONS = 30  # halvings of each curve point's bracket
_VIEW_LIMIT = 60.0
_PALETTE = (
    "#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085",
    "#7f8c8d", "#f39c12", "#2c3e50", "#e74c3c", "#3498db", "#9b59b6",
)


def _finite_xy(point):
    x, y, z = point.coords
    if z == 0:
        return None
    # Sign into the numerators, as Fraction keeps it: x = 0 gives 0.0, not
    # -0.0.  int / int rounds the exact quotient once, like float(Fraction).
    if z < 0:
        x, y, z = -x, -y, -z
    try:
        fx, fy = x / z, y / z
    except OverflowError:
        return None
    if abs(fx) > _VIEW_LIMIT or abs(fy) > _VIEW_LIMIT:
        return None
    return fx, fy


def _viewport(xys):
    finite = [xy for xy in xys if xy]
    if not finite:
        return (-5.0, 5.0, -5.0, 5.0)
    xs = [x for x, _ in finite]
    ys = [y for _, y in finite]
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

    def text(self, x, y, message):
        self.parts.append(
            f'<text x="{x}" y="{y}" font-family="monospace" font-size="11" fill="#555">'
            f"{message}</text>"
        )

    def finish(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
            f'viewBox="0 0 {_SIZE} {_SIZE}">\n'
            f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>'
        )
        return head + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _roots_in(coeffs, lo, hi):
    """The real roots in [lo, hi] of a polynomial of degree at most 3,
    highest coefficient first, largest magnitude first.  The critical
    points cut [lo, hi] into monotone pieces, and each piece whose ends
    differ in sign is bisected.  A zero at a piece's end counts once for
    each piece it ends: twice at a critical point, where it is a multiple
    root, and once at lo or hi."""
    if not any(coeffs):
        return []
    a, b, c, d = coeffs
    # the zeros of the derivative 3at^2 + 2bt + c
    if a:
        disc = b * b - 3 * a * c
        crit = {(-b + s * math.sqrt(disc)) / (3 * a) for s in (-1, 1)} if disc >= 0 else ()
    else:
        crit = {-c / (2 * b)} if b else ()
    cuts = [lo, *sorted(t for t in crit if lo < t < hi), hi]
    roots = []
    for u, v in zip(cuts, cuts[1:]):
        fu, fv = (((a * t + b) * t + c) * t + d for t in (u, v))
        roots += [t for t, ft in ((u, fu), (v, fv)) if ft == 0]
        if min(fu, fv) < 0 < max(fu, fv):
            if fu > 0:
                u, v = v, u
            for _ in range(_BISECTIONS):
                m = (u + v) / 2
                if ((a * m + b) * m + c) * m + d < 0:
                    u = m
                else:
                    v = m
            roots.append((u + v) / 2)
    return sorted(roots, key=lambda t: (abs(t), t), reverse=True)


def _samples(lo, hi, count):
    """`count` evenly spaced values from lo to hi, as numpy.linspace
    computes them: i * step + lo, and hi exactly at the end."""
    step = (hi - lo) / (count - 1)
    return [i * step + lo for i in range(count - 1)] + [hi]


def _curve_dots(canvas: _Canvas, cubic: Cubic):
    # int / int divides exactly before rounding: the coefficients can
    # exceed the float range.
    scale = max(abs(c) for c in cubic.coeffs)
    c = [v / scale for v in cubic.coeffs]
    for x in _samples(canvas.xmin, canvas.xmax, _COLUMNS):
        column = [
            c[6],
            c[3] * x + c[7],
            c[1] * x * x + c[4] * x + c[8],
            c[0] * x ** 3 + c[2] * x * x + c[5] * x + c[9],
        ]
        for y in _roots_in(column, canvas.ymin, canvas.ymax):
            canvas.circle(x, y, 0.9, "#b0c4d8")
    for y in _samples(canvas.ymin, canvas.ymax, _COLUMNS):
        row = [
            c[0],
            c[1] * y + c[2],
            c[3] * y * y + c[4] * y + c[5],
            c[6] * y ** 3 + c[7] * y * y + c[8] * y + c[9],
        ]
        for x in _roots_in(row, canvas.xmin, canvas.xmax):
            canvas.circle(x, y, 0.9, "#b0c4d8")


def _axes(canvas: _Canvas):
    if canvas.xmin < 0 < canvas.xmax:
        canvas.segment(0, canvas.ymin, 0, canvas.ymax, "#dddddd")
    if canvas.ymin < 0 < canvas.ymax:
        canvas.segment(canvas.xmin, 0, canvas.xmax, 0, "#dddddd")


def _tangent_segment(canvas: _Canvas, cubic: Cubic, point):
    # No tangent off the cubic or at a singular point.  By Euler's identity
    # grad F(p) . p = 3 F(p), exactly, so the gradient tells both.
    grad = gradient(cubic, point.coords)
    if not any(grad) or sum(g * c for g, c in zip(grad, point.coords)):
        return
    # With the first nonzero coefficient made positive, c / scale is the
    # same rational as for the canonical line (tangent_at), so the floats
    # are the same too, zeros included.  Scale into [-1, 1] exactly before
    # going to floats: the integer coefficients can exceed the float range,
    # and int / int divides exactly before rounding.
    if next(c for c in grad if c) < 0:
        grad = [-c for c in grad]
    scale = max(abs(c) for c in grad)
    u, v, w = (c / scale for c in grad)
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
    points = [p for pair in pairs for p in pair.points]
    xys = [_finite_xy(p) for p in points]
    canvas = _Canvas(_viewport(xys))
    _axes(canvas)
    if cubic is not None:
        _curve_dots(canvas, cubic)
    skipped = 0
    for idx, (point, xy) in enumerate(zip(points, xys)):
        if xy is None:
            skipped += 1
            continue
        if tangents and cubic is not None:
            _tangent_segment(canvas, cubic, point)
        # a pair's two points are adjacent in `points` and share its color
        canvas.circle(xy[0], xy[1], 3.2, _PALETTE[idx // 2 % len(_PALETTE)], "0.9")
    canvas.text(8, 14, f"{len(pairs)} pairs, {2 * len(pairs)} points")
    if skipped:
        canvas.text(8, 28, f"{skipped} point(s) outside the view or at infinity")
        print(f"plot: {skipped} point(s) not drawn", file=sys.stderr)
    return canvas.finish()
