"""SVG rendering of a construction run.

Floats appear here and nowhere else: the curve is sampled numerically per
viewport column (the real roots of the restricted cubic, in plain Python),
the exact data is never touched.  Far-out and infinite points are dropped
from the view.
"""

from __future__ import annotations

import math
import sys

from .cubic import Cubic, gradient

_SIZE = 640
_PAD = 0.08
_COLUMNS = 420  # curve samples across the view, each way
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
    """The real roots of a polynomial of degree at most 3, highest
    coefficient first, as `numpy.roots` finds them: leading zeros lower the
    degree, each trailing zero is a root at 0, and a complex pair whose
    imaginary part is below 1e-9 counts as two real roots."""
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        del coeffs[0]
    zeros = []
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zeros.append(0.0)
    if len(coeffs) == 2:
        roots = [-coeffs[1] / coeffs[0]]
    elif len(coeffs) == 3:
        roots = _quadratic_roots(*coeffs)
    elif len(coeffs) == 4:
        roots = _cubic_roots(*coeffs)
    else:
        roots = []
    return roots + zeros


def _quadratic_roots(a, b, c):
    # The eigenvalues of the companion matrix [[-b/a, -c/a], [1, 0]] in
    # LAPACK's order: the root of larger magnitude first, the other from
    # the product of the two, so neither cancels.
    half = -b / a / 2
    disc = half * half - c / a
    if disc < 0:
        return [half, half] if math.sqrt(-disc) < 1e-9 else []
    first = half + math.copysign(math.sqrt(disc), half)
    return [first, c / a / first if first else 0.0]


def _cubic_roots(a, b, c, d):
    # Cardano's or the trigonometric form on the depressed cubic
    # t^3 + pt + q, with x = t - s, then Newton steps on the cubic itself.
    # Largest magnitude first, the order numpy's eigenvalue solver mostly gives.
    s = b / a / 3
    p = c / a - 3 * s * s
    q = d / a - s * (c / a - 2 * s * s)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    if disc > 0:
        root = math.sqrt(disc)
        w = -(q / 2 + math.copysign(root, q))
        u = math.copysign(abs(w) ** (1 / 3), w)
        v = -p / (3 * u)
        x = _polish(u + v - s, a, b, c, d)
        # The other two are the roots of the quadratic left after dividing
        # out x: a double root survives that exactly, while the sign of
        # `disc` near one is rounding noise.
        linear = b + a * x
        roots = [x, *_quadratic_roots(a, linear, c + x * linear)]
    elif p == 0:
        roots = [-s] * 3
    else:
        m = 2 * math.sqrt(-p / 3)
        angle = math.acos(max(-1.0, min(1.0, 3 * q / (p * m)))) / 3
        roots = [m * math.cos(angle - 2 * math.pi * k / 3) - s for k in range(3)]
    roots = [_polish(x, a, b, c, d) for x in roots]
    return sorted(roots, key=abs, reverse=True)


def _polish(x, a, b, c, d):
    """Up to three Newton steps on ax^3 + bx^2 + cx + d from x, each kept
    only while it lowers |f|."""
    fx = ((a * x + b) * x + c) * x + d
    for _ in range(3):
        slope = (3 * a * x + 2 * b) * x + c
        if not fx or not slope:
            break
        nx = x - fx / slope
        fn = ((a * nx + b) * nx + c) * nx + d
        if abs(fn) >= abs(fx):
            break
        x, fx = nx, fn
    return x


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
        ys = _poly_roots([
            c[6],
            c[3] * x + c[7],
            c[1] * x * x + c[4] * x + c[8],
            c[0] * x ** 3 + c[2] * x * x + c[5] * x + c[9],
        ])
        for y in ys:
            if canvas.ymin <= y <= canvas.ymax:
                canvas.circle(x, y, 0.9, "#b0c4d8")
    for y in _samples(canvas.ymin, canvas.ymax, _COLUMNS):
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
