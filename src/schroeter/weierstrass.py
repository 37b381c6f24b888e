"""Curves y^2 = x^3 + a*x^2 + b*x with their rational chord-tangent group law.

The neutral element is the inflection O = (0 : 1 : 0) and T = (0 : 0 : 1) is
a rational point of order two.  Negation and addition are built entirely on
the chord operator of the cubic module, so coordinate formulas (affine
y-negation, the b/x conjugate) serve the tests as independent cross-checks.
Also provides the y^2 x = alpha + beta x + gamma x^2 chart in which the
conjugation induces a line involution with a computable center.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cubic import Cubic, chord_third, evaluate
from .engine import PointPair, SeedConfig, validate_seed
from .errors import (
    BasePointDegenerate,
    DegenerateDirection,
    DuplicatePoints,
    NotOnCurve,
    OffChartCurve,
    ValidationError,
    ZeroDenominator,
    brief,
)
from .projective import ProjLine, ProjPoint, join, meet
from .record import record

NEUTRAL = ProjPoint((0, 1, 0))
TWO_TORSION = ProjPoint((0, 0, 1))

_AXIS = ProjLine((1, 0, 0))  # the line x = 0


@record
class WeierstrassCurve(NamedTuple("WeierstrassCurve", [("a", Fraction), ("b", Fraction)])):
    """y^2 = x^3 + a x^2 + b x, nonsingular (b != 0 and a^2 != 4b).  It
    keeps `cubic` in its `__dict__`."""

    def __new__(cls, a, b):
        a, b = Fraction(a), Fraction(b)
        if b == 0 or a * a == 4 * b:
            raise ValidationError(f"curve a={brief(a)}, b={brief(b)} is singular")
        return tuple.__new__(cls, (a, b))

    @cached_property
    def cubic(self) -> Cubic:
        """The homogeneous form as a canonical Cubic, built once per curve."""
        return Cubic.of([1, 0, self.a, 0, 0, self.b, 0, -1, 0, 0])

    def require(self, p: ProjPoint) -> ProjPoint:
        if evaluate(self.cubic, p) != 0:
            raise NotOnCurve(
                f"{brief(p)} is not on y^2 = x^3 + {brief(self.a)}x^2 + {brief(self.b)}x"
            )
        return p


def neg(curve: WeierstrassCurve, p: ProjPoint) -> ProjPoint:
    """-P = O.P; the chord operator checks P and gives O.O = O (an inflection)."""
    return chord_third(curve.cubic, NEUTRAL, p)


def add(curve: WeierstrassCurve, p: ProjPoint, q: ProjPoint) -> ProjPoint:
    """P + Q = -(P.Q), with neutral element O = (0 : 1 : 0)."""
    return neg(curve, chord_third(curve.cubic, p, q))


def conjugate_point(curve: WeierstrassCurve, p: ProjPoint) -> ProjPoint:
    """P + T: the partner of P in every construction pair on this curve."""
    return add(curve, p, TWO_TORSION)


# --- the alpha/beta/gamma chart ---------------------------------------------

@record
class AbcChart(NamedTuple):
    """The curve chart y^2 x = alpha + beta x + gamma x^2."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def contains(self, x, y) -> bool:
        x, y = Fraction(x), Fraction(y)
        return y * y * x == self.alpha + self.beta * x + self.gamma * x * x


@record
class ChartMap(NamedTuple):
    """Bijective rational map from a Weierstrass curve to its chart.

    Scale x by the base point's x, y by its y, swap the roles of x and z,
    and dehomogenize; the base point itself maps to (1, 1).
    """

    base: tuple[Fraction, Fraction]
    chart: AbcChart

    def to_chart(self, p: ProjPoint) -> tuple[Fraction, Fraction]:
        x, y, z = p.coords
        r0, r1 = self.base
        if x == 0:
            raise ZeroDenominator(f"{brief(p)} maps to infinity on the chart")
        return Fraction(z, 1) * r0 / Fraction(x, 1), Fraction(y, 1) * r0 / (r1 * Fraction(x, 1))


def to_abc_chart(curve: WeierstrassCurve, base: ProjPoint) -> ChartMap:
    """Chart with alpha = r0^3/r1^2, beta = a r0^2/r1^2, gamma = b r0/r1^2
    for an affine base point (r0, r1) with nonzero coordinates."""
    curve.require(base)
    if base.coords[2] == 0:
        raise BasePointDegenerate("base point must be affine")
    r0, r1 = base.to_affine()
    if r0 == 0 or r1 == 0:
        raise BasePointDegenerate("base point must have nonzero coordinates")
    alpha = r0 ** 3 / r1 ** 2
    beta = curve.a * r0 ** 2 / r1 ** 2
    gamma = curve.b * r0 / r1 ** 2
    return ChartMap((r0, r1), AbcChart(alpha, beta, gamma))


@record
class CenterProduct(NamedTuple):
    """Signed intercept data of the induced line involution at a base point."""

    center: tuple[Fraction, Fraction]
    s_p: Fraction
    s_pbar: Fraction
    product: Fraction


def involution_center_product(chart: AbcChart, a, p, pbar) -> CenterProduct:
    """Intersect the joins of a base chart point A with P and with P's
    partner P̄ against the line x = 0.  When P̄ is P's conjugate, the signed
    distances from the center (0, y0) multiply to gamma * x0 independently
    of P.

    A, P and P̄ must be on the chart curve, and P and P̄ apart from A.  A join
    through A = (x0, y0) meets the axis at infinity when its other point
    has x = x0, and meets it at the center when that point has y = y0:
    either raises DegenerateDirection.  (A base with x0 = 0 is the center
    itself, so both distances are 0; to_abc_chart maps its base to (1, 1).)"""
    x0, y0 = (Fraction(v) for v in a)
    if not chart.contains(x0, y0):
        raise OffChartCurve(f"base ({brief(x0)}, {brief(y0)}) is not on the chart curve")
    points = [tuple(map(Fraction, q)) for q in (p, pbar)]
    for x, y in points:
        if not chart.contains(x, y):
            raise OffChartCurve(f"({brief(x)}, {brief(y)}) is not on the chart curve")
    if (x0, y0) in points:
        raise ValidationError("P and its partner must differ from the base point")
    if any(x == x0 or y == y0 for x, y in points):
        raise DegenerateDirection(
            "join parallel to the axis or through the center: product is indeterminate"
        )
    base_pt = ProjPoint.affine(x0, y0)
    s_p, s_pbar = (meet(join(base_pt, ProjPoint.affine(*q)), _AXIS).to_affine()[1] - y0 for q in points)
    return CenterProduct((Fraction(0), y0), s_p, s_pbar, s_p * s_pbar)


def seed_from_curve(
    curve: WeierstrassCurve,
    a: ProjPoint,
    b: ProjPoint,
    c: ProjPoint,
) -> SeedConfig:
    """Seed the construction from three curve points and their conjugates.

    Pairing each point with P + T guarantees the tangent-meet property the
    construction requires; the resulting six points still must pass the
    usual seed validation.  Seeds drawn from small torsion subgroups can
    form a complete quadrilateral and are rejected (they reproduce only
    themselves).
    """
    points = (a, b, c)
    if len(set(points)) != 3:
        raise DuplicatePoints("the three base points must be pairwise distinct")
    pairs = []
    for p in points:
        curve.require(p)
        pairs.append(PointPair.of(p, conjugate_point(curve, p)))
    return validate_seed(*pairs)
