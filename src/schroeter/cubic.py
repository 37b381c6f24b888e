"""Ternary cubic forms: exact fitting, incidence, tangents, and chord thirds.

Line-cubic intersections are computed by restricting the form to the chord
and factoring out the two known rational roots (Vieta), never by radical
root-finding, so everything stays in exact rational arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    AmbiguousFit,
    DuplicatePoints,
    IdenticalPoints,
    LineComponent,
    NotOnCurve,
    SingularPoint,
    brief,
)
from .projective import ProjLine, ProjPoint, _as_integers, _canon, point_on_line
from .record import record

# Fixed monomial order for the 10 coefficients.
MONOMIALS = ("x3", "x2y", "x2z", "xy2", "xyz", "xz2", "y3", "y2z", "yz2", "z3")


@record
class Cubic(NamedTuple("Cubic", [("coeffs", tuple[int, ...])])):
    """A ternary cubic form as 10 primitive integers in the MONOMIALS order."""

    __slots__ = ()

    def __new__(cls, coeffs):
        return tuple.__new__(cls, (_canon(_as_integers(coeffs)),))

    @classmethod
    def of(cls, coeffs) -> "Cubic":
        coeffs = tuple(coeffs)
        if len(coeffs) != 10:
            raise ValueError("a cubic form has exactly 10 coefficients")
        return cls(coeffs)

    def __repr__(self):
        terms = [f"{c}*{m}" for c, m in zip(self.coeffs, MONOMIALS) if c]
        return "Cubic(" + " + ".join(terms) + ")"


def _eval_triple(cubic: Cubic, t) -> int:
    """The form at a coordinate triple, in Horner form: each product of two
    coordinates is formed once."""
    x, y, z = t
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = cubic.coeffs
    zz = z * z
    return (
        x * (x * (c0 * x + c1 * y + c2 * z) + y * (c3 * y + c4 * z) + c5 * zz)
        + y * (y * (c6 * y + c7 * z) + c8 * zz)
        + c9 * zz * z
    )


def evaluate(cubic: Cubic, point: ProjPoint) -> int:
    """Value of the form at the canonical coordinates; zero iff the point is on the curve."""
    return _eval_triple(cubic, point.coords)


def gradient(cubic: Cubic, t) -> tuple[int, int, int]:
    """The partial derivatives of the form at a coordinate triple, at any scale."""
    x, y, z = t
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = cubic.coeffs
    xx, xy, xz, yy, yz, zz = x * x, x * y, x * z, y * y, y * z, z * z
    gx = 3 * c0 * xx + 2 * c1 * xy + 2 * c2 * xz + c3 * yy + c4 * yz + c5 * zz
    gy = c1 * xx + 2 * c3 * xy + c4 * xz + 3 * c6 * yy + 2 * c7 * yz + c8 * zz
    gz = c2 * xx + c4 * xy + 2 * c5 * xz + c7 * yy + 2 * c8 * yz + 3 * c9 * zz
    return (gx, gy, gz)


def tangent_at(cubic: Cubic, point: ProjPoint) -> ProjLine:
    """Tangent line at a smooth curve point (the gradient of the form)."""
    if evaluate(cubic, point) != 0:
        raise NotOnCurve(f"{brief(point)} is not on the cubic")
    grad = gradient(cubic, point.coords)
    if not any(grad):
        raise SingularPoint(f"{brief(point)} is a singular point of the cubic")
    return ProjLine(grad)


def _chord_coefficients(cubic: Cubic, p, q):
    """Coefficients (c3, c2, c1, c0) of F(lam*p + mu*q) as a binary cubic."""
    c3 = _eval_triple(cubic, p)
    c0 = _eval_triple(cubic, q)
    s11 = _eval_triple(cubic, tuple(a + b for a, b in zip(p, q)))
    s12 = _eval_triple(cubic, tuple(a + 2 * b for a, b in zip(p, q)))
    u = s11 - c3 - c0
    v = s12 - c3 - 8 * c0
    c1 = (v - 2 * u) // 2
    c2 = u - c1
    return c3, c2, c1, c0


def third_intersection(cubic: Cubic, p: ProjPoint, q: ProjPoint) -> ProjPoint:
    """Third intersection of the line pq with the cubic, multiplicities included.

    Both points must be on the curve; the third root of the restricted binary
    cubic is then rational by Vieta.  If the line is tangent at p, the result
    is p itself.
    """
    if p == q:
        raise IdenticalPoints("chord endpoints coincide; use tangent_third")
    c3, c2, c1, c0 = _chord_coefficients(cubic, p.coords, q.coords)
    if c3 != 0:
        raise NotOnCurve(f"{brief(p)} is not on the cubic")
    if c0 != 0:
        raise NotOnCurve(f"{brief(q)} is not on the cubic")
    if c2 == 0 and c1 == 0:
        raise LineComponent(f"the line through {brief(p)} and {brief(q)} lies on the cubic")
    # restriction is lam*mu*(c2*lam + c1*mu); third root at (c1 : -c2)
    coords = tuple(c1 * a - c2 * b for a, b in zip(p.coords, q.coords))
    return ProjPoint(coords)


def tangent_third(cubic: Cubic, p: ProjPoint) -> ProjPoint:
    """Residual intersection of the tangent at p (p itself at an inflection).

    The restriction to the tangent has a double root at p: c3 = F(p) = 0, and
    c2 = grad F(p) . q = 0 because q lies on the tangent line grad F(p).
    """
    line = tangent_at(cubic, p)
    q = point_on_line(line, p)
    _, _, c1, c0 = _chord_coefficients(cubic, p.coords, q.coords)
    if c1 == 0 and c0 == 0:
        raise LineComponent(f"the tangent at {brief(p)} lies on the cubic")
    if c1 == 0:
        return p
    coords = tuple(c0 * a - c1 * b for a, b in zip(p.coords, q.coords))
    return ProjPoint(coords)


def chord_third(cubic: Cubic, p: ProjPoint, q: ProjPoint) -> ProjPoint:
    """third_intersection for distinct points, tangent_third when p == q."""
    return tangent_third(cubic, p) if p == q else third_intersection(cubic, p, q)


# --- fitting ------------------------------------------------------------

def narrow(basis: tuple[Cubic, ...], values) -> tuple[Cubic, ...]:
    """The cubics of the family spanned by `basis` through a point, given
    `values`, each basis cubic's value there.

    With c_p the first basis cubic that misses the point, the narrowed
    family is spanned by v_p c_i - v_i c_p (i != p); `basis` comes back
    unchanged when none misses.  Pivoting on the first one keeps a basis in
    reduced form, as the ten monomials are: along the basis, each cubic's
    last nonzero coefficient sits at a strictly later column, where every
    other basis cubic is zero.  c_p is zero at the later cubics' columns,
    and the earlier ones do not miss, so they are only rescaled.  A family
    has one basis in reduced form up to the scale of each cubic, which
    `Cubic` fixes, so the basis does not depend on the order of the points.
    """
    p = next((i for i, v in enumerate(values) if v), None)
    if p is None:
        return basis
    vp, cp = values[p], basis[p].coeffs
    return tuple(
        Cubic.of([vp * a - v * b for a, b in zip(c.coeffs, cp)])
        for i, (c, v) in enumerate(zip(basis, values))
        if i != p
    )


def cubic_family_through(points) -> tuple[Cubic, ...]:
    """Basis of the linear family of cubics through the given points: the
    ten monomials, narrowed by each point in turn (a repeated point
    narrows nothing)."""
    basis = tuple(Cubic.of([int(i == k) for i in range(10)]) for k in range(10))
    for point in points:
        basis = narrow(basis, [evaluate(c, point) for c in basis])
    return basis


def fit_cubic_9(points) -> Cubic:
    """The unique cubic through 9 points in general position.

    Raises AmbiguousFit when the cubics through them form a larger family.
    Some cubic always passes: each point narrows the ten-dimensional space
    of cubics by at most one dimension.
    """
    points = list(points)
    if len(points) != 9:
        raise ValueError(f"need exactly 9 points, got {len(points)}")
    if len(set(points)) != 9:
        raise DuplicatePoints("the 9 points must be pairwise distinct")
    basis = cubic_family_through(points)
    if len(basis) > 1:
        raise AmbiguousFit(f"cubics through the points form a {len(basis)}-dimensional family")
    return basis[0]
