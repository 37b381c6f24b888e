"""Ternary cubic forms: exact fitting, incidence, tangents, and chord thirds.

Line-cubic intersections are computed by restricting the form to the chord
and factoring out the two known rational roots (Vieta), never by radical
root-finding, so everything stays in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
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

def _monomial_row(point: ProjPoint):
    x, y, z = point.coords
    return [
        x * x * x, x * x * y, x * x * z, x * y * y, x * y * z,
        x * z * z, y * y * y, y * y * z, y * z * z, z * z * z,
    ]


def _nullspace_basis(rows):
    """Exact nullspace basis of an integer matrix with 10 columns.

    Fraction-free (Bareiss) forward elimination, then Fraction
    back-substitution per free column; each vector is canonicalized.
    """
    m = [list(r) for r in rows]
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(10):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, len(m)):
            for j in range(c + 1, 10):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
    basis = []
    for free in (c for c in range(10) if c not in piv_cols):
        sol = [Fraction(0)] * 10
        sol[free] = Fraction(1)
        for i in reversed(range(len(piv_cols))):
            pc = piv_cols[i]
            if pc > free:
                continue
            s = sum((m[i][j] * sol[j] for j in range(pc + 1, 10)), Fraction(0))
            sol[pc] = -s / m[i][pc]
        basis.append(Cubic.of(sol))
    return basis


def cubic_family_through(points) -> tuple[Cubic, ...]:
    """Basis of the linear family of cubics through the given points."""
    rows = [_monomial_row(p) for p in dict.fromkeys(points)]
    return tuple(_nullspace_basis(rows))


def fit_cubic_9(points) -> Cubic:
    """The unique cubic through 9 points in general position.

    Raises AmbiguousFit when the incidence matrix has rank below 9.  Some
    cubic always passes: 9 rows in 10 unknowns leave a nullspace of
    dimension at least 1.
    """
    points = list(points)
    if len(points) != 9:
        raise ValueError(f"need exactly 9 points, got {len(points)}")
    if len(set(points)) != 9:
        raise DuplicatePoints("the 9 points must be pairwise distinct")
    basis = _nullspace_basis([_monomial_row(p) for p in points])
    if len(basis) > 1:
        raise AmbiguousFit(f"cubics through the points form a {len(basis)}-dimensional family")
    return basis[0]
