"""Exact projective geometry over the rationals.

Points and lines are primitive integer triples in a canonical form (gcd 1,
first nonzero entry positive), so equality is plain component equality and
every value is hashable.  All operations are pure and exact; points and
lines at infinity are ordinary values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    IdenticalLines,
    IdenticalPoints,
    brief,
)
from .record import record

Triple = tuple[int, int, int]


def _as_integers(values) -> tuple[int, ...]:
    """Clear denominators of rational values, returning integers."""
    fracs = [Fraction(v) for v in values]
    mult = lcm(*[f.denominator for f in fracs])
    return tuple([f.numerator * (mult // f.denominator) for f in fracs])


def _canon(ints) -> tuple[int, ...]:
    """A sequence of integers in primitive form: divided by their gcd, with
    the first nonzero entry positive."""
    g = gcd(*ints)
    if g == 0:
        raise ValueError("homogeneous coordinates must not all vanish")
    for v in ints:
        if v:
            if v < 0:
                g = -g
            break
    return tuple([v // g for v in ints])


def cross(u, v) -> Triple:
    """The cross product of two integer triples, not canonicalized: the join
    of two points or the meet of two lines, zero when the two coincide."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _det3(m) -> int:
    a, b, c = m
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


@record
class ProjPoint(NamedTuple("ProjPoint", [("coords", Triple)])):
    """A point of the rational projective plane in canonical integer form."""

    __slots__ = ()

    def __new__(cls, coords):
        return tuple.__new__(cls, (_canon(coords),))

    @classmethod
    def of(cls, x, y, z) -> "ProjPoint":
        """Build a point from integer, Fraction, or rational-string coordinates."""
        return cls(_as_integers((x, y, z)))

    @classmethod
    def affine(cls, x, y) -> "ProjPoint":
        return cls.of(x, y, 1)

    @property
    def is_infinite(self) -> bool:
        return self.coords[2] == 0

    def to_affine(self) -> tuple[Fraction, Fraction]:
        """Affine (x, y); raises on points at infinity."""
        x, y, z = self.coords
        if z == 0:
            raise ValueError(f"{brief(self)} has no affine coordinates")
        return Fraction(x, z), Fraction(y, z)

    def __repr__(self):
        return "({} : {} : {})".format(*self.coords)


@record
class ProjLine(NamedTuple("ProjLine", [("coeffs", Triple)])):
    """The line ux + vy + wz = 0, canonicalized the same way as points."""

    __slots__ = ()

    def __new__(cls, coeffs):
        return tuple.__new__(cls, (_canon(coeffs),))

    @classmethod
    def of(cls, u, v, w) -> "ProjLine":
        return cls(_as_integers((u, v, w)))

    def __repr__(self):
        return "[{} : {} : {}]".format(*self.coeffs)


def incident(point: ProjPoint, line: ProjLine) -> bool:
    p, l = point.coords, line.coeffs
    return p[0] * l[0] + p[1] * l[1] + p[2] * l[2] == 0


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The line through two distinct points."""
    if p == q:
        raise IdenticalPoints(f"cannot join {brief(p)} with itself")
    return ProjLine(cross(p.coords, q.coords))


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """The intersection point of two distinct lines (may be at infinity)."""
    if l == m:
        raise IdenticalLines(f"cannot intersect {brief(l)} with itself")
    return ProjPoint(cross(l.coeffs, m.coeffs))


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    return _det3((p.coords, q.coords, r.coords)) == 0


def all_collinear(points) -> bool:
    """True iff every point of the sequence lies on one line."""
    distinct = list(dict.fromkeys(points))
    if len(distinct) <= 2:
        return True
    line = join(distinct[0], distinct[1])
    return all(incident(p, line) for p in distinct[2:])


def point_on_line(line: ProjLine, other: ProjPoint) -> ProjPoint:
    """The first of the line's meets with x = 0, y = 0 and z = 0 that
    differs from `other`.  At least two of the meets are distinct points:
    the line is at most one of the three coordinate lines, and no point
    lies on all three."""
    u, v, w = line.coeffs
    meets = (ProjPoint(t) for t in ((0, w, -v), (w, 0, -u), (v, -u, 0)) if any(t))
    return next(p for p in meets if p != other)


def span_coordinates(v, b1, b2) -> tuple[int, int]:
    """Coordinates (up to scale) of triple v in the rank-2 basis (b1, b2).

    v must lie in the span; the caller guarantees this via a collinearity
    or concurrency check.
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if b1[i] * b2[j] - b1[j] * b2[i]:
            lam = v[i] * b2[j] - v[j] * b2[i]
            mu = b1[i] * v[j] - b1[j] * v[i]
            return lam, mu
    raise ValueError("basis vectors are proportional")
