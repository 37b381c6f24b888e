"""Exact projective geometry over the rationals.

Points and lines are primitive integer triples in a canonical form (gcd 1,
first nonzero entry positive), so equality is plain component equality and
every value is hashable.  All operations are pure and exact; points and
lines at infinity are ordinary values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import (
    DegenerateFrame,
    IdenticalLines,
    IdenticalPoints,
    NotCollinear,
    NotConcurrent,
    SingularMatrix,
    TooDegenerate,
    brief,
)

Triple = tuple[int, int, int]
Matrix = tuple[Triple, Triple, Triple]


class _Infinity:
    """The infinite cross-ratio value (vanishing denominator)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INFINITY = _Infinity()


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


@dataclass(frozen=True)
class ProjPoint:
    """A point of the rational projective plane in canonical integer form."""

    coords: Triple

    def __post_init__(self):
        object.__setattr__(self, "coords", _canon(self.coords))

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

    @property
    def key(self) -> str:
        return ":".join(str(c) for c in self.coords)

    def __repr__(self):
        return "({} : {} : {})".format(*self.coords)


@dataclass(frozen=True)
class ProjLine:
    """The line ux + vy + wz = 0, canonicalized the same way as points."""

    coeffs: Triple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canon(self.coeffs))

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


def points_on_line(line: ProjLine):
    """Yield distinct canonical points on the line, small coordinates first."""
    u, v, w = line.coeffs
    base = [(0, w, -v), (w, 0, -u), (v, -u, 0)]
    seen: list[ProjPoint] = []
    for t in base:
        if any(t):
            p = ProjPoint(t)
            if p not in seen:
                seen.append(p)
                yield p
    b1, b2 = seen[0].coords, seen[1].coords
    k = 1
    while True:
        for lam, mu in ((1, k), (k, 1), (1, -k), (-k, 1)):
            t = tuple(lam * a + mu * b for a, b in zip(b1, b2))
            if any(t):
                p = ProjPoint(t)
                if p not in seen:
                    seen.append(p)
                    yield p
        k += 1


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


def cross_ratio_params(t1, t2, t3, t4):
    """Cross-ratio of four homogeneous parameters (lam, mu) on a projective line.

    Convention: cr(p1, p2; p3, p4) = (p1-p3)(p2-p4) / ((p1-p4)(p2-p3)) on
    affine parameters, extended projectively.  Returns a Fraction or INFINITY.
    """

    def d(u, v):
        return u[0] * v[1] - v[0] * u[1]

    num = d(t1, t3) * d(t2, t4)
    den = d(t1, t4) * d(t2, t3)
    if den == 0:
        if num == 0:
            raise TooDegenerate("cross-ratio is indeterminate for these parameters")
        return INFINITY
    return Fraction(num, den)


def cross_ratio_points(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint, p4: ProjPoint):
    """Cross-ratio of four collinear points, at least three pairwise distinct."""
    pts = (p1, p2, p3, p4)
    distinct = list(dict.fromkeys(pts))
    if len(distinct) < 3:
        raise TooDegenerate("need at least three distinct points for a cross-ratio")
    line = join(distinct[0], distinct[1])
    for p in pts:
        if not incident(p, line):
            raise NotCollinear(f"{brief(p)} is not on the common line {brief(line)}")
    b1, b2 = distinct[0].coords, distinct[1].coords
    params = [span_coordinates(p.coords, b1, b2) for p in pts]
    return cross_ratio_params(*params)


def cross_ratio_lines(a: ProjLine, b: ProjLine, c: ProjLine, d: ProjLine):
    """Cross-ratio of four concurrent lines, at least three pairwise distinct.

    Equals the cross-ratio of the four intersection points with any
    transversal line avoiding the carrier.
    """
    lines = (a, b, c, d)
    distinct = list(dict.fromkeys(lines))
    if len(distinct) < 3:
        raise TooDegenerate("need at least three distinct lines for a cross-ratio")
    carrier = meet(distinct[0], distinct[1])
    for l in lines:
        if not incident(carrier, l):
            raise NotConcurrent(f"{brief(l)} does not pass through the carrier {brief(carrier)}")
    b1, b2 = distinct[0].coeffs, distinct[1].coeffs
    params = [span_coordinates(l.coeffs, b1, b2) for l in lines]
    return cross_ratio_params(*params)


# --- homographies -----------------------------------------------------------

def matrix_of(rows) -> Matrix:
    """Canonical primitive-integer 3x3 matrix from rational entries."""
    flat = _as_integers([v for row in rows for v in row])
    if len(flat) != 9:
        raise ValueError("a homography needs a 3x3 matrix")
    if not any(flat):
        raise SingularMatrix("zero matrix")
    flat = _canon(flat)
    return (flat[0:3], flat[3:6], flat[6:9])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_adjugate(m: Matrix) -> Matrix:
    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else -minor

    # adjugate = transpose of the cofactor matrix
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def mat_apply(m: Matrix, p: ProjPoint) -> ProjPoint:
    x, y, z = p.coords
    return ProjPoint(tuple(m[i][0] * x + m[i][1] * y + m[i][2] * z for i in range(3)))


def apply_homography(m, p: ProjPoint) -> ProjPoint:
    """Image of a point under a nonsingular projective map."""
    mat = m if isinstance(m, tuple) and len(m) == 3 and isinstance(m[0], tuple) else matrix_of(m)
    if _det3(mat) == 0:
        raise SingularMatrix("homography matrix is singular")
    return mat_apply(mat, p)


def _frame_matrix(q1: ProjPoint, q2: ProjPoint, q3: ProjPoint, q4: ProjPoint) -> Matrix:
    """Integer matrix sending the standard basis frame e1,e2,e3,(1,1,1) to q1..q4."""
    cols = (q1.coords, q2.coords, q3.coords)
    q = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    adj = mat_adjugate(q)
    x, y, z = q4.coords
    scale = tuple(adj[i][0] * x + adj[i][1] * y + adj[i][2] * z for i in range(3))
    return tuple(
        tuple(cols[j][i] * scale[j] for j in range(3)) for i in range(3)
    )


_FRAME_TARGETS = (
    ProjPoint((0, 0, 1)),
    ProjPoint((0, 1, 0)),
    ProjPoint((1, 0, 0)),
    ProjPoint((1, 1, 1)),
)


def frame_map(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint, p4: ProjPoint) -> Matrix:
    """Homography sending p1,p2,p3,p4 to (0,0,1), (0,1,0), (1,0,0), (1,1,1).

    Requires that no three of the four points are collinear.
    """
    pts = (p1, p2, p3, p4)
    if len(set(pts)) != 4:
        raise DegenerateFrame("frame points must be pairwise distinct")
    for trio in combinations(pts, 3):
        if collinear(*trio):
            raise DegenerateFrame(f"frame points {', '.join(map(brief, trio))} are collinear")
    source = _frame_matrix(*pts)
    target = _frame_matrix(*_FRAME_TARGETS)
    return matrix_of(mat_mul(target, mat_adjugate(source)))
