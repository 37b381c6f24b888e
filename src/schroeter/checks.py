"""Executable predicates for the classical claims behind the construction.

Each check returns a boolean and raises HypothesisFailed (or a more specific
degeneracy) when its premises do not hold, so callers can tell a refuted
claim from an inapplicable configuration.
"""

from __future__ import annotations

from .cubic import (
    Cubic,
    _eval_triple,
    chord_third,
    evaluate,
    gradient,
    tangent_third,
)
from .engine import PointPair
from .errors import (
    DegenerateHexagon,
    HypothesisFailed,
    LinesNotDistinct,
    NotOnCurve,
    TooDegenerate,
    brief,
)
from .projective import ProjLine, ProjPoint, Triple, collinear, cross, join
from .involution import Involution, conjugate_line
from .weierstrass import TWO_TORSION, WeierstrassCurve, conjugate_point


def _require_on(curve: Cubic, *points: ProjPoint):
    for p in points:
        if evaluate(curve, p) != 0:
            raise NotOnCurve(f"{brief(p)} is not on the cubic")


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# A Mersenne prime: a nonzero residue modulo it proves an integer nonzero.
_PRIME = 2**61 - 1


def tangent_meet(cubic: Cubic, p: ProjPoint, pbar: ProjPoint) -> tuple[Triple, Triple, Triple] | None:
    """The meet m of the tangents at p and pbar as a raw triple, when m is a
    point of the cubic and neither tangent is a component of it: m is then
    the tangential point of both, at some scale.  It is returned with the
    gradients at p and pbar, which chord_collinearity reuses.  None decides
    nothing.

    With dF the gradient, F(lam*p + mu*m) = lam^3 F(p) + lam^2 mu dF(p).m
    + lam mu^2 dF(m).p + mu^3 F(m).  When p and m are on the cubic and m is
    on the tangent at p, only the lam mu^2 term is left.  If dF(m).p is not
    zero, the tangent meets the cubic at p twice and at m once, so m is not
    p and the tangent is no component.  A zero meet has a zero gradient, so
    it never passes.  The two nonzero tests run modulo _PRIME first; a zero
    residue falls back to the exact dot.
    """
    gp, gpbar = gradient(cubic, p.coords), gradient(cubic, pbar.coords)
    if _dot(gp, p.coords) or _dot(gpbar, pbar.coords):
        return None
    m = cross(gp, gpbar)
    if _eval_triple(cubic, m):
        return None
    gm = gradient(cubic, [c % _PRIME for c in m])
    for q in (p.coords, pbar.coords):
        if not _dot(gm, [c % _PRIME for c in q]) % _PRIME and not _dot(gradient(cubic, m), q):
            return None
    return m, gp, gpbar


def chord_collinearity(a: ProjPoint, abar: ProjPoint, meet) -> bool:
    """chords' fast test, given the pair's tangent_meet result: True proves
    the chord claim of chord_tangency_check for a Weierstrass cubic, and
    False decides nothing.

    The chord's coefficients (c3, c2, c1, c0), those of F(lam*a + mu*abar)
    as a binary cubic, are c2 = dF(a).abar and c1 = dF(abar).a, and
    c3 = c0 = 0 by tangent_meet's Euler tests.  The chord's third point b
    is then the raw triple c1*a - c2*abar: it is neither a nor abar exactly
    when c1*c2 != 0, and it is T = (0 : 0 : 1) exactly when b0 = b1 = 0.
    With n the negated meet, the claim holds when b != T, n != T, b != n
    and det(b, T, n) = 0.  b != n is decided modulo _PRIME: a nonzero
    residue of either cross term proves it."""
    m, ga, gabar = meet
    c2, c1 = _dot(ga, abar.coords), _dot(gabar, a.coords)
    b0, b1, b2 = (c1 * p - c2 * q for p, q in zip(a.coords, abar.coords))
    n0, n1, n2 = m[0], -m[1], m[2]
    if not (c1 and c2 and (b0 or b1) and (n0 or n1) and b0 * n1 == b1 * n0):
        return False
    r0, r1, r2, m0, m1, m2 = (c % _PRIME for c in (b0, b1, b2, n0, n1, n2))
    return bool((r0 * m2 - r2 * m0) % _PRIME or (r1 * m2 - r2 * m1) % _PRIME)


# The opposite sides of the hexagon (a, b, c, abar, bbar, cbar): the two
# lines of each as vertex indices, in the order their joins are tested, and
# whether _meets_on_curve combines the second line's vertices rather than
# the first's, so that it combines each vertex once.
_SIDES = (((0, 1), (3, 4), False), ((1, 2), (4, 5), True), ((2, 3), (5, 0), False))


def _meets_on_curve(curve: Cubic, hexagon) -> list[bool]:
    """Whether each opposite-side meet of an inscribed hexagon lies on the
    cubic, decided without forming the meet.

    The meet of the lines u v and s t is m = alpha*u + beta*v, with
    l = s x t, alpha = l.v and beta = -l.u.  When u and v are on the cubic,
    F(m) = alpha*beta*(alpha*dF(u).v + beta*dF(v).u), so m is on it exactly
    when alpha or beta is zero (m is then a vertex) or the bracket is.
    Each vertex's gradient dF is taken once, and by Euler's identity
    dF(p).p = 3F(p) it also tests that the vertex is on the cubic.  The two
    lines of a side are one exactly when alpha = beta = 0.  NotOnCurve names
    the first vertex off the cubic; then the sides are tested in order, and
    a degenerate one raises DegenerateHexagon whatever the others' meets.
    """
    grads = [gradient(curve, p.coords) for p in hexagon]
    for p, g in zip(hexagon, grads):
        if _dot(g, p.coords):
            raise NotOnCurve(f"{brief(p)} is not on the cubic")
    on_curve = []
    for first, second, swap in _SIDES:
        for s, t in (first, second):
            if hexagon[s] == hexagon[t]:
                raise DegenerateHexagon(f"cannot join {brief(hexagon[s])} with itself")
        (u, v), (s, t) = (second, first) if swap else (first, second)
        line = cross(hexagon[s].coords, hexagon[t].coords)
        pu, pv = hexagon[u].coords, hexagon[v].coords
        alpha, beta = _dot(line, pv), -_dot(line, pu)
        if not (alpha or beta):
            raise DegenerateHexagon(f"cannot intersect {brief(ProjLine(line))} with itself")
        on_curve.append(not (alpha and beta and alpha * _dot(grads[u], pv) + beta * _dot(grads[v], pu)))
    return on_curve


def chasles_check(
    curve: Cubic,
    a: ProjPoint,
    b: ProjPoint,
    c: ProjPoint,
    abar: ProjPoint,
    bbar: ProjPoint,
    cbar: ProjPoint,
) -> bool:
    """Chasles: for a hexagon a b c abar bbar cbar inscribed in the cubic,
    if two opposite-side meets lie on the curve then so does the third.

    Returns True vacuously when a hypothesis meet is off the curve.  The
    meets are the lines ab and abar bbar, bc and bbar cbar, c abar and
    cbar a; no meet is formed (see _meets_on_curve).
    """
    on1, on2, on3 = _meets_on_curve(curve, (a, b, c, abar, bbar, cbar))
    return on3 or not (on1 and on2)


def _pair_involution(s: ProjPoint, pair_a: PointPair, pair_b: PointPair) -> Involution:
    """The involution at s whose conjugate pairs are its joins to two pairs."""
    targets = (*pair_a.points, *pair_b.points)
    if s in targets:
        raise LinesNotDistinct(f"{brief(s)} coincides with a pair member")
    a, abar, b, bbar = lines = [join(s, t) for t in targets]
    if len(set(lines)) != 4:
        raise LinesNotDistinct(f"joining lines from {brief(s)} are not pairwise distinct")
    return Involution(s, (a, abar), (b, bbar))


def tangent_by_involution(
    curve: Cubic,
    s_pair: PointPair,
    p_pair: PointPair,
    q_pair: PointPair,
    contact: ProjPoint,
) -> ProjLine:
    """Ruler-only tangent at a construction point.

    Build the involution at the contact point from its joins to two other
    pairs; the conjugate of the join to the contact's own partner is the
    tangent.  Callers verify the result against tangent_at.
    """
    sbar = s_pair.other(contact)
    _require_on(curve, contact, sbar, *p_pair.points, *q_pair.points)
    return conjugate_line(_pair_involution(contact, p_pair, q_pair), join(contact, sbar))


def chord_tangency_check(curve: WeierstrassCurve, a: ProjPoint, abar: ProjPoint) -> bool:
    """The chord through a pair meets the cubic again at b = -(2a + T), whose
    conjugate -2a is the tangential point of a.  This holds exactly when
    abar = a + T, so that premise is tested only when the identity fails.

    The conjugate b + T is -(b.T), so the identity is b.T = n with n the
    negated tangential point (negation is (x : -y : z)).  n is on the cubic
    by construction: the tangential point is, and a Weierstrass form is
    even in y.  When b, T and n are distinct the identity is then one
    collinearity: a line meets the smooth cubic in three points, so n on
    the line bT is b.T.  chord_collinearity decides the same collinearity
    from the pair's tangent meet."""
    cubic = curve.cubic
    b = chord_third(cubic, a, abar)
    if b in (a, abar):
        raise TooDegenerate("tangent chord")
    x, y, z = tangent_third(cubic, a).coords
    n = ProjPoint((x, -y, z))
    if len({b, TWO_TORSION, n}) == 3:
        holds = collinear(b, TWO_TORSION, n)
    else:
        holds = chord_third(cubic, b, TWO_TORSION) == n
    if holds:
        return True
    if conjugate_point(curve, a) != abar:
        raise HypothesisFailed(f"{brief(abar)} is not the conjugate of {brief(a)}")
    return False


def conjugate_lines_check(
    curve: Cubic,
    r: ProjPoint,
    p_pair: PointPair,
    q_pair: PointPair,
    s_pair: PointPair,
) -> bool:
    """The joins from r to any further pair are conjugate lines of the
    involution defined by the joins from r to two base pairs."""
    _require_on(curve, r, *p_pair.points, *q_pair.points, *s_pair.points)
    for pair in (p_pair, q_pair, s_pair):
        if r in pair:
            raise LinesNotDistinct(f"{brief(r)} is a member of {brief(pair)}")
    inv = _pair_involution(r, p_pair, q_pair)
    s, sbar = s_pair.points
    return conjugate_line(inv, join(r, s)) == join(r, sbar)
