"""Line involutions on a pencil.

An involution is pinned down by two conjugate line pairs through a common
carrier.  Conjugates are computed two independent ways: the classical ruler
construction (take a point of the line, draw two transversals through it,
intersect the cross-joins) and the induced projective involution on the
pencil parameter.  The two must agree exactly; a mismatch raises.  The
ruler's line does not depend on the point taken, so one point is used.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    IdenticalLines,
    InvariantViolation,
    NotInPencil,
    brief,
)
from .projective import (
    ProjLine,
    ProjPoint,
    incident,
    join,
    meet,
    point_on_line,
    span_coordinates,
)
from .record import record

# Auxiliary reference points for the ruler construction, tried in order;
# no line holds more than 7 of them.
_AUX_POOL = tuple(
    ProjPoint(t)
    for t in (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -1, 1), (1, 2, 1),
        (2, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (3, 1, 1), (1, 3, 1),
        (2, 3, 1), (3, 2, 1), (1, -2, 1), (2, -1, 1),
    )
)


def _require_in_pencil(carrier: ProjPoint, line: ProjLine):
    if not incident(carrier, line):
        raise NotInPencil(f"{brief(line)} does not pass through the carrier {brief(carrier)}")


_LinePair = tuple[ProjLine, ProjLine]


@record
class Involution(
    NamedTuple("Involution", [("carrier", ProjPoint), ("pair_a", _LinePair), ("pair_b", _LinePair)])
):
    """A line involution given by two conjugate pairs through the carrier."""

    __slots__ = ()

    def __new__(cls, carrier, pair_a, pair_b):
        lines = (*pair_a, *pair_b)
        for line in lines:
            _require_in_pencil(carrier, line)
        if len(set(lines)) != 4:
            raise IdenticalLines("an involution needs two pairs of four distinct lines")
        return tuple.__new__(cls, (carrier, pair_a, pair_b))


def _pencil_param(inv: Involution, line: ProjLine) -> tuple[int, int]:
    """Parameter of a pencil line in the basis (pair_a[0], pair_a[1])."""
    _require_in_pencil(inv.carrier, line)
    return span_coordinates(line.coeffs, inv.pair_a[0].coeffs, inv.pair_a[1].coeffs)


def _line_from_param(inv: Involution, param) -> ProjLine:
    lam, mu = param
    a, abar = inv.pair_a[0].coeffs, inv.pair_a[1].coeffs
    return ProjLine(tuple(lam * u + mu * v for u, v in zip(a, abar)))


def _algebraic_conjugate(inv: Involution, d: ProjLine) -> ProjLine:
    # In the basis (a, abar) the symmetric pairing has no mixed term, so the
    # involution on parameters is (p0 : p1) -> (lb*lbbar*p1 : mb*mbbar*p0).
    lb, mb = _pencil_param(inv, inv.pair_b[0])
    lbb, mbb = _pencil_param(inv, inv.pair_b[1])
    p0, p1 = _pencil_param(inv, d)
    return _line_from_param(inv, (lb * lbb * p1, mb * mbb * p0))


def _ruler_conjugate(inv: Involution, d: ProjLine, base: ProjPoint) -> ProjLine:
    """The ruler construction of the conjugate of d from the point X = base
    of d, other than the carrier C.

    g and gbar join X to the first points of _AUX_POOL that lie off d and
    give two distinct lines.  With pa, pb the meets of g with a, b and
    pabar, pbbar those of gbar with abar, bbar, the conjugate joins C to
    the meet of pa pbbar and pabar pb.  No step can degenerate:
    - d is the only line through both X and C, so g and gbar miss C;
    - two meets on distinct lines of the pencil differ, as neither is C;
    - the cross-joins differ: one line through all four meets would be
      both g and gbar;
    - C is not on pa pbbar, which would then be a, meeting bbar only at C;
    - gbar exists, since a line holds at most 7 of the 16 pool points.
    """
    carrier = inv.carrier
    (a, abar), (b, bbar) = inv.pair_a, inv.pair_b
    lines = (join(base, ref) for ref in _AUX_POOL if not incident(ref, d))
    g = next(lines)
    gbar = next(line for line in lines if line != g)
    pa, pb = meet(g, a), meet(g, b)
    pabar, pbbar = meet(gbar, abar), meet(gbar, bbar)
    return join(carrier, meet(join(pa, pbbar), join(pabar, pb)))


def conjugate_line(inv: Involution, d: ProjLine) -> ProjLine:
    """Conjugate of a pencil line under the involution.

    Computed by the ruler construction and cross-checked against the
    algebraic involution on the pencil parameter.
    """
    _require_in_pencil(inv.carrier, d)
    algebraic = _algebraic_conjugate(inv, d)
    if d == inv.pair_a[0] or d == inv.pair_a[1] or d == inv.pair_b[0] or d == inv.pair_b[1]:
        return algebraic
    ruler = _ruler_conjugate(inv, d, point_on_line(d, inv.carrier))
    if ruler != algebraic:
        raise InvariantViolation(
            f"ruler construction {brief(ruler)} disagrees with "
            f"the algebraic conjugate {brief(algebraic)}"
        )
    return ruler
