"""Line involutions on a pencil.

An involution is pinned down by two conjugate line pairs through a common
carrier.  Conjugates are computed two independent ways: the classical ruler
construction (choose an auxiliary point on the line, draw two transversals,
intersect the cross-joins) and the induced projective involution on the
pencil parameter.  The two must agree exactly; a mismatch raises.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import NamedTuple

from .errors import (
    DegenerateChoice,
    IdenticalLines,
    IdenticalPoints,
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
    points_on_line,
    span_coordinates,
)
from .record import record

# Auxiliary reference points for the ruler construction, tried in order.
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


def _ruler_conjugate(inv: Involution, d: ProjLine, choice: int) -> ProjLine:
    """The ruler construction of the conjugate of d.

    The base point on d is the first admissible of six candidates: the
    first six points of points_on_line(d) other than the carrier, rotated
    left by choice % 6.  At each base, the pairs of its first four
    auxiliary lines are tried, each new line with those before it.  Both
    are drawn lazily: a construction that succeeds on its first base and
    pair canonicalizes no further point of d and joins no further line.
    """
    carrier = inv.carrier
    a, abar = inv.pair_a
    b, bbar = inv.pair_b

    candidates = islice((p for p in points_on_line(d) if p != carrier), 6)
    skipped = list(islice(candidates, choice % 6))
    for base in chain(candidates, skipped):
        aux_lines = []
        for ref in _AUX_POOL[choice % 3:] + _AUX_POOL[: choice % 3]:
            if ref == base or incident(ref, d):
                continue
            gbar = join(base, ref)
            if incident(carrier, gbar) or gbar in aux_lines:
                continue
            for g in aux_lines:
                try:
                    pa = meet(g, a)
                    pb = meet(g, b)
                    pabar = meet(gbar, abar)
                    pbbar = meet(gbar, bbar)
                    l1 = join(pa, pbbar)
                    l2 = join(pabar, pb)
                    dbar_point = meet(l1, l2)
                    return join(carrier, dbar_point)
                except (IdenticalPoints, IdenticalLines):
                    continue
            aux_lines.append(gbar)
            if len(aux_lines) == 4:
                break
    raise DegenerateChoice("no admissible auxiliary configuration found")


def conjugate_line(inv: Involution, d: ProjLine, *, choice: int = 0) -> ProjLine:
    """Conjugate of a pencil line under the involution.

    Computed by the ruler construction and cross-checked against the
    algebraic involution on the pencil parameter.  `choice` rotates the
    internal selection of auxiliary elements; every value yields the same
    line.
    """
    _require_in_pencil(inv.carrier, d)
    algebraic = _algebraic_conjugate(inv, d)
    if d == inv.pair_a[0] or d == inv.pair_a[1] or d == inv.pair_b[0] or d == inv.pair_b[1]:
        return algebraic
    ruler = _ruler_conjugate(inv, d, choice)
    if ruler != algebraic:
        raise InvariantViolation(
            f"ruler construction {brief(ruler)} disagrees with "
            f"the algebraic conjugate {brief(algebraic)}"
        )
    return ruler

