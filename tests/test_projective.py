import random
from fractions import Fraction

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from schroeter.errors import (
    IdenticalLines,
    IdenticalPoints,
    TooDegenerate,
)
from schroeter.projective import (
    ProjLine,
    ProjPoint,
    all_collinear,
    collinear,
    incident,
    join,
    meet,
    span_coordinates,
)

from oracles import INFINITY, NotCollinear, NotConcurrent, cross_ratio_lines, cross_ratio_points

small_ints = st.integers(min_value=-30, max_value=30)
triples = st.tuples(small_ints, small_ints, small_ints).filter(lambda t: any(t))
nonzero = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)


class TestCanonicalForm:
    @given(triples, nonzero)
    def test_scaling_invariance(self, t, k):
        assert ProjPoint(t) == ProjPoint(tuple(k * c for c in t))

    @given(triples)
    def test_idempotent(self, t):
        p = ProjPoint(t)
        assert ProjPoint(p.coords) == p
        first = next(c for c in p.coords if c)
        assert first > 0

    def test_rational_input(self):
        assert ProjPoint.of(Fraction(1, 16), Fraction(23, 64), 1) == ProjPoint.of(4, 23, 64)
        assert ProjPoint.affine("1/2", "3") == ProjPoint.of(1, 6, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((0, 0, 0))

    def test_span_coordinates(self):
        assert span_coordinates((3, 5, 0), (1, 0, 0), (0, 1, 0)) == (3, 5)
        with pytest.raises(ValueError, match="proportional"):
            span_coordinates((3, 5, 0), (1, 0, 0), (-2, 0, 0))


class TestJoinMeet:
    def test_coordinate_axes(self):
        assert join(ProjPoint.of(1, 0, 0), ProjPoint.of(0, 1, 0)) == ProjLine.of(0, 0, 1)

    def test_join_example(self):
        assert join(ProjPoint.of(0, 1, 0), ProjPoint.of(1, 1, 1)) == ProjLine.of(1, 0, -1)

    def test_join_identical(self):
        with pytest.raises(IdenticalPoints):
            join(ProjPoint.of(1, 2, 1), ProjPoint.of(1, 2, 1))

    def test_meet_example(self):
        assert meet(ProjLine.of(0, 1, 0), ProjLine.of(1, 0, -1)) == ProjPoint.of(1, 0, 1)

    def test_parallel_lines_meet_at_infinity(self):
        p = meet(ProjLine.of(1, 0, 0), ProjLine.of(1, 0, -2))
        assert p == ProjPoint.of(0, 1, 0)
        assert p.is_infinite

    def test_meet_identical(self):
        with pytest.raises(IdenticalLines):
            meet(ProjLine.of(0, 0, 1), ProjLine.of(0, 0, 1))

    @given(triples, triples)
    def test_duality(self, t1, t2):
        p, q = ProjPoint(t1), ProjPoint(t2)
        assume(p != q)
        line = join(p, q)
        assert incident(p, line) and incident(q, line)
        # dual statement: the meet of two lines is incident to both
        l1, l2 = ProjLine(t1), ProjLine(t2)
        pt = meet(l1, l2)
        assert incident(pt, l1) and incident(pt, l2)


class TestCollinear:
    def test_on_axis(self):
        assert collinear(ProjPoint.of(0, 0, 1), ProjPoint.of(1, 0, 1), ProjPoint.of(2, 0, 1))
        # two distinct points, however often repeated, lie on their join
        assert all_collinear([ProjPoint.of(0, 0, 1), ProjPoint.of(1, 1, 1), ProjPoint.of(0, 0, 1)])

    def test_not_collinear(self):
        assert not collinear(ProjPoint.of(0, 0, 1), ProjPoint.of(1, 0, 1), ProjPoint.of(1, 1, 1))
        assert not all_collinear([ProjPoint.of(0, 0, 1), ProjPoint.of(1, 0, 1), ProjPoint.of(1, 1, 1)])

    def test_slope_two(self):
        assert collinear(ProjPoint.of(1, 2, 1), ProjPoint.of(2, 4, 1), ProjPoint.of(0, 0, 1))


def _axis_point(t):
    """Point with affine parameter t on the x-axis; INFINITY for the direction."""
    if t is INFINITY:
        return ProjPoint.of(1, 0, 0)
    return ProjPoint.of(Fraction(t), 0, 1)


class TestCrossRatioPoints:
    def test_harmonic(self):
        pts = [_axis_point(t) for t in (0, INFINITY, 1, -1)]
        assert cross_ratio_points(*pts) == Fraction(-1)

    def test_convention(self):
        pts = [_axis_point(t) for t in (0, 1, INFINITY, -1)]
        assert cross_ratio_points(*pts) == Fraction(2)

    def test_coincident_last_pair(self):
        p = _axis_point(2)
        assert cross_ratio_points(_axis_point(0), _axis_point(1), p, p) == Fraction(1)

    def test_infinite_value(self):
        pts = [_axis_point(t) for t in (0, 1, -1, 0)]
        # p1 == p4 makes the denominator vanish
        assert cross_ratio_points(*pts) is INFINITY

    def test_not_collinear(self):
        with pytest.raises(NotCollinear):
            cross_ratio_points(
                ProjPoint.of(0, 0, 1), ProjPoint.of(1, 0, 1),
                ProjPoint.of(1, 1, 1), ProjPoint.of(2, 0, 1),
            )

    def test_too_degenerate(self):
        p, q = _axis_point(0), _axis_point(1)
        with pytest.raises(TooDegenerate):
            cross_ratio_points(p, p, q, q)


def _slope_line(m):
    """Line through the origin with slope m (INFINITY for the vertical)."""
    if m is INFINITY:
        return ProjLine.of(1, 0, 0)
    f = Fraction(m)
    return ProjLine.of(f.numerator, -f.denominator, 0)


class TestCrossRatioLines:
    def test_harmonic_pencil(self):
        lines = [_slope_line(m) for m in (0, INFINITY, 1, -1)]
        assert cross_ratio_lines(*lines) == Fraction(-1)

    def test_convention(self):
        lines = [_slope_line(m) for m in (0, 1, INFINITY, -1)]
        assert cross_ratio_lines(*lines) == Fraction(2)

    def test_not_concurrent(self):
        with pytest.raises(NotConcurrent):
            cross_ratio_lines(
                ProjLine.of(0, 1, 0), ProjLine.of(1, 0, 0),
                ProjLine.of(1, 1, -1), ProjLine.of(1, -1, -1),
            )

    def test_transversal_agreement(self):
        # the pencil value equals the cross-ratio of the four hits on any
        # transversal missing the carrier
        rng = random.Random(7)
        for _ in range(20):
            carrier = ProjPoint.of(rng.randint(-4, 4), rng.randint(-4, 4), 1)
            others = []
            while len(others) < 4:
                q = ProjPoint.of(rng.randint(-6, 6), rng.randint(-6, 6), 1)
                if q != carrier and all(not collinear(carrier, q, o) for o in others):
                    others.append(q)
            lines = [join(carrier, q) for q in others]
            expected = cross_ratio_lines(*lines)
            # points of the line through others[0] and others[1]
            p0, p1 = others[0].coords, others[1].coords
            found = 0
            for pt in (ProjPoint(tuple(u + k * v for u, v in zip(p0, p1))) for k in range(8)):
                if found == 2:
                    break
                for shift in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 1, 1)):
                    try:
                        transversal = join(pt, ProjPoint(tuple(a + b for a, b in zip(pt.coords, shift))))
                    except IdenticalPoints:
                        continue
                    if incident(carrier, transversal):
                        continue
                    hits = [meet(transversal, l) for l in lines]
                    assert cross_ratio_points(*hits) == expected
                    found += 1
                    break
            assert found == 2


class TestHomography:
    @given(st.tuples(*(small_ints,) * 9))
    @settings(max_examples=60)
    def test_cross_ratio_invariance(self, entries):
        rows = (entries[0:3], entries[3:6], entries[6:9])
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assume(det != 0)
        pts = [_axis_point(t) for t in (0, 3, 1, -2)]
        images = [
            ProjPoint(tuple(sum(r * c for r, c in zip(row, p.coords)) for row in rows)) for p in pts
        ]
        assert cross_ratio_points(*images) == cross_ratio_points(*pts)
