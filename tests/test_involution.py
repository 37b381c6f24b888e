import random
from fractions import Fraction

import pytest

from schroeter.engine import PointPair, combine, is_complete_quadrilateral_pairing
from schroeter.errors import (
    DuplicatePoints,
    IdenticalLines,
    IdenticalPoints,
    NotInPencil,
)
from schroeter.involution import Involution, conjugate_line
from schroeter.projective import ProjLine, ProjPoint, join

from oracles import (
    ForbiddenCarrier,
    conjugate_pairs_from_quadrangle,
    cross_ratio_lines,
    involution_from_pairs,
    verify_involution,
)

ORIGIN = ProjPoint.of(0, 0, 1)


def slope_line(m):
    f = Fraction(m)
    return ProjLine.of(f.numerator, -f.denominator, 0)


VERTICAL = ProjLine.of(1, 0, 0)


@pytest.fixture
def negative_reciprocal():
    """The involution m -> -1/m on the pencil at the origin."""
    return Involution(ORIGIN, (slope_line(0), VERTICAL), (slope_line(1), slope_line(-1)))


class TestConjugateLine:
    def test_defining_pairs(self, negative_reciprocal):
        inv = negative_reciprocal
        assert conjugate_line(inv, slope_line(0)) == VERTICAL
        assert conjugate_line(inv, VERTICAL) == slope_line(0)
        assert conjugate_line(inv, slope_line(1)) == slope_line(-1)

    def test_slope_two(self, negative_reciprocal):
        assert conjugate_line(negative_reciprocal, slope_line(2)) == slope_line(Fraction(-1, 2))

    def test_involution_property(self, negative_reciprocal):
        rng = random.Random(11)
        for _ in range(50):
            m = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            d = slope_line(m)
            dbar = conjugate_line(negative_reciprocal, d)
            assert conjugate_line(negative_reciprocal, dbar) == d

    def test_choice_independence(self, negative_reciprocal):
        d = slope_line(Fraction(5, 3))
        reference = conjugate_line(negative_reciprocal, d, choice=0)
        for choice in range(1, 8):
            assert conjugate_line(negative_reciprocal, d, choice=choice) == reference

    def test_not_in_pencil(self, negative_reciprocal):
        with pytest.raises(NotInPencil):
            conjugate_line(negative_reciprocal, ProjLine.of(1, 0, -1))

    def test_random_involutions(self):
        rng = random.Random(5)
        built = 0
        while built < 20:
            carrier = ProjPoint.of(rng.randint(-5, 5), rng.randint(-5, 5), 1)
            slopes = rng.sample(range(-12, 13), 5)
            lines = []
            for m in slopes:
                other = ProjPoint.of(carrier.coords[0] + carrier.coords[2],
                                     carrier.coords[1] + m * carrier.coords[2],
                                     carrier.coords[2])
                lines.append(join(carrier, other))
            if len(set(lines)) < 5:
                continue
            inv = Involution(carrier, (lines[0], lines[1]), (lines[2], lines[3]))
            d = lines[4]
            dbar = conjugate_line(inv, d)
            assert conjugate_line(inv, dbar) == d
            assert conjugate_line(inv, d, choice=3) == dbar
            built += 1


class TestQuadranglePairs:
    A = ProjPoint.of(0, 0, 1)
    ABAR = ProjPoint.of(0, 1, 0)
    B = ProjPoint.of(1, 0, 0)
    BBAR = ProjPoint.of(1, 1, 1)

    def test_example(self):
        p = ProjPoint.of(2, 3, 1)
        pairs = conjugate_pairs_from_quadrangle(self.A, self.ABAR, self.B, self.BBAR, p)
        d, dbar = ProjPoint.of(1, 0, 1), ProjPoint.of(1, 1, 0)
        assert pairs[0] == (join(p, self.A), join(p, self.ABAR))
        assert pairs[1] == (join(p, self.B), join(p, self.BBAR))
        assert pairs[2] == (join(p, d), join(p, dbar))

    def test_forbidden_carrier(self):
        with pytest.raises(ForbiddenCarrier):
            conjugate_pairs_from_quadrangle(
                self.A, self.ABAR, self.B, self.BBAR, ProjPoint.of(1, 0, 1)
            )

    def test_cross_ratio_condition(self):
        p = ProjPoint.of(2, 3, 1)
        (a, abar), (b, bbar), (d, dbar) = conjugate_pairs_from_quadrangle(
            self.A, self.ABAR, self.B, self.BBAR, p
        )
        assert cross_ratio_lines(a, abar, b, d) == cross_ratio_lines(abar, a, bbar, dbar)

    def test_random_quadrangles_verify(self):
        rng = random.Random(17)
        built = 0
        while built < 20:
            pts = [ProjPoint.of(rng.randint(-6, 6), rng.randint(-6, 6), 1) for _ in range(4)]
            carrier = ProjPoint.of(rng.randint(-6, 6), rng.randint(-6, 6), 1)
            try:
                pairs = conjugate_pairs_from_quadrangle(*pts, carrier)
                inv = involution_from_pairs(pairs[0], pairs[1])
                assert verify_involution(inv, pairs)
            except (DuplicatePoints, ForbiddenCarrier, IdenticalLines, IdenticalPoints):
                continue
            built += 1


class TestVerifyInvolution:
    def test_three_pairs_true(self, negative_reciprocal):
        pairs = [
            (slope_line(0), VERTICAL),
            (slope_line(1), slope_line(-1)),
            (slope_line(2), slope_line(Fraction(-1, 2))),
        ]
        assert verify_involution(negative_reciprocal, pairs)

    def test_broken_third_pair(self, negative_reciprocal):
        pairs = [
            (slope_line(0), VERTICAL),
            (slope_line(1), slope_line(-1)),
            (slope_line(2), slope_line(3)),
        ]
        assert not verify_involution(negative_reciprocal, pairs)

    def test_vacuous_with_two_pairs(self, negative_reciprocal):
        pairs = [(slope_line(0), VERTICAL), (slope_line(1), slope_line(-1))]
        assert verify_involution(negative_reciprocal, pairs)


class TestCompleteQuadrilateral:
    # vertices of the four lines y=0, x=0, x+y=1, x=2
    PAIR_A = (ProjPoint.of(0, 0, 1), ProjPoint.of(2, -1, 1))
    PAIR_B = (ProjPoint.of(1, 0, 1), ProjPoint.of(0, 1, 0))
    PAIR_C = (ProjPoint.of(2, 0, 1), ProjPoint.of(0, 1, 1))

    def test_four_line_vertices(self):
        assert is_complete_quadrilateral_pairing(self.PAIR_A, self.PAIR_B, self.PAIR_C)

    def test_frame_configuration_is_not(self):
        assert not is_complete_quadrilateral_pairing(
            (ProjPoint.of(0, 0, 1), ProjPoint.of(0, 1, 0)),
            (ProjPoint.of(1, 0, 0), ProjPoint.of(1, 1, 1)),
            (ProjPoint.of(2, 3, 1), ProjPoint.of(5, 1, 1)),
        )

    def test_duplicate_points(self):
        with pytest.raises(DuplicatePoints):
            is_complete_quadrilateral_pairing(
                self.PAIR_A, self.PAIR_B, (ProjPoint.of(2, 0, 1), ProjPoint.of(0, 0, 1))
            )

    def test_combine_reproduces_the_six(self):
        # a quadrilateral pairing yields no new points under combination
        pairs = [PointPair.of(*self.PAIR_A), PointPair.of(*self.PAIR_B), PointPair.of(*self.PAIR_C)]
        six = {p for pair in pairs for p in pair.points}
        for i in range(3):
            for j in range(i + 1, 3):
                child = combine(pairs[i], pairs[j])
                assert set(child.points) <= six
