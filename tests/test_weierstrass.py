import random
from fractions import Fraction

import pytest

from schroeter import cubic
from schroeter.cubic import evaluate
from schroeter.errors import (
    BasePointDegenerate,
    CompleteQuadrilateral,
    DegenerateDirection,
    NotOnCurve,
    OffChartCurve,
    ValidationError,
    ZeroDenominator,
)
from schroeter.projective import ProjPoint
from schroeter.weierstrass import (
    NEUTRAL,
    TWO_TORSION,
    WeierstrassCurve,
    add,
    conjugate_point,
    involution_center_product,
    neg,
    seed_from_curve,
    to_abc_chart,
)

from oracles import chart_conjugate, conjugate_affine_form, from_chart, multiply


def pt(x, y):
    return ProjPoint.affine(x, y)


class TestCurveModel:
    def test_as_cubic_coefficients(self, curve12):
        assert curve12.cubic.coeffs == (1, 0, 1, 0, 0, 2, 0, -1, 0, 0)

    def test_neutral_and_torsion_on_curve(self, curve12):
        assert evaluate(curve12.cubic, NEUTRAL) == 0
        assert evaluate(curve12.cubic, TWO_TORSION) == 0

    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            WeierstrassCurve(2, 1)  # a^2 == 4b
        with pytest.raises(ValidationError):
            WeierstrassCurve(1, 0)


class TestGroupLaw:
    def test_chord_addition(self, curve12):
        assert add(curve12, pt(1, 2), pt(2, 4)) == TWO_TORSION

    def test_neutral_element(self, curve12):
        p = pt(1, 2)
        assert add(curve12, p, NEUTRAL) == p
        assert add(curve12, NEUTRAL, p) == p

    def test_two_torsion(self, curve12):
        assert add(curve12, TWO_TORSION, TWO_TORSION) == NEUTRAL

    def test_negation_is_y_flip(self, curve12):
        base = pt(1, 2)
        for n in range(1, 8):
            p = multiply(curve12, n, base)
            if p == NEUTRAL:
                continue
            x, y = p.to_affine()
            assert neg(curve12, p) == ProjPoint.affine(x, -y)

    def test_commutative(self, curve12):
        base = pt(1, 2)
        pts = [multiply(curve12, n, base) for n in range(1, 6)]
        for p in pts:
            for q in pts:
                assert add(curve12, p, q) == add(curve12, q, p)

    def test_associative(self, curve12):
        rng = random.Random(13)
        base = pt(1, 2)
        pts = [multiply(curve12, n, base) for n in range(-4, 5) if n]
        for _ in range(50):
            p, q, r = (rng.choice(pts) for _ in range(3))
            assert add(curve12, add(curve12, p, q), r) == add(curve12, p, add(curve12, q, r))

    def test_inverse(self, curve12):
        base = pt(1, 2)
        for n in range(1, 6):
            p = multiply(curve12, n, base)
            assert add(curve12, p, neg(curve12, p)) == NEUTRAL

    def test_requires_on_curve(self, curve12):
        with pytest.raises(NotOnCurve):
            add(curve12, pt(1, 1), pt(1, 2))

    def test_neutral_and_torsion_negate_to_themselves(self, curve12):
        assert neg(curve12, NEUTRAL) == NEUTRAL
        assert neg(curve12, TWO_TORSION) == TWO_TORSION

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_neutral_and_doubling_on_multiples(self, curve12, n):
        p = multiply(curve12, n, pt(1, 2))
        assert add(curve12, NEUTRAL, p) == add(curve12, p, NEUTRAL) == p
        assert add(curve12, p, p) == multiply(curve12, 2, p)

    @pytest.mark.parametrize("call", [
        lambda c, q: add(c, NEUTRAL, q),
        lambda c, q: add(c, q, NEUTRAL),
        lambda c, q: add(c, q, q),
        lambda c, q: neg(c, q),
    ], ids=["O+q", "q+O", "q+q", "-q"])
    def test_off_curve_point_rejected(self, curve12, call):
        with pytest.raises(NotOnCurve):
            call(curve12, pt(1, 1))

    def test_conjugate_evaluates_the_cubic_eight_times(self, monkeypatch):
        # two chords of four evaluations each: P.T, then O.(P.T)
        calls = []
        original = cubic._eval_triple

        def counting(form, t):
            calls.append(t)
            return original(form, t)

        monkeypatch.setattr(cubic, "_eval_triple", counting)
        assert conjugate_point(WeierstrassCurve(1, 2), pt(1, 2)) == pt(2, -4)
        assert len(calls) == 8


class TestConjugation:
    def test_golden(self, curve12):
        assert conjugate_point(curve12, pt(1, 2)) == pt(2, -4)

    def test_involution(self, curve12):
        p = pt(1, 2)
        assert conjugate_point(curve12, conjugate_point(curve12, p)) == p

    def test_large_coordinates(self, curve12):
        assert conjugate_point(curve12, pt(32, -184)) == ProjPoint.of(4, 23, 64)

    def test_closed_form_agreement(self, curve12):
        base = pt(1, 2)
        for n in range(1, 10):
            p = multiply(curve12, n, base)
            if p in (NEUTRAL, TWO_TORSION):
                continue
            assert conjugate_point(curve12, p) == conjugate_affine_form(curve12, p)

    def test_torsion_swap(self, curve12):
        assert conjugate_point(curve12, TWO_TORSION) == NEUTRAL
        assert conjugate_point(curve12, NEUTRAL) == TWO_TORSION


class TestChart:
    def test_chart_parameters(self, curve12):
        cm = to_abc_chart(curve12, pt(1, 2))
        assert (cm.chart.alpha, cm.chart.beta, cm.chart.gamma) == (
            Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
        )
        assert cm.chart.alpha + cm.chart.beta + cm.chart.gamma == 1

    def test_base_maps_to_unit(self, curve12):
        cm = to_abc_chart(curve12, pt(1, 2))
        assert cm.to_chart(pt(1, 2)) == (1, 1)

    def test_point_map_goldens(self, curve12):
        cm = to_abc_chart(curve12, pt(1, 2))
        assert cm.to_chart(pt(2, 4)) == (Fraction(1, 2), 1)
        assert cm.to_chart(ProjPoint.of(4, 23, 64)) == (16, Fraction(23, 8))

    def test_map_preserves_curves_both_ways(self, curve12):
        cm = to_abc_chart(curve12, pt(1, 2))
        base = pt(1, 2)
        for n in range(1, 8):
            p = multiply(curve12, n, base)
            if p.is_infinite or p.coords[0] == 0:
                continue
            x, y = cm.to_chart(p)
            assert cm.chart.contains(x, y)
            assert from_chart(cm, x, y) == p

    def test_degenerate_base(self, curve12):
        # a base with x = 0, and the one point at infinity
        for base in (TWO_TORSION, NEUTRAL):
            with pytest.raises(BasePointDegenerate):
                to_abc_chart(curve12, base)

    def test_chart_conjugate_goldens(self, curve12):
        chart = to_abc_chart(curve12, pt(1, 2)).chart
        assert chart_conjugate(chart, (16, Fraction(23, 8))) == (Fraction(1, 32), Fraction(-23, 8))
        assert chart_conjugate(chart, (1, 1)) == (Fraction(1, 2), -1)
        assert chart.contains(Fraction(1, 2), -1)

    def test_chart_conjugate_involution(self, curve12):
        chart = to_abc_chart(curve12, pt(1, 2)).chart
        p = (16, Fraction(23, 8))
        assert chart_conjugate(chart, chart_conjugate(chart, p)) == p

    def test_chart_conjugate_off_curve(self, curve12):
        chart = to_abc_chart(curve12, pt(1, 2)).chart
        with pytest.raises(OffChartCurve):
            chart_conjugate(chart, (1, 2))


class TestCenterProduct:
    def test_golden_instance(self, curve12):
        chart = to_abc_chart(curve12, pt(1, 2)).chart
        result = involution_center_product(chart, (1, 1), (16, Fraction(23, 8)), (Fraction(1, 32), Fraction(-23, 8)))
        assert result.center == (0, 1)
        assert result.s_p == Fraction(-1, 8)
        assert result.s_pbar == -4
        assert result.product == Fraction(1, 2) == chart.gamma * 1

    def test_degenerate_direction(self, curve12):
        chart = to_abc_chart(curve12, pt(1, 2)).chart
        with pytest.raises(DegenerateDirection):
            involution_center_product(chart, (1, 1), (Fraction(1, 2), 1), (1, -1))

    def test_product_independent_of_point(self, curve12):
        cm = to_abc_chart(curve12, pt(1, 2))
        chart = cm.chart
        base = pt(1, 2)
        hits = 0
        for n in range(2, 16):
            p = multiply(curve12, n, base)
            if p.is_infinite or p.coords[0] == 0:
                continue
            cp = cm.to_chart(p)
            try:
                result = involution_center_product(chart, (1, 1), cp, chart_conjugate(chart, cp))
            except (DegenerateDirection, ValidationError, ZeroDenominator):
                continue
            assert result.product == chart.gamma
            hits += 1
        assert hits >= 10


class TestSeedFromCurve:
    def test_curve12_pairs(self, curve12, curve12_seed):
        expected = {
            frozenset({pt(1, 2), pt(2, -4)}),
            frozenset({pt(2, 4), pt(1, -2)}),
            frozenset({ProjPoint.of(4, 23, 64), pt(32, -184)}),
        }
        got = {frozenset(p.points) for p in curve12_seed.pairs}
        assert got == expected

    def test_torsion_conjugates(self, torsion_seed_quadrilateral):
        got = {frozenset(p.points) for p in torsion_seed_quadrilateral.pairs}
        assert got == {
            frozenset({pt(2, 6), pt(2, -6)}),
            frozenset({pt(-2, 2), pt(-2, -2)}),
            frozenset({pt(-1, 0), pt(-4, 0)}),
        }

    def test_torsion_seed_is_quadrilateral(self, curve54):
        with pytest.raises(CompleteQuadrilateral):
            seed_from_curve(curve54, pt(2, 6), pt(-2, 2), pt(-1, 0))

    def test_two_torsion_base_collides(self, curve12):
        # T pairs with O; choosing B, C on the chord through T forces the
        # quadrilateral configuration
        with pytest.raises(CompleteQuadrilateral):
            seed_from_curve(curve12, pt(0, 0), pt(1, 2), pt(2, 4))

    def test_point_off_curve(self, curve12):
        with pytest.raises(NotOnCurve):
            seed_from_curve(curve12, pt(1, 3), pt(2, 4), pt(1, 2))
