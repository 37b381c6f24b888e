import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from schroeter.cubic import (
    Cubic,
    _eval_triple,
    chord_third,
    cubic_family_through,
    evaluate,
    fit_cubic_9,
    gradient,
    tangent_at,
    tangent_third,
    third_intersection,
)
from schroeter.engine import run
from schroeter.errors import (
    AmbiguousFit,
    IdenticalPoints,
    LineComponent,
    NotOnCurve,
    SingularPoint,
)
from schroeter.projective import ProjLine, ProjPoint, join
from schroeter.weierstrass import WeierstrassCurve

from conftest import cubics_with_points, random_frame_seeds
from oracles import (
    NotAffine,
    bootstrap_seed,
    eval_triple_by_terms,
    gradient_by_terms,
    multiply,
    normalized_frame_cubic,
    rank,
)

TWISTED = Cubic.of([1, 0, 0, 0, 0, 0, 0, 0, -1, 0])  # x^3 = y z^2
W12 = WeierstrassCurve(1, 2)


# integers with zero, small ones and ones of up to about 100 digits
entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**100, 10**100))
nonzero = entries.filter(bool)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


ON_CURVE = cubics_with_points()


class TestEvaluate:
    @given(st.lists(entries, min_size=10, max_size=10), st.tuples(entries, entries, entries))
    def test_horner_forms_equal_the_monomial_sums(self, coeffs, t):
        """The Horner value and the shared-product gradient are the integers
        that the term-by-term sums give."""
        assume(any(coeffs))
        cubic = Cubic.of(coeffs)
        assert _eval_triple(cubic, t) == eval_triple_by_terms(cubic, t)
        assert gradient(cubic, t) == gradient_by_terms(cubic, t)

    @given(st.lists(entries, min_size=10, max_size=10), st.tuples(entries, entries, entries))
    def test_euler_identity(self, coeffs, t):
        """dF(t).t = 3F(t) for any triple, on or off the curve."""
        assume(any(coeffs))
        cubic = Cubic.of(coeffs)
        assert _dot(gradient(cubic, t), t) == 3 * _eval_triple(cubic, t)

    @given(st.sampled_from(ON_CURVE).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.sampled_from(case[1]), st.sampled_from(case[1]))
    ), nonzero, nonzero)
    def test_polar_identity(self, case, alpha, beta):
        """For u and v on the cubic, F(alpha u + beta v) =
        alpha beta (alpha dF(u).v + beta dF(v).u)."""
        cubic, u, v = case
        u, v = u.coords, v.coords
        m = tuple(alpha * a + beta * b for a, b in zip(u, v))
        polar = alpha * _dot(gradient(cubic, u), v) + beta * _dot(gradient(cubic, v), u)
        assert _eval_triple(cubic, m) == alpha * beta * polar

    def test_parametrized_points(self):
        assert evaluate(TWISTED, ProjPoint.of(2, 8, 1)) == 0

    def test_off_curve_value(self):
        assert evaluate(TWISTED, ProjPoint.of(1, 0, 1)) == 1

    def test_weierstrass_point(self):
        assert evaluate(W12.cubic, ProjPoint.of(1, 2, 1)) == 0


class TestFit:
    def test_twisted_cubic(self):
        pts = [ProjPoint.of(t, t ** 3, 1) for t in (-4, -3, -2, -1, 0, 1, 2, 3, 5)]
        assert fit_cubic_9(pts) == TWISTED

    def test_symmetric_parameters_are_a_pencil(self):
        # t = -4..4 sums to zero, so the nine points lie on a pencil of cubics
        pts = [ProjPoint.of(t, t ** 3, 1) for t in range(-4, 5)]
        with pytest.raises(AmbiguousFit):
            fit_cubic_9(pts)

    def test_wrong_counts_rejected(self):
        with pytest.raises(ValueError, match="exactly 10 coefficients"):
            Cubic.of(TWISTED.coeffs[:9])
        with pytest.raises(ValueError, match="exactly 9 points, got 8"):
            fit_cubic_9([ProjPoint.of(t, t ** 3, 1) for t in range(8)])

    def test_conic_points_ambiguous(self):
        pts = [ProjPoint.of(t * t, t, 1) for t in range(-4, 5)]
        with pytest.raises(AmbiguousFit):
            fit_cubic_9(pts)

    def test_fit_vanishes_on_inputs(self):
        rng = random.Random(3)
        (seed,) = random_frame_seeds(rng, 1)
        boot = bootstrap_seed(seed)
        nine = [p for pair in seed.pairs for p in pair.points] + list(boot.direct)
        cubic = fit_cubic_9(nine)
        for p in nine:
            assert evaluate(cubic, p) == 0

    @staticmethod
    def check_family(points):
        """The family through the points: each basis cubic vanishes at every
        point, and the independent basis has 10 - rank cubics, the rank
        that of the points' rows of the ten cubic monomials."""
        basis = cubic_family_through(points)
        monomials = [
            [x**i * y**j * z ** (3 - i - j) for i in range(4) for j in range(4 - i)]
            for x, y, z in (p.coords for p in points)
        ]
        assert len(basis) == 10 - rank(monomials) == rank([c.coeffs for c in basis])
        assert all(evaluate(c, p) == 0 for c in basis for p in points)
        return basis

    @given(st.lists(st.tuples(*[st.integers(-5, 5)] * 3).filter(any), min_size=1, max_size=12))
    @example([(0, 0, 1), (1, 1, 1)])
    def test_family_through_few_points(self, coords):
        self.check_family([ProjPoint(c) for c in coords])

    @pytest.mark.parametrize(
        "seed, size", [("golden_frame_seed", 1), ("torsion_seed_full", 2), ("pencil_seed", 2)]
    )
    def test_family_through_a_bootstrap_pool(self, request, seed, size):
        """The engine keeps no check that the bootstrap points are on the
        family fitted through them: this is that check."""
        state = run(request.getfixturevalue(seed), max_generations=0)
        assert len(self.check_family([p for pair in state.pairs for p in pair.points])) == size


class TestTangent:
    def test_vertical_tangent_at_two_torsion(self):
        assert tangent_at(W12.cubic, ProjPoint.of(0, 0, 1)) == ProjLine.of(1, 0, 0)

    def test_inflection_tangent_is_line_at_infinity(self):
        assert tangent_at(W12.cubic, ProjPoint.of(0, 1, 0)) == ProjLine.of(0, 0, 1)

    def test_affine_slope(self):
        # implicit differentiation gives slope 7/4 at (1,2)
        assert tangent_at(W12.cubic, ProjPoint.of(1, 2, 1)) == ProjLine.of(7, -4, 1)

    def test_not_on_curve(self):
        with pytest.raises(NotOnCurve):
            tangent_at(W12.cubic, ProjPoint.of(1, 1, 1))

    def test_singular_point(self):
        nodal = Cubic.of([1, 0, 1, 0, 0, 0, 0, -1, 0, 0])  # y^2 z = x^3 + x^2 z
        with pytest.raises(SingularPoint):
            tangent_at(nodal, ProjPoint.of(0, 0, 1))


class TestThirdIntersection:
    def test_chord_to_torsion(self):
        p, q = ProjPoint.of(1, 2, 1), ProjPoint.of(2, 4, 1)
        assert third_intersection(W12.cubic, p, q) == ProjPoint.of(0, 0, 1)

    def test_symmetry_in_arguments(self):
        p, t = ProjPoint.of(1, 2, 1), ProjPoint.of(0, 0, 1)
        assert third_intersection(W12.cubic, p, t) == ProjPoint.of(2, 4, 1)

    def test_vertical_chord_through_infinity(self):
        p, q = ProjPoint.of(1, 2, 1), ProjPoint.of(1, -2, 1)
        assert third_intersection(W12.cubic, p, q) == ProjPoint.of(0, 1, 0)

    def test_identical_points_rejected(self):
        with pytest.raises(IdenticalPoints):
            third_intersection(W12.cubic, ProjPoint.of(1, 2, 1), ProjPoint.of(1, 2, 1))

    def test_random_chords_symmetric(self):
        rng = random.Random(9)
        base = ProjPoint.of(1, 2, 1)
        pts = [multiply(W12, n, base) for n in range(1, 8)]
        for _ in range(50):
            p, q = rng.sample(pts, 2)
            assert third_intersection(W12.cubic, p, q) == third_intersection(W12.cubic, q, p)

    def test_group_coherence(self):
        # p # (p # q) = q whenever the three points are distinct
        base = ProjPoint.of(1, 2, 1)
        pts = [multiply(W12, n, base) for n in range(1, 7)]
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                s = third_intersection(W12.cubic, p, q)
                if s not in (p, q):
                    assert third_intersection(W12.cubic, p, s) == q

    def test_line_component(self):
        # x * (x^2 - yz) contains the line x = 0
        reducible = Cubic.of([1, 0, 0, 0, -1, 0, 0, 0, 0, 0])
        with pytest.raises(LineComponent):
            third_intersection(reducible, ProjPoint.of(0, 1, 0), ProjPoint.of(0, 0, 1))


class TestTangentThird:
    def test_golden_value(self):
        assert tangent_third(W12.cubic, ProjPoint.of(1, 2, 1)) == ProjPoint.of(4, 23, 64)

    def test_partner_shares_tangential_point(self):
        assert tangent_third(W12.cubic, ProjPoint.of(2, -4, 1)) == ProjPoint.of(4, 23, 64)

    def test_inflection_returns_itself(self):
        o = ProjPoint.of(0, 1, 0)
        assert tangent_third(W12.cubic, o) == o

    def test_contact_line_consistency(self):
        p = ProjPoint.of(1, 2, 1)
        t = tangent_third(W12.cubic, p)
        assert join(p, t) == tangent_at(W12.cubic, p)

    def test_chord_third_dispatch(self):
        p = ProjPoint.of(1, 2, 1)
        assert chord_third(W12.cubic, p, p) == tangent_third(W12.cubic, p)
        assert chord_third(W12.cubic, p, ProjPoint.of(2, 4, 1)) == ProjPoint.of(0, 0, 1)


class TestNormalizedFrameCubic:
    def test_contains_frame_points(self):
        rng = random.Random(31)
        for _ in range(10):
            c = ProjPoint.of(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3))
            cbar = ProjPoint.of(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3))
            if c == cbar:
                continue
            cubic = normalized_frame_cubic(c, cbar)
            for p in (
                ProjPoint.of(0, 0, 1), ProjPoint.of(0, 1, 0),
                ProjPoint.of(1, 0, 0), ProjPoint.of(1, 1, 1),
                c, cbar,
            ):
                assert evaluate(cubic, p) == 0

    def test_requires_affine_pair(self):
        with pytest.raises(NotAffine):
            normalized_frame_cubic(ProjPoint.of(1, 0, 0), ProjPoint.of(2, 3, 1))

    def test_matches_nine_point_fit(self):
        rng = random.Random(41)
        for seed in random_frame_seeds(rng, 5):
            boot = bootstrap_seed(seed)
            c, cbar = seed.pair_c.points
            assert normalized_frame_cubic(c, cbar) == boot.curve
