from types import SimpleNamespace

import pytest

from schroeter import checks, cubic
from schroeter.checks import (
    chasles_check,
    chord_collinearity,
    chord_tangency_check,
    conjugate_lines_check,
    tangent_by_involution,
    tangent_meet,
)
from schroeter.cubic import Cubic, gradient, tangent_at
from schroeter.engine import PointPair, run
from schroeter.errors import HypothesisFailed, LinesNotDistinct
from schroeter.projective import ProjPoint
from schroeter.verify import run_suites
from schroeter.weierstrass import WeierstrassCurve, add

from oracles import multiply, tangency_transport_check, tangent_meet_check


def pt(x, y):
    return ProjPoint.affine(x, y)


GOLDEN = ProjPoint.of(4, 23, 64)  # (1/16, 23/64)


@pytest.fixture
def curve12_pairs():
    return {
        "p": PointPair.of(pt(1, 2), pt(2, -4)),
        "q": PointPair.of(pt(2, 4), pt(1, -2)),
        "s": PointPair.of(GOLDEN, pt(32, -184)),
    }


class TestChasles:
    def test_torsion_hexagon(self, curve54):
        assert chasles_check(
            curve54.cubic,
            pt(2, 6), pt(-2, 2), pt(-1, 0),
            pt(2, -6), pt(-2, -2), pt(-4, 0),
        )
        # all three opposite-side meets stay in the torsion set
        from schroeter.projective import join, meet

        m3 = meet(join(pt(-1, 0), pt(2, -6)), join(pt(-4, 0), pt(2, 6)))
        assert m3 == pt(-2, 2)

    def test_vacuous_when_hypothesis_fails(self, curve12):
        # points paired so the first meet misses the curve
        a, b, c = pt(1, 2), pt(2, 4), pt(32, -184)
        abar, bbar, cbar = pt(1, -2), pt(2, -4), GOLDEN
        assert chasles_check(curve12.cubic, a, b, c, abar, bbar, cbar)

    def test_engine_rederivation(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=40)
        report = run_suites(state, suites=("chasles",))
        assert report.ok
        assert any(r.status == "pass" for r in report.results)


class TestTangentMeet:
    def test_golden_configuration(self, curve12, curve12_pairs):
        p, pbar = curve12_pairs["p"].points
        q, qbar = curve12_pairs["q"].points
        assert tangent_meet_check(curve12.cubic, p, pbar, q, qbar)

    def test_hypothesis_failure_detected(self, curve12):
        # (1,2) with a non-conjugate partner: the meets leave the curve
        with pytest.raises(HypothesisFailed):
            tangent_meet_check(curve12.cubic, pt(1, 2), pt(1, -2), pt(2, 4), pt(2, -4))

    def test_torsion_pairs(self, curve54):
        assert tangent_meet_check(curve54.cubic, pt(2, 6), pt(2, -6), pt(-2, 2), pt(-2, -2))


class TestTangencyTransport:
    def test_golden_configuration(self, curve12):
        assert tangency_transport_check(curve12.cubic, pt(1, 2), pt(2, -4), pt(2, 4))

    def test_coincident_q_uses_tangent(self, curve12):
        assert tangency_transport_check(curve12.cubic, pt(1, 2), pt(2, -4), pt(1, 2))

    def test_torsion_instance(self, curve54):
        assert tangency_transport_check(curve54.cubic, pt(2, 6), pt(2, -6), pt(-1, 0))

    def test_hypothesis_failure(self, curve12):
        with pytest.raises(HypothesisFailed):
            tangency_transport_check(curve12.cubic, pt(1, 2), pt(2, 4), pt(2, -4))


class TestTangentByInvolution:
    def test_golden_tangent(self, curve12, curve12_pairs):
        line = tangent_by_involution(
            curve12.cubic, curve12_pairs["s"], curve12_pairs["p"], curve12_pairs["q"],
            contact=GOLDEN,
        )
        assert line == tangent_at(curve12.cubic, GOLDEN)

    def test_all_contacts_across_pairs(self, curve12, curve12_pairs):
        # (32,-184) lies on the chord through both members of the p pair, so
        # that contact is degenerate; every admissible one must match exactly
        pairs = list(curve12_pairs.values())
        matched = 0
        for i, s_pair in enumerate(pairs):
            others = [p for j, p in enumerate(pairs) if j != i]
            for contact in s_pair.points:
                try:
                    line = tangent_by_involution(
                        curve12.cubic, s_pair, others[0], others[1], contact=contact
                    )
                except LinesNotDistinct:
                    continue
                assert line == tangent_at(curve12.cubic, contact)
                matched += 1
        assert matched >= 4

    def test_torsion_collinearity_detected(self, curve54):
        s_pair = PointPair.of(pt(2, 6), pt(2, -6))
        p_pair = PointPair.of(pt(-2, 2), pt(-2, -2))
        q_pair = PointPair.of(pt(-1, 0), pt(-4, 0))
        with pytest.raises(LinesNotDistinct):
            tangent_by_involution(curve54.cubic, s_pair, p_pair, q_pair, contact=pt(2, 6))

    def test_torsion_alternative_pairing_works(self, curve54):
        s_pair = PointPair.of(pt(2, 6), pt(2, -6))
        to_pair = PointPair.of(ProjPoint.of(0, 0, 1), ProjPoint.of(0, 1, 0))
        q_pair = PointPair.of(pt(-1, 0), pt(-4, 0))
        line = tangent_by_involution(curve54.cubic, s_pair, to_pair, q_pair, contact=pt(2, 6))
        assert line == tangent_at(curve54.cubic, pt(2, 6))

    def test_contact_in_other_pair_rejected(self, curve12, curve12_pairs):
        p_pair = curve12_pairs["p"]
        with pytest.raises(LinesNotDistinct):
            tangent_by_involution(
                curve12.cubic, p_pair, p_pair, curve12_pairs["q"], contact=p_pair.first
            )

    def test_contact_line_through_contact(self, curve12, curve12_pairs):
        from schroeter.projective import incident

        line = tangent_by_involution(
            curve12.cubic, curve12_pairs["s"], curve12_pairs["p"], curve12_pairs["q"],
            contact=GOLDEN,
        )
        assert incident(GOLDEN, line)


class TestChordTangency:
    def test_golden_instance(self, curve12):
        # chord through (1,2) and its conjugate hits (32,-184); its conjugate
        # is the common tangential point (1/16, 23/64)
        assert chord_tangency_check(curve12, pt(1, 2), pt(2, -4))

    def test_torsion_instance(self, curve54):
        assert chord_tangency_check(curve54, pt(-1, 0), pt(-4, 0))

    def test_partner_not_conjugate(self, curve12):
        with pytest.raises(HypothesisFailed):
            chord_tangency_check(curve12, pt(1, 2), pt(2, 4))

    def test_a_wrong_tangential_point_fails(self, monkeypatch, curve12):
        # planted fault: tangent_third answers p itself, as if every point
        # were a flex, so a true pair {P, P + T} misses the chord claim
        monkeypatch.setattr(checks, "tangent_third", lambda form, p: p)
        assert chord_tangency_check(curve12, pt(1, 2), pt(2, -4)) is False

    def test_partner_shifted_by_another_two_torsion_point(self, curve54):
        # (2,6) + (-1,0) = (-2,2): a difference of order two, but not T
        assert add(curve54, pt(2, 6), pt(-1, 0)) == pt(-2, 2)
        with pytest.raises(HypothesisFailed):
            chord_tangency_check(curve54, pt(2, 6), pt(-2, 2))
        # as pair 0 it sets the run's difference, so chords checks no pair
        state = SimpleNamespace(pairs=[PointPair.of(pt(2, 6), pt(-2, 2))])
        report = run_suites(state, suites=("chords",), curve=curve54)
        assert report.to_json()["chords"] == [
            ["suite", "skipped", "pair 0 differs by (1 : 0 : -1), not by T = (0 : 0 : 1)"]
        ]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_negated_tangential_point_is_on_the_cubic(self, curve12, k):
        # why the check need not evaluate n: a Weierstrass form is even in y
        a = multiply(curve12, k, pt(1, 2))
        x, y, z = cubic.tangent_third(curve12.cubic, a).coords
        assert cubic.evaluate(curve12.cubic, ProjPoint((x, -y, z))) == 0

    def test_given_the_meet_evaluates_no_cubic(self, monkeypatch, curve12):
        # the fast test reuses tangent_meet's gradients; the full check
        # evaluates the pair's chord (4) and one tangential point (5)
        a, abar = pt(1, 2), pt(2, -4)
        meet = tangent_meet(curve12.cubic, a, abar)
        calls = []
        original = cubic._eval_triple

        def counting(form, t):
            calls.append(t)
            return original(form, t)

        monkeypatch.setattr(cubic, "_eval_triple", counting)
        assert chord_collinearity(a, abar, meet)
        assert len(calls) == 0
        assert chord_tangency_check(curve12, a, abar)
        assert len(calls) == 9

    @pytest.mark.parametrize(
        "a, b, p, shift",
        [
            # p of infinite order: the chord third b = -(2p + T') gives
            # b.T = 2p + T'', so b, T and n = 2p are not collinear
            (18, 72, (6, 36), (-12, 0)),
            # p of order 8 with 4p = T': b = n, and b.T is not n
            (-431, 44800, (40, 1080), (256, 0)),
        ],
    )
    def test_partner_shifted_by_another_two_torsion_point_given_the_meet(self, a, b, p, shift):
        curve = WeierstrassCurve(a, b)
        p = pt(*p)
        pbar = add(curve, p, pt(*shift))
        meet = tangent_meet(curve.cubic, p, pbar)
        assert meet is not None and not chord_collinearity(p, pbar, meet)
        with pytest.raises(HypothesisFailed):
            chord_tangency_check(curve, p, pbar)


class TestPairTangentMeet:
    # p = (1:0:0) and pbar = (0:1:0) are on the cubic
    # x^2y + x^2z + xy^2 + c5 xz^2 + y^2z + c9 z^3, and their tangents meet
    # at m = (1 : 1 : -1), where F(m) = c5 - c9, dF(m).p = 1 + c5 and
    # dF(m).pbar = 1
    P, PBAR, M = ProjPoint.of(1, 0, 0), ProjPoint.of(0, 1, 0), (1, 1, -1)

    def form(self, c5, c9):
        return Cubic.of([0, 1, 1, 1, 0, c5, 0, 1, 0, c9])

    def test_a_nonzero_multiple_of_the_prime_is_decided_exactly(self):
        prime = checks._PRIME
        form = self.form(prime - 1, prime - 1)
        assert cubic._eval_triple(form, self.M) == 0
        assert checks._dot(gradient(form, self.M), self.P.coords) == prime
        assert tangent_meet(form, self.P, self.PBAR)[0] == self.M
        assert ProjPoint(self.M) == cubic.tangent_third(form, self.P) == cubic.tangent_third(form, self.PBAR)

    def test_a_zero_dot_decides_nothing(self):
        # dF(m).p = 0: m is a second contact of the tangent at p
        form = self.form(-1, -1)
        assert cubic._eval_triple(form, self.M) == 0
        assert checks._dot(gradient(form, self.M), self.P.coords) == 0
        assert tangent_meet(form, self.P, self.PBAR) is None

    def test_a_meet_off_the_cubic_decides_nothing(self):
        form = self.form(1, 0)
        assert cubic._eval_triple(form, self.M) != 0
        assert tangent_meet(form, self.P, self.PBAR) is None

    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_meet_is_the_tangential_point_at_any_scale(self, curve12, k):
        a = multiply(curve12, k, pt(1, 2))
        abar = add(curve12, a, ProjPoint.of(0, 0, 1))
        meet, ga, gabar = tangent_meet(curve12.cubic, a, abar)
        assert ProjPoint(meet) == cubic.tangent_third(curve12.cubic, a)
        for scale in (1, -1, 7):
            assert chord_collinearity(a, abar, (tuple(scale * c for c in meet), ga, gabar))


class TestConjugateLines:
    def test_two_torsion_carrier(self, curve12, curve12_pairs):
        r = ProjPoint.of(0, 0, 1)
        assert conjugate_lines_check(
            curve12.cubic, r, curve12_pairs["p"], curve12_pairs["s"], curve12_pairs["q"]
        )

    def test_carrier_in_pair_rejected(self, curve12, curve12_pairs):
        with pytest.raises(LinesNotDistinct):
            conjugate_lines_check(
                curve12.cubic, pt(1, 2), curve12_pairs["p"], curve12_pairs["q"],
                curve12_pairs["s"],
            )

    def test_random_carriers(self, curve12, curve12_pairs):
        base = pt(1, 2)
        members = {p for pair in curve12_pairs.values() for p in pair.points}
        hits = 0
        for n in range(3, 30):
            r = multiply(curve12, n, base)
            if r in members or r.is_infinite:
                continue
            try:
                ok = conjugate_lines_check(
                    curve12.cubic, r,
                    curve12_pairs["p"], curve12_pairs["q"], curve12_pairs["s"],
                )
            except LinesNotDistinct:
                continue
            assert ok
            hits += 1
            if hits >= 10:
                break
        assert hits >= 10
