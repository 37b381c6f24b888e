"""Pinned outcomes of the verification suites.

The counts cover the per-suite caps, the checks each suite records as
degenerate or leaves out, and the gate that skips the group-law suites
when no Weierstrass model is supplied.  The fast paths of `pair-tangents`
and `chords` are compared row by row with the full computations.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from schroeter import checks, verify
from schroeter.cubic import Cubic
from schroeter.engine import PointPair, run
from schroeter.errors import HypothesisFailed, NotOnCurve, ValidationError
from schroeter.projective import ProjPoint
from schroeter.verify import run_suites

from oracles import NotCollinear, chord_tangency_reference, multiply


def outcome_counts(report):
    return dict(Counter((r.suite, r.status) for r in report.results))


def test_curve12_counts(curve12, curve12_seed):
    state = run(curve12_seed, max_points=128, curve=curve12.cubic)
    assert outcome_counts(run_suites(state, curve=curve12)) == {
        ("chasles", "pass"): 61,
        ("pair-tangents", "pass"): 64,
        ("tangents", "pass"): 121,
        ("tangents", "degenerate"): 7,
        ("chords", "pass"): 63,
        ("chords", "degenerate"): 1,
        ("lines", "pass"): 120,
        ("lines", "degenerate"): 7,
        ("center", "pass"): 120,
        ("center", "degenerate"): 2,
    }


def test_torsion_counts(curve54, torsion_seed_full):
    state = run(torsion_seed_full, curve=curve54.cubic)
    assert state.closed and state.point_count == 8
    # center drops O and T (off its chart) and the base point with its conjugate
    assert outcome_counts(run_suites(state, curve=curve54)) == {
        ("chasles", "pass"): 1,
        ("pair-tangents", "pass"): 4,
        ("tangents", "pass"): 6,
        ("tangents", "degenerate"): 2,
        ("chords", "pass"): 3,
        ("chords", "degenerate"): 1,
        ("lines", "pass"): 6,
        ("lines", "degenerate"): 2,
        ("center", "pass"): 4,
    }


def test_group_law_suites_skipped_without_a_model(golden_frame_seed):
    state = run(golden_frame_seed, max_points=40)
    report = run_suites(state)
    skipped = [(r.suite, r.name, r.detail) for r in report.results if r.status == "skipped"]
    assert skipped == [
        ("chords", "suite", "needs a Weierstrass model"),
        ("center", "suite", "needs a Weierstrass model"),
    ]
    assert report.ok


def _refuted(*args):
    return False


def _inapplicable(*args):
    raise HypothesisFailed("premise does not hold")


@pytest.mark.parametrize(
    "check, status, detail",
    [(_refuted, "fail", ""), (_inapplicable, "hypothesis-failed", "premise does not hold")],
)
def test_chasles_outcomes(monkeypatch, golden_frame_seed, check, status, detail):
    state = run(golden_frame_seed, max_points=40)
    monkeypatch.setattr(verify, "chasles_check", check)
    report = run_suites(state, suites=("chasles",))
    assert outcome_counts(report) == {("chasles", status): 17}
    assert {r.detail for r in report.results} == {detail}
    assert report.ok is (status != "fail")


def _invalid(*args, **kwargs):
    raise NotCollinear("input outside the check's domain")


def test_invalid_input_per_suite(monkeypatch, curve54, torsion_seed_full):
    state = run(torsion_seed_full, curve=curve54.cubic)
    for name in ("chord_tangency_check", "involution_center_product", "conjugate_lines_check"):
        monkeypatch.setattr(verify, name, _invalid)
    # center leaves the check out, chords and lines raise
    report = run_suites(state, suites=("center",), curve=curve54)
    assert report.results == []
    for suite in ("chords", "lines"):
        with pytest.raises(ValidationError):
            run_suites(state, suites=(suite,), curve=curve54)


def _rows(state, curve):
    report = run_suites(state, suites=("pair-tangents", "chords"), curve=curve)
    return [(r.suite, r.name, r.status, r.detail) for r in report.results]


def _non_pairs(curve12, curve54):
    """Pairs whose partner is not P + T: curve12 multiples of (1, 2), and on
    curve54 a partner shifted by another point of order two, so that the
    two tangential points still agree."""
    points = [multiply(curve12, k, ProjPoint.affine(1, 2)) for k in range(1, 8)]
    shifted = PointPair.of(ProjPoint.affine(2, 6), ProjPoint.affine(-2, 2))
    return [
        (SimpleNamespace(pairs=[PointPair.of(p, q) for p, q in zip(points, points[2:])]), curve12),
        (SimpleNamespace(pairs=[shifted]), curve54),
    ]


def test_fast_paths_match_the_full_computation(
    monkeypatch, curve12, curve12_seed, curve54, torsion_seed_full, torsion_seed_quadrilateral
):
    runs = [
        (run(curve12_seed, max_points=128, curve=curve12.cubic), curve12),
        (run(torsion_seed_full, curve=curve54.cubic), curve54),
        (run(torsion_seed_quadrilateral, curve=curve54.cubic), curve54),
        *_non_pairs(curve12, curve54),
    ]
    fast = Counter()
    meets = verify.tangent_meet

    def counting(cubic, p, pbar):
        meet = meets(cubic, p, pbar)
        fast[meet is not None] += 1
        return meet

    full_chords = []
    tangential_point = checks.tangent_third
    monkeypatch.setattr(verify, "tangent_meet", counting)
    monkeypatch.setattr(checks, "tangent_third", lambda c, p: full_chords.append(p) or tangential_point(c, p))
    rows = [_rows(state, curve) for state, curve in runs]
    statuses = {status for table in rows for _, _, status, _ in table}
    assert statuses == {"pass", "fail", "degenerate", "hypothesis-failed"}
    # all pairs decide fast but {O, T} (in curve12@128 and the full torsion
    # seed) and the five curve12 non-pairs
    assert fast == {True: 63 + 3 + 3 + 1, False: 1 + 1 + 5}
    # chords decides every curve12 pair fast; it computes the tangential
    # point on the torsion pairs, where b or n is T, and on the five + one
    # non-pairs ({O, T} is a tangent chord, degenerate before either path)
    assert len(full_chords) == 3 + 3 + 5 + 1
    monkeypatch.setattr(verify, "tangent_meet", lambda cubic, p, pbar: None)
    assert rows == [_rows(state, curve) for state, curve in runs]
    monkeypatch.setattr(
        verify, "chord_tangency_check",
        lambda curve, a, abar, tangential: chord_tangency_reference(curve, a, abar),
    )
    assert rows == [_rows(state, curve) for state, curve in runs]


def test_each_pair_meet_is_computed_once(monkeypatch, curve12, curve12_seed):
    state = run(curve12_seed, max_points=128, curve=curve12.cubic)
    calls = Counter()
    meets = verify.tangent_meet

    def counting(cubic, p, pbar):
        calls[p, pbar] += 1
        return meets(cubic, p, pbar)

    monkeypatch.setattr(verify, "tangent_meet", counting)
    run_suites(state, suites=("pair-tangents", "chords"), curve=curve12)
    assert calls == Counter(pair.points for pair in state.pairs)
    # chords alone computes each meet it needs, again on every call
    calls.clear()
    run_suites(state, suites=("chords",), curve=curve12)
    run_suites(state, suites=("chords",), curve=curve12)
    assert calls == Counter({points: 2 for points in (pair.points for pair in state.pairs)})


def test_tangent_on_a_line_component_stays_degenerate():
    # z(x^2 + y^2 - z^2): the tangents at the pair meet at (0 : 1 : 0), on
    # the cubic, but the one at (1 : 0 : 0) is the line component z = 0
    cubic = Cubic.of([0, 0, 1, 0, 0, 0, 0, 1, 0, -1])
    pair = PointPair.of(ProjPoint.of(1, 0, 0), ProjPoint.of(1, 0, 1))
    report = run_suites(SimpleNamespace(pairs=[pair], curve=cubic), suites=("pair-tangents",))
    assert [(r.status, r.detail) for r in report.results] == [
        ("degenerate", "the tangent at (1 : 0 : 0) lies on the cubic")
    ]


def test_pair_off_the_cubic_names_its_first_point(curve12):
    state = SimpleNamespace(pairs=[PointPair.of(ProjPoint.affine(2, 2), ProjPoint.affine(1, 1))])
    with pytest.raises(NotOnCurve, match=r"^\(1 : 1 : 1\) is not on the cubic"):
        run_suites(state, suites=("pair-tangents",), curve=curve12)


def test_check_names_cut_the_full_coordinates(curve12, curve12_seed):
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    for pair in (*state.pairs[:3], state.pairs[-1]):
        full = "|".join(":".join(str(c) for c in p.coords) for p in pair.points)
        for width in (1, 5, 48, 49, len(full), len(full) + 1):
            assert verify._key_head(pair.points, width) == full[:width]
            assert verify._key_head(pair.points[:1], width) == full.split("|")[0][:width]
