"""Pinned outcomes of the verification suites.

The counts cover the per-suite caps, the checks each suite records as
degenerate or leaves out, and the gate that skips the group-law suites
when no Weierstrass model is supplied.
"""

from collections import Counter

import pytest

from schroeter import verify
from schroeter.engine import run
from schroeter.errors import HypothesisFailed, ValidationError
from schroeter.verify import run_suites

from oracles import NotCollinear


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


def _invalid(*args):
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
