"""Pinned outcomes of the verification suites.

The counts cover the per-suite caps, the checks each suite records as
degenerate or leaves out, and the gate that skips the group-law suites
when no Weierstrass model is supplied.  The fast paths of `pair-tangents`
and `chords` are compared row by row with the full computations.
"""

import os
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from itertools import count, permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schroeter import checks, involution, verify
from schroeter.checks import _dot as dot
from schroeter.checks import _meets_on_curve, chasles_check
from schroeter.cubic import Cubic, _chord_coefficients, chord_third, evaluate, gradient
from schroeter.engine import PointPair, run, validate_seed
from schroeter.errors import (
    HypothesisFailed,
    NotOnCurve,
    OffChartCurve,
    SchroeterError,
    ValidationError,
)
from schroeter.projective import ProjPoint, join, meet
from schroeter.verify import run_suites
from schroeter.weierstrass import WeierstrassCurve, add

from conftest import cubics_with_points
from oracles import NotCollinear, chasles_reference, chord_tangency_reference, multiply


@pytest.fixture
def in_process(monkeypatch):
    """Keep verify's verdict bytes in this process, where a test sees each
    call, by starting no worker."""
    monkeypatch.setattr(verify, "_stream", lambda verdict, pairs: nullcontext(bytes))


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
    # center skips O and T (off its chart) and the base point with its conjugate
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
    # no point of these pairs has two nonzero affine coordinates
    no_base = SimpleNamespace(pairs=[PointPair.of(ProjPoint.of(0, 1, 0), ProjPoint.of(0, 0, 1)),
                                     PointPair.of(ProjPoint.of(-1, 0, 1), ProjPoint.of(-4, 0, 1))])
    assert run_suites(no_base, suites=("center",), curve=curve54).to_json()["center"] == [
        ["chart base", "skipped", "no usable base point"]
    ]


def test_group_law_suites_skipped_without_a_model(golden_frame_seed):
    state = run(golden_frame_seed, max_points=40)
    report = run_suites(state)
    skipped = [(r.suite, r.name, r.detail) for r in report.results if r.status == "skipped"]
    assert skipped == [
        ("center", "suite", "needs a Weierstrass model"),
        ("chords", "suite", "needs a Weierstrass model"),
    ]
    assert report.ok


def test_report_keys_each_suite_that_ran(curve54, torsion_seed_quadrilateral):
    """The verify report (format_version 3) holds each selected suite's
    rows [name, status, detail] under its name: `[]` for a suite that ran
    and recorded no check (this run has no new row for chasles, and lines
    needs three pairs besides the one it checks), the one
    "suite" row for a skipped suite, and no key for a suite not selected."""
    state = run(torsion_seed_quadrilateral, curve=curve54.cubic)
    assert [row.status for row in state.rows] == ["duplicate"]
    assert run_suites(state, suites=("chords", "chasles", "lines")).to_json() == {
        "format_version": 3,
        "ok": True,
        "counts": {"skipped": 1},
        "chasles": [],
        "chords": [["suite", "skipped", "needs a Weierstrass model"]],
        "lines": [],
    }


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
    # an error in a check's input is raised, not recorded
    for suite in ("chords", "lines", "center"):
        with pytest.raises(ValidationError):
            run_suites(state, suites=(suite,), curve=curve54)


def test_center_raises_on_a_point_off_the_curve(curve12, curve12_seed):
    """center checks every point with x != 0 other than the chart base and
    its conjugate, so a point moved off the curve raises."""
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    pairs = list(state.pairs)
    (x, y, z), other = pairs[5].first.coords, pairs[5].second
    moved = ProjPoint((x, y + z, z))
    assert x and evaluate(curve12.cubic, moved)
    pairs[5] = PointPair.of(moved, other)
    with pytest.raises(OffChartCurve):
        run_suites(SimpleNamespace(pairs=pairs), suites=("center",), curve=curve12)


def test_swapped_partners_fail_the_tangent_suites(curve12, curve12_seed):
    """With the second points of pairs 5 and 6 swapped, neither pair's
    points share a tangential point, so both tangent suites record fail
    rows, not degenerate ones."""
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    pairs = list(state.pairs)
    (a, abar), (b, bbar) = pairs[5].points, pairs[6].points
    pairs[5], pairs[6] = PointPair.of(a, bbar), PointPair.of(b, abar)
    report = run_suites(SimpleNamespace(pairs=pairs), suites=("pair-tangents", "tangents"), curve=curve12)
    fails = [(r.suite, r.name) for r in report.results if r.status == "fail"]
    assert fails == [
        ("tangents", "pair 5 point 0"),
        ("tangents", "pair 5 point 1"),
        ("tangents", "pair 6 point 0"),
        ("tangents", "pair 6 point 1"),
        ("pair-tangents", "pair 5"),
        ("pair-tangents", "pair 6"),
    ]


def test_swapped_partners_fail_center(curve12, curve12_seed):
    """center takes each point's partner in the run, so with the second
    points of pairs 5 and 6 swapped, each point of those pairs fails.  The
    chart's conjugate of the point would pass them."""
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    pairs = list(state.pairs)
    (a, abar), (b, bbar) = pairs[5].points, pairs[6].points
    pairs[5], pairs[6] = PointPair.of(a, bbar), PointPair.of(b, abar)
    report = run_suites(SimpleNamespace(pairs=pairs), suites=("center",), curve=curve12)
    assert [r.name for r in report.results if r.status == "fail"] == [
        f"pair {k} point {m}" for k in (5, 6) for m in (0, 1)
    ]


def test_swapped_partners_fail_lines(curve12, curve12_seed):
    """lines takes its base and test pairs from the first three pairs, so
    with the second points of pairs 1 and 2 swapped every check of a point
    outside them fails: the two base pairs are no longer pairs of the
    involution.  The six points of pairs 0, 1 and 2 stay degenerate."""
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    pairs = list(state.pairs)
    (a, abar), (b, bbar) = pairs[1].points, pairs[2].points
    pairs[1], pairs[2] = PointPair.of(a, bbar), PointPair.of(b, abar)
    report = run_suites(SimpleNamespace(pairs=pairs), suites=("lines",), curve=curve12)
    assert Counter(r.status for r in report.results) == {"fail": 58, "degenerate": 6}
    assert {r.name for r in report.results if r.status == "degenerate"} == {
        f"pair {k} point {m}" for k in range(3) for m in range(2)
    }


@pytest.mark.parametrize("shift, starts, differs", [
    pytest.param((-12, 0), [(-8, 8), (-9, 9), (6, 36)], "(12 : 0 : -1)", id="T-prime"),
    pytest.param((-6, 0), [(-8, -8), (-8, 8), (-9, -9)], "(6 : 0 : -1)", id="T-double-prime"),
])
def test_a_run_paired_by_another_point_of_order_two_skips_chords(shift, starts, differs):
    """On y^2 = x(x + 6)(x + 12), a seed that pairs each P with P + T' for
    T' = (-12 : 0 : 1), or with P + T'' for T'' = (-6 : 0 : 1), runs;
    chords and center, which check pairs {P, P + T} for the model's
    T = (0 : 0 : 1), each record one skipped row naming the pairing, not a
    column of hypothesis-failed or fail rows."""
    curve = WeierstrassCurve(18, 72)
    t_other = ProjPoint.affine(*shift)
    points = [ProjPoint.affine(*xy) for xy in starts]
    seed = validate_seed(*(PointPair.of(p, add(curve, p, t_other)) for p in points))
    state = run(seed, max_points=64, curve=curve.cubic)
    assert state.point_count == 64
    report = run_suites(state, curve=curve)
    for suite in ("chords", "center"):
        assert report.to_json()[suite] == [
            ["suite", "skipped", f"pair 0 differs by {differs}, not by T = (0 : 0 : 1)"]
        ]
    assert report.ok and "hypothesis-failed" not in report.counts()


def _rows(state, curve):
    report = run_suites(state, suites=("pair-tangents", "chords"), curve=curve)
    return [(r.suite, r.name, r.status, r.detail) for r in report.results]


def _non_pairs(curve12, curve54):
    """Pairs whose partner is not P + T, each after a pair that is, since
    chords takes the run's T from pair 0: curve12 multiples of (1, 2), and
    on curve54 a partner shifted by another point of order two, so that the
    two tangential points still agree."""
    points = [multiply(curve12, k, ProjPoint.affine(1, 2)) for k in range(1, 8)]
    pair12 = PointPair.of(ProjPoint.affine(1, 2), ProjPoint.affine(2, -4))
    pair54 = PointPair.of(ProjPoint.affine(2, 6), ProjPoint.affine(2, -6))
    shifted = PointPair.of(ProjPoint.affine(2, 6), ProjPoint.affine(-2, 2))
    return [
        (SimpleNamespace(pairs=[pair12, *(PointPair.of(p, q) for p, q in zip(points, points[2:]))]), curve12),
        (SimpleNamespace(pairs=[pair54, shifted]), curve54),
    ]


def test_fast_paths_match_the_full_computation(
    monkeypatch, in_process, curve12, curve12_seed, curve54, torsion_seed_full, torsion_seed_quadrilateral
):
    runs = [
        (run(curve12_seed, max_points=128, curve=curve12.cubic), curve12),
        (run(torsion_seed_full, curve=curve54.cubic), curve54),
        (run(torsion_seed_quadrilateral, curve=curve54.cubic), curve54),
        *_non_pairs(curve12, curve54),
    ]
    # each pair's verdict byte: 3 (MEETS | COLLINEAR) where both fast tests
    # decide, 1 (MEETS) where only tangent_meet does, 0 where neither
    verdicts = [[verify._verdict(curve.cubic, True, pair) for pair in state.pairs] for state, curve in runs]
    # every curve12 pair of the run but {O, T}; on the torsion pairs b or n
    # is T; neither on the five curve12 non-pairs; on the curve54 pair and
    # the shifted one only tangent_meet decides, their tangential points
    # agreeing
    assert [Counter(v) for v in verdicts[:3]] == [{3: 63, 0: 1}, {1: 3, 0: 1}, {1: 3}]
    assert verdicts[3:] == [[3, 0, 0, 0, 0, 0], [1, 1]]
    full_chords = []
    tangential_point = checks.tangent_third
    monkeypatch.setattr(checks, "tangent_third", lambda c, p: full_chords.append(p) or tangential_point(c, p))
    rows = [_rows(state, curve) for state, curve in runs]
    statuses = {status for table in rows for _, _, status, _ in table}
    assert statuses == {"pass", "fail", "degenerate", "hypothesis-failed"}
    # chords computes in full exactly where COLLINEAR is clear, but on
    # {O, T}, a tangent chord, degenerate before either path
    assert len(full_chords) == 3 + 3 + 5 + 2
    monkeypatch.setattr(verify, "tangent_meet", lambda cubic, p, pbar: None)
    assert rows == [_rows(state, curve) for state, curve in runs]
    monkeypatch.setattr(verify, "chord_tangency_check", chord_tangency_reference)
    assert rows == [_rows(state, curve) for state, curve in runs]


# points on curve12's cubic and on a frame run's, and one off both
CURVE_POINTS = [
    (cubic, [*points, ProjPoint.of(3, 5, 7)]) for cubic, points in cubics_with_points()
]


@given(st.sampled_from(CURVE_POINTS).flatmap(lambda case: st.tuples(
    st.just(case[0]), st.lists(st.sampled_from(case[1]), min_size=2, max_size=2, unique=True)
)))
def test_chord_coefficients_from_the_gradients(case):
    """chord_collinearity's c2 = dF(a).abar and c1 = dF(abar).a are the
    chord's (c2, c1) that _chord_coefficients finds by evaluating the
    cubic four times."""
    cubic, (a, abar) = case
    _, c2, c1, _ = _chord_coefficients(cubic, a.coords, abar.coords)
    assert (dot(gradient(cubic, a.coords), abar.coords), dot(gradient(cubic, abar.coords), a.coords)) == (c2, c1)


def test_ruler_conjugate_draws_only_the_lines_it_uses(monkeypatch, curve12, curve12_seed):
    """Each ruler construction of the tangents and lines suites finds its two
    auxiliary lines at the first two pool points off the line, so it joins
    five lines (the two auxiliary lines, the two cross-joins and the
    conjugate) and takes five meets."""
    state = run(curve12_seed, max_points=128, curve=curve12.cubic)
    calls = Counter()

    def counting(name):
        function = getattr(involution, name)
        return lambda *args: calls.update([name]) or function(*args)

    for name in ("_ruler_conjugate", "join", "meet"):
        monkeypatch.setattr(involution, name, counting(name))
    report = run_suites(state, suites=("tangents", "lines"), curve=curve12)
    assert calls == {"_ruler_conjugate": 241, "join": 5 * 241, "meet": 5 * 241}
    assert Counter(r.status for r in report.results) == {"pass": 241, "degenerate": 14}


def test_each_pair_meet_is_computed_once(monkeypatch, in_process, curve12, curve12_seed):
    state = run(curve12_seed, max_points=128, curve=curve12.cubic)
    calls = Counter()
    meets = verify.tangent_meet

    def counting(cubic, p, pbar):
        calls[p, pbar] += 1
        return meets(cubic, p, pbar)

    monkeypatch.setattr(verify, "tangent_meet", counting)
    run_suites(state, suites=("pair-tangents", "chords"), curve=curve12)
    assert calls == Counter(pair.points for pair in state.pairs)
    # chords alone computes every pair's verdict, again on every call
    calls.clear()
    run_suites(state, suites=("chords",), curve=curve12)
    run_suites(state, suites=("chords",), curve=curve12)
    assert calls == Counter({points: 2 for points in (pair.points for pair in state.pairs)})


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")


@pytest.fixture
def forks(monkeypatch):
    """Give verify a second CPU whatever this machine has, and record the
    pid of each worker it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    return True


@needs_fork
def test_the_worker_gives_the_in_process_report(monkeypatch, forks, curve12, curve12_seed):
    """Given the time, the worker computes every pair's verdict byte, and
    this process computes none; the report is the in-process one."""
    state = run(curve12_seed, max_points=128, curve=curve12.cubic)
    # this process's calls; the worker's add to its own copy of the count
    calls = Counter()
    meets = verify.tangent_meet
    monkeypatch.setattr(verify, "tangent_meet", lambda cubic, p, pbar: calls.update([p]) or meets(cubic, p, pbar))
    stream = verify._stream

    @contextmanager
    def patient(verdict, pairs):
        """_stream, waiting for all the worker's bytes, as run_suites never does."""
        with stream(verdict, pairs) as arrived:
            got, deadline = b"", time.monotonic() + 60
            while len(got) < len(pairs) and time.monotonic() < deadline:
                got += arrived()
                time.sleep(0.001)
            chunks = iter([got])
            yield lambda: next(chunks, b"")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_stream", patient)
        forked = run_suites(state, curve=curve12)
    assert len(forks) == 1 and not calls and _reaped(forks[0])
    # unwaited, the worker and this process share the pairs
    assert run_suites(state, curve=curve12) == forked
    assert len(forks) == 2 and _reaped(forks[1])
    monkeypatch.setattr(verify, "_stream", lambda verdict, pairs: nullcontext(bytes))
    calls.clear()
    assert run_suites(state, curve=curve12) == forked
    assert sum(calls.values()) == len(state.pairs)


def _in_the_worker(fault, after=0):
    """tangent_meet, calling `fault` first from its call number `after` on
    in any process but this one."""
    parent, calls = os.getpid(), count()

    def tangent_meet(cubic, p, pbar):
        if os.getpid() != parent and next(calls) >= after:
            fault()
        return checks.tangent_meet(cubic, p, pbar)

    return tangent_meet


def _fault():
    raise RuntimeError("a fault in the worker")


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _stalled():
    time.sleep(2)


def _no_fork():
    raise OSError("no process to spare")


@needs_fork
@pytest.mark.parametrize("fault", ["raises", "killed", "stalls", "fork fails", "one CPU"])
def test_a_failed_worker_changes_nothing(monkeypatch, forks, curve12, curve12_seed, fault):
    """Whether the worker raises or dies mid-way, or stalls for 2 s a pair,
    or none starts (fork fails, or the platform has no affinity call and
    counts one CPU), this process computes what has not arrived, without
    waiting, and the report is the in-process one."""
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    suites = ("pair-tangents", "chords")
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_stream", lambda verdict, pairs: nullcontext(bytes))
        expected = run_suites(state, suites=suites, curve=curve12)
    if fault == "fork fails":
        monkeypatch.setattr(os, "fork", _no_fork)
    elif fault == "one CPU":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    else:
        faults = {"raises": _fault, "killed": _killed, "stalls": _stalled}
        monkeypatch.setattr(verify, "tangent_meet", _in_the_worker(faults[fault], after=0 if fault == "stalls" else 5))
    started = time.perf_counter()
    assert run_suites(state, suites=suites, curve=curve12) == expected
    assert time.perf_counter() - started < 2
    assert len(forks) == (fault in ("raises", "killed", "stalls"))
    assert all(map(_reaped, forks))


def _interrupted(*args):
    raise KeyboardInterrupt


@needs_fork
@pytest.mark.parametrize("outcome", ["returns", "raises", "interrupted"])
def test_no_worker_is_left_behind(monkeypatch, forks, curve12, curve12_seed, outcome):
    """After run_suites returns or raises, its worker has been reaped: it
    is no longer a child of this process.  When chasles raises, no suite
    reads the verdicts, and the worker, which would take 2 s a pair, is
    killed rather than awaited."""
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    if outcome == "returns":
        run_suites(state, curve=curve12)
    else:
        monkeypatch.setattr(verify, "tangent_meet", _in_the_worker(_stalled))
        check, error = (_invalid, ValidationError) if outcome == "raises" else (_interrupted, KeyboardInterrupt)
        monkeypatch.setattr(verify, "chasles_check", check)
        started = time.perf_counter()
        with pytest.raises(error):
            run_suites(state, curve=curve12)
        assert time.perf_counter() - started < 2
    assert len(forks) == 1 and _reaped(forks[0])


@pytest.mark.parametrize("chunks", [
    [],
    [b"\x00\x01\x02"],
    [b"", b"\x00", b"", b"\x01\x02\x03\x04\x05\x06\x07"],
    [bytes(range(8))],
])
def test_each_verdict_byte_lands_at_its_own_pair(chunks):
    """_gather takes the worker's bytes, from pair 0 on, as they arrive,
    and computes the others from the last pair back, each at its own
    index, until the two sides meet: whatever arrives when, byte k is pair
    k's.  Here the worker's byte and the computed one for pair k are both
    k."""
    arrivals, computed = iter(chunks), []
    verdicts = verify._gather(lambda: next(arrivals, b""), lambda k: computed.append(k) or k, range(8))
    assert verdicts == bytes(range(8))
    assert computed == list(range(7, 7 - len(computed), -1))


def _raising(name, order):
    def check(*args, **kwargs):
        order.append(name)
        raise NotCollinear(f"{name} raised")

    return check


@pytest.mark.parametrize("worker", [True, False])
def test_the_first_raising_suite_in_serial_order_is_raised(monkeypatch, request, curve54, torsion_seed_full, worker):
    """lines comes before chords in SUITES, so its error is the one raised
    and chords never starts, whether or not a worker computes the verdicts."""
    request.getfixturevalue("forks" if worker and hasattr(os, "fork") else "in_process")
    state = run(torsion_seed_full, curve=curve54.cubic)
    order = []
    monkeypatch.setattr(verify, "chord_tangency_check", _raising("chords", order))
    monkeypatch.setattr(verify, "conjugate_lines_check", _raising("lines", order))
    with pytest.raises(NotCollinear, match="lines raised"):
        run_suites(state, curve=curve54)
    assert order == ["lines"]


def test_each_suite_records_its_rows_inside_its_own_call(monkeypatch, curve54, torsion_seed_full):
    """A wrapper installed on `verify._suite_<name>`, as the benchmark's
    tracer installs one, is what `run_suites` calls, once per suite, in
    SUITES order and with (state, report, model, verdicts), and the suite
    appends all its rows within that call."""
    state = run(torsion_seed_full, curve=curve54.cubic)
    per_suite = dict(Counter(r.suite for r in run_suites(state, curve=curve54).results))
    assert list(per_suite) == list(verify.SUITES)
    calls, rows = [], Counter()

    def wrapping(suite, function):
        def wrapper(state, report, model, verdicts):
            before = len(report.results)
            result = function(state, report, model, verdicts)
            calls.append(suite)
            rows[suite] += len(report.results) - before
            return result

        return wrapper

    for suite in verify.SUITES:
        name = "_suite_" + suite.replace("-", "_")
        monkeypatch.setattr(verify, name, wrapping(suite, getattr(verify, name)))
    run_suites(state, curve=curve54)
    assert calls == list(verify.SUITES)
    assert dict(rows) == per_suite


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


@pytest.mark.parametrize("name", ["curve12@256", "torsion"])
def test_check_names_are_pair_indices(verified, name):
    """Each check is named by indices into the run's pairs, and no two
    checks of a suite share a name.  chasles names every new row (its
    ordinal, its parents and the third side) and pair-tangents every pair,
    in order; chords names a prefix of the pairs, tangents and lines a
    prefix of their points, and center a subsequence of the points."""
    state, report = verified(name)
    names = [(r.suite, r.name) for r in report.results]
    assert len(set(names)) == len(names)
    by_suite = {suite: [r.name for r in report.results if r.suite == suite] for suite in verify.SUITES}
    assert by_suite["chasles"] == [
        f"row {n}: pairs {i}, {j}, {min({0, 1, 2} - {i, j})}"
        for n, i, j, status, _ in state.rows if status == "new"
    ]
    pairs = [f"pair {k}" for k in range(len(state.pairs))]
    points = [f"{pair} point {m}" for pair in pairs for m in (0, 1)]
    assert by_suite["pair-tangents"] == pairs
    assert by_suite["chords"] == pairs[:len(by_suite["chords"])]
    for suite in ("tangents", "lines"):
        assert by_suite[suite] == points[:len(by_suite[suite])]
    assert by_suite["center"] == [p for p in points if p in set(by_suite["center"])]


class TestChaslesAgainstTheReference:
    """`chasles_check` decides each meet by the polar identity; the reference
    forms each meet in canonical form and evaluates the cubic there.  They
    must agree on the verdict, the detail or the exception, and on which
    meets lie on the cubic."""

    # y(x^2 + y^2 - z^2): the line y = 0 is a component
    LINE_AND_CONIC = Cubic.of([0, 1, 0, 0, 0, 0, 1, 0, -1, 0])

    @staticmethod
    def outcome(check, curve, hexagon):
        try:
            return check(curve, *hexagon)
        except SchroeterError as exc:
            return type(exc).__name__, str(exc)

    @staticmethod
    def reference_meets(curve, hexagon):
        a, b, c, abar, bbar, cbar = hexagon
        sides = ((a, b, abar, bbar), (b, c, bbar, cbar), (c, abar, cbar, a))
        return [evaluate(curve, meet(join(p, q), join(u, v))) == 0 for p, q, u, v in sides]

    def agree(self, curve, hexagon):
        """Assert that the check and the reference agree; return the outcome."""
        outcome = self.outcome(chasles_check, curve, hexagon)
        assert outcome == self.outcome(chasles_reference, curve, hexagon)
        if isinstance(outcome, bool):
            assert _meets_on_curve(curve, hexagon) == self.reference_meets(curve, hexagon)
        return outcome

    @pytest.mark.parametrize("name", ["curve12", "torsion-full", "torsion-quadrilateral", "frame"])
    def test_every_chasles_row(self, monkeypatch, request, name):
        if name == "frame":
            state = run(request.getfixturevalue("golden_frame_seed"), max_points=128)
        else:
            fixture, curve = {
                "curve12": ("curve12_seed", "curve12"),
                "torsion-full": ("torsion_seed_full", "curve54"),
                "torsion-quadrilateral": ("torsion_seed_quadrilateral", "curve54"),
            }[name]
            cubic = request.getfixturevalue(curve).cubic
            state = run(request.getfixturevalue(fixture), max_points=128, curve=cubic)
        calls = []
        monkeypatch.setattr(verify, "chasles_check", lambda curve, *hexagon: (
            calls.append((curve, hexagon)) or chasles_check(curve, *hexagon)
        ))
        rows = [(r.name, r.status, r.detail) for r in run_suites(state, suites=("chasles",)).results]
        # one call per row and basis cubic: the full torsion seed's family
        # has two; the quadrilateral seed makes no pair, so it has no row
        assert len(calls) == {"curve12": 61, "torsion-full": 2, "torsion-quadrilateral": 0, "frame": 61}[name]
        assert {self.agree(curve, hexagon) for curve, hexagon in calls} <= {True}
        monkeypatch.setattr(verify, "chasles_check", chasles_reference)
        assert rows == [(r.name, r.status, r.detail) for r in run_suites(state, suites=("chasles",)).results]

    @pytest.mark.parametrize("fixture", ["torsion_seed_full", "torsion_seed_quadrilateral"])
    def test_every_hexagon_of_three_torsion_pairs(self, request, curve54, fixture):
        """Each ordered choice of three pairs of the closed run, with each
        pair's members either way round."""
        state = run(request.getfixturevalue(fixture), curve=curve54.cubic)
        for pairs in permutations(state.pairs, 3):
            for flips in product((False, True), repeat=3):
                members = [pair.points[::-1] if flip else pair.points for pair, flip in zip(pairs, flips)]
                hexagon = tuple(p for p, _ in members) + tuple(q for _, q in members)
                assert self.agree(curve54.cubic, hexagon) is True

    @given(st.sampled_from(CURVE_POINTS).flatmap(lambda case: st.tuples(
        st.just(case[0]), st.lists(st.sampled_from(case[1]), min_size=6, max_size=6)
    )))
    def test_random_hexagons(self, case):
        cubic, hexagon = case
        self.agree(cubic, tuple(hexagon))

    def test_a_side_of_coincident_points(self, curve12):
        p = [ProjPoint.affine(*xy) for xy in ((1, 2), (2, -4), (2, 4), (1, -2), (32, -184))]
        golden = ProjPoint.of(4, 23, 64)
        for hexagon in (
            (p[0], p[0], p[2], p[1], p[3], golden),  # a = b
            (p[0], p[2], golden, p[1], p[4], p[4]),  # bbar = cbar
            (p[0], p[2], golden, p[1], p[3], p[0]),  # cbar = a
        ):
            name, detail = self.agree(curve12.cubic, hexagon)
            assert name == "DegenerateHexagon" and detail.startswith("cannot join ")

    def test_opposite_sides_on_one_line(self):
        on_line = [ProjPoint.of(*t) for t in ((1, 0, 0), (2, 0, 1), (3, 0, 1), (0, 0, 1))]
        on_conic = [ProjPoint.of(*t) for t in ((0, 1, 1), (3, 4, 5), (4, 3, 5))]
        cubic = self.LINE_AND_CONIC
        # the sides ab and abar bbar
        first = (on_line[0], on_line[1], on_conic[0], on_line[2], on_line[3], on_conic[1])
        # the sides c abar and cbar a; the meet of ab and abar bbar is off the
        # cubic, so only a test of every side before any meet finds this
        third = (on_line[0], on_conic[0], on_line[1], on_line[2], on_conic[2], on_line[3])
        a, b, _, abar, bbar, _ = third
        assert evaluate(cubic, meet(join(a, b), join(abar, bbar))) != 0
        for hexagon in (first, third):
            assert self.agree(cubic, hexagon) == (
                "DegenerateHexagon", "cannot intersect [0 : 1 : 0] with itself"
            )

    def test_a_hypothesis_meet_off_the_cubic(self, curve12):
        a, b, c = ProjPoint.affine(1, 2), ProjPoint.affine(2, 4), ProjPoint.affine(32, -184)
        abar, bbar, cbar = ProjPoint.affine(1, -2), ProjPoint.affine(2, -4), ProjPoint.of(4, 23, 64)
        assert self.agree(curve12.cubic, (a, b, c, abar, bbar, cbar)) is True
        assert not all(_meets_on_curve(curve12.cubic, (a, b, c, abar, bbar, cbar))[:2])

    def test_a_vertex_off_the_cubic(self, curve12):
        on = [ProjPoint.affine(1, 2), ProjPoint.affine(2, 4), ProjPoint.affine(1, -2), ProjPoint.affine(2, -4)]
        off = [ProjPoint.affine(1, 1), ProjPoint.affine(3, 5)]
        hexagon = (on[0], off[0], on[1], on[2], on[3], off[1])
        assert self.agree(curve12.cubic, hexagon) == ("NotOnCurve", "(1 : 1 : 1) is not on the cubic")

    def test_meets_at_a_vertex(self, curve12):
        """alpha = 0 or beta = 0: a side's meet is one of its vertices."""
        cubic = curve12.cubic
        a, b, c, abar, bbar, cbar = CURVE_POINTS[0][1][2:8]
        for k, hexagon in (
            (0, (a, chord_third(cubic, abar, bbar), c, abar, bbar, cbar)),  # m1 = b
            (0, (chord_third(cubic, abar, bbar), b, c, abar, bbar, cbar)),  # m1 = a
            (1, (a, b, c, abar, bbar, chord_third(cubic, b, c))),  # m2 = cbar
            (1, (a, b, c, abar, chord_third(cubic, b, c), cbar)),  # m2 = bbar
            (2, (a, b, c, chord_third(cubic, cbar, a), bbar, cbar)),  # m3 = abar
            (2, (a, b, chord_third(cubic, cbar, a), abar, bbar, cbar)),  # m3 = c
        ):
            assert self.agree(cubic, hexagon) is True
            assert _meets_on_curve(cubic, hexagon)[k] is True
