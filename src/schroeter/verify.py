"""Verification suites over a finished construction run.

Each suite replays one family of claims against the emitted pairs.  It
hands its checks, in units, to one runner (`_run`), which records each
check's pass/fail/degenerate result and alone applies the limit rule.
Every suite takes (state, report, model, verdicts): the model `run_suites`
gives it, and each pair's verdict byte (see _verdict), which only
pair-tangents and chords read.  Suites that need a group law are skipped
unless a Weierstrass model is supplied.

A check is named by indices into the run's pairs, the indices that
`construct --out` writes for the same seed and point cap: "row n: pairs
i, j, c" in chasles (the new row's ordinal, its two parents and the third
side), "pair k" in pair-tangents and chords, and "pair k point m" in
tangents, lines and center, m being 0 for the pair's first member and 1
for its second.  A skipped suite's row is named "suite", and center's
row when it finds no chart base "chart base".  center checks both points
of each pair but the chart base's whose points have x != 0, each with its
partner in the run.

The suites run, and their checks are reported, in SUITES order.
pair-tangents and chords, which come last, read each pair's verdict byte.
A forked worker may compute the bytes from the first pair on while the
suites before them run, and this process computes the rest from the last
pair back.  The output does not depend on who computes which byte (see
run_suites).

The verify report (`VerificationReport.to_json`, format_version 3) names
each suite once: each suite that ran is a key beside `format_version`,
`ok` and `counts`, holding its checks as rows [name, status, detail] in
the order they ran, or [] when it recorded none.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import islice
from typing import NamedTuple

from .checks import (
    chasles_check,
    chord_collinearity,
    chord_tangency_check,
    conjugate_lines_check,
    tangent_by_involution,
    tangent_meet,
)
from .cubic import evaluate, tangent_at, tangent_third
from .engine import ConstructionState
from .errors import DegeneracyError, HypothesisFailed, ValidationError, brief, lifted_digit_limit
from .record import record
from .weierstrass import (
    TWO_TORSION,
    WeierstrassCurve,
    add,
    involution_center_product,
    neg,
    to_abc_chart,
)

# The order in which run_suites runs the suites and reports their checks.
# pair-tangents and chords, which read the pairs' verdict bytes, come last,
# so that a worker can compute the bytes while the others run.
SUITES = ("chasles", "tangents", "lines", "center", "pair-tangents", "chords")

# The bits of a pair's verdict byte (see _verdict)
MEETS, COLLINEAR = 1, 2

# Checks with a pass/fail verdict after which tangents, lines, center and
# chords start no further unit (see _run).  A unit of tangents is a pair's
# two contact points, so it can reach 121; elsewhere a unit is one check.
# chasles and pair-tangents are uncapped and cover every pair.
LIMIT = 120

# 3 since each suite is a key of its own; 2 listed every check as a row
# [suite, name, status, detail] under `checks`, and the reports before it
# named checks by coordinates and had no format_version
VERIFY_FORMAT = 3


@record
class CheckResult(NamedTuple):
    suite: str
    name: str
    status: str  # "pass" | "fail" | "degenerate" | "hypothesis-failed" | "skipped"
    detail: str = ""


@record
class VerificationReport(NamedTuple):
    """The checks' results, to which the suites append, and the suites that
    ran, in order, whether or not they recorded a check."""

    results: list[CheckResult]
    suites: list[str]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def counts(self) -> dict[str, int]:
        return dict(Counter(r.status for r in self.results))

    def to_json(self):
        """The verify report: each suite that ran as a key, holding its
        checks as rows [name, status, detail] in the order they ran ([] if
        it recorded none)."""
        rows = {suite: [] for suite in self.suites}
        for r in self.results:
            rows[r.suite].append([r.name, r.status, r.detail])
        return {"format_version": VERIFY_FORMAT, "ok": self.ok, "counts": self.counts(), **rows}


def _check(report, suite, name, check) -> bool:
    """Run `check` and record its outcome; return whether it reached a verdict.

    `check` returns a verdict, or a (verdict, detail) pair.  HypothesisFailed
    is recorded as "hypothesis-failed" and any other DegeneracyError as
    "degenerate".  A ValidationError is raised.
    """
    try:
        outcome = check()
    except HypothesisFailed as exc:
        status, detail = "hypothesis-failed", str(exc)
    except DegeneracyError as exc:
        status, detail = "degenerate", str(exc)
    else:
        ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        status = "pass" if ok else "fail"
    report.results.append(CheckResult(suite, name, status, detail))
    return status in ("pass", "fail")


def _run(report, suite, units, capped=True) -> None:
    """Record the checks of each unit in turn, a unit being a sequence of
    (name, check) pairs (see _check).  The one limit rule: a capped suite
    starts no further unit once LIMIT of its checks have reached a verdict."""
    verdicts = 0
    for unit in units:
        for name, check in unit:
            verdicts += _check(report, suite, name, check)
        if capped and verdicts >= LIMIT:
            return


def _suite_chasles(state, report, model, verdicts):
    def units():
        pairs = state.pairs
        for n, i, j, status, _ in state.rows:
            if status == "new":
                # the pairs are disjoint, so the first pair other than the
                # two parents serves as the third side
                third = min({0, 1, 2} - {i, j})
                a, b, c = pairs[i], pairs[j], pairs[third]
                yield [(f"row {n}: pairs {i}, {j}, {third}", lambda a=a, b=b, c=c: all(
                    chasles_check(basis, a.first, b.first, c.first, a.second, b.second, c.second)
                    for basis in state.curve_basis
                ))]

    _run(report, "chasles", units(), capped=False)


def _suite_pair_tangents(state, report, cubic, verdicts):
    def tangential_points(k, pair):
        if verdicts[k] & MEETS:
            return True
        t1 = tangent_third(cubic, pair.first)
        t2 = tangent_third(cubic, pair.second)
        ok = t1 == t2 and evaluate(cubic, t1) == 0
        return ok, "" if ok else f"{brief(t1)} vs {brief(t2)}"

    _run(report, "pair-tangents", (
        [(f"pair {k}", partial(tangential_points, k, pair))]
        for k, pair in enumerate(state.pairs)
    ), capped=False)


def _suite_tangents(state, report, cubic, verdicts):
    def ruler_tangent(s_pair, contact):
        p_pair, q_pair = islice((p for p in state.pairs if p is not s_pair), 2)
        ruler = tangent_by_involution(cubic, s_pair, p_pair, q_pair, contact)
        return ruler == tangent_at(cubic, contact)

    # a unit is a pair's two contact points
    _run(report, "tangents", (
        [(f"pair {k} point {m}", partial(ruler_tangent, s_pair, c))
         for m, c in enumerate(s_pair.points)]
        for k, s_pair in enumerate(state.pairs)
    ))


def _paired_by_t(state, report, suite, curve: WeierstrassCurve) -> bool:
    """Whether pair 0 differs by the model's T, by the group law; if not,
    record one skipped row naming the difference.  The chord and center
    claims are about pairs {P, P + T}, so a run paired by another point is
    not checked pair by pair."""
    if state.pairs:
        p, pbar = state.pairs[0].points
        t = add(curve, pbar, neg(curve, p))
        if t != TWO_TORSION:
            detail = f"pair 0 differs by {brief(t)}, not by T = {brief(TWO_TORSION)}"
            report.results.append(CheckResult(suite, "suite", "skipped", detail))
            return False
    return True


def _suite_chords(state, report, curve: WeierstrassCurve, verdicts):
    if not _paired_by_t(state, report, "chords", curve):
        return
    _run(report, "chords", (
        [(f"pair {k}",
          lambda k=k, pair=pair: bool(verdicts[k] & COLLINEAR) or chord_tangency_check(curve, *pair.points))]
        for k, pair in enumerate(state.pairs)
    ))


def _suite_lines(state, report, cubic, verdicts):
    def units():
        for k, r_pair in enumerate(state.pairs):
            # the pairs are disjoint, so the first three others miss r
            others = list(islice((p for p in state.pairs if p is not r_pair), 3))
            if len(others) < 3:
                continue
            for m, r in enumerate(r_pair.points):
                yield [(f"pair {k} point {m}", partial(conjugate_lines_check, cubic, r, *others))]

    _run(report, "lines", units())


def _suite_center(state, report, curve: WeierstrassCurve, verdicts):
    if not _paired_by_t(state, report, "center", curve):
        return
    base_pair, base = next(
        ((pair, p) for pair in state.pairs for p in pair.points if not p.is_infinite and all(p.to_affine())),
        (None, None),
    )
    if base is None:
        report.results.append(CheckResult("center", "chart base", "skipped", "no usable base point"))
        return
    chart_map = to_abc_chart(curve, base)
    chart = chart_map.chart
    a_chart = chart_map.to_chart(base)
    expected = chart.gamma * a_chart[0]

    def center_product(p, pbar):
        product = involution_center_product(chart, a_chart, *map(chart_map.to_chart, (p, pbar))).product
        with lifted_digit_limit():  # a product that fails may be long
            return product == expected, f"product {product}"

    # the chart sends x = 0 to infinity, and the product needs P and its
    # partner apart from the base
    _run(report, "center", (
        [(f"pair {k} point {m}", partial(center_product, p, pair.other(p)))]
        for k, pair in enumerate(state.pairs)
        if pair is not base_pair and all(q.coords[0] for q in pair.points)
        for m, p in enumerate(pair.points)
    ))


def wanted_suites(names) -> set[str]:
    """The suites that the names select, "all" selecting every one; raise
    on a name that is neither."""
    choices = ("all", *SUITES)
    unknown = set(names) - set(choices)
    if unknown:
        raise ValidationError(
            f"unknown suite {', '.join(map(repr, sorted(unknown)))}; "
            f"choose from {', '.join(map(repr, choices))}"
        )
    return set(SUITES) if "all" in names else set(names)


def _verdict(cubic, chords: bool, pair) -> int:
    """The pair's verdict byte.  Bit MEETS: tangent_meet finds the meet of
    the pair's tangents on the cubic, so pair-tangents passes.  Bit
    COLLINEAR, computed only for chords: chord_collinearity holds, so
    chords passes.  A clear bit decides nothing: the suite computes in
    full."""
    meet = tangent_meet(cubic, *pair.points)
    if meet is None:
        return 0
    return MEETS | (COLLINEAR if chords and chord_collinearity(*pair.points, meet) else 0)


@contextmanager
def _stream(verdict, pairs):
    """Compute verdict(pair) for each of the pairs in a forked worker where
    fork and a second CPU are available, and yield a function that returns,
    without waiting, the bytes that have arrived since its last call: one
    verdict byte per pair, in pair order.  With no worker, or one that has
    died or stalls, it returns b"".  The worker writes to a pipe and leaves
    by os._exit.  On leaving the block it is killed, if it is still
    running, and reaped.  Tests replace this function to keep the work
    in-process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    pid, count = None, len(pairs)
    if count and cpus > 1 and hasattr(os, "fork"):
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: compute in-process
            os.close(read)
            os.close(write)
    if pid is None:
        yield bytes
        return
    if pid == 0:
        try:
            for pair in pairs:
                os.write(write, bytes((verdict(pair),)))
        finally:
            # never return into the caller's stack, nor flush its buffers
            os._exit(0)
    os.close(write)
    os.set_blocking(read, False)

    def arrived():
        try:
            return os.read(read, count)
        except BlockingIOError:  # nothing new yet
            return b""

    try:
        yield arrived
    finally:
        # until it is reaped, an exited worker keeps its pid, so the kill
        # cannot reach another process
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read)


def _gather(arrived, verdict, pairs) -> bytearray:
    """Every pair's verdict byte: the worker's as they arrive, from pair 0
    on, and the rest computed here by verdict(pair), from the last pair
    back, reading what has arrived before each, until the two sides meet.
    This process never waits: when nothing more arrives, it computes the
    rest."""
    verdicts = bytearray(len(pairs))
    front, back = 0, len(pairs)
    while front < back:
        got = arrived()[:back - front]
        verdicts[front:front + len(got)] = got
        front += len(got)
        if front < back:
            back -= 1
            verdicts[back] = verdict(pairs[back])
    return verdicts


def run_suites(
    state: ConstructionState,
    suites=("all",),
    curve: WeierstrassCurve | None = None,
) -> VerificationReport:
    """Run the selected verification suites over a construction state, one
    after another in SUITES order.

    pair-tangents and chords read each pair's verdict byte (see _verdict).
    A forked worker (see _stream) may compute the bytes from pair 0 on
    while the suites before them run; the first of the two to run gathers
    them, computing the rest in this process (see _gather).  The output
    does not depend on who computes which byte: a byte depends on its pair
    alone, and a clear bit makes the suite compute in full."""
    wanted = wanted_suites(suites)
    report = VerificationReport([], [])
    cubic = curve.cubic if curve is not None else state.curve
    no_cubic, no_curve = "no unique curve available", "needs a Weierstrass model"
    # suite -> (function, model, detail when the model is missing; chasles
    # needs none), built at each call so that a wrapper installed on a suite
    # function is the one run
    table = {
        "chasles": (_suite_chasles, None, ""),
        "tangents": (_suite_tangents, cubic, no_cubic),
        "lines": (_suite_lines, cubic, no_cubic),
        "center": (_suite_center, curve, no_curve),
        "pair-tangents": (_suite_pair_tangents, cubic, no_cubic),
        "chords": (_suite_chords, curve, no_curve),
    }
    runs = [(suite, *table[suite]) for suite in SUITES if suite in wanted]
    # the suites that read the verdicts and have their model; whenever
    # chords is one, cubic is curve.cubic
    readers = {"pair-tangents", "chords"}.intersection(
        suite for suite, _, model, _ in runs if model is not None
    )
    verdict, verdicts = partial(_verdict, cubic, "chords" in readers), None
    with _stream(verdict, state.pairs if readers else ()) as arrived:
        for suite, run_suite, model, missing in runs:
            report.suites.append(suite)
            if model is None and missing:
                report.results.append(CheckResult(suite, "suite", "skipped", missing))
                continue
            if suite in readers and verdicts is None:
                verdicts = _gather(arrived, verdict, state.pairs)
            run_suite(state, report, model, verdicts)
    return report
