"""Verification suites over a finished construction run.

Each suite replays one family of claims against the emitted pairs.  It
hands its checks, in units, to one runner (`_run`), which records each
check's pass/fail/degenerate result and alone applies the limit rule.
Every suite takes (state, report, model, meet): the model `run_suites`
gives it, and the call's memo of each pair's tangent meet.  Suites that
need a group law are skipped unless a Weierstrass model is supplied.

A check is named by indices into the run's pairs, the indices that
`construct --out` writes for the same seed and point cap: "row n: pairs
i, j, c" in chasles (the new row's ordinal, its two parents and the third
side), "pair k" in pair-tangents and chords, and "pair k point m" in
tangents, lines and center, m being 0 for the pair's first member and 1
for its second.  A skipped suite's row is named "suite", and center's
row when it finds no chart base "chart base".
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import islice
from typing import NamedTuple

from .checks import (
    chasles_check,
    chord_tangency_check,
    conjugate_lines_check,
    tangent_by_involution,
    tangent_meet,
)
from .cubic import evaluate, tangent_at, tangent_third
from .engine import ConstructionState
from .errors import DegeneracyError, HypothesisFailed, ValidationError, brief
from .record import record
from .weierstrass import (
    WeierstrassCurve,
    involution_center_product,
    to_abc_chart,
)

SUITES = ("chasles", "pair-tangents", "tangents", "chords", "lines", "center")

# Checks with a pass/fail verdict after which tangents, chords, lines and
# center start no further unit (see _run).  A unit of tangents is a pair's
# two contact points, so it can reach 121; elsewhere a unit is one check.
# chasles and pair-tangents are uncapped and cover every pair.
LIMIT = 120

# 2, since the reports that named checks by coordinates had no format_version
VERIFY_FORMAT = 2


@record
class CheckResult(NamedTuple):
    suite: str
    name: str
    status: str  # "pass" | "fail" | "degenerate" | "hypothesis-failed" | "skipped"
    detail: str = ""


@record
class VerificationReport(NamedTuple):
    """The checks' results, to which the suites append."""

    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def counts(self) -> dict[str, int]:
        return dict(Counter(r.status for r in self.results))

    def to_json(self):
        """The verify report: each check as a row [suite, name, status,
        detail], in the order the suites ran them."""
        return {
            "format_version": VERIFY_FORMAT,
            "ok": self.ok,
            "counts": self.counts(),
            "checks": [list(r) for r in self.results],
        }


def _check(report, suite, name, check, drop_invalid=False) -> bool:
    """Run `check` and record its outcome; return whether it reached a verdict.

    `check` returns a verdict, or a (verdict, detail) pair.  HypothesisFailed
    is recorded as "hypothesis-failed" and any other DegeneracyError as
    "degenerate".  A ValidationError is raised, or left out of the report
    with drop_invalid.
    """
    try:
        outcome = check()
    except HypothesisFailed as exc:
        status, detail = "hypothesis-failed", str(exc)
    except DegeneracyError as exc:
        status, detail = "degenerate", str(exc)
    except ValidationError:
        if not drop_invalid:
            raise
        return False
    else:
        ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        status = "pass" if ok else "fail"
    report.results.append(CheckResult(suite, name, status, detail))
    return status in ("pass", "fail")


def _run(report, suite, units, capped=True, drop_invalid=False) -> None:
    """Record the checks of each unit in turn, a unit being a sequence of
    (name, check) pairs (see _check).  The one limit rule: a capped suite
    starts no further unit once LIMIT of its checks have reached a verdict."""
    verdicts = 0
    for unit in units:
        for name, check in unit:
            verdicts += _check(report, suite, name, check, drop_invalid)
        if capped and verdicts >= LIMIT:
            return


def _suite_chasles(state, report, model, meet):
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


def _suite_pair_tangents(state, report, cubic, meet):
    def tangential_points(pair):
        if meet(pair) is not None:
            return True
        t1 = tangent_third(cubic, pair.first)
        t2 = tangent_third(cubic, pair.second)
        ok = t1 == t2 and evaluate(cubic, t1) == 0
        return ok, "" if ok else f"{brief(t1)} vs {brief(t2)}"

    _run(report, "pair-tangents", (
        [(f"pair {k}", partial(tangential_points, pair))]
        for k, pair in enumerate(state.pairs)
    ), capped=False)


def _suite_tangents(state, report, cubic, meet):
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


def _suite_chords(state, report, curve: WeierstrassCurve, meet):
    _run(report, "chords", (
        [(f"pair {k}",
          lambda pair=pair: chord_tangency_check(curve, *pair.points, tangential=meet(pair)))]
        for k, pair in enumerate(state.pairs)
    ))


def _suite_lines(state, report, cubic, meet):
    def units():
        for k, r_pair in enumerate(state.pairs):
            # the pairs are disjoint, so the first three others miss r
            others = list(islice((p for p in state.pairs if p is not r_pair), 3))
            if len(others) < 3:
                continue
            for m, r in enumerate(r_pair.points):
                yield [(f"pair {k} point {m}", partial(conjugate_lines_check, cubic, r, *others))]

    _run(report, "lines", units())


def _suite_center(state, report, curve: WeierstrassCurve, meet):
    base = next(
        (p for pair in state.pairs for p in pair.points if not p.is_infinite and all(p.to_affine())),
        None,
    )
    if base is None:
        report.results.append(CheckResult("center", "chart base", "skipped", "no usable base point"))
        return
    chart_map = to_abc_chart(curve, base)
    chart = chart_map.chart
    a_chart = chart_map.to_chart(base)
    expected = chart.gamma * a_chart[0]

    def center_product(p):
        product = involution_center_product(chart, a_chart, chart_map.to_chart(p)).product
        return product == expected, f"product {product}"

    _run(report, "center", (
        [(f"pair {k} point {m}", partial(center_product, p))]
        for k, pair in enumerate(state.pairs)
        for m, p in enumerate(pair.points)
    ), drop_invalid=True)


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


def run_suites(
    state: ConstructionState,
    suites=("all",),
    curve: WeierstrassCurve | None = None,
) -> VerificationReport:
    """Run the selected verification suites over a construction state."""
    wanted = wanted_suites(suites)
    report = VerificationReport([])
    cubic = curve.cubic if curve is not None else state.curve
    # each pair's tangent meet, computed once per call; pair-tangents and
    # chords share it, and whenever chords runs both take curve.cubic
    meet = cache(lambda pair: tangent_meet(cubic, *pair.points))
    no_cubic, no_curve = "no unique curve available", "needs a Weierstrass model"
    # (suite, function, model, detail when the model is missing; chasles
    # needs none), built at each call so that a wrapper installed on a suite
    # function is the one run
    for suite, run_suite, model, missing in (
        ("chasles", _suite_chasles, None, ""),
        ("pair-tangents", _suite_pair_tangents, cubic, no_cubic),
        ("tangents", _suite_tangents, cubic, no_cubic),
        ("chords", _suite_chords, curve, no_curve),
        ("lines", _suite_lines, cubic, no_cubic),
        ("center", _suite_center, curve, no_curve),
    ):
        if suite not in wanted:
            continue
        if model is None and missing:
            report.results.append(CheckResult(suite, "suite", "skipped", missing))
        else:
            run_suite(state, report, model, meet)
    return report

