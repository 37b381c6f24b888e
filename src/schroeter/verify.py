"""Verification suites over a finished construction run.

Each suite replays one family of claims against the emitted pairs and
reports per-check pass/fail/degenerate results; suites that need a group
law are skipped unless a Weierstrass model is supplied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from .checks import (
    chasles_check,
    chord_tangency_check,
    conjugate_lines_check,
    tangent_by_involution,
    tangent_meet,
)
from .cubic import evaluate, tangent_at, tangent_third
from .engine import ConstructionState
from .errors import (
    DegeneracyError,
    HypothesisFailed,
    InvariantViolation,
    ValidationError,
    brief,
)
from .weierstrass import (
    WeierstrassCurve,
    involution_center_product,
    to_abc_chart,
)

SUITES = ("chasles", "pair-tangents", "tangents", "chords", "lines", "center")

# Checks with a pass/fail verdict after which tangents, chords, lines and
# center stop (tangents tests it once per pair, so it can reach 121);
# chasles and pair-tangents are uncapped and cover every pair.
LIMIT = 120


@dataclass
class CheckResult:
    suite: str
    name: str
    status: str  # "pass" | "fail" | "degenerate" | "hypothesis-failed" | "skipped"
    detail: str = ""

    def to_json(self):
        return asdict(self)


@dataclass
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def counts(self) -> dict[str, int]:
        return dict(Counter(r.status for r in self.results))

    def to_json(self):
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "checks": [r.to_json() for r in self.results],
        }


def _key_head(points, width: int) -> str:
    """The first `width` characters of the points' coordinates, written
    "x:y:z" and joined by "|", converting one coordinate at a time and
    stopping once there are enough (coordinates can run to thousands of
    digits).  brief() of a text depends only on its first 49 characters."""
    text = ""
    for n, c in enumerate(c for p in points for c in p.coords):
        if n:
            text += ":" if n % 3 else "|"
        text += str(c)
        if len(text) >= width:
            break
    return text[:width]


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


def _suite_chasles(state: ConstructionState, report: VerificationReport):
    by_key = {pair.key: pair for pair in state.pairs}
    for derivation in state.provenance:
        if derivation.status != "new":
            continue
        pa = by_key.get(derivation.parents[0])
        pb = by_key.get(derivation.parents[1])
        if pa is None or pb is None:
            continue
        # the first pair disjoint from both parents serves as the third side
        used = {*pa.points, *pb.points}
        third = next((cand for cand in state.pairs if used.isdisjoint(cand.points)), None)
        if third is None:
            continue
        name = "hexagon " + " / ".join(brief(_key_head(p.points, 49)) for p in (pa, pb, third))
        _check(report, "chasles", name, lambda: all(
            chasles_check(
                basis_curve,
                pa.first, pb.first, third.first,
                pa.second, pb.second, third.second,
            )
            for basis_curve in state.curve_basis
        ))


def _meet(meets: dict, cubic, pair):
    """The pair's tangent meet (tangent_meet), computed once per memo."""
    key = (cubic, pair.points)
    if key not in meets:
        meets[key] = tangent_meet(cubic, *pair.points)
    return meets[key]


def _suite_pair_tangents(state, report, cubic, meets):
    def tangential_points(pair):
        if _meet(meets, cubic, pair) is not None:
            return True
        t1 = tangent_third(cubic, pair.first)
        t2 = tangent_third(cubic, pair.second)
        ok = t1 == t2 and evaluate(cubic, t1) == 0
        return ok, "" if ok else f"{brief(t1)} vs {brief(t2)}"

    for pair in state.pairs:
        name = f"tangential points of {brief(_key_head(pair.points, 49))}"
        _check(report, "pair-tangents", name, lambda: tangential_points(pair))


def _suite_tangents(state, report, cubic):
    checked = 0
    pairs = state.pairs
    for s_pair in pairs:
        if checked >= LIMIT:
            break
        others = [p for p in pairs if p is not s_pair]
        if len(others) < 2:
            break
        p_pair, q_pair = others[0], others[1]
        for contact in s_pair.points:
            name = f"ruler tangent at {_key_head([contact], 48)}"
            checked += _check(report, "tangents", name, lambda: (
                tangent_by_involution(cubic, s_pair, p_pair, q_pair, contact)
                == tangent_at(cubic, contact)
            ))


def _suite_chords(state, report, curve: WeierstrassCurve, meets):
    checked = 0
    for pair in state.pairs:
        if checked >= LIMIT:
            break
        name = f"chord through {brief(_key_head(pair.points, 49))}"
        checked += _check(report, "chords", name, lambda: chord_tangency_check(
            curve, *pair.points, tangential=_meet(meets, curve.cubic, pair)
        ))


def _suite_lines(state, report, cubic):
    checked = 0
    pairs = state.pairs
    for r_pair in pairs:
        for r in r_pair.points:
            if checked >= LIMIT:
                return
            others = [p for p in pairs if p is not r_pair and r not in p]
            if len(others) < 3:
                continue
            name = f"line involution at {_key_head([r], 48)}"
            checked += _check(report, "lines", name, lambda: conjugate_lines_check(cubic, r, *others[:3]))


def _suite_center(state, report, curve: WeierstrassCurve):
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

    checked = 0
    for pair in state.pairs:
        for p in pair.points:
            if checked >= LIMIT:
                return
            name = f"center product vs {_key_head([p], 48)}"
            checked += _check(report, "center", name, lambda: center_product(p), drop_invalid=True)


# The model each suite after chasles needs: "cubic" (the Weierstrass model's,
# else the construction's unique curve) or "curve" (the Weierstrass model).
_NEEDS = {
    "pair-tangents": "cubic",
    "tangents": "cubic",
    "chords": "curve",
    "lines": "cubic",
    "center": "curve",
}
_MISSING = {"cubic": "no unique curve available", "curve": "needs a Weierstrass model"}


def run_suites(
    state: ConstructionState,
    suites=("all",),
    curve: WeierstrassCurve | None = None,
) -> VerificationReport:
    """Run the selected verification suites over a construction state."""
    wanted = set(SUITES) if "all" in suites else set(suites)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValidationError(f"unknown suites: {sorted(unknown)}; choose from {SUITES}")
    report = VerificationReport()
    models = {"cubic": curve.cubic if curve is not None else state.curve, "curve": curve}
    # tangent meets shared by pair-tangents and chords, for this call only
    meets = {}
    for suite in SUITES:
        if suite not in wanted:
            continue
        # looked up at call time, so a wrapper installed on the module is used
        run_suite = globals()["_suite_" + suite.replace("-", "_")]
        need = _NEEDS.get(suite)
        if need is None:
            run_suite(state, report)
        elif models[need] is None:
            report.results.append(CheckResult(suite, "suite", "skipped", _MISSING[need]))
        else:
            shared = (meets,) if suite in ("pair-tangents", "chords") else ()
            run_suite(state, report, models[need], *shared)
    return report


def revalidate_points(points, cubics) -> None:
    """Raise if a point repeats or misses any of the given cubics (corrupt
    data check)."""
    seen = set()
    for p in points:
        if p in seen:
            raise InvariantViolation(f"point {brief(p)} appears more than once")
        seen.add(p)
        for c in cubics:
            if evaluate(c, p) != 0:
                raise InvariantViolation(f"point {brief(p)} is off the recorded curve")
