"""Verification suites over a finished construction run.

Each suite replays one family of claims against the emitted pairs and
reports per-check pass/fail/degenerate results; suites that need a group
law are skipped unless a Weierstrass model is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checks import (
    chasles_check,
    chord_tangency_check,
    conjugate_lines_check,
    tangent_by_involution,
)
from .cubic import evaluate, tangent_at, tangent_third, third_intersection
from .engine import ConstructionState
from .errors import (
    DegeneracyError,
    HypothesisFailed,
    InvariantViolation,
    ValidationError,
    brief,
)
from .weierstrass import (
    TWO_TORSION,
    WeierstrassCurve,
    add,
    involution_center_product,
    neg,
    to_abc_chart,
)

SUITES = ("chasles", "pair-tangents", "tangents", "chords", "lines", "center")


@dataclass
class CheckResult:
    suite: str
    name: str
    status: str  # "pass" | "fail" | "degenerate" | "hypothesis-failed" | "skipped"
    detail: str = ""

    def to_json(self):
        return {
            "suite": self.suite,
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
        }


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
        out: dict[str, int] = {}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def to_json(self):
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "checks": [r.to_json() for r in self.results],
        }


def _pair_by_key(state: ConstructionState):
    return {pair.key: pair for pair in state.pairs}


def _suite_chasles(state: ConstructionState, report: VerificationReport):
    by_key = _pair_by_key(state)
    for derivation in state.provenance:
        if derivation.status != "new":
            continue
        pa = by_key.get(derivation.parents[0])
        pb = by_key.get(derivation.parents[1])
        if pa is None or pb is None:
            continue
        # the first pair disjoint from both parents serves as the third side
        third = None
        for cand in state.pairs:
            if cand in (pa, pb):
                continue
            if set(cand.points) & (set(pa.points) | set(pb.points)):
                continue
            third = cand
            break
        if third is None:
            continue
        name = f"hexagon {brief(pa.label)} / {brief(pb.label)} / {brief(third.label)}"
        for basis_curve in state.curve_basis:
            try:
                ok = chasles_check(
                    basis_curve,
                    pa.first, pb.first, third.first,
                    pa.second, pb.second, third.second,
                )
            except HypothesisFailed as exc:
                report.results.append(CheckResult("chasles", name, "hypothesis-failed", str(exc)))
                break
            except DegeneracyError as exc:
                report.results.append(CheckResult("chasles", name, "degenerate", str(exc)))
                break
            if not ok:
                report.results.append(CheckResult("chasles", name, "fail"))
                break
        else:
            report.results.append(CheckResult("chasles", name, "pass"))


def _suite_pair_tangents(state, report, cubic):
    for pair in state.pairs:
        name = f"tangential points of {brief(pair.label)}"
        try:
            t1 = tangent_third(cubic, pair.first)
            t2 = tangent_third(cubic, pair.second)
        except HypothesisFailed as exc:
            report.results.append(CheckResult("pair-tangents", name, "hypothesis-failed", str(exc)))
            continue
        except DegeneracyError as exc:
            report.results.append(CheckResult("pair-tangents", name, "degenerate", str(exc)))
            continue
        if t1 == t2 and evaluate(cubic, t1) == 0:
            report.results.append(CheckResult("pair-tangents", name, "pass"))
        else:
            report.results.append(CheckResult("pair-tangents", name, "fail", f"{t1} vs {t2}"))


def _suite_tangents(state, report, cubic, limit):
    checked = 0
    pairs = state.pairs
    for i, s_pair in enumerate(pairs):
        if checked >= limit:
            break
        others = [p for p in pairs if p is not s_pair]
        if len(others) < 2:
            break
        p_pair, q_pair = others[0], others[1]
        for contact in s_pair.points:
            name = f"ruler tangent at {contact.key[:48]}"
            try:
                constructed = tangent_by_involution(cubic, s_pair, p_pair, q_pair, contact)
            except HypothesisFailed as exc:
                report.results.append(CheckResult("tangents", name, "hypothesis-failed", str(exc)))
                continue
            except DegeneracyError as exc:
                report.results.append(CheckResult("tangents", name, "degenerate", str(exc)))
                continue
            algebraic = tangent_at(cubic, contact)
            status = "pass" if constructed == algebraic else "fail"
            report.results.append(CheckResult("tangents", name, status))
            checked += 1


def _suite_chords(state, report, curve: WeierstrassCurve, limit):
    checked = 0
    for pair in state.pairs:
        if checked >= limit:
            break
        a, abar = pair.points
        name = f"chord through {brief(pair.label)}"
        try:
            b = third_intersection(curve.cubic, a, abar)
            if b in (a, abar):
                report.results.append(CheckResult("chords", name, "degenerate", "tangent chord"))
                continue
            ok = chord_tangency_check(curve, a, b)
        except HypothesisFailed as exc:
            report.results.append(CheckResult("chords", name, "hypothesis-failed", str(exc)))
            continue
        except DegeneracyError as exc:
            report.results.append(CheckResult("chords", name, "degenerate", str(exc)))
            continue
        except ValidationError as exc:
            report.results.append(CheckResult("chords", name, "degenerate", str(exc)))
            continue
        report.results.append(CheckResult("chords", name, "pass" if ok else "fail"))
        checked += 1


def _suite_lines(state, report, cubic, limit):
    checked = 0
    pairs = state.pairs
    for r_pair in pairs:
        for r in r_pair.points:
            if checked >= limit:
                return
            others = [p for p in pairs if p is not r_pair and r not in p]
            if len(others) < 3:
                continue
            p_pair, q_pair, s_pair = others[0], others[1], others[2]
            name = f"line involution at {r.key[:48]}"
            try:
                ok = conjugate_lines_check(cubic, r, p_pair, q_pair, s_pair)
            except HypothesisFailed as exc:
                report.results.append(CheckResult("lines", name, "hypothesis-failed", str(exc)))
                continue
            except DegeneracyError as exc:
                report.results.append(CheckResult("lines", name, "degenerate", str(exc)))
                continue
            report.results.append(CheckResult("lines", name, "pass" if ok else "fail"))
            checked += 1


def _suite_center(state, report, curve: WeierstrassCurve, limit):
    base = None
    chart_map = None
    for pair in state.pairs:
        for p in pair.points:
            if p.is_infinite:
                continue
            x, y = p.to_affine()
            if x != 0 and y != 0:
                base = p
                chart_map = to_abc_chart(curve, p)
                break
        if chart_map:
            break
    if chart_map is None:
        report.results.append(CheckResult("center", "chart base", "skipped", "no usable base point"))
        return
    chart = chart_map.chart
    a_chart = chart_map.to_chart(base)
    expected = chart.gamma * a_chart[0]
    checked = 0
    for pair in state.pairs:
        for p in pair.points:
            if checked >= limit:
                return
            name = f"center product vs {p.key[:48]}"
            try:
                cp = chart_map.to_chart(p)
                result = involution_center_product(chart, a_chart, cp)
            except DegeneracyError as exc:
                report.results.append(CheckResult("center", name, "degenerate", str(exc)))
                continue
            except ValidationError:
                continue
            status = "pass" if result.product == expected else "fail"
            report.results.append(CheckResult("center", name, status, f"product {result.product}"))
            checked += 1


def run_suites(
    state: ConstructionState,
    suites=("all",),
    curve: WeierstrassCurve | None = None,
    limit: int = 120,
) -> VerificationReport:
    """Run the selected verification suites over a construction state."""
    wanted = set(SUITES) if "all" in suites else set(suites)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValidationError(f"unknown suites: {sorted(unknown)}; choose from {SUITES}")
    report = VerificationReport()
    cubic = curve.cubic if curve is not None else state.curve

    if "chasles" in wanted:
        _suite_chasles(state, report)
    if "pair-tangents" in wanted:
        if cubic is None:
            report.results.append(
                CheckResult("pair-tangents", "suite", "skipped", "no unique curve available")
            )
        else:
            _suite_pair_tangents(state, report, cubic)
    if "tangents" in wanted:
        if cubic is None:
            report.results.append(CheckResult("tangents", "suite", "skipped", "no unique curve available"))
        else:
            _suite_tangents(state, report, cubic, limit)
    if "chords" in wanted:
        if curve is None:
            report.results.append(CheckResult("chords", "suite", "skipped", "needs a Weierstrass model"))
        else:
            _suite_chords(state, report, curve, limit)
    if "lines" in wanted:
        if cubic is None:
            report.results.append(CheckResult("lines", "suite", "skipped", "no unique curve available"))
        else:
            _suite_lines(state, report, cubic, limit)
    if "center" in wanted:
        if curve is None:
            report.results.append(CheckResult("center", "suite", "skipped", "needs a Weierstrass model"))
        else:
            _suite_center(state, report, curve, limit)
    return report


def check_pair_differences(state: ConstructionState, curve: WeierstrassCurve) -> int:
    """Assert partner - point = T under the group law for every pair; returns
    the number of pairs checked."""
    count = 0
    for pair in state.pairs:
        delta = add(curve, pair.second, neg(curve, pair.first))
        if delta != TWO_TORSION:
            raise InvariantViolation(
                f"{pair}: partner difference {delta} is not the 2-torsion point"
            )
        count += 1
    return count


def revalidate_points(points, cubics) -> None:
    """Raise if any point misses any of the given cubics (corrupt data check)."""
    for p in points:
        for c in cubics:
            if evaluate(c, p) != 0:
                raise InvariantViolation(f"point {p} is off the recorded curve")
