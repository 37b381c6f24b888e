"""Reference computations the tests compare the package against, kept out
of `schroeter` because no command runs them.  Imported as `oracles`."""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from schroeter import engine
from schroeter.checks import _require_on
from schroeter.cubic import Cubic, chord_third, evaluate, fit_cubic_9, tangent_third
from schroeter.engine import ConstructionState, SeedConfig
from schroeter.errors import (
    DegeneracyError,
    DegenerateHexagon,
    DuplicatePoints,
    HypothesisFailed,
    IdenticalLines,
    IdenticalPoints,
    InvariantViolation,
    OffChartCurve,
    TooDegenerate,
    ValidationError,
    SeedFormatError,
    ZeroDenominator,
    brief,
)
from schroeter.involution import Involution, _pencil_param, _require_in_pencil
from schroeter.projective import ProjLine, ProjPoint, incident, join, meet, span_coordinates
from schroeter.serialize import pair_from_json, rat_from_str
from schroeter.weierstrass import (
    NEUTRAL,
    TWO_TORSION,
    AbcChart,
    ChartMap,
    WeierstrassCurve,
    add,
    conjugate_point,
    neg,
)


def chart_conjugate(chart: AbcChart, point) -> tuple[Fraction, Fraction]:
    """Conjugation in chart coordinates: (x, y) -> (alpha/(gamma x), -y).
    `verify`'s center suite takes the run's partner instead."""
    x, y = (Fraction(v) for v in point)
    if not chart.contains(x, y):
        raise OffChartCurve(f"({brief(x)}, {brief(y)}) is not on the chart curve")
    if chart.gamma == 0 or x == 0:
        raise ZeroDenominator("chart conjugate needs gamma * x != 0")
    return chart.alpha / (chart.gamma * x), -y


class NotCollinear(ValidationError):
    pass


class NotConcurrent(ValidationError):
    pass


class ForbiddenCarrier(ValidationError):
    pass


class NotAffine(ValidationError):
    pass


class DegenerateNine(DegeneracyError):
    pass


class BarNotOnCurve(InvariantViolation):
    pass


class _Infinity:
    """The infinite cross-ratio value (vanishing denominator)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INFINITY = _Infinity()


def cross_ratio_params(t1, t2, t3, t4):
    """Cross-ratio of four homogeneous parameters (lam, mu) on a projective line.

    Convention: cr(p1, p2; p3, p4) = (p1-p3)(p2-p4) / ((p1-p4)(p2-p3)) on
    affine parameters, extended projectively.  Returns a Fraction or INFINITY.
    """

    def d(u, v):
        return u[0] * v[1] - v[0] * u[1]

    num = d(t1, t3) * d(t2, t4)
    den = d(t1, t4) * d(t2, t3)
    if den == 0:
        if num == 0:
            raise TooDegenerate("cross-ratio is indeterminate for these parameters")
        return INFINITY
    return Fraction(num, den)


def cross_ratio_points(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint, p4: ProjPoint):
    """Cross-ratio of four collinear points, at least three pairwise distinct."""
    pts = (p1, p2, p3, p4)
    distinct = list(dict.fromkeys(pts))
    if len(distinct) < 3:
        raise TooDegenerate("need at least three distinct points for a cross-ratio")
    line = join(distinct[0], distinct[1])
    for p in pts:
        if not incident(p, line):
            raise NotCollinear(f"{brief(p)} is not on the common line {brief(line)}")
    b1, b2 = distinct[0].coords, distinct[1].coords
    params = [span_coordinates(p.coords, b1, b2) for p in pts]
    return cross_ratio_params(*params)


def cross_ratio_lines(a: ProjLine, b: ProjLine, c: ProjLine, d: ProjLine):
    """Cross-ratio of four concurrent lines, at least three pairwise distinct.

    Equals the cross-ratio of the four intersection points with any
    transversal line avoiding the carrier.
    """
    lines = (a, b, c, d)
    distinct = list(dict.fromkeys(lines))
    if len(distinct) < 3:
        raise TooDegenerate("need at least three distinct lines for a cross-ratio")
    carrier = meet(distinct[0], distinct[1])
    for l in lines:
        if not incident(carrier, l):
            raise NotConcurrent(f"{brief(l)} does not pass through the carrier {brief(carrier)}")
    b1, b2 = distinct[0].coeffs, distinct[1].coeffs
    params = [span_coordinates(l.coeffs, b1, b2) for l in lines]
    return cross_ratio_params(*params)


def transform(m, point: ProjPoint) -> ProjPoint:
    """The image of `point` under the homography of the nonsingular integer
    matrix `m`, given as its three rows."""
    return ProjPoint(tuple(sum(a * c for a, c in zip(row, point.coords)) for row in m))


def involution_from_pairs(pair_a, pair_b) -> Involution:
    carrier = meet(pair_a[0], pair_a[1])
    return Involution(carrier, tuple(pair_a), tuple(pair_b))


def conjugate_pairs_from_quadrangle(
    a: ProjPoint, abar: ProjPoint, b: ProjPoint, bbar: ProjPoint, p: ProjPoint
):
    """Three conjugate line pairs through p determined by a point quadrangle.

    The diagonal pair d, dbar of the quadrangle joins the cross-meets; p may
    be any point avoiding the four vertices and both diagonal points.
    """
    if len({a, abar, b, bbar}) != 4:
        raise DuplicatePoints("quadrangle points must be pairwise distinct")
    d = meet(join(a, b), join(abar, bbar))
    dbar = meet(join(a, bbar), join(abar, b))
    if p in (a, abar, b, bbar, d, dbar):
        raise ForbiddenCarrier(f"carrier {brief(p)} coincides with a quadrangle or diagonal point")
    return (
        (join(p, a), join(p, abar)),
        (join(p, b), join(p, bbar)),
        (join(p, d), join(p, dbar)),
    )


def verify_involution(inv: Involution, pairs) -> bool:
    """Exhaustive cross-ratio test over the given conjugate pairs.

    For every three distinct pairs and every four lines drawn from all
    three, the cross-ratio must equal the cross-ratio of the four partner
    lines.  Vacuously true with fewer than three distinct pairs.
    """
    seen: dict = {}
    for pair in pairs:
        key = frozenset(pair)
        if key not in seen:
            seen[key] = (pair[0], pair[1])
    distinct_pairs = list(seen.values())
    for pair in distinct_pairs:
        for line in pair:
            _require_in_pencil(inv.carrier, line)

    for trio in combinations(distinct_pairs, 3):
        lines = []
        partner = {}
        for l, lbar in trio:
            lines.extend((l, lbar))
            partner[l] = lbar
            partner[lbar] = l
        params = {l: _pencil_param(inv, l) for l in set(lines)}
        for quad in combinations(range(6), 4):
            pair_ids = {i // 2 for i in quad}
            if len(pair_ids) < 3:
                continue
            chosen = [lines[i] for i in quad]
            cr = cross_ratio_params(*(params[l] for l in chosen))
            cr_bar = cross_ratio_params(*(params[partner[l]] for l in chosen))
            if cr != cr_bar:
                return False
    return True


def normalized_frame_cubic(c: ProjPoint, cbar: ProjPoint) -> Cubic:
    """Closed-form cubic for a seed normalized to the standard frame.

    The seed pairs are {(0,0,1), (0,1,0)}, {(1,0,0), (1,1,1)}, {c, cbar}
    with affine c and cbar; the construction curve has an explicit equation
    in the affine chart, homogenized and canonicalized here.
    """
    if c.coords[2] == 0 or cbar.coords[2] == 0:
        raise NotAffine("the free seed pair must consist of affine points")
    cx, cy = c.to_affine()
    dx, dy = cbar.to_affine()
    coeffs = [
        0,                                # x3
        -1,                               # x2y
        cy * dy,                          # x2z
        1,                                # xy2
        cx + dx - cy * dx - cx * dy,      # xyz
        -cy * dy,                         # xz2
        0,                                # y3
        cx * dx - cx - dx,                # y2z
        cy * dx + cx * dy - cx * dx,      # yz2
        0,                                # z3
    ]
    return Cubic.of(coeffs)


def nodal_point(u) -> ProjPoint:
    """The point of the nodal cubic y²z = x³ + x²z with parameter u != 0.

    φ = (y − x)/(y + x) maps the smooth points onto the multiplicative
    group, the flex (0:1:0) to 1, and three points are collinear exactly
    when their φ-values multiply to 1.  The line y = tx through the node
    meets the curve again at x = t² − 1, and φ = (t − 1)/(t + 1), so for
    u = a/b, t = (b + a)/(b − a).  The point of order two is u = −1,
    (−1:0:1)."""
    u = Fraction(u)
    if not u:
        raise ValidationError("the node (0:0:1) has no parameter")
    a, b = u.numerator, u.denominator
    return ProjPoint.of(4 * a * b * (b - a), 4 * a * b * (b + a), (b - a) ** 3)


def nodal_parameter(p: ProjPoint) -> Fraction:
    """φ(p) = (y − x)/(y + x) of a smooth point of y²z = x³ + x²z; the
    inverse of `nodal_point`."""
    x, y, z = p.coords
    if y * y * z != x**3 + x * x * z:
        raise ValidationError(f"{brief(p)} is not on y²z = x³ + x²z")
    return Fraction(y - x, y + x)


def multiply(curve: WeierstrassCurve, n: int, p: ProjPoint) -> ProjPoint:
    """n*P by double-and-add."""
    if n < 0:
        return multiply(curve, -n, neg(curve, p))
    acc = NEUTRAL
    addend = p
    while n:
        if n & 1:
            acc = add(curve, acc, addend)
        addend = add(curve, addend, addend)
        n >>= 1
    return acc


def conjugate_affine_form(curve: WeierstrassCurve, p: ProjPoint) -> ProjPoint:
    """Closed form (b/x, -y b/x^2) of the conjugate; independent cross-check."""
    curve.require(p)
    x, y = p.to_affine()
    if x == 0:
        raise ZeroDenominator("closed-form conjugate needs x != 0")
    return ProjPoint.affine(curve.b / x, -y * curve.b / (x * x))


def subgroup_generated(curve: WeierstrassCurve, generators) -> set[ProjPoint]:
    """Closure of the generators under the group law (finite inputs only)."""
    elements = {NEUTRAL}
    frontier = [NEUTRAL]
    gens = [curve.require(g) for g in generators]
    while frontier:
        base = frontier.pop()
        for g in gens:
            for cand in (add(curve, base, g), add(curve, base, neg(curve, g))):
                if cand not in elements:
                    elements.add(cand)
                    frontier.append(cand)
    return elements


def from_chart(chart_map: ChartMap, x, y) -> ProjPoint:
    """The inverse of `chart_map.to_chart`: a chart point back on the curve."""
    x, y = Fraction(x), Fraction(y)
    if x == 0:
        raise ZeroDenominator("chart point with x = 0 has no affine preimage")
    r0, r1 = chart_map.base
    return ProjPoint.affine(r0 / x, r1 * y / x)


def check_pair_differences(state: ConstructionState, curve: WeierstrassCurve) -> int:
    """Assert partner - point = T under the group law for every pair; returns
    the number of pairs checked."""
    count = 0
    for pair in state.pairs:
        delta = add(curve, pair.second, neg(curve, pair.first))
        if delta != TWO_TORSION:
            raise InvariantViolation(
                f"{brief(pair)}: partner difference {brief(delta)} is not the 2-torsion point"
            )
        count += 1
    return count


def chasles_reference(
    curve: Cubic,
    a: ProjPoint,
    b: ProjPoint,
    c: ProjPoint,
    abar: ProjPoint,
    bbar: ProjPoint,
    cbar: ProjPoint,
) -> bool:
    """`checks.chasles_check` as it was before it decided the meets by the
    polar identity: each opposite-side meet formed in canonical form and
    evaluated."""
    _require_on(curve, a, b, c, abar, bbar, cbar)
    try:
        m1 = meet(join(a, b), join(abar, bbar))
        m2 = meet(join(b, c), join(bbar, cbar))
        m3 = meet(join(c, abar), join(cbar, a))
    except (IdenticalPoints, IdenticalLines) as exc:
        raise DegenerateHexagon(str(exc)) from exc
    if evaluate(curve, m1) == 0 and evaluate(curve, m2) == 0:
        return evaluate(curve, m3) == 0
    return True


def tangent_meet_check(
    curve: Cubic, p: ProjPoint, pbar: ProjPoint, q: ProjPoint, qbar: ProjPoint
) -> bool:
    """If both meets of two pairs land on the cubic, the tangent contact
    thirds agree within each pair, including the derived pair."""
    if len({p, pbar, q, qbar}) != 4:
        raise HypothesisFailed("the four points must be pairwise distinct")
    _require_on(curve, p, pbar, q, qbar)
    try:
        s = meet(join(p, q), join(pbar, qbar))
        sbar = meet(join(p, qbar), join(pbar, q))
    except (IdenticalPoints, IdenticalLines) as exc:
        raise HypothesisFailed(f"degenerate joins: {exc}") from exc
    if evaluate(curve, s) != 0 or evaluate(curve, sbar) != 0:
        raise HypothesisFailed("derived meets are not on the cubic")
    return (
        tangent_third(curve, p) == tangent_third(curve, pbar)
        and tangent_third(curve, q) == tangent_third(curve, qbar)
        and tangent_third(curve, s) == tangent_third(curve, sbar)
    )


def chord_tangency_reference(curve: WeierstrassCurve, a: ProjPoint, abar: ProjPoint) -> bool:
    """`checks.chord_tangency_check` with the chord b.T always computed in
    full, as it was before that check became one collinearity."""
    cubic = curve.cubic
    b = chord_third(cubic, a, abar)
    if b in (a, abar):
        raise TooDegenerate("tangent chord")
    x, y, z = tangent_third(cubic, a).coords
    if chord_third(cubic, b, TWO_TORSION) == ProjPoint((x, -y, z)):
        return True
    if conjugate_point(curve, a) != abar:
        raise HypothesisFailed(f"{brief(abar)} is not the conjugate of {brief(a)}")
    return False


def tangency_transport_check(
    curve: Cubic, p: ProjPoint, pbar: ProjPoint, q: ProjPoint
) -> bool:
    """Converse direction: a pair with a common tangential point transports
    that property to any curve point q via the chord operator."""
    _require_on(curve, p, pbar, q)
    if tangent_third(curve, p) != tangent_third(curve, pbar):
        raise HypothesisFailed("p and pbar do not share their tangential point")
    s = chord_third(curve, p, q)
    qbar = chord_third(curve, s, pbar)
    sbar_1 = chord_third(curve, p, qbar)
    sbar_2 = chord_third(curve, pbar, q)
    return sbar_1 == sbar_2 and tangent_third(curve, q) == tangent_third(curve, qbar)


@dataclass(frozen=True)
class SeedBootstrap:
    """The three derived meets of a seed with strict distinctness, plus the
    unique cubic through the nine base points (partners asserted on it)."""

    direct: tuple[ProjPoint, ProjPoint, ProjPoint]
    crossed: tuple[ProjPoint, ProjPoint, ProjPoint]
    curve: Cubic


def bootstrap_seed(seed: SeedConfig) -> SeedBootstrap:
    """Derive the three like-join meets and cross-join meets of the seed.

    With seed pairs (A, Abar), (B, Bbar), (C, Cbar) in canonical member
    order, the direct meets are AB^AbarBbar, BC^BbarCbar, CA^CbarAbar and
    the crossed meets swap one bar in each.  The nine points consisting of
    the seed and the direct meets must be pairwise distinct; the cubic
    through them is fitted exactly and must also contain the crossed meets.
    """
    pairs = seed.pairs
    direct = []
    crossed = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        p, q = pairs[i], pairs[j]
        direct.append(meet(join(p.first, q.first), join(p.second, q.second)))
        crossed.append(meet(join(p.first, q.second), join(p.second, q.first)))
    nine = [p for pair in pairs for p in pair.points] + direct
    if len(set(nine)) != 9:
        raise DegenerateNine("seed points and derived meets are not pairwise distinct")
    curve = fit_cubic_9(nine)
    for point in crossed:
        if evaluate(curve, point) != 0:
            raise BarNotOnCurve(f"crossed meet {brief(point)} misses the fitted cubic")
    return SeedBootstrap(tuple(direct), tuple(crossed), curve)


def rank(rows) -> int:
    """The rank of a matrix of rationals, by Gaussian elimination over
    Fraction."""
    rows = [[Fraction(v) for v in row] for row in rows]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(done, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for r in range(done + 1, len(rows)):
            f = rows[r][col] / rows[done][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[done])]
        done += 1
    return done


def point_from_json_by_fraction(arr) -> ProjPoint:
    """`serialize.point_from_json` on a 2- or 3-element list as it read every
    point before its integer path: each coordinate through `Fraction`."""
    coords = [rat_from_str(v) for v in arr]
    if len(coords) == 2:
        coords.append(Fraction(1))
    try:
        return ProjPoint.of(*coords)
    except ValueError as exc:
        raise SeedFormatError(str(exc)) from exc


def row_per_line(obj: dict) -> str:
    """`serialize.dumps` from `json.dumps` alone: one top-level key per line,
    sorted, each element of a nonempty top-level list on a line of its own,
    and a closing newline."""

    def value(v) -> str:
        if isinstance(v, list) and v:
            return "[\n" + ",\n".join("    " + json.dumps(e, sort_keys=True) for e in v) + "\n  ]"
        return json.dumps(v, sort_keys=True)

    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {value(obj[k])}" for k in sorted(obj)) + "\n}\n"


def eval_triple_by_terms(cubic: Cubic, t) -> int:
    """`cubic._eval_triple` as a sum of its ten monomials, term by term."""
    x, y, z = t
    c = cubic.coeffs
    return (
        c[0] * x * x * x
        + c[1] * x * x * y
        + c[2] * x * x * z
        + c[3] * x * y * y
        + c[4] * x * y * z
        + c[5] * x * z * z
        + c[6] * y * y * y
        + c[7] * y * y * z
        + c[8] * y * z * z
        + c[9] * z * z * z
    )


def gradient_by_terms(cubic: Cubic, t) -> tuple[int, int, int]:
    """`cubic.gradient` with each monomial multiplied out term by term."""
    x, y, z = t
    c = cubic.coeffs
    gx = 3 * c[0] * x * x + 2 * c[1] * x * y + 2 * c[2] * x * z + c[3] * y * y + c[4] * y * z + c[5] * z * z
    gy = c[1] * x * x + 2 * c[3] * x * y + c[4] * x * z + 3 * c[6] * y * y + 2 * c[7] * y * z + c[8] * z * z
    gz = c[2] * x * x + c[4] * x * y + 2 * c[5] * x * z + c[7] * y * y + 2 * c[8] * y * z + 3 * c[9] * z * z
    return (gx, gy, gz)


def pending_pairs(n: int, fresh: list[int]) -> Iterator[tuple[int, int]]:
    """The rank pairs (i, j), i < j < n, of `engine._rows`, one at a time,
    in lexicographic order."""
    return ((i, j) for i, js in engine._rows(range(n), fresh) for j in js)


def expand_provenance(report: dict) -> list[engine.Attempt]:
    """Every attempt of a v3 run report, as `engine.Attempt` rows.

    Generation 0 combines the seed pairs (a, b), (b, c), (c, a); each later
    one draws `pending_pairs` over the pairs made before it, in the order
    of `pairs`, with those made in the generation before as the fresh ones,
    and stops at its recorded attempt count.  A stored row keeps its
    ordinal; every other attempt is a duplicate of the pair labelled
    kappa - l_i - l_j, reduced by the final relations.
    """
    index = {pair_from_json(p).key: i for i, p in enumerate(report["pairs"])}
    a, b, c = (index[pair_from_json(p).key] for p in report["seed"])
    labels = [tuple(label) for label in report["labels"]]
    relations = [tuple(row) for row in report["relations"]]
    by_label = {label: i for i, label in enumerate(labels)}
    stored = {row[0]: engine.Attempt(*row) for row in report["provenance"]}
    rows: list[engine.Attempt] = []
    made, fresh = [a, b, c], []
    for g, entry in enumerate(report["stats"]):
        if g == 0:
            due = iter([(a, b), (b, c), (c, a)])
        else:
            ordered = sorted(made)
            rank = {p: r for r, p in enumerate(ordered)}
            due = (
                (ordered[r], ordered[s])
                for r, s in pending_pairs(len(ordered), [rank[p] for p in fresh])
            )
        fresh = []
        for i, j in islice(due, entry["attempted"]):
            n = len(rows)
            row = stored.get(n)
            if row is None:
                child = tuple(k - x - y for k, x, y in zip(engine._KAPPA, labels[i], labels[j]))
                row = engine.Attempt(n, i, j, "duplicate", by_label[engine._reduce(child, relations)])
            assert (row.i, row.j) == (i, j), f"stored row {n} is not the attempt due there"
            rows.append(row)
            if row.status == "new":
                fresh.append(row.k)
        made += fresh
    return rows


# The suites in the order in which the verify reports before format_version
# 2 listed their checks
COORDINATE_ORDER = ("chasles", "pair-tangents", "tangents", "chords", "lines", "center")
_COORDINATE_NAMES = {
    "pair-tangents": "tangential points of ",
    "chords": "chord through ",
    "tangents": "ruler tangent at ",
    "lines": "line involution at ",
    "center": "center product vs ",
}


def coordinate_named(state: ConstructionState, report: dict) -> dict:
    """A verify report's value as it was written before `format_version` 2,
    when each check was named by the coordinates of its points: each check
    an object {suite, name, status, detail}, and no `format_version`.  The
    report read is of `format_version` 3, where each suite that ran is a
    key holding its rows [name, status, detail]; the checks are rebuilt
    suite by suite in COORDINATE_ORDER, the order those reports had.

    The points' coordinates are written "x:y:z" and joined by "|".  A
    chasles check was "hexagon " and its three pairs' texts, each cut by
    `brief`, joined by " / "; a check of one pair was its suite's prefix
    and the pair's text cut by `brief`; a check of one point its suite's
    prefix and the point's first 48 characters.  Each of these is rebuilt
    from the pairs that the check's index name points at.
    """

    def text(points) -> str:
        return "|".join(":".join(map(str, p.coords)) for p in points)

    def name(suite: str, indices: str) -> str:
        numbers = [int(n) for n in re.findall(r"\d+", indices)]
        if suite == "chasles":
            return "hexagon " + " / ".join(brief(text(state.pairs[k].points)) for k in numbers[1:])
        if len(numbers) == 1:
            return _COORDINATE_NAMES[suite] + brief(text(state.pairs[numbers[0]].points))
        if len(numbers) == 2:
            k, m = numbers
            return _COORDINATE_NAMES[suite] + text([state.pairs[k].points[m]])[:48]
        return indices  # "suite" and "chart base" name no pair

    checks = [
        {"suite": suite, "name": name(suite, indices), "status": status, "detail": detail}
        for suite in COORDINATE_ORDER if suite in report
        for indices, status, detail in report[suite]
    ]
    return {"checks": checks, "counts": report["counts"], "ok": report["ok"]}
