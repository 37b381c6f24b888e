"""The iterated pair-combination construction.

Starting from three validated point pairs, every unordered pair of pairs is
combined exactly once: the like-joins and cross-joins of the four points
are intersected to produce a new pair.  A point belongs to one pair only,
so a child is a duplicate exactly when it equals the pair that owns its
first point (`_Workspace.find`).  Each generation combines only the pairs
admitted in the one before with all pairs, since older pairs have already
met.  All points land on one cubic (or, in degenerate torsion
configurations, on every cubic through the bootstrap points).  This is
asserted at admission time, once per new point and distinct cubic; a
duplicate child is never re-checked.  When the bootstrap points leave a
family of cubics, a point that misses a member narrows the family to the
members through it.  Combinations are processed in canonical order, so
output is deterministic.

Every pair is {P, P + T} for one point T of order two, and the child of
pairs with classes x and y in G/<T> (G the curve's group) has class
kappa - x - y, since its first point is the third point of the chord PQ.
So each pair carries a group-law label: its class as an integer
combination of the seed pairs' classes and kappa, reduced modulo the
relations learned so far.  A child whose label is known is a duplicate of
that pair and costs no geometry: each row of combinations is screened by
label at once, and such duplicates are only counted.  A geometric
duplicate under a new label teaches a relation.  Under the final relations
every duplicate is implied by its parents' labels, so the state, like a
run report, keeps only the attempts that ran the geometry; the full list
of attempts is rebuilt from them on demand (`_schedule`).  A run is
deterministic, so a run report is checked by running its seed again
(`replay_report`, which `verify --report` runs).  The run tallies each
generation's counts as it closes that generation.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .cubic import Cubic, cubic_family_through, evaluate
from .errors import (
    CompleteQuadrilateral,
    DegenerateLines,
    DuplicatePoints,
    FourCollinear,
    IdenticalPoints,
    InvariantViolation,
    NotOnCurve,
    OverlappingBootstrap,
    SchroeterError,
    SharedPoint,
    ValidationError,
    brief,
    lifted_digit_limit,
)
from .projective import ProjPoint, all_collinear, collinear, cross
from .record import record

DEFAULT_MAX_POINTS = 512
DEFAULT_MAX_GENERATIONS = 16
# The bootstrap is never capped: it admits the seed and up to three derived
# pairs, 6 pairs in all.
MIN_MAX_POINTS = 12

# The reasons a combination is skipped, as the names of the errors raised.
SKIP_REASONS = ("DegenerateLines", "SharedPoint")

PairKey = tuple[tuple[int, int, int], tuple[int, int, int]]
# A group-law label: coefficients of the three seed pairs' classes, then of kappa.
_Label = tuple[int, int, int, int]
_KAPPA: _Label = (0, 0, 0, 1)


@record
class PointPair(NamedTuple):
    """An unordered pair of distinct points, members in canonical order."""

    first: ProjPoint
    second: ProjPoint

    @classmethod
    def of(cls, p: ProjPoint, q: ProjPoint) -> "PointPair":
        if p == q:
            raise IdenticalPoints(f"a pair needs two distinct points, got {brief(p)} twice")
        if q.coords < p.coords:
            p, q = q, p
        return cls(p, q)

    @property
    def points(self) -> tuple[ProjPoint, ProjPoint]:
        return (self.first, self.second)

    @property
    def key(self) -> PairKey:
        return (self.first.coords, self.second.coords)

    def other(self, p: ProjPoint) -> ProjPoint:
        if p == self.first:
            return self.second
        if p == self.second:
            return self.first
        raise ValueError(f"{brief(p)} is not a member of {brief(self)}")

    def __contains__(self, p: ProjPoint) -> bool:
        return p == self.first or p == self.second

    def __repr__(self):
        return f"{{{self.first}, {self.second}}}"


@record
class SeedConfig(NamedTuple):
    """Three validated seed pairs; construct via validate_seed."""

    pair_a: PointPair
    pair_b: PointPair
    pair_c: PointPair

    @property
    def pairs(self) -> tuple[PointPair, PointPair, PointPair]:
        return (self.pair_a, self.pair_b, self.pair_c)


def is_complete_quadrilateral_pairing(pair_a, pair_b, pair_c) -> bool:
    """True iff the three point pairs are the opposite-vertex pairs of one
    complete quadrilateral (checked over the four within-pair labelings)."""
    points = (*pair_a, *pair_b, *pair_c)
    if len(set(points)) != 6:
        raise DuplicatePoints("the six points must be pairwise distinct")
    a, abar = pair_a
    for b, bbar in (pair_b, pair_b[::-1]):
        for c, cbar in (pair_c, pair_c[::-1]):
            if (
                collinear(a, b, c)
                and collinear(a, bbar, cbar)
                and collinear(abar, b, cbar)
                and collinear(abar, bbar, c)
            ):
                return True
    return False


def validate_seed(
    pair_a: PointPair,
    pair_b: PointPair,
    pair_c: PointPair,
    *,
    allow_quadrilateral: bool = False,
) -> SeedConfig:
    """Check the seed conditions: six distinct points, no four collinear,
    not the opposite-vertex pairs of one complete quadrilateral, and no
    bootstrap child that shares a point with a seed pair or an earlier
    child without being that pair (the run would exit on it).  Every
    bootstrap combination succeeds: a zero meet would put four seed points
    on one line, and FourCollinear has rejected those.

    allow_quadrilateral skips the quadrilateral check; such seeds reproduce
    only their own six points (useful for exercising that degeneracy in
    tests).
    """
    points = (*pair_a.points, *pair_b.points, *pair_c.points)
    if len(set(points)) != 6:
        raise DuplicatePoints("seed pairs must consist of six pairwise distinct points")
    for quad in combinations(points, 4):
        if all_collinear(quad):
            raise FourCollinear(f"four seed points are collinear: ({', '.join(map(brief, quad))})")
    if not allow_quadrilateral and is_complete_quadrilateral_pairing(
        pair_a.points, pair_b.points, pair_c.points
    ):
        raise CompleteQuadrilateral(
            "the seed pairs are opposite vertices of a complete quadrilateral"
        )
    admitted = [pair_a, pair_b, pair_c]
    for p, q in ((pair_a, pair_b), (pair_b, pair_c), (pair_c, pair_a)):
        child = combine(p, q)
        if child in admitted:
            continue
        owner = next((pair for pair in admitted if child.first in pair or child.second in pair), None)
        if owner is not None:
            raise OverlappingBootstrap(
                f"the bootstrap child {brief(child)} of {brief(p)} and {brief(q)} "
                f"shares a point with {brief(owner)}"
            )
        admitted.append(child)
    return SeedConfig(pair_a, pair_b, pair_c)


def combine(p: PointPair, q: PointPair) -> PointPair:
    """The pair {like-join meet, cross-join meet} of two disjoint pairs.

    Joins and meets are raw cross products; only the two meets are brought
    to canonical form.  The four points are distinct, so every join is
    nonzero, and a zero meet means its two joining lines coincide.  The two
    meets never coincide: a common point of all four joins would put the
    four points on one line, and both meets would be zero.
    """
    if p.first in q or p.second in q:
        raise SharedPoint(f"pairs {brief(p)} and {brief(q)} share a point")
    a, abar = p.first.coords, p.second.coords
    b, bbar = q.first.coords, q.second.coords
    s = cross(cross(a, b), cross(abar, bbar))
    sbar = cross(cross(a, bbar), cross(abar, b))
    if not any(s) or not any(sbar):
        raise DegenerateLines(f"joining lines of {brief(p)} and {brief(q)} coincide")
    return PointPair.of(ProjPoint(s), ProjPoint(sbar))


class Attempt(NamedTuple):
    """One attempted combination: its ordinal `n`, the parents `i` and `j`
    as indices into the sorted pairs (coordinates can run to thousands of
    digits), its `status` ("new", "duplicate" or "skipped"), and `k`, the
    child's index or the reason a "skipped" attempt names."""

    n: int
    i: int
    j: int
    status: str
    k: int | str


@record
class Generation(NamedTuple):
    """The counts of one generation; generation 0 is the bootstrap.  The
    state, the run report and the report as read all hold these records.

    `pending` counts the combinations due, those of a pair admitted in the
    generation before with any older pair; a run cut by the point cap
    may attempt fewer in its last generation.  `digits` counts the decimal
    digits of the largest |coordinate| among the pairs it made, 0 if none;
    the seed pairs count in generation 0.
    """

    pending: int
    attempted: int
    new: int
    duplicate: int
    skipped: dict[str, int]  # by reason, every one of SKIP_REASONS
    digits: int


class _StateFields(NamedTuple):
    seed: SeedConfig
    pairs: tuple[PointPair, ...]
    curve: Cubic | None
    curve_basis: tuple[Cubic, ...]
    rows: tuple[Attempt, ...] = ()
    labels: tuple[_Label, ...] = ()
    relations: tuple[_Label, ...] = ()
    stats: tuple[Generation, ...] = ()


@record
class ConstructionState(_StateFields):
    """Result of a construction run.

    `pairs` are in canonical order.  `labels` holds each pair's label,
    aligned with `pairs` and reduced by `relations`, which are in Hermite
    normal form.  `rows` keeps only the attempts that the labels could not
    predict, those that ran the geometry: the new pairs, the skipped
    combinations and the duplicates that taught a relation.  Every other
    attempt was a duplicate of the pair labelled kappa - l_i - l_j.
    `stats` has one `Generation` per generation, the bootstrap first, and
    `generations`, `frontier` (the combinations never attempted) and
    `closed` (no frontier) follow from it.  `provenance` is built when
    first read and kept in the instance's `__dict__`.
    """

    @property
    def generations(self) -> int:
        return len(self.stats) - 1

    @property
    def frontier(self) -> int:
        n = len(self.pairs)
        return n * (n - 1) // 2 - sum(g.attempted for g in self.stats)

    @property
    def closed(self) -> bool:
        return self.frontier == 0

    @property
    def point_count(self) -> int:
        # the points of distinct pairs are distinct (`_Workspace.admit`)
        return 2 * len(self.pairs)

    @cached_property
    def provenance(self) -> list[Attempt]:
        """Every attempt, in processing order: each stored row as it is, and
        at every other ordinal of `_schedule` the duplicate that the final
        labels imply.  Built on first read; neither the run nor the report
        writer reads it."""
        by_label = {label: k for k, label in enumerate(self.labels)}
        seeds = [self.pairs.index(pair) for pair in self.seed.pairs]
        stored = {row.n: row for row in self.rows}
        return [
            stored.get(n) or Attempt(
                n, i, j, "duplicate",
                by_label[_child_label(self.labels[i], self.labels[j], self.relations)],
            )
            for start, i, js in _schedule(seeds, self.rows, [g.attempted for g in self.stats])
            for n, j in enumerate(js, start)
        ]


def _reduce(label: _Label, rows: list[_Label]) -> _Label:
    """The canonical representative of `label` modulo the lattice spanned by
    `rows`, which are in Hermite normal form: each pivot entry of the result
    lies in [0, pivot)."""
    for row in rows:
        col = 0
        while not row[col]:
            col += 1
        q = label[col] // row[col]
        if q:
            a0, a1, a2, a3 = label
            b0, b1, b2, b3 = row
            label = (a0 - q * b0, a1 - q * b1, a2 - q * b2, a3 - q * b3)
    return label


def _child_label(x: _Label, y: _Label, relations) -> _Label:
    """The label kappa - x - y of the child of pairs labelled x and y,
    reduced by `relations`; kappa = `_KAPPA` = (0, 0, 0, 1)."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return _reduce((-x0 - y0, -x1 - y1, -x2 - y2, 1 - x3 - y3), relations)


def _hnf(rows: list[_Label]) -> list[_Label]:
    """The Hermite normal form of the lattice spanned by `rows`: echelon
    rows with positive pivots, the entries above each pivot in [0, pivot).
    Cohen, A Course in Computational Algebraic Number Theory, 2.4.2."""
    rows = [list(r) for r in rows]
    basis: list[list[int]] = []
    for col in range(len(_KAPPA)):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:  # Euclid on column `col`
            live.sort(key=lambda r: abs(r[col]))
            pivot, rest = live[0], []
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                (rest if r[col] else rows).append(r)
            live = [pivot, *rest]
        if live:
            pivot = live[0] if live[0][col] > 0 else [-a for a in live[0]]
            for i, row in enumerate(basis):
                q = row[col] // pivot[col]
                basis[i] = [a - q * b for a, b in zip(row, pivot)]
            basis.append(pivot)
    return [tuple(r) for r in basis]


class _Workspace:
    """A run's pairs so far, named by admission index (the seed pairs are
    0, 1 and 2): `pairs` and `labels` in admission order, and the index of
    each point's pair in `owner` and of each label's in `index_of_label`."""

    def __init__(self):
        self.pairs: list[PointPair] = []
        self.labels: list[_Label] = []
        self.owner: dict[ProjPoint, int] = {}
        self.index_of_label: dict[_Label, int] = {}
        self.relations: list[_Label] = []  # in Hermite normal form

    def find(self, pair: PointPair) -> int | None:
        """The index of the admitted pair equal to `pair`, if any: a point
        belongs to one pair only, so its first point's owner is the one candidate."""
        k = self.owner.get(pair.first)
        return k if k is not None and self.pairs[k] == pair else None

    def admit(self, pair: PointPair, label: _Label | None = None) -> int:
        """Add a pair whose points are all new and return its index.  A pair
        admitted without a label is a seed pair: the i-th one gets e_i."""
        for p in pair.points:
            owner = self.owner.get(p)
            if owner is not None:
                # No validated seed gets here after its bootstrap, and
                # validate_seed rejects one that would in it: each pair is
                # {P, P + T} on the construction cubic, so a point names its
                # pair, and a child sharing a point with a pair is that pair,
                # which `find` has returned.  In `TestValidateSeed`, the
                # seeds that validate_seed rejects reach this, and 600 that
                # it accepts run to 64 points without.
                raise InvariantViolation(
                    f"point {brief(p)} of {brief(pair)} already belongs to "
                    f"pair {brief(self.pairs[owner])}"
                )
        k = len(self.pairs)
        if label is None:
            label = tuple(int(i == k) for i in range(len(_KAPPA)))
        self.pairs.append(pair)
        self.labels.append(label)
        self.index_of_label[label] = k
        for p in pair.points:
            self.owner[p] = k
        return k

    def learn(self, relation: _Label):
        """Add a relation between labels and reduce every label by it; two
        pairs that come to share a label mean the relation is wrong."""
        self.relations = _hnf([*self.relations, relation])
        self.labels = [_reduce(label, self.relations) for label in self.labels]
        self.index_of_label = {label: k for k, label in enumerate(self.labels)}
        if len(self.index_of_label) != len(self.labels):
            # No validated seed gets here: a label is its pair's class in
            # G/<T>, a relation learned from a geometric duplicate holds in
            # that group, and distinct pairs are distinct classes, so true
            # relations keep their labels apart.  Only a wrong relation does
            # (`TestLabels.test_wrong_relation_is_caught`).
            raise InvariantViolation(
                f"the learned relation {relation} gives two distinct pairs one label"
            )

    def order(self) -> list[int]:
        """The admission indices in the order of the pairs' keys."""
        return sorted(range(len(self.pairs)), key=lambda k: self.pairs[k].key)


def _rows(items: Sequence[int], fresh: list[int]) -> Iterator[tuple[int, Sequence[int]]]:
    """The pairs (x, y) of the ascending `items`, x before y, with x or y in
    `fresh`, row by row: each x in turn with its ys, empty rows left out.
    They are drawn one row at a time, so a capped run screens no row after
    the one the cap falls in."""
    fresh = sorted(fresh)
    is_fresh = set(fresh)
    for r, x in enumerate(items):
        ys = items[r + 1:] if x in is_fresh else fresh[bisect_right(fresh, x):]
        if ys:
            yield x, ys


def _schedule(
    seeds: Sequence[int], rows: Sequence[Attempt], attempted: Sequence[int]
) -> Iterator[tuple[int, int, Sequence[int]]]:
    """A run's attempts row by row, as (n, i, js): attempts n, n + 1, ...
    combine pair i with each pair of js, pairs named by index in the sorted
    pairs.  The bootstrap combines the seed pairs (a, b), (b, c), (c, a);
    each later generation takes `_rows` over the pairs made before it, the
    fresh ones made by the "new" rows of the generation before, and stops
    at its count in `attempted`.  `rows`, the stored rows in ordinal order,
    are read a generation at a time, once all its attempts are drawn."""
    a, b, c = seeds
    made, fresh, n, p = [a, b, c], [], 0, 0
    for g, count in enumerate(attempted):
        due = [(a, [b]), (b, [c]), (c, [a])] if g == 0 else _rows(sorted(made), fresh)
        end = n + count
        for i, js in due:
            if n >= end:
                break
            js = js[: end - n]
            yield n, i, js
            n += len(js)
        fresh = []
        while p < len(rows) and rows[p].n < n:
            if rows[p].status == "new":
                fresh.append(rows[p].k)
            p += 1
        made += fresh


def run(
    seed: SeedConfig,
    max_points: int = DEFAULT_MAX_POINTS,
    max_generations: int = DEFAULT_MAX_GENERATIONS,
    *,
    curve: Cubic | None = None,
) -> ConstructionState:
    """Breadth-first closure of the pair-combination construction.

    Every unordered pair of pairs is combined exactly once: a generation
    combines the pairs admitted in the one before with all pairs, in
    canonical order, that of their rank pairs in the sorted keys.  It takes
    them row by row: for a pair i, the child labels kappa - l_i - l_j of
    all its due partners j are computed at once, and only the children
    whose label is unknown run the geometry; the others are counted as
    duplicates.  Each row is screened once.  An admission never makes a
    later child of the row known, since labels are distinct, and a child
    that screened as known stays known, since a relation only merges label
    classes.  A geometric duplicate teaches a relation, so each unknown
    child is reduced again and looked up before it runs.  A pair is named
    by its admission index while the run goes and by its rank in the
    sorted keys in the state, which keeps the attempts that ran the
    geometry as `rows` and a `Generation` for each generation as `stats`,
    tallied where the loop closes that generation from the rows it
    appended and the pairs it admitted.  Each admitted point is evaluated
    once per distinct cubic of the family through the bootstrap points and
    of `curve` when one is supplied.  It must lie on `curve`; a family member it misses narrows the family to
    the cubics through it, and `curve_basis` is the final family.  A
    duplicate is never re-checked.  The run stops when no combination is
    pending (closed) or when a cap is reached (not closed): after the
    bootstrap and after each admission, it stops once one more pair would
    not fit under `max_points`, and `frontier` counts the combinations
    left unattempted.

    The bootstrap is never capped and admits up to 6 pairs, so `max_points`
    must be at least 12; `max_generations` must not be negative.
    """
    if max_points < MIN_MAX_POINTS:
        raise ValidationError(
            f"max_points must be at least {MIN_MAX_POINTS}, got {max_points}: the "
            f"bootstrap always admits up to 6 pairs ({MIN_MAX_POINTS} points)"
        )
    if max_generations < 0:
        raise ValidationError(f"max_generations must not be negative, got {max_generations}")
    ws = _Workspace()
    # the attempts that ran the geometry, pairs named by admission index
    rows: list[Attempt] = []

    for pair in seed.pairs:
        ws.admit(pair)

    def attempt(n: int, i: int, j: int, label: _Label) -> str:
        """Combine pairs i and j, whose child has an unknown label, record
        the outcome as attempt n and return its status."""
        try:
            child = combine(ws.pairs[i], ws.pairs[j])
        except (SharedPoint, DegenerateLines) as exc:
            rows.append(Attempt(n, i, j, "skipped", type(exc).__name__))
            return "skipped"
        k = ws.find(child)
        if k is not None:
            ws.learn(tuple(a - b for a, b in zip(label, ws.labels[k])))
            rows.append(Attempt(n, i, j, "duplicate", k))
            return "duplicate"
        for point in child.points:
            narrow(point)
        rows.append(Attempt(n, i, j, "new", ws.admit(child, label)))
        return "new"

    def misses(labels: list[_Label], i: int, js: Sequence[int]):
        """The positions s of row i whose child label is unknown, each with
        that label.  The labels are those of `_child_label`, computed in one
        comprehension: most children are known, and a call per child makes
        screening a row about 1.5 times as slow."""
        x0, x1, x2, x3 = labels[i]
        children = [
            (-x0 - y0, -x1 - y1, -x2 - y2, 1 - x3 - y3)
            for y0, y1, y2, y3 in map(labels.__getitem__, js)
        ]
        if ws.relations:
            children = [_reduce(child, ws.relations) for child in children]
        known = ws.index_of_label
        return [(s, child) for s, child in enumerate(children) if child not in known]

    def narrow(point: ProjPoint):
        """Keep the cubics of the family through a constructed point.

        Each distinct cubic, the supplied curve included, is evaluated once.
        A point off the supplied curve, or off the family's only cubic, is
        an invariant violation.  A point that misses the basis cubic c_p
        narrows the family to the span of v_p c_i - v_i c_p (i != p), with
        v_i the value of c_i at the point.  The bootstrap children are not
        checked here: the family is fitted through them.
        """
        nonlocal basis
        if not basis:
            return
        values = {c: evaluate(c, point) for c in dict.fromkeys((*basis, curve)) if c is not None}
        missed = next((c for c in basis if values[c]), None)
        if (curve is not None and values[curve]) or (missed is not None and len(basis) == 1):
            # A validated seed gets here through a supplied curve that holds
            # the bootstrap points but is not the construction cubic: the
            # pencil seed with either cubic of its pencil basis
            # (`TestRun.test_a_pencil_narrows_to_the_construction_cubic`).
            # Not through the family: it always holds the construction cubic,
            # which holds every point, so a family of one is that cubic.
            raise InvariantViolation(
                f"constructed point {brief(point)} is off the construction cubic"
            )
        if missed is not None:
            vp, cp = values[missed], missed.coeffs
            basis = tuple(
                Cubic.of([vp * a - values[c] * b for a, b in zip(c.coeffs, cp)])
                for c in basis
                if c != missed
            )

    @lifted_digit_limit()  # for `digits`, the decimal length of a coordinate
    def close(pending: int, attempted: int, first_row: int, first_pair: int):
        """Record the generation that attempted `attempted` of its `pending`
        combinations, appended the rows from `first_row` on and made the
        pairs from admission index `first_pair` on; a skip counts by its
        reason, and the attempts without a row are duplicates."""
        tally = Counter(k if status == "skipped" else status for *_, status, k in rows[first_row:])
        skipped = {reason: tally[reason] for reason in SKIP_REASONS}
        new = tally["new"]
        made = ws.pairs[first_pair:]
        largest = max((abs(c) for pair in made for p in pair.points for c in p.coords), default=0)
        digits = len(str(largest)) if largest else 0
        stats.append(Generation(pending, attempted, new, attempted - new - sum(skipped.values()), skipped, digits))

    # Bootstrap: combine the three seed pairs among themselves, then pin the
    # curve family through everything derived so far.
    basis: tuple[Cubic, ...] = ()
    stats: list[Generation] = []
    for n, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        label = _child_label(ws.labels[i], ws.labels[j], ws.relations)
        if label not in ws.index_of_label:
            attempt(n, i, j, label)
    close(3, 3, 0, 0)  # the seed pairs count as made in generation 0

    # The family is the exact nullspace of the pool's rows: no pool point misses it.
    pool = [p for pair in ws.pairs for p in pair.points]
    basis = cubic_family_through(pool)
    if not basis:
        raise InvariantViolation("no cubic passes through the bootstrap points")
    if curve is not None:
        for point in pool:
            if evaluate(curve, point) != 0:
                raise NotOnCurve(f"bootstrap point {brief(point)} is not on the supplied curve")

    met = len(seed.pairs)  # the first `met` pairs have all been combined with each other
    capped = 2 * len(ws.pairs) + 2 > max_points  # one more pair would not fit
    done = 3  # the attempts so far

    while not capped and len(stats) <= max_generations and len(ws.pairs) > met:
        # Combinations as rank pairs (i, j), i < j, in the sorted keys: their
        # order is that of the key pairs, without sorting big-integer tuples.
        count, first_row, start = len(ws.pairs), len(rows), done
        order = ws.order()
        fresh = [r for r, a in enumerate(order) if a >= met]
        labels = [ws.labels[a] for a in order]
        for i, js in _rows(range(count), fresh):
            for s, label in misses(labels, i, js):
                # a relation learned earlier in the row may have made it known
                label = _reduce(label, ws.relations)
                if label in ws.index_of_label:
                    continue
                status = attempt(done + s, order[i], order[js[s]], label)
                if status == "new" and 2 * len(ws.pairs) + 2 > max_points:
                    capped = True
                    js = js[: s + 1]  # the rest of the row is never attempted
                    break
            done += len(js)
            if capped:
                break
        close(count * (count - 1) // 2 - met * (met - 1) // 2, done - start, first_row, count)
        met = count

    # The state names each pair by its rank in the sorted keys.
    order = ws.order()
    rank = sorted(range(len(order)), key=order.__getitem__)  # by admission index
    return ConstructionState(
        seed=seed,
        pairs=tuple(ws.pairs[a] for a in order),
        curve=basis[0] if len(basis) == 1 else curve,
        curve_basis=basis,
        rows=tuple(
            Attempt(n, rank[i], rank[j], status, k if status == "skipped" else rank[k])
            for n, i, j, status, k in rows
        ),
        labels=tuple(ws.labels[a] for a in order),
        relations=tuple(ws.relations),
        stats=tuple(stats),
    )


def replay_report(state: ConstructionState) -> None:
    """Raise InvariantViolation unless a run state read from a report is
    the state that a run of its seed gives.

    The rerun stops where the report's run did: after its generations, and
    at a point cap one above its points if the cap cut the last generation
    short, two above (so never reached) if not.  It is given the report's
    curve only if the family has several cubics: a run with one records
    that cubic as `curve`.  The rerun checks itself, so the report must
    equal it field by field, and an error it raises marks the report
    corrupt too.
    """
    last = state.stats[-1]
    cap = state.point_count + (1 if last.attempted < last.pending else 2)
    curve = state.curve if len(state.curve_basis) > 1 else None
    try:
        rerun = run(state.seed, max(MIN_MAX_POINTS, cap), state.generations, curve=curve)
    except SchroeterError as exc:
        raise InvariantViolation(f"the report's seed does not run again: {exc}") from exc
    for name, stored, derived in zip(state._fields, state, rerun):
        if stored != derived:
            where = ""
            if type(stored) is tuple:  # so is `derived`: one of the tuple fields
                diffs = (k for k, (a, b) in enumerate(zip(stored, derived)) if a != b)
                where = f", index {next(diffs, min(len(stored), len(derived)))}"
            raise InvariantViolation(f"the report differs from a rerun of its seed in {name}{where}")
