import json
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, count
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroeter import engine, involution, serialize, verify
from schroeter.checks import chasles_check, chord_tangency_check, conjugate_lines_check
from schroeter.cli import main
from schroeter.cubic import Cubic, evaluate, tangent_at, third_intersection
from schroeter.engine import (
    Attempt,
    Generation,
    PointPair,
    SeedConfig,
    combine,
    replay_report,
    run,
    validate_seed,
)
from schroeter.errors import (
    CompleteQuadrilateral,
    DegenerateLines,
    DuplicatePoints,
    FourCollinear,
    IdenticalPoints,
    InvariantViolation,
    OverlappingBootstrap,
    SchroeterError,
    SharedPoint,
    ValidationError,
)
from schroeter.involution import (
    Involution,
    conjugate_line,
)
from schroeter.projective import (
    ProjLine,
    ProjPoint,
    _det3,
    join,
    meet,
)
from schroeter.verify import run_suites
from schroeter.weierstrass import (
    NEUTRAL,
    TWO_TORSION,
    WeierstrassCurve,
    conjugate_point,
    involution_center_product,
    neg,
    seed_from_curve,
    to_abc_chart,
)

from conftest import (
    FRAME,
    PENCIL_PAIRS,
    frame_seed,
    random_affine_point,
    random_frame_seeds,
    str_digit_limit,
)
from oracles import (
    BarNotOnCurve,
    DegenerateNine,
    bootstrap_seed,
    check_pair_differences,
    conjugate_pairs_from_quadrangle,
    cross_ratio_lines,
    cross_ratio_points,
    expand_provenance,
    multiply,
    nodal_parameter,
    nodal_point,
    normalized_frame_cubic,
    pending_pairs,
    subgroup_generated,
    transform,
    verify_involution,
)


def pt(x, y):
    return ProjPoint.affine(x, y)


class TestPointPair:
    def test_canonical_member_order(self):
        pair = PointPair.of(pt(2, 6), pt(2, -6))
        assert pair.first == pt(2, -6)
        assert pair == PointPair.of(pt(2, -6), pt(2, 6))

    def test_distinct_members_required(self):
        with pytest.raises(IdenticalPoints):
            PointPair.of(pt(1, 1), pt(1, 1))


class TestValidateSeed:
    def test_golden_frame_seed(self, golden_frame_seed):
        assert golden_frame_seed.pair_c.points[0] == ProjPoint.of(2, 3, 1)

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoints):
            validate_seed(
                PointPair.of(pt(0, 0), pt(1, 1)),
                PointPair.of(pt(2, 2), pt(0, 0)),
                PointPair.of(pt(3, 3), pt(4, 4)),
            )

    def test_four_collinear(self):
        with pytest.raises(FourCollinear):
            validate_seed(
                PointPair.of(pt(0, 0), pt(1, 0)),
                PointPair.of(pt(2, 0), pt(3, 0)),
                PointPair.of(pt(0, 1), pt(5, 5)),
            )

    def test_complete_quadrilateral(self):
        with pytest.raises(CompleteQuadrilateral):
            validate_seed(
                PointPair.of(pt(0, 0), pt(2, -1)),
                PointPair.of(pt(1, 0), ProjPoint.of(0, 1, 0)),
                PointPair.of(pt(2, 0), pt(0, 1)),
            )

    def test_overlapping_bootstrap_census(self):
        """validate_seed rejects exactly the frame seeds whose bootstrap
        would admit a pair over a point already taken, 10 of 600 here;
        `TestConstruct.test_overlapping_bootstrap_seed` runs the first."""
        rng = random.Random(11)
        rejected = 0
        for _ in range(600):
            c, cbar = random_affine_point(rng), random_affine_point(rng)
            try:
                frame_seed(c, cbar)
            except OverlappingBootstrap:
                rejected += 1
                raw = SeedConfig(PointPair.of(*FRAME[:2]), PointPair.of(*FRAME[2:]), PointPair.of(c, cbar))
                with pytest.raises(InvariantViolation, match="already belongs"):
                    run(raw, max_generations=0)
                continue
            except SchroeterError:
                continue
            run(frame_seed(c, cbar), max_generations=0)
        assert rejected == 10

    def test_validated_seeds_run_census(self):
        """Past its bootstrap, no validated seed of this census meets an
        error: of 600 frame seeds that pass validation, 599 run to 64
        points and one closes at 12."""
        seeds = random_frame_seeds(random.Random(11), 600, strict=False)
        ends = Counter((s.point_count, s.closed) for s in (run(seed, max_points=64) for seed in seeds))
        assert ends == {(64, False): 599, (12, True): 1}

    def test_quadrilateral_hook(self):
        state = run(quadrilateral_hook_seed())
        assert state.closed and state.point_count == 6


class TestCombine:
    def test_torsion_chords(self):
        child = combine(PointPair.of(pt(2, 6), pt(2, -6)), PointPair.of(pt(-2, 2), pt(-2, -2)))
        assert child == PointPair.of(pt(-4, 0), pt(-1, 0))

    def test_frame_pairs(self):
        child = combine(
            PointPair.of(FRAME[0], FRAME[1]), PointPair.of(FRAME[2], FRAME[3])
        )
        assert child == PointPair.of(ProjPoint.of(1, 0, 1), ProjPoint.of(1, 1, 0))

    def test_shared_point(self):
        pair = PointPair.of(pt(2, 6), pt(2, -6))
        with pytest.raises(SharedPoint):
            combine(pair, pair)

    def test_degenerate_lines(self):
        with pytest.raises(DegenerateLines):
            combine(PointPair.of(pt(0, 0), pt(1, 0)), PointPair.of(pt(2, 0), pt(3, 0)))

    def test_messages_stay_short_for_huge_coordinates(
        self, monkeypatch, tmp_path, capsys, golden_frame_seed, curve12, curve12_seed, curve54,
        torsion_seed_full,
    ):
        huge = 10**10_000
        with str_digit_limit(0):
            huge_text = str(huge)
        far = PointPair.of(ProjPoint((huge, 1, 1)), ProjPoint((huge + 1, 1, 1)))
        messages = []
        with pytest.raises(SharedPoint) as exc:
            combine(far, far)
        messages.append(str(exc.value))
        with pytest.raises(DegenerateLines) as exc:
            combine(PointPair.of(ProjPoint((huge, 0, 1)), pt(1, 0)), PointPair.of(pt(2, 0), pt(3, 0)))
        messages.append(str(exc.value))
        workspace = engine._Workspace()
        workspace.admit(far)
        with pytest.raises(InvariantViolation) as exc:
            workspace.admit(PointPair.of(far.first, pt(0, 0)))
        messages.append(str(exc.value))
        cubic, line = curve12.cubic, ProjLine((huge, 1, 1))
        collinear4 = [ProjPoint((huge + i, 0, 1)) for i in range(4)]
        big = multiply(curve12, 40, pt(1, 2))  # on the curve, hundreds of digits
        curve12_pairs = (
            PointPair.of(pt(2, 4), pt(1, -2)),
            PointPair.of(ProjPoint.of(4, 23, 64), pt(32, -184)),
        )
        axes = tuple(ProjLine(t) for t in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)))
        pencil = Involution(ProjPoint((0, 0, 1)), axes[:2], axes[2:])
        chart_map = to_abc_chart(curve12, pt(1, 2))
        for call in (
            lambda: PointPair.of(far.first, far.first),
            lambda: validate_seed(
                PointPair.of(*collinear4[:2]), PointPair.of(*collinear4[2:]), PointPair.of(pt(0, 1), pt(1, 1))
            ),
            lambda: tangent_at(cubic, far.first),
            lambda: third_intersection(cubic, far.first, pt(1, 2)),
            lambda: third_intersection(cubic, pt(1, 2), far.first),
            lambda: curve12.require(far.first),
            lambda: WeierstrassCurve(huge, 2).require(pt(1, 1)),
            lambda: join(far.first, far.first),
            lambda: meet(line, line),
            lambda: cross_ratio_points(pt(0, 0), pt(1, 0), pt(2, 0), far.first),
            lambda: cross_ratio_lines(ProjLine((1, 0, 0)), ProjLine((0, 1, 0)), ProjLine((1, 1, 0)), line),
            lambda: chasles_check(cubic, far.first, *[pt(1, 2)] * 5),
            lambda: conjugate_lines_check(
                cubic, big, PointPair.of(big, conjugate_point(curve12, big)), *curve12_pairs
            ),
            lambda: chord_tangency_check(curve12, big, pt(1, 2)),
            lambda: serialize.rat_from_str(huge_text + "x"),
            lambda: serialize.pair_from_json([[huge_text, "1", "1"]] * 3),
            lambda: Involution(far.first, (line, axes[0]), axes[1:3]),
            lambda: involution._pencil_param(pencil, line),
            lambda: conjugate_line(pencil, line),
            lambda: verify_involution(pencil, [(line, axes[0])]),
            lambda: conjugate_pairs_from_quadrangle(far.first, pt(0, 0), pt(1, 0), pt(0, 1), far.first),
            lambda: WeierstrassCurve(huge, 0),
            lambda: chart_map.to_chart(ProjPoint((0, huge, 1))),
            lambda: involution_center_product(chart_map.chart, (huge, 1), (1, 1), (1, 1)),
            lambda: involution_center_product(chart_map.chart, (1, 1), (huge, 1), (1, 1)),
            lambda: involution_center_product(chart_map.chart, (1, 1), (1, 1), (huge, 1)),
            lambda: check_pair_differences(
                SimpleNamespace(pairs=[PointPair.of(big, neg(curve12, big))]), curve12
            ),
        ):
            with pytest.raises(SchroeterError) as exc:
                call()
            messages.append(str(exc.value))
        # ValueErrors that only a programming error reaches
        for call in (lambda: far.other(pt(0, 0)), lambda: ProjPoint((huge, 1, 0)).to_affine()):
            with pytest.raises(ValueError) as exc:
                call()
            messages.append(str(exc.value))
        with monkeypatch.context() as patch:
            patch.setattr(involution, "_ruler_conjugate", lambda inv, d, base: line)
            with pytest.raises(InvariantViolation) as exc:
                conjugate_line(pencil, ProjLine((1, 2, 0)))
            messages.append(str(exc.value))
            patch.setattr("oracles.fit_cubic_9", lambda nine: cubic)
            with pytest.raises(BarNotOnCurve) as exc:
                bootstrap_seed(validate_seed(
                    PointPair.of(ProjPoint((huge, 2, 1)), pt(5, 3)),
                    PointPair.of(*FRAME[:2]),
                    PointPair.of(*FRAME[2:]),
                ))
            messages.append(str(exc.value))
            # distinct tangential points for every member: each pair fails
            patch.setattr(verify, "tangent_meet", lambda cubic, p, pbar: None)
            tangentials = count(1)
            patch.setattr(verify, "tangent_third", lambda c, p: ProjPoint((huge, 1, next(tangentials))))
            fails = run_suites(run(golden_frame_seed, max_points=12), suites=("pair-tangents",)).results
            assert fails and all(r.status == "fail" for r in fails)
            messages += [r.detail for r in fails]
        # a report with one pair edited: the rerun names the field and index
        report = serialize.state_to_json(run(curve12_seed, max_points=256, curve=curve12.cubic))
        report["pairs"][5][0][0] = huge_text
        with pytest.raises(InvariantViolation) as exc:
            replay_report(serialize.report_from_json(report))
        assert "pairs, index 5" in str(exc.value) and len(str(exc.value)) < 100
        messages.append(str(exc.value))
        report = serialize.state_to_json(run(torsion_seed_full, curve=curve54.cubic))
        report["pairs"][0][0][0] = huge_text
        report_path = tmp_path / "corrupt.json"
        report_path.write_text(json.dumps(report))
        assert main(["verify", "--report", str(report_path)]) == 3
        messages.append(capsys.readouterr().err)
        points = f"{'9' * 10_000},1,1,1;1,2;2,4"
        assert main(["seed-from-curve", "--a", "1", "--b", "2", "--points", points]) == 1
        messages.append(capsys.readouterr().err)
        # after the three bootstrap combinations, every child is off the curve
        calls = []

        def off_curve_after_bootstrap(p, q):
            calls.append(None)
            return combine(p, q) if len(calls) <= 3 else far

        monkeypatch.setattr(engine, "combine", off_curve_after_bootstrap)
        with pytest.raises(InvariantViolation) as exc:
            run(golden_frame_seed, max_points=24)
        messages.append(str(exc.value))
        assert "off the construction cubic" in messages[-1]
        assert all(len(m) < 300 for m in messages), [len(m) for m in messages]


class TestBootstrap:
    def test_frame_direct_meets(self):
        seed = frame_seed(ProjPoint.of(2, 3, 1), ProjPoint.of(5, 2, 1))
        boot = bootstrap_seed(seed)
        assert boot.direct[0] == ProjPoint.of(1, 0, 1)
        assert boot.crossed[0] == ProjPoint.of(1, 1, 0)
        for p in boot.crossed:
            assert evaluate(boot.curve, p) == 0

    def test_matches_closed_form(self):
        seed = frame_seed(ProjPoint.of(2, 3, 1), ProjPoint.of(5, 2, 1))
        boot = bootstrap_seed(seed)
        assert boot.curve == normalized_frame_cubic(ProjPoint.of(2, 3, 1), ProjPoint.of(5, 2, 1))

    def test_degenerate_nine(self, golden_frame_seed):
        # Cbar = (5,1,1) makes one direct meet collide with a seed point
        with pytest.raises(DegenerateNine):
            bootstrap_seed(golden_frame_seed)

    def test_partner_meets_on_curve_random(self):
        rng = random.Random(19)
        for seed in random_frame_seeds(rng, 8):
            boot = bootstrap_seed(seed)
            for p in boot.crossed:
                assert evaluate(boot.curve, p) == 0


class TestRun:
    def test_quadrilateral_torsion_closure(self, curve54, torsion_seed_quadrilateral):
        state = run(torsion_seed_quadrilateral, curve=curve54.cubic)
        assert state.closed
        assert state.point_count == 6
        group = subgroup_generated(curve54, [pt(2, 6), pt(-2, 2), pt(-1, 0)])
        assert {p for pair in state.pairs for p in pair.points} <= group

    def test_full_torsion_closure(self, curve54, torsion_seed_full):
        state = run(torsion_seed_full, curve=curve54.cubic)
        assert state.closed
        assert state.point_count == 8
        group = subgroup_generated(curve54, [pt(2, 6), pt(-1, 0), pt(0, 0)])
        assert {p for pair in state.pairs for p in pair.points} == group

    def test_generic_capped_run(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=100)
        assert not state.closed
        assert state.point_count == 100
        assert state.curve is not None
        for pair in state.pairs:
            for p in pair.points:
                assert evaluate(state.curve, p) == 0

    def test_pool_fit_equals_closed_form(self, golden_frame_seed):
        # the strict nine-point fit is degenerate for this seed, but the
        # bootstrap pool still pins the curve uniquely
        state = run(golden_frame_seed, max_points=24)
        c, cbar = golden_frame_seed.pair_c.points
        assert state.curve == normalized_frame_cubic(c, cbar)

    @settings(max_examples=20, deadline=None)
    @given(
        name=st.sampled_from(["frame", "curve12", "torsion", "pencil"]),
        m=st.lists(st.integers(-5, 5), min_size=9, max_size=9)
        .map(lambda v: (v[:3], v[3:6], v[6:])).filter(_det3),
        generations=st.integers(3, 5),
    )
    def test_commutes_with_the_projective_group(
        self, golden_frame_seed, curve12, curve12_seed, curve54, torsion_seed_full, pencil_seed,
        name, m, generations,
    ):
        """The construction uses only joins and meets, so the run on M(seed)
        is M applied to the run on the seed, for every nonsingular M.  M
        permutes the canonical order of the combinations, so this also
        shows that whole generations do not depend on the order in which
        they are processed.  Only `digits` may differ."""
        seed, curve = {
            "frame": (golden_frame_seed, None),
            "curve12": (curve12_seed, curve12.cubic),
            "torsion": (torsion_seed_full, curve54.cubic),
            "pencil": (pencil_seed, None),
        }[name]

        def image(pair):
            return PointPair.of(*(transform(m, p) for p in pair.points))

        state = run(seed, 10**6, generations, curve=curve)
        moved = run(validate_seed(*map(image, seed.pairs)), 10**6, generations)
        assert dict(zip(moved.pairs, moved.labels)) == dict(zip(map(image, state.pairs), state.labels))
        assert moved.relations == state.relations and len(moved.rows) == len(state.rows)
        assert [g._replace(digits=0) for g in moved.stats] == [g._replace(digits=0) for g in state.stats]
        assert len(moved.curve_basis) == len(state.curve_basis)
        if name == "curve12":
            assert all(evaluate(moved.curve, transform(m, p)) == 0 for pair in state.pairs for p in pair.points)

    def test_generation_cap(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=10_000, max_generations=2)
        assert not state.closed
        assert state.generations == 2
        assert state.frontier

    def test_provenance_statuses(self, curve54, torsion_seed_full):
        state = run(torsion_seed_full, curve=curve54.cubic)
        statuses = {d.status for d in state.provenance}
        assert statuses <= {"new", "duplicate", "skipped"}
        new_children = [d.k for d in state.provenance if d.status == "new"]
        assert len(new_children) == len(set(new_children))
        # every non-seed pair has exactly one creating attempt
        seeds = set(torsion_seed_full.pairs)
        derived = {k for k, pair in enumerate(state.pairs) if pair not in seeds}
        assert derived == set(new_children)

    @pytest.mark.parametrize(
        "caps", [{"max_points": 0}, {"max_points": -4}, {"max_points": 5}, {"max_points": 11},
                 {"max_generations": -1}]
    )
    def test_caps_rejected(self, golden_frame_seed, caps):
        with pytest.raises(ValidationError, match="must"):
            run(golden_frame_seed, **caps)

    def test_smallest_caps(self, golden_frame_seed):
        assert run(golden_frame_seed, max_points=12).point_count == 12
        state = run(golden_frame_seed, max_generations=0)
        assert state.generations == 0 and state.point_count == 10

    def test_each_new_point_checked_once(self, monkeypatch, curve12, curve12_seed):
        evaluated = []

        def counting(cubic, point):
            evaluated.append(point)
            return evaluate(cubic, point)

        monkeypatch.setattr(engine, "evaluate", counting)
        state = run(curve12_seed, max_points=64, curve=curve12.cubic)
        # the supplied curve is the fitted one, so it is checked once
        assert state.curve_basis == (curve12.cubic,)
        # the bootstrap points are checked against the supplied curve only:
        # the basis is fitted through them
        pool = 2 * (3 + sum(d.status == "new" for d in state.provenance[:3]))
        new_pairs = sum(d.status == "new" for d in state.provenance[3:])
        assert len(evaluated) == pool + 2 * new_pairs

    def test_a_pencil_narrows_to_the_construction_cubic(self, tmp_path, pencil_seed):
        pencil = run(pencil_seed, max_generations=0).curve_basis
        assert len(pencil) == 2
        cubic = Cubic.of([0, 3, 1, -3, 12, -1, 0, -9, -3, 0])
        for curve in (None, cubic):
            state = run(pencil_seed, max_points=200, curve=curve)
            assert state.point_count == 200
            assert (state.curve,) == state.curve_basis == (cubic,)
        for curve in pencil:
            with pytest.raises(InvariantViolation, match="off the construction cubic"):
                run(pencil_seed, max_points=200, curve=curve)
        path = tmp_path / "pencil.json"
        pairs = [[[str(c) for c in p] for p in pair] for pair in PENCIL_PAIRS]
        path.write_text(json.dumps({"pairs": pairs}))
        assert main(["construct", "--seed", str(path), "--max-points", "12"]) == 0

    def test_no_cubic_through_the_bootstrap_points(self, monkeypatch, curve12_seed):
        # Schroeter's theorem puts every bootstrap point on one cubic, so an
        # empty family is a fault of the program: plant one
        monkeypatch.setattr(engine, "cubic_family_through", lambda points: ())
        with pytest.raises(InvariantViolation, match="no cubic passes through the bootstrap points"):
            run(curve12_seed, max_points=16)

    def test_every_stop_rule_replays(
        self, golden_frame_seed, curve12, curve12_seed, curve54, torsion_seed_full, pencil_seed,
        torsion_seed_quadrilateral,
    ):
        """`replay_report` reruns a state's seed under caps it works out from
        the state alone, so every state that `run` returns passes it,
        whichever rule stopped the run."""
        six = frame_seed(ProjPoint.of(3, 9, 1), ProjPoint.of(7, 0, 1))  # a 6-pair bootstrap

        def last(state):
            return state.stats[-1]

        def full(state):
            return not state.closed and last(state).attempted == last(state).pending

        stops = {
            "closed": lambda state, generations: state.closed,
            "generations": lambda state, generations: full(state) and state.generations == generations,
            "bootstrap cap": lambda state, generations: (
                not state.closed and state.generations == 0 < generations and state.point_count == 12
            ),
            # replayed under the cap point_count + 2, which the rerun never reaches
            "cap on a generation's last attempt": lambda state, generations: (
                full(state) and state.generations < generations
            ),
            "cut row": lambda state, generations: 0 < last(state).attempted < last(state).pending,
        }
        cases = [
            (torsion_seed_full, 512, 16, curve54.cubic, "closed"),  # a two-cubic family
            (torsion_seed_quadrilateral, 512, 16, None, "closed"),  # a four-cubic family
            (torsion_seed_quadrilateral, 512, 16, curve54.cubic, "closed"),
            (golden_frame_seed, 512, 0, None, "generations"),
            (curve12_seed, 512, 1, curve12.cubic, "generations"),
            (pencil_seed, 512, 0, None, "generations"),  # a pencil
            (pencil_seed, 512, 1, None, "generations"),  # narrowed to one cubic
            (six, 12, 16, None, "bootstrap cap"),
            (six, 13, 16, None, "bootstrap cap"),  # one more pair would need 14 points
            (golden_frame_seed, 36, 16, None, "cap on a generation's last attempt"),
            (golden_frame_seed, 120, 16, None, "cut row"),  # see test_a_cap_mid_row
            (curve12_seed, 64, 16, curve12.cubic, "cut row"),
            (pencil_seed, 40, 16, None, "cut row"),
        ]
        for seed, max_points, max_generations, curve, stop in cases:
            state = run(seed, max_points, max_generations, curve=curve)
            assert stops[stop](state, max_generations), (stop, [tuple(g)[:3] for g in state.stats])
            replay_report(state)


def reference_run(seed, max_points, max_generations):
    """The engine loop as a brute-force rescan, without its on-curve checks:
    every generation takes all combinations of the current pairs, in sorted
    order, and skips the visited ones.  The run stops once one more pair
    would not fit under `max_points`, tested after the bootstrap and after
    each later attempt.  Its attempts are `Attempt` rows, each pair named
    by its index in the final sorted keys, and its stats one `Generation`
    per generation, tallied from the attempts."""
    pairs = {pair.key: pair for pair in seed.pairs}
    provenance = []
    visited = set()
    stats = []

    def combo_key(k1, k2):
        return (k1, k2) if k1 <= k2 else (k2, k1)

    def unvisited():
        return sorted(
            key for key in (combo_key(k1, k2) for k1, k2 in combinations(pairs, 2))
            if key not in visited
        )

    def process(k1, k2):
        visited.add(combo_key(k1, k2))
        try:
            child = combine(pairs[k1], pairs[k2])
        except (SharedPoint, DegenerateLines) as exc:
            provenance.append((k1, k2, "skipped", type(exc).__name__))
            return
        status = "duplicate" if child.key in pairs else "new"
        pairs.setdefault(child.key, child)
        provenance.append((k1, k2, status, child.key))

    def close(pending, start, made):
        """Record the generation of the attempts from `start` on, which had
        `pending` combinations due; its pairs made are `made` (the seed
        pairs in generation 0) and its new children."""
        attempts = provenance[start:]
        tally = Counter(k if status == "skipped" else status for _, _, status, k in attempts)
        made += [pairs[k] for _, _, status, k in attempts if status == "new"]
        largest = max((abs(c) for pair in made for p in pair.points for c in p.coords), default=0)
        with str_digit_limit(0):
            digits = len(str(largest)) if largest else 0
        skipped = {reason: tally[reason] for reason in engine.SKIP_REASONS}
        stats.append(Generation(pending, len(attempts), tally["new"], tally["duplicate"], skipped, digits))

    keys = [pair.key for pair in seed.pairs]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        process(keys[i], keys[j])
    close(3, 0, list(seed.pairs))
    capped = 2 * len(pairs) + 2 > max_points
    while not capped and len(stats) <= max_generations:
        pending, start = unvisited(), len(provenance)
        if not pending:
            break
        for k1, k2 in pending:
            process(k1, k2)
            capped = 2 * len(pairs) + 2 > max_points
            if capped:
                break
        close(len(pending), start, [])
    remaining = len(pairs) * (len(pairs) - 1) // 2 - len(visited)
    index = {key: r for r, key in enumerate(sorted(pairs))}
    attempts = [
        Attempt(n, index[k1], index[k2], status, k if status == "skipped" else index[k])
        for n, (k1, k2, status, k) in enumerate(provenance)
    ]
    return attempts, sorted(pairs), remaining == 0, tuple(stats), remaining


def quadrilateral_hook_seed():
    return validate_seed(
        PointPair.of(pt(0, 0), pt(2, -1)),
        PointPair.of(pt(1, 0), ProjPoint.of(0, 1, 0)),
        PointPair.of(pt(2, 0), pt(0, 1)),
        allow_quadrilateral=True,
    )


class TestEnumeration:
    """Incremental enumeration and group-law labels against the brute-force
    rescan, which runs the geometry on every combination."""

    @pytest.mark.parametrize(
        "name, max_points, max_generations",
        [("frame", 120, 16), ("torsion", 512, 16), ("frame", 10_000, 2), ("curve12", 64, 16),
         ("frame", 512, 16), ("curve12", 128, 16), ("quadrilateral", 512, 16), ("hook", 512, 16),
         *((f"random{i}", 200, 16) for i in range(4)), ("random0", 13, 16),
         ("frame", 36, 16), ("frame", 104, 16), ("skips", 64, 16)],
    )
    def test_matches_rescan(self, request, name, max_points, max_generations):
        if name.startswith("random"):
            seed, cubic = random_frame_seeds(random.Random(2024), 4)[int(name[-1])], None
        elif name == "hook":
            seed, cubic = quadrilateral_hook_seed(), None
        elif name == "skips":  # 36 of its 159 attempts to 64 points are DegenerateLines skips
            seed, cubic = frame_seed(ProjPoint.of(1, -1, 3), ProjPoint.of(1, 3, -1)), None
        else:
            seed, curve = {
                "frame": ("golden_frame_seed", None),
                "torsion": ("torsion_seed_full", "curve54"),
                "curve12": ("curve12_seed", "curve12"),
                "quadrilateral": ("torsion_seed_quadrilateral", "curve54"),
            }[name]
            seed = request.getfixturevalue(seed)
            cubic = request.getfixturevalue(curve).cubic if curve else None
        state = run(seed, max_points, max_generations, curve=cubic)
        provenance, keys, closed, stats, frontier = reference_run(seed, max_points, max_generations)
        assert state.provenance == provenance
        assert [pair.key for pair in state.pairs] == keys
        assert state.stats == stats
        assert (state.closed, state.frontier) == (closed, frontier)
        if name in ("torsion", "quadrilateral", "hook"):
            assert closed and frontier == 0
        else:
            assert not closed and frontier > 0

    @given(st.data())
    def test_pending_is_every_fresh_combination_in_order(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        ranks = st.integers(0, n - 1)
        fresh = data.draw(
            st.one_of(
                st.just([]),
                st.permutations(range(n)),
                st.lists(ranks, min_size=1, max_size=1),
                st.lists(ranks, unique=True),
            ),
            label="fresh",
        )
        expected = sorted(
            (i, j) for i, j in combinations(range(n), 2) if i in fresh or j in fresh
        )
        assert list(pending_pairs(n, fresh)) == expected

    def test_a_capped_run_screens_no_row_past_the_cap(self, monkeypatch, golden_frame_seed):
        """Each combination that runs the geometry is a stored row, and the
        admission that reaches the cap is the last attempt of the last row
        drawn."""
        rows, drawn, calls = engine._rows, [], []

        def counting_rows(items, fresh):
            for row in rows(items, fresh):
                drawn.append(row)
                yield row

        def counting_combine(p, q):
            calls.append(len(drawn))
            return combine(p, q)

        monkeypatch.setattr(engine, "_rows", counting_rows)
        monkeypatch.setattr(engine, "combine", counting_combine)
        state = run(golden_frame_seed, max_points=120)
        assert not state.closed and state.point_count == 120
        assert len(calls) == len(state.rows)
        n, *_, status, _ = state.rows[-1]
        assert status == "new" and sum(g.attempted for g in state.stats) == n + 1
        assert calls[-1] == len(drawn)

    def test_duplicates_skip_the_geometry(self, monkeypatch, curve12, curve12_seed):
        calls = []

        def counting(p, q):
            calls.append(None)
            return combine(p, q)

        monkeypatch.setattr(engine, "combine", counting)
        state = run(curve12_seed, max_points=256, curve=curve12.cubic)
        assert (len(calls), len(state.provenance)) == (127, 2740)

    def test_stats_and_labels_of_frame_2048(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=2048)
        stats = state.stats
        assert len(stats) == state.generations + 1 == 7
        assert sum(g.attempted for g in stats) == len(state.provenance) == 19_438
        assert 3 + sum(g.new for g in stats) == len(state.pairs) == 1024
        assert [g.pending for g in stats[:2]] == [3, 7]
        for g in stats:
            assert g.attempted == g.new + g.duplicate + sum(g.skipped.values())
            assert set(g.skipped) == set(engine.SKIP_REASONS)
        assert [g.attempted == g.pending for g in stats] == [True] * 6 + [False]
        assert state.relations == ((0, 2, 1, -1),)
        assert len(set(state.labels)) == len(state.labels) == len(state.pairs)
        assert all(engine._reduce(label, state.relations) == label for label in state.labels)

    @pytest.mark.parametrize("name", ["frame", "curve12", "torsion"])
    def test_duplicates_that_ran_the_geometry_are_marked(self, monkeypatch, request, name):
        """The stored rows are exactly the attempts that ran `combine`;
        each stored duplicate taught a relation."""
        combined = []

        def recording(p, q):
            combined.append((p.key, q.key))
            return combine(p, q)

        monkeypatch.setattr(engine, "combine", recording)
        seed, curve, max_points = {
            "frame": ("golden_frame_seed", None, 512),
            "curve12": ("curve12_seed", "curve12", 256),
            "torsion": ("torsion_seed_full", "curve54", 512),
        }[name]
        cubic = request.getfixturevalue(curve).cubic if curve else None
        state = run(request.getfixturevalue(seed), max_points, curve=cubic)
        keys = [pair.key for pair in state.pairs]
        assert [(keys[r.i], keys[r.j]) for r in state.rows] == combined
        marked = sum(r.status == "duplicate" for r in state.rows)
        assert marked >= len(state.relations) > 0
        if name == "curve12":
            assert marked == 2


def _named_run(request, name, max_points):
    """A run of the frame, curve12 (with its curve) or full torsion seed."""
    seed, curve = {
        "frame": ("golden_frame_seed", None),
        "curve12": ("curve12_seed", "curve12"),
        "torsion": ("torsion_seed_full", "curve54"),
    }[name]
    seed = request.getfixturevalue(seed)
    cubic = request.getfixturevalue(curve).cubic if curve else None
    return seed, run(seed, max_points, curve=cubic)


class TestProvenanceView:
    """`state.provenance`, built on demand from the stored rows, the stats
    and the labels, is every attempt: as the brute-force rescan makes them,
    and as `oracles.expand_provenance` reads them back from the report."""

    @pytest.mark.parametrize(
        "name, max_points",
        [("frame", 512), ("frame", 2048), ("curve12", 256), ("torsion", 512), ("frame", 120)],
    )
    def test_view_is_every_attempt(self, request, name, max_points):
        seed, state = _named_run(request, name, max_points)
        provenance, *_ = reference_run(seed, max_points, engine.DEFAULT_MAX_GENERATIONS)
        view = state.provenance
        assert view == provenance
        report = json.loads(serialize.dumps(serialize.state_to_json(state)))
        assert expand_provenance(report) == view
        # the rows stored at their ordinals: every attempt but the duplicates
        # that the labels predicted
        assert [d.n for d in view] == list(range(len(view)))
        stored = set(state.rows)
        assert [d for d in view if d.status != "duplicate" or d in stored] == list(state.rows)
        # the counts the tracer reads off the view are the stats totals
        stats = state.stats
        assert len(view) == sum(g.attempted for g in stats)
        assert [sum(d.status == s for d in view) for s in ("new", "duplicate", "skipped")] == [
            sum(g.new for g in stats),
            sum(g.duplicate for g in stats),
            sum(sum(g.skipped.values()) for g in stats),
        ]

    def test_a_cap_mid_row(self, golden_frame_seed):
        """frame@120 stops in the middle of a row: the larger run's next
        attempt has the same first parent."""
        def by_pair(state):
            """The attempts with pairs in place of their indices, which
            differ between runs of different sizes."""
            pairs = state.pairs
            return [
                (pairs[d.i], pairs[d.j], d.status, d.k if d.status == "skipped" else pairs[d.k])
                for d in state.provenance
            ]

        capped = by_pair(run(golden_frame_seed, max_points=120))
        longer = by_pair(run(golden_frame_seed, max_points=512))
        assert longer[: len(capped)] == capped
        assert longer[len(capped)][0] == capped[-1][0]

    def test_a_relation_mid_row(self, curve12, curve12_seed):
        """curve12@256 learns its second relation in generation 2, two
        attempts before the end of a row; frame@2048 learns (0, 2, 1, -1)
        in the bootstrap."""
        state = run(curve12_seed, max_points=256, curve=curve12.cubic)
        view = state.provenance
        n = [r.n for r in state.rows if r.status == "duplicate"][-1]
        starts = list(accumulate(g.attempted for g in state.stats))
        assert starts[1] <= n and n + 2 < starts[2]
        assert [d.i for d in view[n : n + 3]] == [view[n].i] * 3

    def test_construct_and_verify_never_build_it(self, monkeypatch, tmp_path):
        def unread(state):
            raise AssertionError("state.provenance was built")

        monkeypatch.setattr(engine.ConstructionState, "provenance", property(unread))
        frame = str(Path(__file__).parents[1] / "seeds" / "frame.json")
        out, svg = tmp_path / "run.json", tmp_path / "run.svg"
        args = ["--seed", frame, "--max-points", "256"]
        assert main(["construct", *args, "--out", str(out), "--svg", str(svg)]) == 0
        assert main(["verify", *args, "--out", str(tmp_path / "verify.json")]) == 0
        assert main(["verify", "--report", str(out)]) == 0


class TestLabels:
    # the rows learned on curve12@256, from the relations (-2,0,-1,1) and (1,-3,2,0)
    ROWS = [(1, 3, -1, -1), (0, 6, -3, -1)]

    def test_rows_are_in_hermite_normal_form(self):
        assert engine._hnf(self.ROWS) == self.ROWS
        assert engine._hnf([(-2, 0, -1, 1), (1, -3, 2, 0)]) == self.ROWS
        assert engine._hnf([(0, -2, -1, 1)]) == [(0, 2, 1, -1)]

    @given(
        st.tuples(*[st.integers(-50, 50)] * 4),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    def test_reduction_is_canonical(self, v, a, b):
        r0, r1 = self.ROWS
        shifted = tuple(x + a * y + b * z for x, y, z in zip(v, r0, r1))
        reduced = engine._reduce(v, self.ROWS)
        assert engine._reduce(shifted, self.ROWS) == reduced
        assert reduced[0] == 0 and 0 <= reduced[1] < 6

    def test_wrong_relation_is_caught(self, golden_frame_seed):
        workspace = engine._Workspace()
        for pair in golden_frame_seed.pairs:
            workspace.admit(pair)
        assert list(workspace.index_of_label) == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
        with pytest.raises(InvariantViolation, match="two distinct pairs one label"):
            workspace.learn((1, -1, 0, 0))


class TestNodalCubic:
    """On the nodal cubic y²z = x³ + x²z, φ (`oracles.nodal_parameter`) is a
    group isomorphism onto the nonzero rationals, T is φ = −1, and kappa is
    1, the flex.  So a pair {u, −u} is its class, and each pair a run makes
    from the seed pairs {uᵢ, −uᵢ} has φ-values ±∏ uᵢ^ℓᵢ, ℓ its label."""

    @pytest.mark.parametrize(
        "us, max_points",
        [((2, 3, 5), 4096), ((Fraction(2, 3), Fraction(5, 7), 11), 4096), ((2, 4, 8), 1024)],
    )
    def test_labels_are_the_classes(self, us, max_points):
        seed = validate_seed(*(PointPair.of(nodal_point(u), nodal_point(-u)) for u in us))
        state = run(seed, max_points)
        assert state.point_count == max_points
        for pair, label in zip(state.pairs, state.labels):
            value = prod((Fraction(u) ** n for u, n in zip(us, label[:3])), start=Fraction(1))
            assert sorted(map(nodal_parameter, pair.points)) == sorted((value, -value)), label
        if us == (2, 4, 8):
            # 2^n₀ 4^n₁ 8^n₂ = ±1, and each label's pivot entries lie in [0, pivot)
            assert state.relations and all(n0 + 2 * n1 + 3 * n2 == 0 for n0, n1, n2, _ in state.relations)
            for row in state.relations:
                col = next(c for c, a in enumerate(row) if a)
                assert all(0 <= label[col] < row[col] for label in state.labels), row


class TestTorsionZ2xZ6:
    """y² = x(x + 5)(x + 32) has the rational torsion group ℤ/2×ℤ/6: O and
    11 affine points.  Each seed of three of them that validates closes at
    6 pairs on the subgroup that its points and T generate."""

    CURVE = WeierstrassCurve(37, 160)
    POINTS = [pt(x, 0) for x in (-32, -5, 0)] + [
        pt(x, s * y) for x, y in ((-20, 60), (-8, 24), (4, 36), (40, 360)) for s in (1, -1)
    ]

    @pytest.fixture(scope="class")
    def runs(self):
        """(errors by name, [(seed points, state)]) over all 165 triples."""
        errors, runs = Counter(), []
        for points in combinations(self.POINTS, 3):
            try:
                seed = seed_from_curve(self.CURVE, *points)
            except ValidationError as exc:
                errors[type(exc).__name__] += 1
                continue
            runs.append((points, run(seed, curve=self.CURVE.cubic)))
        return errors, runs

    def test_points_are_the_torsion_group(self):
        assert subgroup_generated(self.CURVE, self.POINTS) == {*self.POINTS, NEUTRAL}

    def test_every_seed_closes_on_its_subgroup(self, runs):
        errors, runs = runs
        assert errors == {"DuplicatePoints": 45, "CompleteQuadrilateral": 24}
        assert len(runs) == 96
        for points, state in runs:
            assert state.closed and len(state.pairs) == 6 and len(state.relations) == 3
            made = {p for pair in state.pairs for p in pair.points}
            assert made == subgroup_generated(self.CURVE, [*points, TWO_TORSION]), points
            text = serialize.dumps(serialize.state_to_json(state))
            read = serialize.report_from_json(json.loads(text))
            assert read == state
            replay_report(read)

    def test_suites(self, runs):
        _, runs = runs
        counts = Counter()
        for _, state in runs:
            counts.update(run_suites(state, curve=self.CURVE).counts())
        assert counts == {"pass": 2880, "degenerate": 1632}


class TestWorkspace:
    """`_Workspace` names each pair by its admission index and finds a child
    among the admitted pairs through the owner of its first point."""

    def test_find_compares_the_whole_pair(self, golden_frame_seed):
        workspace = engine._Workspace()
        assert [workspace.admit(pair) for pair in golden_frame_seed.pairs] == [0, 1, 2]
        assert [workspace.find(pair) for pair in golden_frame_seed.pairs] == [0, 1, 2]
        a = golden_frame_seed.pair_a
        far = ProjPoint((10**6, 1, 1))
        stranger = PointPair.of(a.first, far)  # shares only its first point with a
        assert stranger.first == a.first and workspace.find(stranger) is None
        assert workspace.find(PointPair.of(far, a.second)) is None
        with pytest.raises(InvariantViolation) as exc:
            workspace.admit(stranger)
        assert str(exc.value) == f"point {a.first} of {stranger} already belongs to pair {a}"
        assert workspace.find(stranger) is None and len(workspace.pairs) == 3
