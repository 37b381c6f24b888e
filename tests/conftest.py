"""Shared fixtures: reference curves, seeds, and deterministic generators."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from schroeter.engine import PointPair, SeedConfig, run, validate_seed
from schroeter.errors import SchroeterError
from schroeter.projective import ProjPoint
from schroeter.verify import run_suites
from schroeter.weierstrass import WeierstrassCurve, add, conjugate_point, seed_from_curve

from oracles import bootstrap_seed


@contextmanager
def str_digit_limit(limit: int):
    """CPython's limit on int/str conversion set to `limit` for the block,
    0 lifting it: a test that builds decimal text of over 4,300 digits
    lifts it itself, since the package lifts it only around its own
    conversions."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before Python 3.11
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


FRAME = (
    ProjPoint.of(0, 0, 1),
    ProjPoint.of(0, 1, 0),
    ProjPoint.of(1, 0, 0),
    ProjPoint.of(1, 1, 1),
)


# The pencil seed: its bootstrap repeats two seed pairs, so its 8 points
# leave a pencil of cubics, and no member of it holds the first constructed
# point.
PENCIL_PAIRS = [[(0, 0, 1), (0, 1, 0)], [(1, 0, 0), (1, 1, 1)], [(0, 1, -3), (3, -1, -1)]]


@pytest.fixture(scope="session")
def pencil_seed() -> SeedConfig:
    return validate_seed(*(PointPair.of(*map(ProjPoint, pair)) for pair in PENCIL_PAIRS))


@pytest.fixture(scope="session")
def curve12() -> WeierstrassCurve:
    return WeierstrassCurve(1, 2)


@pytest.fixture(scope="session")
def curve54() -> WeierstrassCurve:
    return WeierstrassCurve(5, 4)


@pytest.fixture(scope="session")
def golden_frame_seed() -> SeedConfig:
    return frame_seed(ProjPoint.of(2, 3, 1), ProjPoint.of(5, 1, 1))


def frame_seed(c: ProjPoint, cbar: ProjPoint) -> SeedConfig:
    return validate_seed(
        PointPair.of(FRAME[0], FRAME[1]),
        PointPair.of(FRAME[2], FRAME[3]),
        PointPair.of(c, cbar),
    )


def random_affine_point(rng: random.Random) -> ProjPoint:
    x = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
    y = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
    return ProjPoint.affine(x, y)


def random_frame_seeds(rng: random.Random, count: int, *, strict: bool = True):
    """Frame seeds with random free pairs; strict ones admit the 9-point fit."""
    seeds = []
    while len(seeds) < count:
        c, cbar = random_affine_point(rng), random_affine_point(rng)
        try:
            seed = frame_seed(c, cbar)
            if strict:
                bootstrap_seed(seed)
        except SchroeterError:
            continue
        seeds.append(seed)
    return seeds


def random_smooth_frame_seeds(rng: random.Random, count: int):
    """Frame seeds whose fitted cubic supports tangents at every early pair.

    Random free pairs occasionally produce a reducible construction cubic
    (a line component); those still satisfy the on-curve invariant but have
    no tangential points, so tangent-based acceptance checks re-roll them.
    """
    from schroeter.cubic import tangent_third

    seeds = []
    while len(seeds) < count:
        (seed,) = random_frame_seeds(rng, 1, strict=True)
        try:
            probe = run(seed, max_points=24)
            for pair in probe.pairs:
                tangent_third(probe.curve, pair.first)
                tangent_third(probe.curve, pair.second)
        except SchroeterError:
            continue
        seeds.append(seed)
    return seeds


def cubics_with_points():
    """(cubic, points on it) for two cubics: curve12's, with the seed points
    (1, 2) and (1/16, 23/64) and eight more, each the sum of the two before
    by the group law (the last has 1,133 digits); and the cubic of the
    golden frame seed's run to 64 points, with its pairs' points."""
    curve12 = WeierstrassCurve(1, 2)
    points = [ProjPoint.affine(1, 2), ProjPoint.of(4, 23, 64)]
    while len(points) < 10:
        points.append(add(curve12, points[-2], points[-1]))
    frame = run(frame_seed(ProjPoint.of(2, 3, 1), ProjPoint.of(5, 1, 1)), max_points=64)
    return [
        (curve12.cubic, points),
        (frame.curve, [p for pair in frame.pairs for p in pair.points]),
    ]


@pytest.fixture(scope="session")
def curve12_seed(curve12) -> SeedConfig:
    # pairs {(1,2),(2,-4)}, {(2,4),(1,-2)}, {(1/16,23/64),(32,-184)}
    return seed_from_curve(
        curve12,
        ProjPoint.affine(1, 2),
        ProjPoint.affine(2, 4),
        ProjPoint.of(4, 23, 64),
    )


@pytest.fixture(scope="session")
def verified(curve12, curve12_seed, curve54, torsion_seed_full, golden_frame_seed):
    """The run state and verify report (all suites) of a named case, each
    computed once a session: "curve12" at 128 points and "curve12@256" with
    curve12, "torsion" (the full torsion seed with curve54), and "frame"
    (the golden frame seed at 128 points, with no Weierstrass model)."""
    done = {}

    def get(name):
        if name not in done:
            if name.startswith("curve12"):
                curve = curve12
                state = run(curve12_seed, max_points=256 if name == "curve12@256" else 128, curve=curve.cubic)
            elif name == "torsion":
                curve = curve54
                state = run(torsion_seed_full, curve=curve.cubic)
            else:
                curve = None
                state = run(golden_frame_seed, max_points=128)
            done[name] = state, run_suites(state, curve=curve)
        return done[name]

    return get


@pytest.fixture(scope="session")
def torsion_seed_quadrilateral(curve54) -> SeedConfig:
    """The 2x4-torsion seed; a complete quadrilateral, forced past validation."""
    points = (ProjPoint.affine(2, 6), ProjPoint.affine(-2, 2), ProjPoint.affine(-1, 0))
    return validate_seed(
        *(PointPair.of(p, conjugate_point(curve54, p)) for p in points),
        allow_quadrilateral=True,
    )


@pytest.fixture(scope="session")
def torsion_seed_full(curve54) -> SeedConfig:
    """Torsion seed containing the {T, O} pair; closes on the whole subgroup."""
    return seed_from_curve(
        curve54,
        ProjPoint.affine(0, 0),
        ProjPoint.affine(2, 6),
        ProjPoint.affine(-1, 0),
    )
