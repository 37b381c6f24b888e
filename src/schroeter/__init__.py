"""Exact ruler constructions on cubic curves.

Schroeter's construction iterates a simple pairing rule on three seed point
pairs; every point it produces lies on one cubic curve.  This package keeps
all of it in exact rational arithmetic: projective primitives, line
involutions, cubic fitting and chord thirds, the Weierstrass group law, and
checkable forms of the classical statements the construction rests on.
"""

import sys as _sys

# Coordinate heights grow quadratically along the construction; decimal
# serialization of such integers is legitimate here, so lift CPython's
# conversion guard well beyond anything a capped run can produce.
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(max(_sys.get_int_max_str_digits(), 2_000_000))

from .cubic import (
    Cubic,
    chord_third,
    cubic_family_through,
    evaluate,
    fit_cubic_9,
    tangent_at,
    tangent_third,
    third_intersection,
)
from .engine import (
    ConstructionState,
    PointPair,
    SeedConfig,
    combine,
    run,
    validate_seed,
)
from .errors import SchroeterError
from .involution import (
    Involution,
    conjugate_line,
    is_complete_quadrilateral_pairing,
)
from .projective import (
    ProjLine,
    ProjPoint,
    collinear,
    incident,
    join,
    meet,
)
from .weierstrass import (
    NEUTRAL,
    TWO_TORSION,
    AbcChart,
    ChartMap,
    WeierstrassCurve,
    add,
    chart_conjugate,
    conjugate_point,
    involution_center_product,
    neg,
    seed_from_curve,
    to_abc_chart,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
