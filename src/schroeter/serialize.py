"""JSON/CSV vocabulary: rationals as strings, never floats.

Rationals serialize as "p/q" with the denominator omitted when it is 1;
points are arrays of three coordinate strings.  Output files are
deterministic so identical runs are byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

from .cubic import Cubic
from .engine import ConstructionState, PointPair, SeedConfig, validate_seed
from .errors import SeedFormatError, brief
from .projective import ProjPoint
from .weierstrass import WeierstrassCurve


def rat_to_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rat_from_str(text) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SeedFormatError(f"bad rational {brief(repr(text))}: {brief(exc)}") from exc


def point_to_json(p: ProjPoint) -> list[str]:
    return [str(c) for c in p.coords]


_INTEGER = re.compile("-?[0-9]+")


def point_from_json(arr) -> ProjPoint:
    if not isinstance(arr, (list, tuple)) or len(arr) not in (2, 3):
        raise SeedFormatError(f"a point needs 2 or 3 coordinates, got {brief(repr(arr))}")
    try:
        # Three integer strings, as a report writes them, skip Fraction; the
        # point still canonicalizes.  Any other form reads as a rational.
        if len(arr) == 3 and all(type(v) is str and _INTEGER.fullmatch(v) for v in arr):
            return ProjPoint(tuple([int(v) for v in arr]))
        coords = [rat_from_str(v) for v in arr]
        if len(coords) == 2:
            coords.append(Fraction(1))
        return ProjPoint.of(*coords)
    except ValueError as exc:
        raise SeedFormatError(str(exc)) from exc


def pair_to_json(pair: PointPair) -> list[list[str]]:
    return [point_to_json(pair.first), point_to_json(pair.second)]


def pair_from_json(arr) -> PointPair:
    if not isinstance(arr, (list, tuple)) or len(arr) != 2:
        raise SeedFormatError(f"a pair needs exactly 2 points, got {brief(repr(arr))}")
    return PointPair.of(point_from_json(arr[0]), point_from_json(arr[1]))


def cubic_to_json(c: Cubic) -> list[str]:
    return [str(v) for v in c.coeffs]


def cubic_from_json(arr) -> Cubic:
    """A run report's cubic from ten rational coefficients."""
    if not isinstance(arr, (list, tuple)) or len(arr) != 10:
        raise SeedFormatError("a cubic needs exactly 10 coefficients")
    try:
        return Cubic.of([rat_from_str(v) for v in arr])
    except ValueError as exc:
        raise SeedFormatError(f"bad cubic in run report: {exc}") from exc


def curve_to_json(curve: WeierstrassCurve) -> dict:
    return {"a": rat_to_str(curve.a), "b": rat_to_str(curve.b)}


def curve_from_json(obj) -> WeierstrassCurve:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise SeedFormatError("curve object needs rational fields 'a' and 'b'")
    return WeierstrassCurve(rat_from_str(obj["a"]), rat_from_str(obj["b"]))


def seed_to_json(seed: SeedConfig, curve: WeierstrassCurve | None = None) -> dict:
    obj: dict = {"pairs": [pair_to_json(p) for p in seed.pairs]}
    if curve is not None:
        obj["curve"] = curve_to_json(curve)
    return obj


def seed_from_json(obj) -> tuple[SeedConfig, WeierstrassCurve | None]:
    if not isinstance(obj, dict) or "pairs" not in obj:
        raise SeedFormatError("seed object needs a 'pairs' field")
    pairs = obj["pairs"]
    if not isinstance(pairs, list) or len(pairs) != 3:
        raise SeedFormatError("a seed needs exactly 3 pairs")
    seed = validate_seed(*(pair_from_json(p) for p in pairs))
    curve = curve_from_json(obj["curve"]) if "curve" in obj else None
    return seed, curve


# Run reports: v1 (no "format_version") wrote each provenance parent and
# child as full coordinates; v2 writes indices into the sorted "pairs".
REPORT_FORMAT = 2


def state_to_json(state: ConstructionState) -> dict:
    """The run report.  Each provenance row is [i, j, status, k]: the two
    parents as indices into `pairs`, in recorded order, then the child's
    index for "new" and "duplicate" or the reason for "skipped"."""
    # A point belongs to one pair only, so a key's first point names its pair.
    index = {pair.first.coords: i for i, pair in enumerate(state.pairs)}
    return {
        "format_version": REPORT_FORMAT,
        "seed": [pair_to_json(p) for p in state.seed.pairs],
        "curve": cubic_to_json(state.curve) if state.curve is not None else None,
        "curve_basis": [cubic_to_json(c) for c in state.curve_basis],
        "pairs": [pair_to_json(p) for p in state.pairs],
        "pair_count": len(state.pairs),
        "point_count": state.point_count,
        "closed": state.closed,
        "generations": state.generations,
        "provenance": [
            [
                index[d.parents[0][0]],
                index[d.parents[1][0]],
                d.status,
                d.reason if d.child is None else index[d.child[0]],
            ]
            for d in state.provenance
        ],
    }


def report_from_json(obj) -> tuple[list[PointPair], Cubic | None, list[Cubic]]:
    """The pairs, the curve and the curve basis of a run report of either
    format; provenance is not read."""
    if not isinstance(obj, dict) or not isinstance(obj.get("pairs"), list):
        raise SeedFormatError("a run report needs a 'pairs' list")
    # v1 has no "format_version"; its pairs, curve and basis read as v2's
    version = obj.get("format_version", REPORT_FORMAT)
    if type(version) is not int or version != REPORT_FORMAT:
        raise SeedFormatError(
            f"unsupported run report format_version {brief(repr(version))}; "
            f"expected {REPORT_FORMAT} or none"
        )
    basis = obj.get("curve_basis", [])
    if not isinstance(basis, list):
        raise SeedFormatError("a run report's 'curve_basis' must be a list")
    pairs = [pair_from_json(p) for p in obj["pairs"]]
    curve = cubic_from_json(obj["curve"]) if obj.get("curve") else None
    return pairs, curve, [cubic_from_json(c) for c in basis]


def state_points_csv(state: ConstructionState) -> str:
    lines = ["pair_id,member,x,y,z"]
    for idx, pair in enumerate(state.pairs):
        for member, point in enumerate(pair.points):
            x, y, z = point.coords
            lines.append(f"{idx},{member},{x},{y},{z}")
    return "\n".join(lines) + "\n"


# One run report provenance row [i, j, status, k] as `json.dumps` indents it.
_ROW = "    [\n      %d,\n      %d,\n      %s,\n      %s\n    ]"


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` and a newline.

    The provenance rows of a run report are written from `_ROW` and spliced
    into the encoding of its other keys: `json` indents through its
    pure-Python encoder, which is slow on many small rows.
    """
    rows = obj.get("provenance") if isinstance(obj, dict) else None
    if not rows:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    head, tail = json.dumps({**obj, "provenance": None}, indent=2, sort_keys=True).split(
        '\n  "provenance": null', 1
    )
    body = ",\n".join(
        [
            _ROW % (i, j, _json_string(s), k if type(k) is int else _json_string(k))
            for i, j, s, k in rows
        ]
    )
    return f'{head}\n  "provenance": [\n{body}\n  ]{tail}\n'


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SeedFormatError(f"{path}: invalid JSON ({exc})") from exc
