"""JSON/CSV vocabulary: rationals as strings, never floats.

Rationals serialize as "p/q" with the denominator omitted when it is 1;
points are arrays of three coordinate strings.  Output files are
deterministic so identical runs are byte-identical.  Each public reader
and writer runs with CPython's limit on decimal int/str conversion lifted
(`errors.lifted_digit_limit`), once for its whole call.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import wraps
from json.encoder import encode_basestring_ascii as _json_string

from .cubic import Cubic
from .engine import Attempt, ConstructionState, Generation, PointPair, SeedConfig, validate_seed
from .errors import InvariantViolation, SeedFormatError, brief, digit_limit, lifted_digit_limit
from .projective import ProjPoint

# The annotations' WeierstrassCurve is weierstrass's, imported only where a
# curve is read, so that a seed without one never loads that module.


def _lifted(fn):
    """A public reader or writer: `fn` run inside `lifted_digit_limit`,
    or as it is when called inside another one, so that a report's pairs
    do not each enter and leave it."""

    @wraps(fn)
    def call(*args, **kwargs):
        if not digit_limit():
            return fn(*args, **kwargs)
        with lifted_digit_limit():
            return fn(*args, **kwargs)

    return call


@_lifted
def rat_to_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@_lifted
def rat_from_str(text) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SeedFormatError(f"bad rational {brief(repr(text))}: {brief(exc)}") from exc


@_lifted
def point_to_json(p: ProjPoint) -> list[str]:
    return [str(c) for c in p.coords]


_INTEGER = re.compile("-?[0-9]+")


@_lifted
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


@_lifted
def pair_to_json(pair: PointPair) -> list[list[str]]:
    return [point_to_json(pair.first), point_to_json(pair.second)]


@_lifted
def pair_from_json(arr) -> PointPair:
    if not isinstance(arr, (list, tuple)) or len(arr) != 2:
        raise SeedFormatError(f"a pair needs exactly 2 points, got {brief(repr(arr))}")
    return PointPair.of(point_from_json(arr[0]), point_from_json(arr[1]))


@_lifted
def cubic_to_json(c: Cubic) -> list[str]:
    return [str(v) for v in c.coeffs]


@_lifted
def cubic_from_json(arr) -> Cubic:
    """A run report's cubic from ten rational coefficients."""
    if not isinstance(arr, (list, tuple)) or len(arr) != 10:
        raise SeedFormatError("a cubic needs exactly 10 coefficients")
    try:
        return Cubic.of([rat_from_str(v) for v in arr])
    except ValueError as exc:
        raise SeedFormatError(f"bad cubic in run report: {exc}") from exc


@_lifted
def curve_to_json(curve: WeierstrassCurve) -> dict:
    return {"a": rat_to_str(curve.a), "b": rat_to_str(curve.b)}


@_lifted
def curve_from_json(obj) -> WeierstrassCurve:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise SeedFormatError("curve object needs rational fields 'a' and 'b'")
    from .weierstrass import WeierstrassCurve

    return WeierstrassCurve(rat_from_str(obj["a"]), rat_from_str(obj["b"]))


@_lifted
def seed_to_json(seed: SeedConfig, curve: WeierstrassCurve | None = None) -> dict:
    obj: dict = {"pairs": [pair_to_json(p) for p in seed.pairs]}
    if curve is not None:
        obj["curve"] = curve_to_json(curve)
    return obj


@_lifted
def seed_from_json(obj) -> tuple[SeedConfig, WeierstrassCurve | None]:
    if not isinstance(obj, dict) or "pairs" not in obj:
        raise SeedFormatError("seed object needs a 'pairs' field")
    pairs = obj["pairs"]
    if not isinstance(pairs, list) or len(pairs) != 3:
        raise SeedFormatError("a seed needs exactly 3 pairs")
    seed = validate_seed(*(pair_from_json(p) for p in pairs))
    curve = curve_from_json(obj["curve"]) if "curve" in obj else None
    return seed, curve


REPORT_FORMAT = 3


@_lifted
def state_to_json(state: ConstructionState) -> dict:
    """The run report, which `report_from_json` reads back as the state.

    `labels` holds each pair's group-law label, reduced by `relations`.
    `provenance` holds the state's rows, the attempts that ran the
    geometry: the new pairs, the skipped combinations and the duplicates
    that taught a relation.  Each row is [n, i, j, status, k]: the
    attempt's ordinal, the two parents as indices into `pairs`, then the
    child's index for "new" and "duplicate" or the reason for "skipped".
    Every other attempt is a duplicate of the pair labelled
    kappa - l_i - l_j.  `stats` has one `Generation` per generation, the
    bootstrap first.  `pair_count`, `point_count`, `closed` and
    `generations` are fields the state derives.
    """
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
        "labels": [list(label) for label in state.labels],
        "relations": [list(row) for row in state.relations],
        "stats": [g._asdict() for g in state.stats],
        "provenance": [list(row) for row in state.rows],
    }


_STATUSES = ("new", "duplicate", "skipped")
_STATS = set(Generation._fields)


def _is_int(v) -> bool:
    return type(v) is int


def _int_rows(obj, key: str, width: int) -> tuple[tuple[int, ...], ...]:
    """A run report's list of integer rows of one width."""
    rows = obj.get(key)
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and len(r) == width and all(map(_is_int, r)) for r in rows
    ):
        raise SeedFormatError(f"a run report needs {key!r} as rows of {width} integers")
    return tuple(map(tuple, rows))


def _row(n, i, j, status, k) -> Attempt:
    """A provenance row, checked for shape: k names a pair unless skipped."""
    if not (
        all(map(_is_int, (n, i, j)))
        and status in _STATUSES
        and (type(k) is str if status == "skipped" else _is_int(k))
    ):
        raise SeedFormatError(f"bad run report provenance row {brief(repr([n, i, j, status, k]))}")
    return Attempt(n, i, j, status, k)


def _stats_from_json(obj) -> tuple[Generation, ...]:
    """A run report's `stats`, each count a non-negative integer."""
    stats = obj.get("stats")
    if not isinstance(stats, list) or not all(
        isinstance(g, dict) and set(g) == _STATS and isinstance(g["skipped"], dict) for g in stats
    ):
        raise SeedFormatError(f"a run report needs 'stats' as objects with keys {sorted(_STATS)}")
    for g in stats:
        counts = [(repr(key), g[key]) for key in sorted(_STATS - {"skipped"})]
        counts += [(f"'skipped' {brief(repr(r))}", v) for r, v in g["skipped"].items()]
        for name, v in counts:
            if not _is_int(v) or v < 0:
                raise SeedFormatError(
                    f"a run report needs stats count {name} as a non-negative integer, "
                    f"got {brief(repr(v))}"
                )
    return tuple(Generation(**g) for g in stats)


@_lifted
def report_from_json(obj) -> ConstructionState:
    """The state of the run that a run report records.

    Only `format_version` 3 reads: earlier layouts lack the labels and
    stats, and a run is deterministic, so their reports are regenerated
    from their seeds.  A field of the wrong shape is a SeedFormatError.
    The stored `generations`, `pair_count`, `point_count` and `closed` must
    be what the pairs and stats give, and `curve` a one-cubic basis's cubic,
    or the report is corrupt (InvariantViolation); `replay_report` checks the rest.
    """
    if not isinstance(obj, dict):
        raise SeedFormatError("a run report must be a JSON object")
    version = obj.get("format_version")
    if not _is_int(version) or version != REPORT_FORMAT:
        layout = f"format_version {brief(repr(version))}" if "format_version" in obj else "no format_version"
        raise SeedFormatError(
            f"this run report has {layout}; only format_version {REPORT_FORMAT} is read: "
            "regenerate the report from its seed with `construct --out`"
        )
    seed, pairs, basis, rows = (obj.get(key) for key in ("seed", "pairs", "curve_basis", "provenance"))
    if not isinstance(seed, list) or len(seed) != 3:
        raise SeedFormatError("a run report needs its 3 'seed' pairs")
    if not isinstance(pairs, list):
        raise SeedFormatError("a run report needs a 'pairs' list")
    if not isinstance(basis, list):
        raise SeedFormatError("a run report needs a 'curve_basis' list")
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == 5 for r in rows):
        raise SeedFormatError("a run report needs 'provenance' as rows [n, i, j, status, k]")
    for key in ("generations", "pair_count", "point_count"):
        if not _is_int(obj.get(key)) or obj[key] < 0:
            raise SeedFormatError(f"a run report needs a non-negative integer {key!r}")
    if type(obj.get("closed")) is not bool:
        raise SeedFormatError("a run report needs 'closed' as true or false")
    state = ConstructionState(
        seed=validate_seed(*map(pair_from_json, seed), allow_quadrilateral=True),
        pairs=tuple(map(pair_from_json, pairs)),
        curve=cubic_from_json(obj["curve"]) if obj.get("curve") else None,
        curve_basis=tuple(map(cubic_from_json, basis)),
        rows=tuple(_row(*r) for r in rows),
        labels=_int_rows(obj, "labels", 4),
        relations=_int_rows(obj, "relations", 4),
        stats=_stats_from_json(obj),
    )
    derived = (state.generations, len(state.pairs), state.point_count, state.closed)
    if tuple(obj[key] for key in ("generations", "pair_count", "point_count", "closed")) != derived:
        raise InvariantViolation(
            "generations, pair_count, point_count or closed disagrees with the pairs and stats"
        )
    if len(state.curve_basis) == 1 and state.curve != state.curve_basis[0]:
        raise InvariantViolation("the report's curve is not the one cubic of its curve_basis")
    return state


@_lifted
def state_points_csv(state: ConstructionState) -> str:
    lines = ["pair_id,member,x,y,z"]
    for idx, pair in enumerate(state.pairs):
        for member, point in enumerate(pair.points):
            x, y, z = point.coords
            lines.append(f"{idx},{member},{x},{y},{z}")
    return "\n".join(lines) + "\n"


# A report's rows as `json.dumps(row, sort_keys=True)` writes them: a
# provenance row [n, i, j, status, k], a label of four integers, and a pair
# of two points of three coordinate strings each.
_ROW = "[%d, %d, %d, %s, %s]"
_LABEL = "[%d, %d, %d, %d]"
_PAIR = "[[%s, %s, %s], [%s, %s, %s]]"


def _provenance_row(row) -> str:
    n, i, j, s, k = row
    return _ROW % (n, i, j, _json_string(s), k if type(k) is int else _json_string(k))


def _label_row(label) -> str:
    return _LABEL % tuple(label)


def _pair_row(pair) -> str:
    first, second = pair
    return _PAIR % tuple(map(_json_string, (*first, *second)))


_TEMPLATES = {"labels": _label_row, "pairs": _pair_row, "provenance": _provenance_row}
_ENCODE = json.JSONEncoder(sort_keys=True).encode


@_lifted
def dumps(obj: dict) -> str:
    """A JSON object written one row per line, and a closing newline.

    Each top-level key starts a line, in sorted order.  Each element of a
    nonempty top-level list has a line of its own, as
    `json.dumps(element, sort_keys=True)` prints it; any other value stays
    on its key's line.  The pairs, labels and provenance rows of a report
    or a seed are written from templates, everything else through json's
    C encoder: json indents only through its pure-Python encoder, which is
    slow on many small rows.
    """
    lines = []
    for key in sorted(obj):
        value = obj[key]
        head = f"  {_json_string(key)}: "
        if isinstance(value, list) and value:
            rows = map(_TEMPLATES.get(key, _ENCODE), value)
            lines.append(head + "[\n    " + ",\n    ".join(rows) + "\n  ]")
        else:
            lines.append(head + _ENCODE(value))
    return "{\n" + ",\n".join(lines) + "\n}\n"


@_lifted
def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SeedFormatError(f"{path}: invalid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise SeedFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        except RecursionError as exc:
            raise SeedFormatError(f"{path}: invalid JSON (nested too deeply)") from exc
