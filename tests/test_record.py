"""The value semantics of the package's records: equality within the class
only, the hash of the tuple of fields, immutability, the repr, and
`_replace` and `_asdict` through the constructor."""

from collections import namedtuple
from fractions import Fraction

import pytest

from schroeter.cubic import Cubic
from schroeter.engine import Generation, PointPair, SeedConfig, run
from schroeter.errors import NotInPencil, ValidationError
from schroeter.involution import Involution
from schroeter.projective import ProjLine, ProjPoint
from schroeter.record import record
from schroeter.weierstrass import WeierstrassCurve

O = ProjPoint((0, 0, 1))
PAIRS = [
    PointPair.of(ProjPoint.affine(1, 2), ProjPoint.affine(2, -4)),
    PointPair.of(ProjPoint.affine(1, -2), ProjPoint.affine(2, 4)),
    PointPair.of(ProjPoint((4, 23, 64)), ProjPoint.affine(32, -184)),
]
AXES = (ProjLine((1, 0, 0)), ProjLine((0, 1, 0)))
DIAGONALS = (ProjLine((1, 1, 0)), ProjLine((1, -1, 0)))

# Each record with its repr, as the classes wrote it before they were NamedTuples.
RECORDS = {
    "ProjPoint": (ProjPoint((2, 4, -6)), "(1 : 2 : -3)"),
    "ProjLine": (ProjLine((0, -3, 3)), "[0 : 1 : -1]"),
    "Cubic": (WeierstrassCurve(1, 2).cubic, "Cubic(1*x3 + 1*x2z + 2*xz2 + -1*y2z)"),
    "PointPair": (PAIRS[0], "{(1 : 2 : 1), (2 : -4 : 1)}"),
    "SeedConfig": (
        SeedConfig(*PAIRS),
        "SeedConfig(pair_a={(1 : 2 : 1), (2 : -4 : 1)}, pair_b={(1 : -2 : 1), (2 : 4 : 1)}, "
        "pair_c={(4 : 23 : 64), (32 : -184 : 1)})",
    ),
    "Generation": (
        Generation(3, 3, 2, 1, {"DegenerateLines": 0, "SharedPoint": 0}, 5),
        "Generation(pending=3, attempted=3, new=2, duplicate=1, "
        "skipped={'DegenerateLines': 0, 'SharedPoint': 0}, digits=5)",
    ),
    "WeierstrassCurve": (WeierstrassCurve(1, 2), "WeierstrassCurve(a=Fraction(1, 1), b=Fraction(2, 1))"),
    "Involution": (
        Involution(O, AXES, DIAGONALS),
        "Involution(carrier=(0 : 0 : 1), pair_a=([1 : 0 : 0], [0 : 1 : 0]), "
        "pair_b=([1 : 1 : 0], [1 : -1 : 0]))",
    ),
}

records = pytest.mark.parametrize("name", RECORDS)


def fields(value) -> tuple:
    return tuple(getattr(value, f) for f in value._fields)


@records
def test_equal_only_within_the_class(name):
    value = RECORDS[name][0]
    twin = type(value)(*fields(value))
    assert value == twin and not value != twin
    # the bare tuple, and a record of another class of the same name and fields
    lookalike = record(namedtuple(name, value._fields))(*fields(value))
    for other in (fields(value), lookalike):
        assert value != other and other != value
        assert not value == other and not other == value


def test_a_point_is_not_the_line_of_its_coordinates():
    point, line = ProjPoint((1, 0, 0)), ProjLine((1, 0, 0))
    assert point != line and line != point
    assert not point == line and not line == point
    assert len({point, line}) == 2


@records
def test_hash_of_the_fields(name):
    value = RECORDS[name][0]
    if name == "Generation":  # its `skipped` is a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(fields(value))


@records
def test_fields_are_read_only(name):
    value = RECORDS[name][0]
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)


@records
def test_repr(name):
    value, text = RECORDS[name]
    assert repr(value) == text


@records
def test_replace_and_asdict_round_trip(name):
    value = RECORDS[name][0]
    assert list(value._asdict()) == list(value._fields)
    assert type(value)(**value._asdict()) == value
    assert value._replace() == value
    first = value._fields[0]
    assert value._replace(**{first: getattr(value, first)}) == value


def test_replace_canonicalizes_and_validates():
    """`_replace` builds through the constructor, as `dataclasses.replace` did."""
    assert ProjPoint((1, 2, 3))._replace(coords=(-2, -4, -6)).coords == (1, 2, 3)
    assert ProjLine((1, 0, 0))._replace(coeffs=(0, 5, 0)).coeffs == (0, 1, 0)
    assert Cubic.of([1] * 10)._replace(coeffs=[Fraction(1, 2)] * 10).coeffs == (1,) * 10
    curve = WeierstrassCurve(1, 2)
    assert curve._replace(a="1/2").a == Fraction(1, 2)
    with pytest.raises(ValidationError):
        curve._replace(b=0)
    inv = RECORDS["Involution"][0]
    with pytest.raises(NotInPencil):
        inv._replace(pair_b=(ProjLine((1, 1, 1)), DIAGONALS[1]))


def test_cached_members():
    """`WeierstrassCurve.cubic` and `ConstructionState.provenance` are built
    once per instance, and afresh for a replaced one."""
    curve = WeierstrassCurve(1, 2)
    assert curve.cubic is curve.cubic
    assert curve._replace(a=5).cubic == Cubic.of([1, 0, 5, 0, 0, 2, 0, -1, 0, 0])
    state = run(SeedConfig(*PAIRS), max_points=16, curve=curve.cubic)
    assert state.provenance is state.provenance and len(state.provenance) > 3
    assert state._replace(stats=state.stats[:1]).provenance == state.provenance[:3]
