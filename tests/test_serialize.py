import hashlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schroeter import serialize
from schroeter.cubic import Cubic
from schroeter.engine import run
from schroeter.errors import SeedFormatError
from schroeter.projective import ProjPoint
from schroeter.verify import run_suites


rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


class TestRationals:
    @given(rationals)
    def test_round_trip(self, q):
        assert serialize.rat_from_str(serialize.rat_to_str(q)) == q

    def test_integer_form(self):
        assert serialize.rat_to_str(Fraction(3)) == "3"
        assert serialize.rat_to_str(Fraction(-3, 4)) == "-3/4"

    def test_bad_input(self):
        with pytest.raises(SeedFormatError):
            serialize.rat_from_str("3/0")
        with pytest.raises(SeedFormatError):
            serialize.rat_from_str("abc")


class TestPoints:
    def test_round_trip(self):
        p = ProjPoint.of(4, 23, 64)
        assert serialize.point_from_json(serialize.point_to_json(p)) == p

    def test_affine_pair_form(self):
        assert serialize.point_from_json(["1/16", "23/64"]) == ProjPoint.of(4, 23, 64)

    def test_bad_shape(self):
        with pytest.raises(SeedFormatError):
            serialize.point_from_json(["1"])
        with pytest.raises(SeedFormatError):
            serialize.point_from_json(["0", "0", "0"])


class TestSeed:
    def test_round_trip(self, golden_frame_seed):
        obj = serialize.seed_to_json(golden_frame_seed)
        seed, curve = serialize.seed_from_json(obj)
        assert seed == golden_frame_seed
        assert curve is None

    def test_embedded_curve(self, curve54, torsion_seed_full):
        obj = serialize.seed_to_json(torsion_seed_full, curve54)
        seed, curve = serialize.seed_from_json(obj)
        assert curve == curve54

    def test_malformed(self):
        with pytest.raises(SeedFormatError):
            serialize.seed_from_json({"pairs": []})
        with pytest.raises(SeedFormatError):
            serialize.seed_from_json([1, 2, 3])


class TestCubic:
    def test_rational_coefficients(self):
        cubic = serialize.cubic_from_json(["1/2", "0", "0", "0", "0", "0", "0", "-1", "0", "1/3"])
        assert cubic == Cubic.of([3, 0, 0, 0, 0, 0, 0, -6, 0, 2])
        assert serialize.cubic_from_json(["1/2"] * 10) == Cubic.of([1] * 10)

    def test_zero_cubic(self):
        with pytest.raises(SeedFormatError, match="run report"):
            serialize.cubic_from_json(["0"] * 10)


class TestState:
    def test_report_round_trip(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=24)
        obj = serialize.state_to_json(state)
        pairs = [serialize.pair_from_json(p) for p in obj["pairs"]]
        assert tuple(pairs) == state.pairs
        assert serialize.cubic_from_json(obj["curve"]) == state.curve
        assert obj["point_count"] == state.point_count
        assert len(obj["provenance"]) == len(state.provenance)

    def test_csv_shape(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=24)
        text = serialize.state_points_csv(state)
        lines = text.strip().splitlines()
        assert lines[0] == "pair_id,member,x,y,z"
        assert len(lines) == 1 + state.point_count

    @pytest.mark.parametrize(
        "name, digest",
        [("frame", "d002364b5a83e3917349c16d4a891d8264ab069ea2dad3bd6218242c85b53c2e"),
         ("curve12", "f73a931b27ddff3cda147d46d34899e83a1829c26ae1fc8f5c0e24e11daedab9"),
         ("torsion", "a3169adb854bc0e4d4806f887f5a90171004a4850df12927f8dc60ff670f02a5")],
    )
    def test_report_bytes_pinned(self, request, name, digest):
        """Any change to the engine or the writer that moves a report fails here."""
        if name == "frame":
            state = run(request.getfixturevalue("golden_frame_seed"), max_points=512)
        elif name == "curve12":
            curve = request.getfixturevalue("curve12").cubic
            state = run(request.getfixturevalue("curve12_seed"), max_points=128, curve=curve)
        else:
            path = Path(__file__).parents[1] / "seeds" / "torsion.json"
            seed, curve = serialize.seed_from_json(serialize.load_json(path))
            state = run(seed, curve=curve.cubic)
        text = serialize.dumps(serialize.state_to_json(state))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, digest",
        [("curve12", "a38b9a6c99285fda8528ff3019633acbe24fa2652bb119f712cd168f0b37186e"),
         ("torsion", "501b1824a5a9e72f4c96bab79e7908e5b764007b27463dda11769b4420ace6d5"),
         ("frame", "268bbed95ebeab147372cb622f6d8cfa5a75d31823289093d2067cd03ac066db")],
    )
    def test_verify_report_bytes_pinned(self, request, name, digest):
        """Any change to a verify suite that moves a verdict or a detail fails here."""
        if name == "curve12":
            curve = request.getfixturevalue("curve12")
            state = run(request.getfixturevalue("curve12_seed"), max_points=128, curve=curve.cubic)
        elif name == "torsion":
            curve = request.getfixturevalue("curve54")
            state = run(request.getfixturevalue("torsion_seed_full"), curve=curve.cubic)
        else:
            curve = None
            state = run(request.getfixturevalue("golden_frame_seed"), max_points=128)
        text = serialize.dumps(run_suites(state, curve=curve).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_deterministic_dump(self, golden_frame_seed):
        state1 = run(golden_frame_seed, max_points=24, scheduler_seed=5)
        state2 = run(golden_frame_seed, max_points=24, scheduler_seed=6)
        text1 = serialize.dumps(serialize.state_to_json(state1))
        text2 = serialize.dumps(serialize.state_to_json(state2))
        assert text1 == text2
