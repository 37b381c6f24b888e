import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schroeter import serialize
from schroeter.cli import main
from schroeter.cubic import Cubic
from schroeter.engine import Attempt, run
from schroeter.errors import SeedFormatError, brief
from schroeter.projective import ProjPoint
from schroeter.verify import run_suites

from conftest import str_digit_limit
from oracles import coordinate_named, expand_provenance, point_from_json_by_fraction, row_per_line

SEEDS = Path(__file__).parents[1] / "seeds"


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


def _read(reader, arr):
    """The point a reader makes of `arr`, or the message of its SeedFormatError."""
    try:
        return reader(arr)
    except SeedFormatError as exc:
        return f"SeedFormatError: {exc}"


signs = st.sampled_from(["", "-"])
integer_strings = st.one_of(
    st.just("-0"),
    st.builds(lambda sign, zeros, body: sign + "0" * zeros + body,
              signs, st.integers(0, 3), st.text("0123456789", min_size=1, max_size=40)),
    st.builds(lambda sign, digit, n: sign + digit * n,
              signs, st.sampled_from("123456789"), st.integers(1, 10**4)),
)
fall_through = st.one_of(
    st.sampled_from(["1/16", "-3/4", "6/4", "+5", " 5", "5 ", "1e3", "1.5", "1_0",
                     "\u0663", "\uff11\uff12", "0x10", "", "-", "1/0", "abc"]),
    st.integers(-10**6, 10**6),
    st.floats(),
)


class TestIntegerReads:
    """`point_from_json` reads three integer strings without Fraction; any
    point reads as it did when every coordinate went through Fraction."""

    @given(st.lists(st.one_of(integer_strings, fall_through), min_size=2, max_size=3))
    def test_same_point_or_error_as_the_fraction_path(self, arr):
        assert _read(serialize.point_from_json, arr) == _read(point_from_json_by_fraction, arr)

    @given(st.tuples(*[st.integers(-10**30, 10**30)] * 3), st.integers(-10**6, 10**6))
    def test_non_canonical_triples(self, coords, factor):
        arr = [str(factor * v) for v in coords]
        expected = _read(point_from_json_by_fraction, arr)
        assert _read(serialize.point_from_json, arr) == expected
        if any(coords) and factor:
            assert expected == ProjPoint(coords)

    def test_all_zero(self):
        arr = ["0", "0", "0"]
        assert _read(serialize.point_from_json, arr) == _read(point_from_json_by_fraction, arr)
        assert _read(serialize.point_from_json, arr).startswith("SeedFormatError: ")


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

    @pytest.mark.parametrize("name", ["frame", "torsion"])
    def test_dumps_is_the_generic_encoding(self, tmp_path, name):
        """A seed's pairs go through the pairs' template: the checked-in
        seeds and the one seed-from-curve writes are the reference layout
        of `oracles.row_per_line`."""
        path = SEEDS / f"{name}.json"
        if name == "torsion":
            path = tmp_path / "torsion.json"
            assert main(["seed-from-curve", "--a", "5", "--b", "4", "--points", "0,0;2,6;-1,0",
                         "--out", str(path)]) == 0
            assert path.read_text() == (SEEDS / "torsion.json").read_text()
        obj = serialize.load_json(path)
        assert serialize.dumps(obj) == row_per_line(obj)
        assert json.loads(serialize.dumps(obj)) == obj
        assert serialize.dumps(obj) == path.read_text()

    def test_malformed(self):
        with pytest.raises(SeedFormatError):
            serialize.seed_from_json({"pairs": []})
        with pytest.raises(SeedFormatError):
            serialize.seed_from_json([1, 2, 3])
        torsion = serialize.load_json(SEEDS / "torsion.json")
        with pytest.raises(SeedFormatError, match="'a' and 'b'"):
            serialize.seed_from_json({**torsion, "curve": {"a": "5"}})


class TestCubic:
    def test_rational_coefficients(self):
        cubic = serialize.cubic_from_json(["1/2", "0", "0", "0", "0", "0", "0", "-1", "0", "1/3"])
        assert cubic == Cubic.of([3, 0, 0, 0, 0, 0, 0, -6, 0, 2])
        assert serialize.cubic_from_json(["1/2"] * 10) == Cubic.of([1] * 10)

    def test_zero_cubic(self):
        with pytest.raises(SeedFormatError, match="run report"):
            serialize.cubic_from_json(["0"] * 10)


def _with_skipped_row(state):
    """The state with one more attempt at the end of its last generation:
    pairs 2 and 0, skipped for DegenerateLines, stored as a row and counted
    in the stats."""
    last = state.stats[-1]
    skipped = {**last.skipped, "DegenerateLines": last.skipped["DegenerateLines"] + 1}
    last = last._replace(attempted=last.attempted + 1, skipped=skipped)
    row = Attempt(sum(g.attempted for g in state.stats), 2, 0, "skipped", "DegenerateLines")
    return state._replace(rows=(*state.rows, row), stats=(*state.stats[:-1], last))


def _pins(*rows):
    """Digest pins as (name, content, written): `content` is the sha256 of
    the report's value (a verify report's in its earlier layout) as
    `json.dumps(value, indent=2, sort_keys=True)` writes it, with a
    newline, and `written` that of the bytes `dumps` writes.  Each test id
    is the name and the content digest."""
    return [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in rows]


def _assert_pinned(text, content, written, value=None):
    """`value` is the JSON value that `content` pins, by default the one
    `text` holds."""
    value = json.loads(text) if value is None else value
    indented = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == content
    assert hashlib.sha256(text.encode()).hexdigest() == written


def _run_named(request, name, max_points=None):
    """frame@512, curve12@128 with its curve, or the full torsion seed;
    frame and curve12 at another size when `max_points` is given."""
    if name == "frame":
        return run(request.getfixturevalue("golden_frame_seed"), max_points=max_points or 512)
    if name == "curve12":
        curve = request.getfixturevalue("curve12").cubic
        seed = request.getfixturevalue("curve12_seed")
        return run(seed, max_points=max_points or 128, curve=curve)
    curve = request.getfixturevalue("curve54").cubic
    return run(request.getfixturevalue("torsion_seed_full"), curve=curve)


class TestState:
    def test_report_round_trip(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=24)
        obj = serialize.state_to_json(state)
        pairs = [serialize.pair_from_json(p) for p in obj["pairs"]]
        assert tuple(pairs) == state.pairs
        assert serialize.cubic_from_json(obj["curve"]) == state.curve
        assert obj["point_count"] == state.point_count
        assert expand_provenance(obj) == state.provenance

    @pytest.mark.parametrize("name", ["frame", "curve12", "torsion", "quadrilateral", "pencil"])
    def test_report_reads_back_as_the_state(self, request, name):
        """A written report reads back as the state of its run: frame@512,
        curve12@128 with its curve, the full torsion seed, the quadrilateral
        torsion seed, which only passes validation when allowed, and the
        pencil seed's bootstrap, which leaves no unique curve."""
        if name == "quadrilateral":
            curve = request.getfixturevalue("curve54").cubic
            state = run(request.getfixturevalue("torsion_seed_quadrilateral"), curve=curve)
        elif name == "pencil":
            state = run(request.getfixturevalue("pencil_seed"), max_generations=0)
            assert state.curve is None and len(state.curve_basis) == 2
        else:
            state = _run_named(request, name)
        obj = json.loads(serialize.dumps(serialize.state_to_json(state)))
        assert serialize.report_from_json(obj) == state

    def test_read_back_state_verifies_alike(self, curve12, curve12_seed):
        """`run_suites` writes the same verify report on a run's state read
        back from its report as on the state itself."""
        state = run(curve12_seed, max_points=128, curve=curve12.cubic)
        read = serialize.report_from_json(json.loads(serialize.dumps(serialize.state_to_json(state))))
        verified = [serialize.dumps(run_suites(s, curve=curve12).to_json()) for s in (state, read)]
        assert verified[0] == verified[1]

    @pytest.mark.parametrize(
        "name, max_points",
        [pytest.param("frame", 512, id="frame"), pytest.param("frame", 2048, id="frame-2048"),
         pytest.param("curve12", 128, id="curve12"), pytest.param("curve12", 256, id="curve12-256"),
         pytest.param("torsion", None, id="torsion")],
    )
    def test_provenance_is_lossless(self, request, name, max_points):
        """`expand_provenance` gives back every attempt from a v3 report's
        stored rows and labels; the stored rows are the attempts that ran
        the geometry."""
        state = _run_named(request, name, max_points)
        obj = json.loads(serialize.dumps(serialize.state_to_json(state)))
        assert obj["format_version"] == 3
        rows = expand_provenance(obj)
        assert rows == state.provenance
        assert [list(rows[n]) for n, *_ in obj["provenance"]] == obj["provenance"]
        assert [list(row) for row in state.rows] == obj["provenance"]

    def test_skipped_row_keeps_its_reason(self, golden_frame_seed):
        state = _with_skipped_row(run(golden_frame_seed, max_points=24))
        obj = json.loads(serialize.dumps(serialize.state_to_json(state)))
        n = len(state.provenance) - 1
        assert obj["provenance"][-1] == [n, 2, 0, "skipped", "DegenerateLines"]
        assert state.provenance[-1] == (n, 2, 0, "skipped", "DegenerateLines")

    def test_provenance_writes_no_coordinates(self, golden_frame_seed):
        """Each attempt costs a bounded number of bytes, however long the
        coordinates of the pairs it names: the report with every attempt
        written as a row, as `expand_provenance` rebuilds them."""
        state = run(golden_frame_seed, max_points=512)
        obj = serialize.state_to_json(state)
        rows = expand_provenance(obj)
        full = {**obj, "provenance": [list(row) for row in rows]}
        rest = {k: v for k, v in obj.items() if k != "provenance"}
        size = len(serialize.dumps(full).encode())
        assert size <= len(serialize.dumps(rest).encode()) + 80 * len(rows)
        assert len(serialize.dumps(obj)) < size

    def test_csv_shape(self, golden_frame_seed):
        state = run(golden_frame_seed, max_points=24)
        text = serialize.state_points_csv(state)
        lines = text.strip().splitlines()
        assert lines[0] == "pair_id,member,x,y,z"
        assert len(lines) == 1 + state.point_count

    @pytest.mark.parametrize(
        "name, content, written",
        _pins(("frame", "d6c0d017807a180be2ad48c3f1854a03a08a10d95101cb48b983380ea6240e4e",
               "2477256be905df73b0b856b5d0aec9af56af99f53d483814827ce22e3f5927a2"),
              ("curve12", "6c23f6e30bcf8a9f21bf527ea52a71f10bd6fc84e6163b139fde4b9924a2e946",
               "2d943b433d37527d7985a1bf03831148a2274c2812ca4900190f915dbb71772c"),
              ("torsion", "d987fa2d2da8a18e068c1ec96795060b6b943d90543e2243146333810454a528",
               "e17750d81bcd35289abeb5afc38ce6b3a51a5733d6f27b42093155bbe153e074"),
              ("frame@2048", "f031defc025420c1a077b5ee45e1c6a012c0754b7d716c61dad79ea4897f6d74",
               "e3f16d320924a6c2dac3fd6d859f96462eb6e874cf42f920fa3138abee6e6879"),
              ("curve12@256", "082b6fb85f1a9581a45fd99436336a7be38b03f7217d92621d235201213b8a4b",
               "f1e3ecb7089054469903963d0167398d68aa77ba00f9240067e18741e8583e34")),
    )
    def test_report_bytes_pinned(self, request, name, content, written):
        """Any change to the engine that moves a report, or to the writer
        that moves its bytes, fails here; frame@2048 and curve12@256 are the
        reports of perfbench's frame-2048 and curve12-256."""
        name, _, size = name.partition("@")
        if name == "frame":
            state = run(request.getfixturevalue("golden_frame_seed"), max_points=int(size or 512))
        elif name == "curve12":
            curve = request.getfixturevalue("curve12").cubic
            seed = request.getfixturevalue("curve12_seed")
            state = run(seed, max_points=int(size or 128), curve=curve)
        else:
            path = SEEDS / "torsion.json"
            seed, curve = serialize.seed_from_json(serialize.load_json(path))
            state = run(seed, curve=curve.cubic)
        _assert_pinned(serialize.dumps(serialize.state_to_json(state)), content, written)

    @pytest.mark.parametrize(
        "name, content, written",
        _pins(("curve12", "a38b9a6c99285fda8528ff3019633acbe24fa2652bb119f712cd168f0b37186e",
               "6e5b807aaf446d7a55c5cc91af46b567a60578876062b19dbdf88a5c0a37ba2a"),
              ("curve12@256", "9287db82ae7c2bcf411b42a74d8d98d13ccd67e078faac9697aa328ac764d76e",
               "3155d0415ad25f8c520a22dc8e7b1ee4850cdccad2db0b7b3decab96658c0d3e"),
              ("torsion", "501b1824a5a9e72f4c96bab79e7908e5b764007b27463dda11769b4420ace6d5",
               "e71a931f10d4a27eaee46ee53da0695a47dfb7bc405392630869f737bb66adde"),
              ("frame", "268bbed95ebeab147372cb622f6d8cfa5a75d31823289093d2067cd03ac066db",
               "01f7f41ad19af59ca6cb6f69851618fd18164f91702d21f9d25cd34866ab9bc0")),
    )
    def test_verify_report_bytes_pinned(self, verified, name, content, written):
        """Any change to a verify suite that moves a verdict, a detail or a
        check's name fails here; curve12@256 is the verify input of
        perfbench's verify-curve12-256.  `content` pins the report as it
        was before `format_version` 2, each check named by its points'
        coordinates (`oracles.coordinate_named`): the verdicts, details,
        counts and order are still those, and each check's indices name the
        pairs that its coordinates did.  `written` pins the bytes of
        `format_version` 3, which keys each suite's rows by the suite."""
        state, report = verified(name)
        text = serialize.dumps(report.to_json())
        _assert_pinned(text, content, written, coordinate_named(state, json.loads(text)))

    @pytest.mark.parametrize("name", ["frame", "curve12", "torsion", "skipped", "empty", "verify"])
    def test_dumps_is_the_generic_encoding(self, request, name):
        """A run report is written as `oracles.row_per_line` writes it, a
        reason string in place of a child index included, and so is the
        verify report of the torsion seed."""
        if name in ("skipped", "empty"):
            state = run(request.getfixturevalue("golden_frame_seed"), max_points=24)
            if name == "skipped":
                state = _with_skipped_row(state)
            else:
                state = state._replace(rows=(), stats=())
        else:
            state = _run_named(request, "torsion" if name == "verify" else name)
        if name == "verify":
            obj = run_suites(state, curve=request.getfixturevalue("curve54")).to_json()
        else:
            obj = serialize.state_to_json(state)
        assert serialize.dumps(obj) == row_per_line(obj)
        assert json.loads(serialize.dumps(obj)) == obj

    def test_deterministic_dump(self, golden_frame_seed):
        state1 = run(golden_frame_seed, max_points=24)
        state2 = run(golden_frame_seed, max_points=24)
        text1 = serialize.dumps(serialize.state_to_json(state1))
        text2 = serialize.dumps(serialize.state_to_json(state2))
        assert text1 == text2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit before Python 3.11")
def test_long_coordinates_under_a_low_digit_limit(tmp_path, curve12, curve12_seed):
    """The package lifts CPython's limit on int/str conversion only around
    its own decimal conversions, and restores it: under the lowest limit,
    640 digits, a curve12 run with 665-digit coordinates still records its
    `digits`, writes and reads its report and CSV, and names its pairs
    briefly, through the library and through the CLI."""
    seed = tmp_path / "seed.json"
    seed.write_text(serialize.dumps(serialize.seed_to_json(curve12_seed, curve12)))
    report = tmp_path / "run.json"
    with str_digit_limit(640):
        state = run(curve12_seed, max_points=128, curve=curve12.cubic)
        assert state.stats[-1].digits == 665
        report.write_text(serialize.dumps(serialize.state_to_json(state)))
        assert serialize.report_from_json(serialize.load_json(report)) == state
        assert len(serialize.state_points_csv(state).splitlines()) == 1 + state.point_count
        assert len(brief(state.pairs[-1])) == 48
        assert main(["construct", "--seed", str(seed), "--max-points", "128", "--out", str(report)]) == 0
        assert main(["verify", "--report", str(report)]) == 0
        assert sys.get_int_max_str_digits() == 640
