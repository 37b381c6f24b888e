import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schroeter import cli, serialize
from schroeter.cli import main
from schroeter.engine import Attempt, replay_report, run
from schroeter.errors import InvariantViolation
from schroeter.projective import ProjPoint

TORSION_ARGS = ["--a", "5", "--b", "4", "--points", "0,0;2,6;-1,0"]
SEEDS = Path(__file__).parents[1] / "seeds"


@pytest.fixture
def torsion_seed_file(tmp_path):
    path = tmp_path / "torsion.json"
    assert main(["seed-from-curve", *TORSION_ARGS, "--out", str(path)]) == 0
    return path


class TestSeedFromCurve:
    def test_writes_valid_seed(self, torsion_seed_file):
        seed, curve = serialize.seed_from_json(serialize.load_json(torsion_seed_file))
        assert curve is not None and str(curve.a) == "5"
        points = {p for pair in seed.pairs for p in pair.points}
        assert ProjPoint.of(0, 1, 0) in points

    def test_curve12_seed(self, tmp_path):
        out = tmp_path / "w12.json"
        code = main([
            "seed-from-curve", "--a", "1", "--b", "2",
            "--points", "1,2;2,4;1/16,23/64", "--out", str(out),
        ])
        assert code == 0
        seed, _ = serialize.seed_from_json(serialize.load_json(out))
        assert ProjPoint.of(4, 23, 64) in (p for pair in seed.pairs for p in pair.points)

    def test_point_off_curve(self, capsys):
        assert main(["seed-from-curve", "--a", "1", "--b", "2", "--points", "1,3;2,4;1,2"]) == 1

    def test_quadrilateral_rejected(self):
        assert main(["seed-from-curve", "--a", "5", "--b", "4", "--points", "2,6;-2,2;-1,0"]) == 1

    @pytest.mark.parametrize("a", ["x", "1/0"])
    def test_bad_rational(self, capsys, a):
        assert main(["seed-from-curve", "--a", a, *TORSION_ARGS[2:]]) == 1
        assert capsys.readouterr().err.startswith("error: bad rational")


class TestConstruct:
    def test_torsion_run(self, torsion_seed_file, tmp_path, capsys):
        out = tmp_path / "run.json"
        svg = tmp_path / "run.svg"
        code = main([
            "construct", "--seed", str(torsion_seed_file),
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "points=8" in stdout and "closed=true" in stdout
        report = json.loads(out.read_text())
        assert report["closed"] is True
        assert report["point_count"] == 8
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("command", ["construct", "verify"])
    def test_overlapping_bootstrap_seed(self, tmp_path, capsys, command):
        """A seed whose bootstrap child {(0:0:1), (21:-3:1)} shares a point
        with a seed pair is an input error, not an invariant violation."""
        path = tmp_path / "seed.json"
        pairs = [[(0, 0, 1), (0, 1, 0)], [(1, 0, 0), (1, 1, 1)], [(3, 3, -1), (6, 0, 1)]]
        path.write_text(json.dumps({"pairs": [[[str(c) for c in p] for p in pair] for pair in pairs]}))
        assert main([command, "--seed", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the bootstrap child {(0 : 0 : 1), (21 : -3 : 1)} ")

    def test_round_trip_points(self, torsion_seed_file, tmp_path):
        out = tmp_path / "run.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        report = json.loads(out.read_text())
        reread = [serialize.pair_from_json(p) for p in report["pairs"]]
        again = tmp_path / "again.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(again)])
        assert json.loads(again.read_text())["pairs"] == report["pairs"]
        assert all(pair.first.coords < pair.second.coords for pair in reread)

    def test_csv_output(self, torsion_seed_file, tmp_path):
        out = tmp_path / "run.csv"
        main(["construct", "--seed", str(torsion_seed_file), "--format", "csv", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pair_id,member,x,y,z"
        assert len(lines) == 9

    @pytest.mark.parametrize(
        "option, output", [(["--format", "csv"], "--out"), (["--tangents"], "--svg")], ids=["format", "tangents"]
    )
    def test_option_without_its_output(self, torsion_seed_file, monkeypatch, capsys, option, output):
        """`--format` without `--out`, or `--tangents` without `--svg`, is an
        input error that names it, before the run and with nothing written."""

        def no_run(*args, **kwargs):
            raise AssertionError("the construction ran")

        monkeypatch.chdir(torsion_seed_file.parent)
        monkeypatch.setattr(cli, "run", no_run)
        assert main(["construct", "--seed", "torsion.json", *option]) == 1
        assert capsys.readouterr().err == f"error: construct {option[0]} takes effect only with {output}\n"
        assert os.listdir() == ["torsion.json"]

    def test_capped_run(self, tmp_path):
        seed_path = tmp_path / "frame.json"
        seed_path.write_text(json.dumps({
            "pairs": [
                [["0", "0", "1"], ["0", "1", "0"]],
                [["1", "0", "0"], ["1", "1", "1"]],
                [["2", "3", "1"], ["5", "1", "1"]],
            ]
        }))
        out = tmp_path / "run.json"
        assert main(["construct", "--seed", str(seed_path), "--max-points", "100",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["point_count"] == 100
        assert report["closed"] is False

    @pytest.mark.parametrize(
        "command, caps",
        [("construct", ["--max-points", "5"]), ("construct", ["--max-points", "0"]),
         ("construct", ["--max-generations", "-1"]), ("verify", ["--max-points", "-4"])],
    )
    def test_caps_rejected(self, torsion_seed_file, capsys, command, caps):
        assert main([command, "--seed", str(torsion_seed_file), *caps]) == 1
        assert "must" in capsys.readouterr().err

    def test_malformed_seed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["construct", "--seed", str(bad)]) == 1

    def test_missing_seed(self, tmp_path):
        assert main(["construct", "--seed", str(tmp_path / "nope.json")]) == 1

    def test_seed_dir_lookup(self, torsion_seed_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHROETER_SEED_DIR", str(torsion_seed_file.parent))
        monkeypatch.chdir(tmp_path)
        assert main(["construct", "--seed", torsion_seed_file.name]) == 0

    def test_determinism_bytes(self, torsion_seed_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(a)])
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_twisted_cubic(self, tmp_path, capsys):
        pts = [[str(t), str(t ** 3)] for t in (-4, -3, -2, -1, 0, 1, 2, 3, 5)]
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(pts))
        assert main(["fit", "--points", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1 0 0 0 0 0 0 0 -1 0"

    def test_conic_ambiguous(self, tmp_path):
        pts = [[str(t * t), str(t)] for t in range(-4, 5)]
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(pts))
        assert main(["fit", "--points", str(path)]) == 2

    def test_wrong_count(self, tmp_path):
        pts = [[str(t), str(t ** 3)] for t in range(8)]
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(pts))
        assert main(["fit", "--points", str(path)]) == 1


class TestVerify:
    def test_torsion_all_suites(self, torsion_seed_file, capsys):
        assert main(["verify", "--seed", str(torsion_seed_file)]) == 0
        out = capsys.readouterr().out
        assert "fail=" not in out

    def test_report_revalidation(self, torsion_seed_file, tmp_path):
        out = tmp_path / "run.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        assert main(["verify", "--report", str(out)]) == 0

    def test_corrupted_report(self, torsion_seed_file, tmp_path):
        out = tmp_path / "run.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        data = json.loads(out.read_text())
        data["pairs"][0][0][0] = "7"
        out.write_text(json.dumps(data))
        assert main(["verify", "--report", str(out)]) == 3

    @pytest.mark.parametrize("corruption", ["repeated pair", "shared point"])
    def test_repeated_point_report(self, torsion_seed_file, tmp_path, corruption):
        out = tmp_path / "run.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        data = json.loads(out.read_text())
        pairs = data["pairs"]
        if corruption == "repeated pair":
            pairs.append(pairs[0])
        else:
            pairs[1][0] = pairs[0][0]
        out.write_text(json.dumps(data))
        assert main(["verify", "--report", str(out)]) == 3

    def test_rational_curve_report(self, torsion_seed_file, tmp_path):
        out = tmp_path / "run.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        data = json.loads(out.read_text())
        for cubic in (data["curve"], *data["curve_basis"]):
            cubic[:] = [f"{c}/2" for c in cubic]
        out.write_text(json.dumps(data))
        assert main(["verify", "--report", str(out)]) == 0
        assert main(["plot", "--report", str(out), "--out", str(tmp_path / "run.svg")]) == 0

    @pytest.mark.parametrize(
        "option",
        [["--seed", "torsion.json"], ["--suite", "chords"], ["--a", "5"], ["--b", "4"],
         ["--max-points", "128"], ["--out", "verify.json"], ["--verbose"]],
    )
    def test_report_takes_no_run_option(self, torsion_seed_file, monkeypatch, capsys, option):
        """`verify --report` re-checks a report; an option of a verify run is
        an input error that names it, never silently dropped."""
        monkeypatch.chdir(torsion_seed_file.parent)
        main(["construct", "--seed", "torsion.json", "--out", "run.json"])
        capsys.readouterr()
        assert main(["verify", "--report", "run.json", *option]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option[0] in err
        assert not Path("verify.json").exists()

    def test_run_options_of_a_seed_run(self, torsion_seed_file, monkeypatch, capsys):
        """A `verify --seed` run caps at 128 points unless --max-points says
        otherwise, and prints each check only with --verbose."""
        caps = []

        def spy(seed, **kwargs):
            caps.append(kwargs["max_points"])
            return run(seed, **kwargs)

        monkeypatch.setattr(cli, "run", spy)
        assert main(["verify", "--seed", str(torsion_seed_file)]) == 0
        quiet = capsys.readouterr().out
        assert main(["verify", "--seed", str(torsion_seed_file), "--max-points", "64", "--verbose"]) == 0
        verbose = capsys.readouterr().out
        assert caps == [128, 64]
        assert quiet.startswith("verify: ") and "[      pass] chasles: " in verbose

    def test_unknown_suite(self, torsion_seed_file, capsys, monkeypatch):
        """An unknown suite is rejected before the construction runs."""

        def no_run(*args, **kwargs):
            raise AssertionError("the construction ran")

        monkeypatch.setattr(cli, "run", no_run)
        for also in ([], ["--suite", "all"]):
            assert main(["verify", "--seed", str(torsion_seed_file), *also, "--suite", "nonsense"]) == 1
            assert capsys.readouterr().err.startswith("error: unknown suite 'nonsense'; choose from 'all', ")

    def test_curve12_256_report_counts(self, tmp_path, capsys):
        """perfbench's verify-curve12-256 runs this command; it looks for the
        count line on stdout and reads `counts` and `ok` from the report."""
        seed, out = tmp_path / "curve12.json", tmp_path / "verify.json"
        assert main(["seed-from-curve", "--a", "1", "--b", "2", "--points", "1,2;2,4;1/16,23/64",
                     "--out", str(seed)]) == 0
        capsys.readouterr()
        assert main(["verify", "--seed", str(seed), "--max-points", "256", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == ["verify: degenerate=17 pass=734", f"wrote {out}"]
        report = json.loads(out.read_text())
        assert report["counts"] == {"degenerate": 17, "pass": 734}
        assert report["ok"] is True

    @pytest.mark.parametrize("model", [["--a", "1", "--b", "zz"], ["--a", "5"], ["--b", "4"]])
    def test_bad_model(self, torsion_seed_file, capsys, model):
        """A bad rational, or only one of --a and --b, is an input error."""
        assert main(["verify", "--seed", str(torsion_seed_file), *model]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_no_command_imports_dataclasses(tmp_path):
    """Every command runs without `dataclasses` and the `inspect` it
    imports, which cost each command start-up time.  Modules that a bare
    interpreter has already loaded, through a site hook say, do not count."""
    points = [[str(t), str(t ** 3)] for t in (-4, -3, -2, -1, 0, 1, 2, 3, 5)]
    (tmp_path / "pts.json").write_text(json.dumps(points))
    commands = [
        ["seed-from-curve", *TORSION_ARGS, "--out", "seed.json"],
        ["construct", "--seed", "seed.json", "--out", "run.json", "--svg", "run.svg", "--tangents"],
        ["verify", "--seed", "seed.json"],
        ["verify", "--report", "run.json"],
        ["plot", "--report", "run.json", "--out", "plot.svg"],
        ["fit", "--points", "pts.json"],
    ]
    loaded = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    code = (
        "import json, sys\n"
        "from schroeter.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n" + loaded
    )
    source = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}

    def modules(*args):
        out = subprocess.run(
            [sys.executable, "-c", *args], capture_output=True, text=True, check=True,
            env=env, cwd=tmp_path,
        )
        return out.stdout.splitlines()[-1]

    bare = modules("import sys; " + loaded)
    assert modules(code, json.dumps(commands)) == bare
    assert 'stroke="#999999"' in (tmp_path / "run.svg").read_text()


def _seed_only_report(generations: int) -> dict:
    """A v3 report of the three seed pairs of seeds/torsion.json, with unit
    labels and no attempts."""
    obj = serialize.load_json(SEEDS / "torsion.json")
    seed, curve = serialize.seed_from_json(obj)
    pairs = [serialize.pair_to_json(pair) for pair in seed.pairs]
    return {
        "format_version": 3, "seed": pairs, "pairs": pairs,
        "curve": serialize.cubic_to_json(curve.cubic), "curve_basis": [],
        "labels": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "relations": [],
        "stats": [], "provenance": [], "generations": generations,
        "pair_count": 3, "point_count": 6, "closed": False,
    }


# The stats of a bootstrap whose three attempts were all duplicates.
_BOOTSTRAP = {
    "pending": 3, "attempted": 3, "new": 0, "duplicate": 3,
    "skipped": {"DegenerateLines": 0, "SharedPoint": 0}, "digits": 1,
}


@pytest.mark.parametrize("command", ["verify", "plot"])
@pytest.mark.parametrize(
    "content",
    [[], {"pairs": 5}, {"curve": None}, {"pairs": [], "curve_basis": 5},
     {"pairs": [], "curve": ["0"] * 10}, {"pairs": [], "curve_basis": [["0"] * 10]},
     {"pairs": [], "format_version": 1}, {"pairs": [], "format_version": 3},
     {"pairs": [], "format_version": 4},
     {"pairs": [], "format_version": "2"}, {"pairs": [], "format_version": None},
     _seed_only_report(-1),
     {**_seed_only_report(0), "stats": [{**_BOOTSTRAP, "attempted": -5}]},
     {**_seed_only_report(0),
      "stats": [{**_BOOTSTRAP, "skipped": {"DegenerateLines": 0, "SharedPoint": -1}}]},
     {**_seed_only_report(0), "pairs": 5}, {**_seed_only_report(0), "curve_basis": 5},
     {**_seed_only_report(0), "curve": ["0"] * 10}, {**_seed_only_report(0), "seed": []}],
)
def test_malformed_report(tmp_path, capsys, command, content):
    report = tmp_path / "bad.json"
    report.write_text(json.dumps(content))
    out = ["--out", str(tmp_path / "bad.svg")] if command == "plot" else []
    assert main([command, "--report", str(report), *out]) == 1
    assert "run report" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "plot"])
@pytest.mark.parametrize("version", [None, 2])
def test_earlier_layouts_are_not_read(torsion_seed_file, tmp_path, capsys, command, version):
    """A report of the first layout, which has no format_version, or of
    version 2 is an input error that names its layout and how to replace it."""
    path = tmp_path / "run.json"
    main(["construct", "--seed", str(torsion_seed_file), "--out", str(path)])
    report = json.loads(path.read_text())
    if version is None:
        del report["format_version"]
    else:
        report["format_version"] = version
    path.write_text(json.dumps(report))
    capsys.readouterr()
    out = ["--out", str(tmp_path / "run.svg")] if command == "plot" else []
    assert main([command, "--report", str(path), *out]) == 1
    err = capsys.readouterr().err
    layout = "no format_version" if version is None else f"format_version {version}"
    assert err.startswith(f"error: this run report has {layout}; ")
    assert "regenerate the report from its seed" in err


@pytest.mark.parametrize(
    "command", [["construct", "--seed"], ["verify", "--report"], ["plot", "--report"], ["fit", "--points"]],
)
def test_non_utf8_input(tmp_path, capsys, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    out = ["--out", str(tmp_path / "bad.svg")] if command[0] == "plot" else []
    assert main([*command, str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


OUTPUTS = pytest.mark.parametrize(
    "command, output",
    [(["construct", "--seed"], "--out"), (["construct", "--seed"], "--svg"),
     (["verify", "--seed"], "--out"), (["plot", "--report"], "--out")],
    ids=["construct-out", "construct-svg", "verify-out", "plot-out"],
)


def bad_output(capsys, monkeypatch, command, output, path) -> str:
    """The stderr of a command whose output `path` cannot be written; it
    must exit 1 and print nothing, before the run, and for `plot` before
    the read."""

    def no_run(*args, **kwargs):
        raise AssertionError("the construction ran")

    monkeypatch.setattr(cli, "run", no_run)
    assert main([*command, str(SEEDS / "torsion.json"), output, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@OUTPUTS
def test_output_in_a_missing_directory(tmp_path, capsys, monkeypatch, command, output):
    """An output path whose directory does not exist is an input error
    that names the path."""
    path = tmp_path / "missing" / "out.json"
    err = bad_output(capsys, monkeypatch, command, output, path)
    assert err == f"error: cannot write {path}: no such directory\n"


@OUTPUTS
def test_output_that_is_a_directory(tmp_path, capsys, monkeypatch, command, output):
    """An output path that names a directory is an input error that names
    the path, not an OSError once the run is done."""
    err = bad_output(capsys, monkeypatch, command, output, tmp_path)
    assert err == f"error: cannot write {tmp_path}: it is a directory\n"


@pytest.mark.parametrize(
    "command", [["construct", "--seed"], ["verify", "--report"], ["plot", "--report"], ["fit", "--points"]],
)
def test_deeply_nested_input(tmp_path, capsys, command):
    """JSON nested deeper than the parser's recursion limit is an input
    error that names the file, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    out = ["--out", str(tmp_path / "bad.svg")] if command[0] == "plot" else []
    assert main([*command, str(path), *out]) == 1
    assert capsys.readouterr().err == f"error: {path}: invalid JSON (nested too deeply)\n"


# perfbench/tracer.py's TARGETS wraps these names on `schroeter.cli` to time
# each layer; a refactor that drops one or stops calling it through the
# module global would silently empty that layer's spans.
TRACED_NAMES = ("main", "run", "run_suites", "revalidate_points", "render_svg")


def test_benchmark_traced_names(torsion_seed_file, tmp_path, monkeypatch, capsys):
    """The traced names are callables on `schroeter.cli`, and `construct
    --svg`, `verify --seed`, `verify --report` and `plot` call their layers
    through them."""
    assert [name for name in TRACED_NAMES if not callable(getattr(cli, name, None))] == []
    called = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in TRACED_NAMES:
        spy(name)
    report, svg = str(tmp_path / "run.json"), str(tmp_path / "run.svg")
    commands = [
        ["construct", "--seed", str(torsion_seed_file), "--out", report, "--svg", svg],
        ["verify", "--seed", str(torsion_seed_file), "--suite", "chasles"],
        ["verify", "--report", report],
        ["plot", "--report", report, "--out", svg],
    ]
    assert [cli.main(argv) for argv in commands] == [0, 0, 0, 0]
    assert called == [
        "main", "run", "render_svg", "main", "run", "run_suites",
        "main", "revalidate_points", "main", "render_svg",
    ]


class TestPlot:
    def test_renders_run(self, torsion_seed_file, tmp_path):
        out = tmp_path / "run.json"
        svg = tmp_path / "run.svg"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        assert main(["plot", "--report", str(out), "--out", str(svg), "--tangents"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "circle" in text

    def test_old_layout_reports_still_read(self, tmp_path, capsys):
        """A frame@2048 report in the layout written before each row had a
        line of its own, its value through `json.dumps(indent=2)`, reads
        as the same state, and `verify --report` and `plot --tangents` give
        the same line and the same SVG as on the report as written."""
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        assert main(["construct", "--seed", str(SEEDS / "frame.json"), "--max-points", "2048",
                     "--out", str(new)]) == 0
        old.write_text(json.dumps(json.loads(new.read_text()), indent=2, sort_keys=True) + "\n")
        assert old.read_bytes() != new.read_bytes()
        states = [serialize.report_from_json(serialize.load_json(path)) for path in (new, old)]
        assert states[0] == states[1]
        capsys.readouterr()
        for path in (new, old):
            assert main(["verify", "--report", str(path)]) == 0
            assert capsys.readouterr().out == "report ok: 2048 points on the recorded curve\n"
            svg = path.with_suffix(".svg")
            assert main(["plot", "--report", str(path), "--tangents", "--out", str(svg)]) == 0
            capsys.readouterr()
            digest = hashlib.sha256(svg.read_bytes()).hexdigest()
            assert digest == "5ef3c4abbaa81a62666bc1752fe249b17b866a52b428d62b0b5e335ffc564c5b"


@pytest.fixture(scope="module")
def frame_report(tmp_path_factory):
    """The v3 report of frame@128, cut by the point cap in its last
    generation, and a directory to write altered copies to."""
    directory = tmp_path_factory.mktemp("reports")
    out = directory / "frame.json"
    seed = Path(__file__).parents[1] / "seeds" / "frame.json"
    assert main(["construct", "--seed", str(seed), "--max-points", "128", "--out", str(out)]) == 0
    return json.loads(out.read_text()), directory


def _verify(report: dict, directory) -> int:
    path = directory / "altered.json"
    path.write_text(json.dumps(report))
    return main(["verify", "--report", str(path)])


def _two(data, n: int, label: str) -> tuple[int, int]:
    """Two distinct indices below n, in increasing order."""
    a = data.draw(st.integers(0, n - 1), label=f"{label} a")
    b = data.draw(st.integers(0, n - 1).filter(lambda b: b != a), label=f"{label} b")
    return min(a, b), max(a, b)


class TestReportReplay:
    """`verify --report` exits 3 on a report whose rows, labels or stats do
    not hold, and 0 on the report as written."""

    def test_unaltered_reports_pass(self, frame_report):
        report, directory = frame_report
        assert _verify(report, directory) == 0
        path = directory / "altered.json"
        assert main(["plot", "--report", str(path), "--out", str(directory / "run.svg")]) == 0

    def test_stored_rows_are_few(self, frame_report):
        report, _ = frame_report
        stats = report["stats"]
        assert stats[-1]["attempted"] < stats[-1]["pending"]
        assert len(report["provenance"]) < sum(g["attempted"] for g in stats) / 2

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_swapped_partners(self, frame_report, data):
        """Two pairs trade one member each: every point stays on the curve
        and appears once, but a row that makes or uses them fails to replay."""
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        pairs = altered["pairs"]
        a, b = _two(data, len(pairs), "pair")
        ma, mb = data.draw(st.integers(0, 1), label="member a"), data.draw(st.integers(0, 1))
        pairs[a][ma], pairs[b][mb] = pairs[b][mb], pairs[a][ma]
        assert _verify(altered, directory) == 3

    @pytest.mark.parametrize(
        "row, replays",
        [((5, 5, "SharedPoint"), True), ((5, 5, "DegenerateLines"), False),
         ((0, 3, "DegenerateLines"), False)],
    )
    def test_skipped_rows_replay_their_error(self, frame_report, row, replays):
        """A skipped row replays when `combine` raises the error it names.
        The row is one more attempt at the end of the last generation,
        counted in its stats.  It is never the attempt due there, so the
        history check fails after the row replays; a row that does not
        replay fails first."""
        report, _ = frame_report
        state = serialize.report_from_json(report)
        i, j, reason = row
        last = state.stats[-1]
        skipped = {**last.skipped, reason: last.skipped[reason] + 1}
        last = last._replace(attempted=last.attempted + 1, skipped=skipped)
        appended = Attempt(sum(g.attempted for g in state.stats), i, j, "skipped", reason)
        state = state._replace(rows=(*state.rows, appended), stats=(*state.stats[:-1], last))
        with pytest.raises(InvariantViolation) as exc:
            replay_report(state)
        message = str(exc.value)
        assert ("does not replay" not in message) == replays
        if replays:
            assert "not the attempt due at its ordinal" in message

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_edited_label(self, frame_report, data):
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        label = altered["labels"][data.draw(st.integers(0, len(altered["labels"]) - 1))]
        label[data.draw(st.integers(0, 3))] += data.draw(st.integers(-3, 3).filter(bool))
        assert _verify(altered, directory) == 3

    def test_edited_curve(self, frame_report, capsys):
        """The points are checked on the recorded `curve` as well as on
        `curve_basis`, so a report whose curve misses them fails."""
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        altered["curve"][0] = str(Fraction(altered["curve"][0]) + 1)
        assert _verify(altered, directory) == 3
        assert "off the recorded curve" in capsys.readouterr().err

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_dropped_row(self, frame_report, data):
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        del altered["provenance"][data.draw(st.integers(0, len(altered["provenance"]) - 1))]
        assert _verify(altered, directory) == 3

    def test_dropped_relation_row(self, frame_report):
        """The duplicate row that taught the frame's relation is the one
        that explains it."""
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        rows = altered["provenance"]
        (duplicate,) = [row for row in rows if row[3] == "duplicate"]
        rows.remove(duplicate)
        assert _verify(altered, directory) == 3

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_reordered_rows(self, frame_report, data):
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        rows = altered["provenance"]
        a, b = _two(data, len(rows), "row")
        rows[a], rows[b] = rows[b], rows[a]
        assert _verify(altered, directory) == 3

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_moved_row(self, frame_report, data):
        """A stored row moved to a free ordinal of its own generation keeps
        every count and label; only the attempt due there tells."""
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        rows = altered["provenance"]
        # the run's last row stays: it ends the generation the point cap cut
        row = rows[data.draw(st.integers(0, len(rows) - 2), label="row")]
        end = 0
        for entry in altered["stats"]:
            start, end = end, end + entry["attempted"]
            if row[0] < end:
                break
        free = sorted(set(range(start, end)) - {r[0] for r in rows})
        assume(free)
        row[0] = data.draw(st.sampled_from(free), label="ordinal")
        rows.sort()
        assert _verify(altered, directory) == 3

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_swapped_parents(self, frame_report, data):
        """`combine` is symmetric, so a row with its parents swapped still
        replays, but it is not the attempt due at its ordinal."""
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        row = altered["provenance"][data.draw(st.integers(0, len(altered["provenance"]) - 1))]
        row[1], row[2] = row[2], row[1]
        assert _verify(altered, directory) == 3

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_edited_digits(self, frame_report, data):
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        entry = altered["stats"][data.draw(st.integers(0, len(altered["stats"]) - 1))]
        entry["digits"] += data.draw(st.integers(-min(5, entry["digits"]), 5).filter(bool))
        assert _verify(altered, directory) == 3

    @pytest.mark.parametrize(
        "field, value",
        [("closed", True), ("pair_count", 7), ("point_count", 99), ("generations", 2)],
    )
    def test_edited_summary(self, frame_report, field, value):
        """The reader checks the fields the state derives, for plot too."""
        report, directory = frame_report
        assert report[field] != value
        assert _verify({**report, field: value}, directory) == 3
        path = directory / "altered.json"
        assert main(["plot", "--report", str(path), "--out", str(directory / "run.svg")]) == 3

    def test_wrong_duplicate_count(self, frame_report):
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        altered["stats"][-1]["duplicate"] += 1
        assert _verify(altered, directory) == 3

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_wrong_attempt_count(self, frame_report, data):
        report, directory = frame_report
        altered = json.loads(json.dumps(report))
        entry = altered["stats"][data.draw(st.integers(0, len(altered["stats"]) - 1))]
        entry["attempted"] += data.draw(st.integers(-min(5, entry["attempted"]), 5).filter(bool))
        assert _verify(altered, directory) == 3
