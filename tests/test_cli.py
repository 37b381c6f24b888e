import json

import pytest

from schroeter import serialize
from schroeter.cli import main
from schroeter.projective import ProjPoint

TORSION_ARGS = ["--a", "5", "--b", "4", "--points", "0,0;2,6;-1,0"]


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
        assert ProjPoint.of(4, 23, 64) in seed.points

    def test_point_off_curve(self, capsys):
        assert main(["seed-from-curve", "--a", "1", "--b", "2", "--points", "1,3;2,4;1,2"]) == 1

    def test_quadrilateral_rejected(self):
        assert main(["seed-from-curve", "--a", "5", "--b", "4", "--points", "2,6;-2,2;-1,0"]) == 1


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
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(a),
              "--scheduler-seed", "1"])
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(b),
              "--scheduler-seed", "424242"])
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

    def test_version_1_report(self, torsion_seed_file, tmp_path):
        """A report in the first layout, without "format_version" and with
        each parent and child written out in full, still reads."""
        out = tmp_path / "run.json"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        data = json.loads(out.read_text())
        del data["format_version"]
        labels = ["|".join(":".join(point) for point in pair) for pair in data["pairs"]]
        data["provenance"] = [
            {
                "parents": [labels[i], labels[j]],
                "child": None if status == "skipped" else labels[k],
                "skipped": status == "skipped",
                "status": status,
                "reason": k if status == "skipped" else None,
            }
            for i, j, status, k in data["provenance"]
        ]
        out.write_text(json.dumps(data))
        assert main(["verify", "--report", str(out)]) == 0
        assert main(["plot", "--report", str(out), "--out", str(tmp_path / "run.svg")]) == 0

    def test_unknown_suite(self, torsion_seed_file):
        assert main(["verify", "--seed", str(torsion_seed_file), "--suite", "nonsense"]) == 1


@pytest.mark.parametrize("command", ["verify", "plot"])
@pytest.mark.parametrize(
    "content",
    [[], {"pairs": 5}, {"curve": None}, {"pairs": [], "curve_basis": 5},
     {"pairs": [], "curve": ["0"] * 10}, {"pairs": [], "curve_basis": [["0"] * 10]},
     {"pairs": [], "format_version": 1}, {"pairs": [], "format_version": 3},
     {"pairs": [], "format_version": "2"}, {"pairs": [], "format_version": None}],
)
def test_malformed_report(tmp_path, capsys, command, content):
    report = tmp_path / "bad.json"
    report.write_text(json.dumps(content))
    out = ["--out", str(tmp_path / "bad.svg")] if command == "plot" else []
    assert main([command, "--report", str(report), *out]) == 1
    assert "run report" in capsys.readouterr().err


class TestPlot:
    def test_renders_run(self, torsion_seed_file, tmp_path):
        out = tmp_path / "run.json"
        svg = tmp_path / "run.svg"
        main(["construct", "--seed", str(torsion_seed_file), "--out", str(out)])
        assert main(["plot", "--report", str(out), "--out", str(svg), "--tangents"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "circle" in text

    def test_empty_point_set(self, tmp_path):
        report = tmp_path / "empty.json"
        report.write_text(json.dumps({"pairs": [], "curve": None}))
        svg = tmp_path / "empty.svg"
        assert main(["plot", "--report", str(report), "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
