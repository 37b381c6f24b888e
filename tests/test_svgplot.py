import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import schroeter
from schroeter import svgplot
from schroeter.cli import main
from schroeter.cubic import Cubic, tangent_at
from schroeter.engine import PointPair, run
from schroeter.projective import ProjPoint
from schroeter.svgplot import _roots_in, render_svg
from schroeter.weierstrass import WeierstrassCurve

SEEDS = Path(__file__).parents[1] / "seeds"


def test_tangents_with_coefficients_beyond_float_range(curve12, curve12_seed):
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    points = [p for pair in state.pairs for p in pair.points]
    assert max(abs(c) for p in points for c in tangent_at(curve12.cubic, p).coeffs) > 10**308
    text = render_svg(state.pairs, curve12.cubic, tangents=True)
    assert text.startswith("<svg") and 'stroke="#999999"' in text


def test_tangent_segments_are_those_of_the_canonical_line(monkeypatch):
    # raw gradients with a negative or zero entry, in boxes whose edges meet
    # the tangents at 0, where a flipped sign would show as -0.00
    curves = {(a, b): WeierstrassCurve(a, b).cubic for a, b in ((5, 4), (0, -1), (1, 2))}
    cases = [
        (curves[5, 4], (0, 0)), (curves[5, 4], (-1, 0)), (curves[5, 4], (-2, -2)),
        (curves[5, 4], (2, 6)), (curves[0, -1], (0, 0)), (curves[0, -1], (1, 0)),
        (curves[1, 2], (1, -2)), (curves[1, 2], (2, 4)),
    ]
    boxes = [(0.0, 1.0, 0.0, 1.0), (-1.0, 0.0, -1.0, 0.0), (-1.0, 1.0, 0.0, 2.0), (0.0, 3.0, -3.0, 0.0)]

    def draw():
        parts = []
        for form, (x, y) in cases:
            for box in boxes:
                canvas = svgplot._Canvas(box)
                svgplot._tangent_segment(canvas, form, ProjPoint.affine(x, y))
                parts += canvas.parts
        return parts

    raw = draw()
    assert len(raw) > len(cases) and any("-0.00" in part for part in raw)
    monkeypatch.setattr(svgplot, "gradient", lambda form, t: tangent_at(form, ProjPoint(t)).coeffs)
    assert draw() == raw


def test_points_that_cannot_be_drawn(capsys):
    """A point whose x / z lies beyond float range is not drawn, like a
    point at infinity; with no point drawn, the view is the default one."""
    far = PointPair.of(ProjPoint((10**400, 1, 1)), ProjPoint.affine(1, 2))
    assert "1 point(s) outside the view or at infinity" in render_svg([far])
    assert capsys.readouterr().err == "plot: 1 point(s) not drawn\n"
    infinite = PointPair.of(ProjPoint.of(1, 0, 0), ProjPoint.of(0, 1, 0))
    assert svgplot._viewport([svgplot._finite_xy(p) for p in infinite.points]) == (-5.0, 5.0, -5.0, 5.0)
    assert "2 point(s) outside the view or at infinity" in render_svg([infinite])


def test_no_tangent_off_the_cubic_or_at_a_singular_point():
    node = Cubic.of([1, 0, 1, 0, 0, 0, 0, -1, 0, 0])  # y^2 = x^3 + x^2, node at (0, 0)
    for point in (ProjPoint.affine(0, 0), ProjPoint.affine(1, 1)):
        canvas = svgplot._Canvas((-1.0, 1.0, -1.0, 1.0))
        svgplot._tangent_segment(canvas, node, point)
        assert canvas.parts == []


def test_no_command_imports_numpy(tmp_path):
    """`construct --svg` and `plot`, tangents and curve included, draw
    without numpy."""
    code = (
        "import sys\n"
        "from schroeter.cli import main\n"
        "seed, report, svg = sys.argv[1:]\n"
        "assert main(['construct', '--seed', seed, '--out', report, '--svg', svg, '--tangents']) == 0\n"
        "assert main(['plot', '--report', report, '--tangents', '--out', svg]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    source = str(Path(schroeter.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    args = [str(SEEDS / "torsion.json"), str(tmp_path / "run.json"), str(tmp_path / "run.svg")]
    out = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, env=env
    )
    assert 'stroke="#999999"' in (tmp_path / "run.svg").read_text()
    assert out.stdout.splitlines()[-1] == "False"


def _expand(lead, roots):
    """lead times the product of (t - r), highest coefficient first, as the
    four coefficients of a cubic, in floats."""
    coeffs = [lead]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
    return [0.0] * (4 - len(coeffs)) + coeffs


grid = st.fractions(min_value=-20, max_value=20, max_denominator=8)


class TestRootsIn:
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool),
        st.lists(grid, min_size=1, max_size=3, unique=True),
        st.lists(grid, min_size=2, max_size=2, unique=True),
    )
    def test_the_roots_inside_the_view(self, lead, roots, ends):
        lo, hi = sorted(ends)
        assume(lo not in roots and hi not in roots)
        found = _roots_in(_expand(float(lead), [float(r) for r in roots]), float(lo), float(hi))
        inside = sorted(float(r) for r in roots if lo < r < hi)
        # the drawing's grain: 0.01 px of the 640 px view
        assert sorted(found) == pytest.approx(inside, rel=0, abs=float(hi - lo) / 64000)
        assert found == sorted(found, key=lambda t: (abs(t), t), reverse=True)

    def test_no_roots(self):
        assert _roots_in([0.0, 0.0, 0.0, 0.0], -1.0, 1.0) == []
        assert _roots_in([0.0, 0.0, 0.0, 3.0], -1.0, 1.0) == []
        assert _roots_in([0.0, 1.0, 0.0, 1.0], -5.0, 5.0) == []  # a complex pair
        assert _roots_in([1.0, -2.0, 1.0, -2.0], -5.0, 1.0) == []  # (t - 2)(t^2 + 1)

    def test_a_root_at_either_end_counts_once(self):
        assert _roots_in([0.0, 0.0, 2.0, -4.0], 2.0, 5.0) == [2.0]
        assert _roots_in([0.0, 0.0, 2.0, -4.0], -1.0, 2.0) == [2.0]
        # (t - 1)(t + 1)(t - 3), with 1 at hi
        found = _roots_in([1.0, -3.0, -1.0, 3.0], -5.0, 1.0)
        assert found[1] == 1.0 and found[0] == pytest.approx(-1.0)

    def test_a_double_root_at_a_critical_point_counts_twice(self):
        assert _roots_in([0.0, 1.0, -2.0, 1.0], -5.0, 5.0) == [1.0, 1.0]
        # (t - 2)^2 (t + 1) and (t + 6)^2 (t + 1)
        found = _roots_in([1.0, -3.0, 0.0, 4.0], -5.0, 5.0)
        assert found[:2] == [2.0, 2.0] and found[2] == pytest.approx(-1.0)
        found = _roots_in([1.0, 13.0, 48.0, 36.0], -10.0, 0.0)
        assert found[:2] == [-6.0, -6.0] and found[2] == pytest.approx(-1.0)

    def test_mirror_roots_in_a_mirror_view_come_positive_first(self):
        # 4 - t^2, the shape of a column of y^2 = f(x)
        high, low = _roots_in([0.0, -1.0, 0.0, 4.0], -5.0, 5.0)
        assert high == -low == pytest.approx(2.0)


def _svg_argv(tmp_path, name, svg):
    """The commands that draw each pinned SVG."""
    if name == "torsion":
        return ["construct", "--seed", str(SEEDS / "torsion.json"), "--tangents", "--svg", svg]
    if name == "frame":
        return ["construct", "--seed", str(SEEDS / "frame.json"), "--max-generations", "3",
                "--svg", svg]
    if name == "curve12":
        seed = str(tmp_path / "curve12.json")
        points = "1,2;2,4;1/16,23/64"
        assert main(["seed-from-curve", "--a", "1", "--b", "2", "--points", points,
                     "--out", seed]) == 0
        return ["construct", "--seed", seed, "--max-points", "64", "--tangents", "--svg", svg]
    report = str(tmp_path / "frame512.json")
    assert main(["construct", "--seed", str(SEEDS / "frame.json"), "--max-points", "512",
                 "--out", report]) == 0
    return ["plot", "--report", report, "--tangents", "--out", svg]


class TestSvg:
    @pytest.mark.parametrize(
        "name, digest",
        [("torsion", "8b0eb0835abcc23420f9f88b786928906f26eacca8a520b3935c70d6a1a49141"),
         ("frame", "b2c57f4995b5b3a7fe824c9a1450c47e663e54c992eb0e4f9f1b9a64dbc7b027"),
         ("curve12", "7d4caa3a629a8f1fb7717ea9f959753ae8baf040c606f01988b39b11d2163c22"),
         ("plot-frame512", "e00bc762f4dbfd66b7202c814ab32c5c26e7e3e757b50d1ce571259d1e8f71d1")],
    )
    def test_svg_bytes_pinned(self, tmp_path, name, digest):
        """Any change to the curve sampler, the float conversions or the
        drawing that moves an SVG fails here."""
        svg = tmp_path / "run.svg"
        assert main(_svg_argv(tmp_path, name, str(svg))) == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest
