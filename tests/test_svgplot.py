import os
import subprocess
import sys
from pathlib import Path

import schroeter
from schroeter.cubic import tangent_at
from schroeter.engine import run
from schroeter.svgplot import render_svg


def test_tangents_with_coefficients_beyond_float_range(curve12, curve12_seed):
    state = run(curve12_seed, max_points=64, curve=curve12.cubic)
    points = [p for pair in state.pairs for p in pair.points]
    assert max(abs(c) for p in points for c in tangent_at(curve12.cubic, p).coeffs) > 10**308
    text = render_svg(state.pairs, curve12.cubic, tangents=True)
    assert text.startswith("<svg") and 'stroke="#999999"' in text


def test_the_cli_loads_numpy_only_to_draw():
    code = "import sys, schroeter.cli; print('numpy' in sys.modules)"
    source = str(Path(schroeter.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "False\n"
