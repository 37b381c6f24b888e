"""Command-line surface: construct, seed-from-curve, fit, verify, plot.

Exit codes: 0 ok, 1 input/validation, 2 degeneracy/ambiguity, 3 invariant
violation.  All data files carry rationals as strings; floats exist only in
the SVG renderer.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import serialize
from .engine import DEFAULT_MAX_GENERATIONS, DEFAULT_MAX_POINTS, replay_report, revalidate_points, run
from .errors import SchroeterError, SeedFormatError, ValidationError, brief
from .cubic import fit_cubic_9

SEED_DIR_ENV = "SCHROETER_SEED_DIR"
VERIFY_MAX_POINTS = 128


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_seed_path(path: str) -> str:
    if os.path.exists(path):
        return path
    seed_dir = os.environ.get(SEED_DIR_ENV)
    if seed_dir:
        candidate = os.path.join(seed_dir, path)
        if os.path.exists(candidate):
            return candidate
    raise SeedFormatError(f"seed file not found: {path}")


def _load_seed(path: str):
    return serialize.seed_from_json(serialize.load_json(_resolve_seed_path(path)))


# `verify` (with `checks`) and `svgplot` are imported only by the commands
# that run them, so that `construct` does not compile them at start-up.  The
# commands call them through the two names below, and `engine`'s functions
# through the names imported above, which the benchmark's tracer
# (perfbench/tracer.py, TARGETS) wraps to time them.
def run_suites(*args, **kwargs):
    from . import verify
    return verify.run_suites(*args, **kwargs)


def render_svg(*args, **kwargs):
    from . import svgplot
    return svgplot.render_svg(*args, **kwargs)


def _check_out_dir(path: str | None):
    """Raise unless the directory that is to hold the output `path` exists
    and `path` is not itself a directory, so that a bad path fails before
    the run, not after it."""
    if path and os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValidationError(f"cannot write {path}: no such directory")


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_points_arg(text: str):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) not in (2, 3):
            raise ValidationError(f"bad point {brief(repr(chunk))}: expected x,y or x,y,z")
        points.append(serialize.point_from_json(parts))
    return points


def cmd_construct(args) -> int:
    for flag, given, output, path in (
        ("--format", args.format, "--out", args.out),
        ("--tangents", args.tangents, "--svg", args.svg),
    ):
        if given and not path:
            raise ValidationError(f"construct {flag} takes effect only with {output}")
    _check_out_dir(args.out)
    _check_out_dir(args.svg)
    seed, curve = _load_seed(args.seed)
    started = time.perf_counter()
    state = run(
        seed,
        max_points=args.max_points,
        max_generations=args.max_generations,
        curve=curve.cubic if curve else None,
    )
    elapsed = (time.perf_counter() - started) * 1000
    print(
        f"pairs={len(state.pairs)} points={state.point_count} "
        f"closed={str(state.closed).lower()} generations={state.generations} "
        f"({elapsed:.1f} ms)"
    )
    if args.out:
        if args.format == "csv":
            _write(args.out, serialize.state_points_csv(state))
        else:
            _write(args.out, serialize.dumps(serialize.state_to_json(state)))
        print(f"wrote {args.out}")
    if args.svg:
        _write(args.svg, render_svg(state.pairs, state.curve, tangents=args.tangents))
        print(f"wrote {args.svg}")
    return 0


def cmd_seed_from_curve(args) -> int:
    from .weierstrass import seed_from_curve

    curve = serialize.curve_from_json({"a": args.a, "b": args.b})
    points = _parse_points_arg(args.points)
    if len(points) != 3:
        raise ValidationError(f"need exactly three points, got {len(points)}")
    seed = seed_from_curve(curve, *points)
    text = serialize.dumps(serialize.seed_to_json(seed, curve))
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_fit(args) -> int:
    data = serialize.load_json(args.points)
    if not isinstance(data, list):
        raise SeedFormatError("points file must be a JSON array of points")
    points = [serialize.point_from_json(p) for p in data]
    if len(points) != 9:
        raise ValidationError(f"need exactly 9 points, got {len(points)}")
    cubic = fit_cubic_9(points)
    print(" ".join(str(c) for c in cubic.coeffs))
    return 0


def cmd_verify(args) -> int:
    if args.report:
        given = [
            f"--{name.replace('_', '-')}"
            for name in ("seed", "suite", "a", "b", "max_points", "out", "verbose")
            if getattr(args, name) is not None
        ]
        if given:
            raise ValidationError(f"verify --report does not take {', '.join(given)}")
        state = serialize.report_from_json(serialize.load_json(args.report))
        # the report records both the basis and the curve, and either can be
        # edited; each distinct cubic is evaluated once
        cubics = [c for c in dict.fromkeys((*state.curve_basis, state.curve)) if c is not None]
        if not cubics:
            raise ValidationError("report carries no curve to check against")
        revalidate_points((p for pair in state.pairs for p in pair.points), cubics)
        replay_report(state)
        print(f"report ok: {state.point_count} points on the recorded curve")
        return 0
    if not args.seed:
        raise ValidationError("verify needs --seed or --report")
    from . import verify

    suites = args.suite or ["all"]
    verify.wanted_suites(suites)  # an unknown suite fails before the run
    _check_out_dir(args.out)
    seed, curve = _load_seed(args.seed)
    if (args.a is None) != (args.b is None):
        raise ValidationError("verify needs both --a and --b, or neither")
    if args.a is not None:
        curve = serialize.curve_from_json({"a": args.a, "b": args.b})
    max_points = VERIFY_MAX_POINTS if args.max_points is None else args.max_points
    state = run(seed, max_points=max_points, curve=curve.cubic if curve else None)
    report = run_suites(state, suites=suites, curve=curve)
    counts = report.counts()
    for result in report.results:
        if result.status == "fail" or args.verbose:
            print(f"[{result.status:>10}] {result.suite}: {result.name} {result.detail}")
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"verify: {summary}")
    if args.out:
        _write(args.out, serialize.dumps(report.to_json()))
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def cmd_plot(args) -> int:
    _check_out_dir(args.out)
    state = serialize.report_from_json(serialize.load_json(args.report))
    _write(args.out, render_svg(state.pairs, state.curve, tangents=args.tangents))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schroeter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the pair construction from a seed file")
    p.add_argument("--seed", required=True, help=f"seed JSON (also looked up in ${SEED_DIR_ENV})")
    p.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)
    p.add_argument("--max-generations", type=int, default=DEFAULT_MAX_GENERATIONS)
    p.add_argument("--out", help="write the run report (JSON, or CSV with --format csv)")
    # --format defaults to None, so that it can be rejected without --out
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="format of --out (default json)")
    p.add_argument("--svg", help="write an SVG rendering")
    p.add_argument("--tangents", action="store_true", help="draw tangent lines in the --svg")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("seed-from-curve", help="build a seed from three points on y^2=x^3+ax^2+bx")
    p.add_argument("--a", required=True, help="rational coefficient a")
    p.add_argument("--b", required=True, help="rational coefficient b")
    p.add_argument("--points", required=True, help='three points "x,y;x,y;x,y"')
    p.add_argument("--out", help="seed file to write (stdout otherwise)")
    p.set_defaults(func=cmd_seed_from_curve)

    p = sub.add_parser("fit", help="fit the unique cubic through 9 points")
    p.add_argument("--points", required=True, help="JSON file holding an array of 9 points")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="re-run a construction and check the classical claims")
    p.add_argument("--seed", help="seed JSON to construct and verify")
    p.add_argument("--report", help="instead: re-check a construct output file")
    p.add_argument("--suite", action="append", default=None,
                   help="suite to run, repeatable (default all; the suites are listed "
                        "in the README)")
    p.add_argument("--a", default=None, help="rational a of a known Weierstrass model")
    p.add_argument("--b", default=None, help="rational b of a known Weierstrass model")
    # --max-points and --verbose default to None, so that --report can reject them
    p.add_argument("--max-points", type=int, default=None,
                   help=f"point cap of the run (default {VERIFY_MAX_POINTS})")
    p.add_argument("--out", help="write the verification report JSON")
    p.add_argument("--verbose", action="store_true", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render a construct report as SVG")
    p.add_argument("--report", required=True, help="construct output JSON")
    p.add_argument("--out", required=True, help="SVG file to write")
    p.add_argument("--tangents", action="store_true")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchroeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
