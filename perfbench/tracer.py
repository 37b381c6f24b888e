"""Per-layer tracing for the benchmark, installed from outside the program.

Run as a script, this module stands in for the `schroeter` console entry
point: it imports `schroeter.cli`, wraps the functions listed in TARGETS at
the names their callers look up, calls `schroeter.cli.main` with the given
arguments, restores every original and writes the recorded spans to a JSON
file.  The program's sources are not modified.

    python3 perfbench/tracer.py SPANS.json -- construct --seed seeds/frame.json

The span arithmetic used by the harness (self time, per-name totals) lives
here too, so that the recording and the reading of spans stay in one place.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  The module is the one whose global the
# caller reads: `cli`, `engine`, `verify` and `checks` bind imported functions
# at import time, so wrapping only the defining module would record nothing.
# Targets that a later version of the program no longer has are skipped and
# listed as missing in the span file.
TARGETS = (
    ("schroeter.cli", "main", "cli.main"),
    ("schroeter.cli", "run", "engine.run"),
    ("schroeter.cli", "run_suites", "verify.run_suites"),
    ("schroeter.cli", "revalidate_points", "verify.revalidate"),
    ("schroeter.cli", "render_svg", "svgplot.render"),
    ("schroeter.serialize", "load_json", "serialize.load"),
    ("schroeter.serialize", "seed_from_json", "serialize.load"),
    ("schroeter.serialize", "pair_from_json", "serialize.load"),
    ("schroeter.serialize", "cubic_from_json", "serialize.load"),
    ("schroeter.serialize", "state_to_json", "serialize.to_json"),
    ("schroeter.serialize", "dumps", "serialize.dumps"),
    # `run` calls combine_with_lines today; `combine` is wrapped as well so
    # the span survives a merge of the two.  A nested span of the same name
    # is not counted twice (see aggregate).
    ("schroeter.engine", "combine_with_lines", "engine.combine"),
    ("schroeter.engine", "combine", "engine.combine"),
    ("schroeter.engine", "join", "projective.join"),
    ("schroeter.engine", "meet", "projective.meet"),
    ("schroeter.engine", "evaluate", "cubic.evaluate"),
    ("schroeter.engine", "cubic_family_through", "cubic.family"),
    ("schroeter.verify", "_suite_chasles", "verify.suite.chasles"),
    ("schroeter.verify", "_suite_pair_tangents", "verify.suite.pair_tangents"),
    ("schroeter.verify", "_suite_tangents", "verify.suite.tangents"),
    ("schroeter.verify", "_suite_chords", "verify.suite.chords"),
    ("schroeter.verify", "_suite_lines", "verify.suite.lines"),
    ("schroeter.verify", "_suite_center", "verify.suite.center"),
    ("schroeter.verify", "evaluate", "cubic.evaluate"),
    ("schroeter.verify", "tangent_third", "cubic.tangent_third"),
    ("schroeter.verify", "tangent_at", "cubic.tangent_at"),
    ("schroeter.verify", "third_intersection", "cubic.third_intersection"),
    ("schroeter.verify", "chasles_check", "checks.chasles_check"),
    ("schroeter.verify", "chord_tangency_check", "checks.chord_tangency_check"),
    ("schroeter.verify", "conjugate_lines_check", "checks.conjugate_lines_check"),
    ("schroeter.verify", "tangent_by_involution", "checks.tangent_by_involution"),
    ("schroeter.verify", "to_abc_chart", "weierstrass.to_abc_chart"),
    ("schroeter.verify", "involution_center_product", "weierstrass.involution_center_product"),
    ("schroeter.checks", "join", "projective.join"),
    ("schroeter.checks", "meet", "projective.meet"),
    ("schroeter.checks", "evaluate", "cubic.evaluate"),
    ("schroeter.checks", "tangent_third", "cubic.tangent_third"),
    ("schroeter.checks", "chord_third", "cubic.chord_third"),
    ("schroeter.checks", "conjugate_line", "involution.conjugate_line"),
    ("schroeter.checks", "conjugate_point", "weierstrass.conjugate_point"),
)


def _max_digits(pairs) -> int:
    """Decimal digits of the largest coordinate among the pairs' points."""
    widest = max(
        (abs(c) for pair in pairs for p in pair.points for c in p.coords),
        key=int.bit_length,
        default=0,
    )
    return len(str(widest))


def _observe_run(state, counts: dict):
    provenance = getattr(state, "provenance", ())
    for status in ("new", "duplicate", "skipped"):
        key = f"engine.{status}"
        counts[key] = counts.get(key, 0) + sum(d.status == status for d in provenance)
    counts["engine.attempts"] = counts.get("engine.attempts", 0) + len(provenance)
    counts["engine.points"] = counts.get("engine.points", 0) + state.point_count
    counts["projective.max_digits"] = max(
        counts.get("projective.max_digits", 0), _max_digits(state.pairs)
    )


def _observe_suites(report, counts: dict):
    for status, n in report.counts().items():
        key = f"verify.status.{status}"
        counts[key] = counts.get(key, 0) + n


# Observers read counts from a wrapped call's result, after its span closed.
OBSERVERS = {"engine.run": _observe_run, "verify.run_suites": _observe_suites}


class Recorder:
    """Spans kept in memory as [name, start, end, parent index] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def wrap(self, fn, name: str):
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Install wrappers on the targets; restore the originals on exit."""
        originals = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    the direct children already cover their own descendants.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls and total time of the spans not nested in a span
    of the same name (so recursion is not counted twice), and the summed
    self time of all its spans."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["self_s"] += own[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["calls"] += 1
            entry["total_s"] += end - start
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """How many spans called `name` have a span called `ancestor` above them."""
    n = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        n += parent >= 0
    return n


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <schroeter arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import schroeter.cli

    recorder = Recorder()
    try:
        with recorder.installed():
            return schroeter.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_json(), fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
