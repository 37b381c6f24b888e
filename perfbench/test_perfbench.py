"""Self-tests of the benchmark harness and tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def in_root(monkeypatch, tmp_path):
    """Run from the checkout root, with the per-run work directory in tmp."""
    monkeypatch.chdir(ROOT)
    return run.Context(seed=0, work=str(tmp_path))


def test_wrappers_are_restored_to_the_identical_objects():
    import schroeter.cli  # noqa: F401  (loads every target module)

    before = {
        (m, a): getattr(importlib.import_module(m), a)
        for m, a, _ in tracer.TARGETS
        if hasattr(importlib.import_module(m), a)
    }
    recorder = tracer.Recorder()
    with recorder.installed():
        for (m, a), original in before.items():
            wrapped = getattr(importlib.import_module(m), a)
            assert wrapped is not original and wrapped.__wrapped__ is original
    for (m, a), original in before.items():
        assert getattr(importlib.import_module(m), a) is original
    assert recorder.missing == []


def test_wrappers_are_restored_when_the_call_raises():
    import schroeter.cli

    original = schroeter.cli.main
    recorder = tracer.Recorder()
    with pytest.raises(ZeroDivisionError):
        with recorder.installed([("schroeter.cli", "main", "cli.main")]):
            schroeter.cli.main = recorder.wrap(lambda: 1 / 0, "cli.main")
            schroeter.cli.main()
    assert schroeter.cli.main is original
    (span,) = recorder.spans
    assert span[0] == "cli.main" and span[2] >= span[1] and span[3] == -1


def test_self_time_on_synthetic_nested_spans():
    spans = [
        ["engine.run", 0.0, 10.0, -1],
        ["engine.combine", 1.0, 4.0, 0],
        ["projective.join", 1.5, 2.0, 1],
        ["projective.join", 2.5, 3.5, 1],
        ["serialize.load", 5.0, 9.0, 0],
        ["serialize.load", 6.0, 8.0, 4],  # recursion within one name
    ]
    assert tracer.self_times(spans) == [3.0, 1.5, 0.5, 1.0, 2.0, 2.0]
    agg = tracer.aggregate(spans)
    assert agg["engine.run"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["projective.join"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    # the nested call is not counted twice, but its self time is kept
    assert agg["serialize.load"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0}
    assert tracer.count_under(spans, "projective.join", "engine.run") == 2
    assert tracer.count_under(spans, "projective.join", "serialize.load") == 0


def test_one_altered_coordinate_fails_the_pinned_check(in_root):
    ctx = in_root
    report = os.path.join(ctx.work, "small.json")
    result = run.run_command(
        run.cli_argv(["construct", "--seed", run.FRAME_SEED, "--max-points", "64", "--out", report]),
        ctx.work,
    )
    assert result.returncode == 0
    with open(report, encoding="utf-8") as fh:
        data = json.load(fh)
    pinned = run.pairs_digest(data)
    assert run.check_report(run.Context(0, ctx.work), report, 64, pinned) is None

    point = data["pairs"][5][1]
    point[0] = str(int(point[0]) + 1)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    problem = run.check_report(run.Context(0, ctx.work), report, 64, pinned)
    assert problem is not None and "pair digest" in problem


def test_stub_command_exiting_nonzero_raises_failed_ratio(in_root, monkeypatch):
    ctx = in_root
    monkeypatch.setattr(run, "cli_argv", lambda args, spans_path=None: [sys.executable, "-c", *args])
    steps = [
        run.Step(["pass"], lambda result: None),
        run.Step(["raise SystemExit(3)"], lambda result: None),
    ]
    failures = []
    it = run.run_iteration(ctx, steps, traced=False, failures=failures)
    assert (it.attempted, it.failed, it.mismatches) == (2, 1, 0)
    assert failures == ["raise SystemExit(3): exit 3: (no stderr)"]
    assert it.wall_s > 0 and it.maxrss_mb > 0


def test_wrong_output_counts_as_failed_and_incorrect(in_root, monkeypatch):
    ctx = in_root
    monkeypatch.setattr(run, "cli_argv", lambda args, spans_path=None: [sys.executable, "-c", *args])
    steps = [run.Step(["print('pairs=1 points=2 closed=true generations=1')"],
                      lambda result: run.check_summary(result, run.FRAME_SUMMARY))]
    it = run.run_iteration(ctx, steps, traced=False, failures=[])
    assert (it.attempted, it.failed, it.mismatches) == (1, 1, 1)


def test_seed_zero_is_the_named_frame_seed_and_others_keep_its_size(monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(run.FRAME_SEED, encoding="utf-8") as fh:
        named = json.load(fh)["pairs"]
    assert run.transformed_seed(0)["pairs"] == named
    sizes = sorted(abs(int(c)) for pair in named for p in pair for c in p)
    for seed in range(1, len(run.TRANSFORMS)):
        pairs = run.transformed_seed(seed)["pairs"]
        assert pairs != named
        assert sorted(abs(int(c)) for pair in pairs for p in pair for c in p) == sizes


def test_reference_task_prints_its_pinned_output(in_root):
    result = run.run_command([sys.executable, run.REFERENCE], in_root.work)
    assert result.returncode == 0 and result.stdout.strip() == run.REFERENCE_OUTPUT
