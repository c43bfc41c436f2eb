"""`repro perf pairs` against a stub runner: order, statistics, exact
counts and the calibration spin's straddle flag."""

from __future__ import annotations

import io
import json
from contextlib import ExitStack

import pytest

from repro.cli import build_parser
from repro.pairs import export_tree, run_pairs


def report(lat: float, hits: float, failed: int = 0) -> dict:
    return {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {
            "lat_tail_us": {"value": lat, "unit": "us"},
            "hit_rate": {"value": hits, "unit": "ratio"},
        },
    }


@pytest.fixture
def trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "lat_tail_us", "better": "lower"},
        {"name": "hit_rate", "better": "higher"},
    ]}))
    return parent, change


def run(trees, runner, pairs=4, spins=None):
    spins = iter(spins or [1.0] * (2 * pairs))
    out = io.StringIO()
    ok = run_pairs(*trees, "kv-mixed", pairs, seed=7, runner=runner,
                   spin=lambda: next(spins), out=out)
    return ok, out.getvalue()


def test_alternates_parent_first_on_even_indices(trees):
    calls = []

    def runner(tree, workload, seed, quick):
        calls.append((tree.name, seed))
        return report(100.0, 0.5)

    run(trees, runner, pairs=3)
    assert calls == [("parent", 7), ("change", 7), ("change", 8),
                     ("parent", 8), ("parent", 9), ("change", 9)]


def test_medians_quartiles_and_wins(trees):
    def runner(tree, workload, seed, quick):
        lat = seed * 10.0 if tree.name == "parent" else seed * 8.0
        if tree.name == "change" and seed == 10:
            lat = 200.0     # the one pair the change loses
        return report(lat, 0.5)

    ok, text = run(trees, runner)
    assert ok
    row = next(line for line in text.splitlines()
               if line.startswith("lat_tail_us")).split()
    # parent 70 80 90 100, change 56 64 72 200
    assert row[2:5] == ["72.5", "85", "97.5"]
    assert row[5:8] == ["58", "68", "168"]
    assert row[8:] == ["-20.0%", "3/4"]
    assert "exact hit_rate: equal in 4/4 pairs" in text


def test_an_unequal_exact_count_fails_the_run(trees):
    def runner(tree, workload, seed, quick):
        moved = tree.name == "change" and seed == 8
        return report(100.0, 0.6 if moved else 0.5)

    ok, text = run(trees, runner)
    assert not ok
    assert "exact hit_rate: DIFFERS in pair(s) 1" in text


def test_a_failed_operation_fails_the_run(trees):
    def runner(tree, workload, seed, quick):
        return report(100.0, 0.5, failed=int(tree.name == "change"))

    ok, text = run(trees, runner, pairs=1)
    assert not ok
    assert "exact failed: DIFFERS in pair(s) 0" in text


def test_straddled_pairs_are_flagged(trees):
    def runner(tree, workload, seed, quick):
        return report(100.0, 0.5)

    # Spins in run order: pair 0 (parent, change), pair 1 (change, parent).
    _, text = run(trees, runner, pairs=2, spins=[1.0, 1.45, 1.0, 1.1])
    lines = [line for line in text.splitlines() if line.startswith("pair")]
    assert lines[0].endswith("straddled")
    assert not lines[1].endswith("straddled")


def test_a_directory_is_its_own_tree(tmp_path):
    with ExitStack() as stack:
        assert export_tree(str(tmp_path), stack) == tmp_path
        with pytest.raises(RuntimeError):
            export_tree("no-such-revision-anywhere", stack)


def test_command_line_parses():
    args = build_parser().parse_args(
        ["perf", "pairs", "HEAD~1", "HEAD", "--workload", "kv-mixed",
         "--pairs", "10"])
    assert (args.perf_command, args.parent, args.change, args.pairs,
            args.seed, args.quick) == ("pairs", "HEAD~1", "HEAD", 10, 1,
                                       False)
    assert build_parser().parse_args(["perf", "--quick"]).perf_command is None
