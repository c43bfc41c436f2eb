"""`repro perf pairs` against a stub runner: order, statistics, exact
counts and the calibration spin's straddle flag."""

from __future__ import annotations

import io
import json
from contextlib import ExitStack

import pytest

from repro.cli import build_parser
from repro.pairs import export_tree, run_pairs, verdict


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
    assert row[8:] == ["-20.0%", "3/4", "flat"]
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


def test_verdicts_follow_directions_and_bounds(trees):
    """Ten pairs against BENCHMARK.json's bounds: a latency the change
    cuts by a fifth in 9 of 10 pairs is a gain; a hit rate a third lower
    is worse past its 25% bound."""
    (trees[1] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "lat_tail_us", "better": "lower", "bound": 0.25},
        {"name": "hit_rate", "better": "higher", "bound": 0.25},
    ]}))

    def runner(tree, workload, seed, quick):
        lat = 100.0 + seed
        if tree.name == "change" and seed != 7:
            lat *= 0.8      # pair 0 (seed 7) is the one the change loses
        return report(lat, 0.6 if tree.name == "parent" else 0.4)

    ok, text = run(trees, runner, pairs=10)
    assert not ok       # the hit rate is an exact count that moved
    verdicts = {line.split()[0]: line.split()[-1]
                for line in text.splitlines()
                if line.startswith(("lat_tail_us", "hit_rate"))}
    assert verdicts == {"lat_tail_us": "gain", "hit_rate": "worse"}


def test_verdict_rules():
    parent = [100.0 + i for i in range(10)]        # quartile distance 4.5
    faster = [p - 10 for p in parent]
    assert verdict(parent, faster, "lower", 0.25) == "gain"
    # 9 of 10 wins is enough; 8 is not.
    assert verdict(parent, faster[:9] + [200.0], "lower", 0.25) == "gain"
    assert verdict(parent, faster[:8] + [200.0] * 2, "lower", None) == "flat"
    # Every pair won, but the medians differ by less than the parent's
    # quartile distance.
    assert verdict(parent, [p - 3 for p in parent], "lower", 0.25) == "flat"
    # Past the bound on the wrong side, whichever way "better" points.
    assert verdict(parent, [p * 1.3 for p in parent], "lower", 0.25) \
        == "worse"
    assert verdict(parent, [p * 0.7 for p in parent], "higher", 0.25) \
        == "worse"
    # A spread wider than the bound cannot be told from noise.
    wide = [50.0, 150.0] * 5
    assert verdict(wide, [w - 10 for w in wide], "lower", 0.25) \
        == "unresolved"
    assert verdict(parent, [p * 1.3 for p in parent], "higher", None) \
        == "gain"
    # Fewer than ten pairs cannot show a gain, however they read.
    assert verdict(parent[:9], faster[:9], "lower", 0.25) == "flat"


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
