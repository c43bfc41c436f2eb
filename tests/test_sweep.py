"""The parallel sweep runner: determinism, checkpointing, fault
tolerance (see docs/sweep.md)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import (
    Figure3Result,
    ablation_points,
    figure3_points,
    run_cells,
    table1_points,
    table1_rows,
)
from repro.sweep import (
    SELFTEST_RUNNER,
    WALL_CLOCK_FIELDS,
    SweepError,
    SweepInterrupted,
    SweepPoint,
    SweepResult,
    load_checkpoint,
    run_sweep,
    selftest_points,
    spec_digest,
)


class TestSweepPoint:
    def test_key_defaults_to_runner_and_digest(self):
        point = SweepPoint(SELFTEST_RUNNER, {"value": 3})
        assert point.key.startswith(SELFTEST_RUNNER)
        assert spec_digest({"value": 3}) in point.key

    def test_key_stable_across_spec_ordering(self):
        a = SweepPoint(SELFTEST_RUNNER, {"a": 1, "b": 2})
        b = SweepPoint(SELFTEST_RUNNER, {"b": 2, "a": 1})
        assert a.key == b.key

    def test_bad_runner_path_rejected(self):
        with pytest.raises(ValueError):
            SweepPoint("no-colon-here", {})

    def test_unresolvable_runner_fails_fast(self):
        point = SweepPoint("repro.sweep:not_a_function", {}, key="x")
        with pytest.raises(SweepError):
            run_sweep([point])

    def test_duplicate_key_with_different_spec_rejected(self):
        points = [
            SweepPoint(SELFTEST_RUNNER, {"value": 1}, key="dup"),
            SweepPoint(SELFTEST_RUNNER, {"value": 2}, key="dup"),
        ]
        with pytest.raises(SweepError):
            run_sweep(points)


class TestSerialSweep:
    def test_results_sorted_by_key(self):
        points = list(reversed(selftest_points(5)))
        result = run_sweep(points)
        assert list(result.results) == sorted(result.results)
        assert result.computed == 5

    def test_in_order_follows_points_order(self):
        points = selftest_points(4)
        result = run_sweep(list(reversed(points)))
        values = [r["value"] for r in result.in_order(points)]
        assert values == [0, 1, 2, 3]

    def test_failed_point_reported_not_raised(self, tmp_path):
        marker = tmp_path / "calls"
        point = SweepPoint(
            SELFTEST_RUNNER,
            {"value": 1, "fail_marker": str(marker), "fail_times": 99},
            key="doomed",
        )
        result = run_sweep([point], retries=1)
        assert "doomed" in result.failures
        with pytest.raises(SweepError):
            result.in_order([point])

    def test_retry_after_transient_failure(self, tmp_path):
        marker = tmp_path / "calls"
        point = SweepPoint(
            SELFTEST_RUNNER,
            {"value": 7, "fail_marker": str(marker), "fail_times": 2},
            key="flaky",
        )
        result = run_sweep([point], retries=2)
        assert result.results["flaky"]["value"] == 7
        assert result.retried == 2
        assert not result.failures


class TestParallelSweep:
    def test_parallel_digest_matches_serial(self):
        points = selftest_points(8)
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=4)
        assert serial.digest() == parallel.digest()

    def test_worker_exception_is_retried(self, tmp_path):
        """A worker raising mid-sweep is retried; the sweep completes."""
        marker = tmp_path / "calls"
        points = selftest_points(4)
        points[2] = SweepPoint(
            SELFTEST_RUNNER,
            {"value": 2, "fail_marker": str(marker), "fail_times": 1},
            key=points[2].key,
        )
        result = run_sweep(points, jobs=2, retries=2)
        assert not result.failures
        assert result.retried >= 1
        assert [r["value"] for r in result.in_order(points)] == [0, 1, 2, 3]

    def test_worker_death_breaks_and_rebuilds_pool(self, tmp_path):
        """os._exit in a worker breaks the pool; the sweep rebuilds it
        and still completes every point."""
        marker = tmp_path / "deaths"
        points = selftest_points(5)
        points[0] = SweepPoint(
            SELFTEST_RUNNER,
            {"value": 0, "die_marker": str(marker), "die_times": 1},
            key=points[0].key,
        )
        result = run_sweep(points, jobs=2, retries=3)
        assert not result.failures
        assert len(result.results) == 5

    def test_timeout_fails_spinning_point(self):
        points = [
            SweepPoint(
                SELFTEST_RUNNER, {"value": 1, "sleep_s": 30.0}, key="slow"
            )
        ]
        result = run_sweep(points, jobs=1, timeout=0.2, retries=0)
        assert "slow" in result.failures
        assert "PointTimeout" in result.failures["slow"]


class TestDigest:
    def test_kernels_wall_clock_fields_leave_it_alone(self):
        """Two ``kernels`` results that differ only in host timing give
        one digest; a simulated field still moves it."""
        cell = {"faults_total": 120, "stored_bytes": 81920,
                "host_seconds": 0.5, "refs_per_second": 4000.0}
        assert set(WALL_CLOCK_FIELDS) < set(cell)

        def digest(**changes):
            return SweepResult({"lzrw1/thrasher": dict(cell, **changes)}).digest()

        assert digest(host_seconds=0.9, refs_per_second=2222.2) == digest()
        assert digest(faults_total=121) != digest()


class TestCheckpoint:
    def test_resume_skips_completed_points(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        points = selftest_points(6)
        first = run_sweep(points, checkpoint=str(ck))
        assert first.computed == 6
        second = run_sweep(points, checkpoint=str(ck))
        assert second.computed == 0
        assert second.resumed == 6
        assert second.digest() == first.digest()

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        """Kill a sweep midway (simulated by checkpointing a prefix);
        re-invoking with the same checkpoint only runs the remainder,
        proven by a side-effect call counter."""
        ck = tmp_path / "sweep.jsonl"
        marker = tmp_path / "calls"
        extra = {"fail_marker": str(marker), "fail_times": 0}
        points = selftest_points(8, extra=extra)
        run_sweep(points[:3], checkpoint=str(ck))
        assert marker.read_text().count("x") == 3
        result = run_sweep(points, checkpoint=str(ck))
        assert marker.read_text().count("x") == 8  # only 5 new calls
        assert result.resumed == 3 and result.computed == 5

    def test_torn_final_line_tolerated(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        points = selftest_points(3)
        run_sweep(points, checkpoint=str(ck))
        with open(ck, "a") as handle:
            handle.write('{"key": "torn", "runner":')  # interrupted write
        result = run_sweep(points, checkpoint=str(ck))
        assert result.resumed == 3

    def test_spec_change_invalidates_checkpointed_point(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep(selftest_points(2), checkpoint=str(ck))
        changed = selftest_points(2, extra={"tweak": 1})
        result = run_sweep(changed, checkpoint=str(ck))
        assert result.resumed == 0
        assert result.computed == 2

    def test_checkpoint_records_are_json_with_spec(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep(selftest_points(2), checkpoint=str(ck))
        records = [json.loads(line) for line in ck.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert record["runner"] == SELFTEST_RUNNER
            assert "result" in record and "spec" in record
            assert record["elapsed_s"] >= 0
        loaded = load_checkpoint(ck)
        assert set(loaded) == {"selftest/0000", "selftest/0001"}


#: Driver for the SIGINT regression test: a slow sweep the parent can
#: interrupt mid-run, exiting 130 the way the CLI does.
_SIGINT_DRIVER = """\
import sys
from repro.sweep import SweepInterrupted, run_sweep, selftest_points

points = selftest_points(10, extra={"sleep_s": 0.2})
try:
    run_sweep(points, jobs=1, checkpoint=sys.argv[1])
except SweepInterrupted as exc:
    print(f"interrupted; {len(exc.result.results)} checkpointed",
          flush=True)
    sys.exit(130)
sys.exit(0)
"""


class TestInterrupt:
    """Ctrl-C flushes the checkpoint and surfaces as SweepInterrupted,
    so an interrupted sweep resumes instead of restarting."""

    def test_interrupt_raises_with_partial_result(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        marker = tmp_path / "interrupts"
        points = selftest_points(6)
        # Point 3 raises KeyboardInterrupt (once) — Ctrl-C mid-sweep.
        points[3] = SweepPoint(
            SELFTEST_RUNNER,
            {"value": 3, "interrupt_marker": str(marker)},
            key=points[3].key,
        )
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(points, checkpoint=str(ck))
        exc = info.value
        assert exc.result.interrupted
        assert str(exc.checkpoint) == str(ck)
        assert "3" in str(exc)  # the resume hint counts completed points
        # The completed prefix reached disk before the exception.
        assert len(load_checkpoint(ck)) == 3

    def test_interrupted_checkpoint_resumes_cleanly(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        marker = tmp_path / "interrupts"
        points = selftest_points(6)
        points[3] = SweepPoint(
            SELFTEST_RUNNER,
            {"value": 3, "interrupt_marker": str(marker)},
            key=points[3].key,
        )
        with pytest.raises(SweepInterrupted):
            run_sweep(points, checkpoint=str(ck))
        # Rerun: the marker already fired, so the sweep completes,
        # resuming the checkpointed prefix without recomputing it.
        result = run_sweep(points, checkpoint=str(ck))
        assert result.resumed == 3 and result.computed == 3
        assert not result.failures and not result.interrupted

    def test_interrupt_without_checkpoint_keeps_partial_in_memory(
        self, tmp_path
    ):
        marker = tmp_path / "interrupts"
        points = selftest_points(4)
        points[2] = SweepPoint(
            SELFTEST_RUNNER,
            {"value": 2, "interrupt_marker": str(marker)},
            key=points[2].key,
        )
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(points)
        assert len(info.value.result.results) == 2
        assert info.value.checkpoint is None
        assert "no checkpoint" in str(info.value).lower()

    def test_sigint_mid_sweep_flushes_and_exits_130(self, tmp_path):
        """A real SIGINT against a live process: the completed prefix
        must be on disk and an in-process rerun must resume it."""
        ck = tmp_path / "sweep.jsonl"
        driver = tmp_path / "driver.py"
        driver.write_text(_SIGINT_DRIVER)
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src)
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(ck)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                if ck.exists() and len(ck.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep never checkpointed a point")
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, (out, err)
        assert "interrupted" in out
        done = load_checkpoint(ck)
        assert 2 <= len(done) < 10
        # Resume finishes only the remainder.
        points = selftest_points(10, extra={"sleep_s": 0.2})
        result = run_sweep(points, checkpoint=str(ck))
        assert result.resumed == len(done)
        assert result.computed == 10 - len(done)


class TestExperimentSweeps:
    """The refactored experiment harnesses on top of the runner."""

    POINTS = (0.5, 1.5, 2.5)

    def figure3(self, write, **sweep_options):
        points = figure3_points(write, scale=0.04, points=self.POINTS,
                                cycles=2)
        return Figure3Result.from_cells("rw" if write else "ro",
                                        run_cells(points, **sweep_options))

    def test_figure3_jobs_1_and_4_byte_identical(self):
        serial = self.figure3(True, jobs=1)
        parallel = self.figure3(True, jobs=4)
        assert serial.render() == parallel.render()
        assert [p.address_space_bytes for p in serial.points] == [
            p.address_space_bytes for p in parallel.points
        ]

    def test_figure3_checkpoint_resume(self, tmp_path):
        ck = tmp_path / "fig3.jsonl"
        first = self.figure3(False, checkpoint=str(ck))
        lines_after_first = len(ck.read_text().splitlines())
        second = self.figure3(False, checkpoint=str(ck))
        assert first.render() == second.render()
        # Nothing recomputed: the checkpoint did not grow.
        assert len(ck.read_text().splitlines()) == lines_after_first

    def test_figure3_seed_changes_points_not_structure(self):
        base = figure3_points(write=True, scale=0.1, seed=0)
        other = figure3_points(write=True, scale=0.1, seed=1)
        assert len(base) == len(other)
        assert {p.key for p in base}.isdisjoint({p.key for p in other})

    def test_table1_parallel_matches_serial(self):
        points = table1_points(scale=0.04, names=["compare"])
        serial = table1_rows(run_cells(points, jobs=1))
        parallel = table1_rows(run_cells(points, jobs=2))
        assert len(serial) == len(parallel) == 1
        assert serial[0] == parallel[0]

    def test_point_builders_produce_unique_json_specs(self):
        points = (
            figure3_points(write=True, scale=0.1)
            + figure3_points(write=False, scale=0.1)
            + table1_points(scale=0.1)
            + ablation_points(0.1)
        )
        keys = [p.key for p in points]
        assert len(keys) == len(set(keys))
        for point in points:
            json.dumps(point.spec)  # every spec must serialize
