"""Perf harness plumbing: micro-benchmarks, profiling, baseline checks.

The actual throughput numbers are host-dependent and not asserted here;
these tests cover the machinery — report shapes, attribution bucketing,
and the regression-check logic CI relies on.
"""

import json
from pathlib import Path

from repro.perf import (
    FAST_KERNELS,
    SIM_CHECK_TOLERANCE,
    _subsystem_of,
    bench_micro,
    bench_sim,
    check_against_baseline,
    check_service_baseline,
    profile_sim,
)
from repro.sweep import spec_digest


class TestSubsystemAttribution:
    def test_repro_packages(self):
        assert _subsystem_of(
            "/x/src/repro/compression/lzrw1.py"
        ) == "repro.compression"
        assert _subsystem_of("/x/src/repro/perf.py") == "repro.perf"

    def test_non_repro(self):
        assert _subsystem_of("~") == "builtins"
        assert _subsystem_of("<string>") == "builtins"
        assert _subsystem_of("/usr/lib/python3/json/decoder.py") == (
            "stdlib/other"
        )


class TestBenchMicro:
    def test_reports_positive_rates(self):
        result = bench_micro(reps=1)
        for key in (
            "lru_touch_evict_ops_s",
            "fragstore_put_get_gc_ops_s",
            "sampler_hit_miss_ops_s",
        ):
            assert result[key] > 0, key


class TestProfileSim:
    def test_report_sections(self):
        report = profile_sim(scale=0.02, top_n=5, workloads=["thrasher"])
        assert "per-subsystem tottime" in report
        assert "repro.vm" in report
        assert "by cumulative time" in report


def _write_baseline(tmp_path, **extra):
    baseline = {"aggregate_speedup": {"lzrw1": 2.0}}
    baseline.update(extra)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    return path


def _compression(speedup=2.0):
    return {"aggregate": {"lzrw1": {"speedup": speedup}}}


def _sim(scale=0.05, pps=1000.0):
    return {
        "scale": scale,
        "workloads": {"thrasher": {"pages_per_second": pps}},
    }


class TestBaselineCheck:
    def test_sim_within_tolerance_passes(self, tmp_path):
        path = _write_baseline(
            tmp_path, sim_scale=0.05,
            sim_pages_per_second={"thrasher": 1000.0},
        )
        ok_pps = 1000.0 * (1.0 - SIM_CHECK_TOLERANCE) + 1
        assert check_against_baseline(
            _compression(), path, sim=_sim(pps=ok_pps)
        ) == []

    def test_sim_regression_fails(self, tmp_path):
        path = _write_baseline(
            tmp_path, sim_scale=0.05,
            sim_pages_per_second={"thrasher": 1000.0},
        )
        bad_pps = 1000.0 * (1.0 - SIM_CHECK_TOLERANCE) - 1
        failures = check_against_baseline(
            _compression(), path, sim=_sim(pps=bad_pps)
        )
        assert len(failures) == 1
        assert "thrasher" in failures[0]

    def test_scale_mismatch_skips_sim_check(self, tmp_path):
        path = _write_baseline(
            tmp_path, sim_scale=0.05,
            sim_pages_per_second={"thrasher": 1000.0},
        )
        assert check_against_baseline(
            _compression(), path, sim=_sim(scale=0.12, pps=1.0)
        ) == []

    def test_missing_workload_fails(self, tmp_path):
        path = _write_baseline(
            tmp_path, sim_scale=0.05,
            sim_pages_per_second={"compare": 1000.0},
        )
        failures = check_against_baseline(
            _compression(), path, sim=_sim()
        )
        assert failures and "compare" in failures[0]

    def test_no_sim_skips_sim_check(self, tmp_path):
        path = _write_baseline(
            tmp_path, sim_scale=0.05,
            sim_pages_per_second={"thrasher": 1000.0},
        )
        assert check_against_baseline(_compression(), path, sim=None) == []

    def test_kernel_speedup_regression_still_fails(self, tmp_path):
        path = _write_baseline(tmp_path)
        failures = check_against_baseline(_compression(speedup=1.0), path)
        assert failures and "lzrw1" in failures[0]

    def test_every_fast_kernel_has_a_committed_floor(self, tmp_path):
        """perf-smoke gates a ``fast`` row only through its floor."""
        committed = json.loads(
            (Path(__file__).parent.parent / "benchmarks"
             / "perf_baseline.json").read_text()
        )["fast_kernel_speedup"]
        assert set(committed) == set(FAST_KERNELS)
        path = _write_baseline(tmp_path, fast_kernel_speedup=committed)
        measured = _compression()
        measured["fast"] = {"aggregate": {
            name: {"speedup": floor * (0.5 if name == "fpc" else 1.0)}
            for name, floor in committed.items()
        }}
        failures = check_against_baseline(measured, path)
        assert len(failures) == 1 and failures[0].startswith("fpc:")


class TestSimLatency:
    def test_bench_sim_reports_percentiles(self):
        result = bench_sim(scale=0.02, workloads=["thrasher"], reps=1)
        row = result["workloads"]["thrasher"]
        latency = row["latency_us"]
        assert latency["count"] == row["references"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]


def _service_bench(digest="d" * 64, ops_s=1000.0, speedup=1.0,
                   p99=5000, cpus=1, spec=None):
    spec = spec if spec is not None else {"ops": 100, "seed": 1}
    return {
        "cpu_count": cpus,
        "spec": spec,
        "runs": {"4": {"latency_us": {"p99": p99}}},
        "determinism": {"ledger_digest": digest},
        "scaling": {
            "single_shard_ops_s": ops_s / max(speedup, 1e-9),
            "best_ops_s": ops_s,
            "best_shards": 4,
            "speedup": speedup,
        },
    }


def _write_service_baseline(tmp_path, **service):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"service": service}))
    return path


class TestServiceBaselineCheck:
    SPEC = {"ops": 100, "seed": 1}

    def test_all_gates_pass(self, tmp_path):
        path = _write_service_baseline(
            tmp_path,
            ledger_digest="d" * 64,
            spec_digest=spec_digest(self.SPEC),
            min_ops_per_second=1000.0,
            min_speedup=3.0,
            min_speedup_cpus=4,
            max_p99_us=10000,
        )
        bench = _service_bench(ops_s=900.0)  # within tolerance
        assert check_service_baseline(bench, path) == []

    def test_digest_mismatch_is_a_failure(self, tmp_path):
        path = _write_service_baseline(
            tmp_path,
            ledger_digest="d" * 64,
            spec_digest=spec_digest(self.SPEC),
        )
        failures = check_service_baseline(
            _service_bench(digest="e" * 64), path
        )
        assert failures and "determinism" in failures[0]

    def test_digest_skipped_for_different_spec(self, tmp_path):
        path = _write_service_baseline(
            tmp_path,
            ledger_digest="d" * 64,
            spec_digest=spec_digest(self.SPEC),
        )
        bench = _service_bench(digest="e" * 64, spec={"ops": 999})
        assert check_service_baseline(bench, path) == []

    def test_throughput_floor(self, tmp_path):
        path = _write_service_baseline(
            tmp_path, min_ops_per_second=1000.0
        )
        bad = 1000.0 * 0.69  # below the 30% tolerance band
        failures = check_service_baseline(
            _service_bench(ops_s=bad), path
        )
        assert failures and "throughput" in failures[0]

    def test_scaling_gate_needs_enough_cpus(self, tmp_path):
        path = _write_service_baseline(
            tmp_path, min_speedup=3.0, min_speedup_cpus=4
        )
        # 1-CPU host: the scaling gate must not fire.
        assert check_service_baseline(
            _service_bench(speedup=1.0, cpus=1), path
        ) == []
        # 4-CPU host: it must.
        failures = check_service_baseline(
            _service_bench(speedup=1.0, cpus=4), path
        )
        assert failures and "scaling" in failures[0]
        # And a genuine 3x pass clears it.
        assert check_service_baseline(
            _service_bench(speedup=3.2, cpus=4), path
        ) == []

    def test_p99_ceiling(self, tmp_path):
        path = _write_service_baseline(tmp_path, max_p99_us=1000)
        failures = check_service_baseline(
            _service_bench(p99=2000), path
        )
        assert failures and "p99" in failures[0]

    def test_missing_service_section(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({}))
        failures = check_service_baseline(_service_bench(), path)
        assert failures and "service" in failures[0]
