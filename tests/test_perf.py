"""Perf harness plumbing: the timing primitive, the gate table, reports.

The actual throughput numbers are host-dependent and not asserted here;
these tests cover the machinery — how a number is taken (``ab_compare``
under a fake clock), report shapes, attribution bucketing, and the one
gate table CI relies on (every row can fail; no row is skipped
silently).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.perf as perf
from repro.perf import (
    FAST_KERNELS,
    GATES,
    SIM_CHECK_TOLERANCE,
    _logstore_churn_ops,
    _run_logstore_churn,
    _subsystem_of,
    ab_compare,
    bench_contentgen,
    bench_micro,
    bench_overhead,
    bench_sim,
    check_baseline,
    evaluate_gates,
    profile_sim,
)
from repro.sweep import spec_digest

REPO_ROOT = Path(__file__).parent.parent


class FakeClock:
    """A clock only the arms advance, by scripted per-sample walls."""

    def __init__(self):
        self.now = 0.0
        self.order = []

    def __call__(self):
        return self.now

    def arm(self, name, walls):
        """An arm whose samples (warm-up first) take ``walls`` seconds."""
        walls = iter(walls)

        def prepare():
            self.order.append(name)
            self.now += 100.0   # set-up is never charged to the arm

            def body():
                self.now += next(walls)
                return name.upper()
            return body
        return prepare


def _compare(a_rounds, b_rounds):
    clock = FakeClock()
    return ab_compare(
        {"a": clock.arm("a", [9.0] + a_rounds),
         "b": clock.arm("b", [9.0] + b_rounds)},
        reps=len(a_rounds), clock=clock,
    )


class TestAbCompare:
    def test_order_alternates_and_min_is_per_arm(self):
        clock = FakeClock()
        result = ab_compare(
            {"a": clock.arm("a", [9.0, 1.00, 1.10, 1.02, 1.20]),
             "b": clock.arm("b", [9.0, 1.05, 1.03, 1.50, 1.04])},
            reps=4, clock=clock,
        )
        assert clock.order == [
            "a", "b",               # warm-up of every arm, never counted
            "a", "b", "b", "a", "a", "b", "b", "a",
        ]
        assert result.best == pytest.approx({"a": 1.00, "b": 1.03})
        assert result.ratio == pytest.approx({"a": 1.0, "b": 1.03})
        assert result.values == {"a": "A", "b": "B"}

    def test_band_is_median_over_min_of_the_noisiest_arm(self):
        result = _compare([1.00, 1.10, 1.02, 1.20],
                          [1.05, 1.03, 1.50, 1.04])
        # a: median 1.06 over min 1.00 -> 0.06
        # b: median 1.045 over min 1.03 -> 0.0146; the band is the larger.
        assert result.band == pytest.approx(0.06)

    def test_inside_the_band_is_unresolved(self):
        result = _compare([1.00, 1.10], [1.03, 1.04])
        assert result.band == pytest.approx(0.05)
        assert result.ratio["b"] == pytest.approx(1.03)
        assert result.verdict("b") == "unresolved"

    def test_outside_the_band_is_the_signed_change(self):
        result = _compare([1.00, 1.02], [1.03, 1.04])
        assert result.band == pytest.approx(0.01)
        assert result.verdict("b") == "+3.0%"

    def test_negative_overhead_is_reported_negative(self):
        result = _compare([1.00, 1.01], [0.90, 0.91])
        assert result.ratio["b"] - 1.0 == pytest.approx(-0.10)
        assert result.verdict("b") == "-10.0%"

    def test_one_round_cannot_show_its_noise(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            ab_compare({"a": clock.arm("a", [1.0, 1.0])}, reps=1,
                       clock=clock)


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
        result = bench_micro(reps=2)
        for key in (
            "lru_touch_evict_ops_s",
            "fragstore_put_get_gc_ops_s",
            "sampler_hit_miss_ops_s",
            "logstore_churn_ops_s",
        ):
            assert result[key] > 0, key

    def test_the_logstore_body_cycles_the_cleaner(self):
        """What the fourth body times is the store's steady state:
        cleaning passes, each ending in a checkpoint, by the hundred."""
        ops = _logstore_churn_ops()
        assert ops == _logstore_churn_ops()
        counters = _run_logstore_churn(ops).counters
        assert counters.clean_runs > 100
        assert counters.checkpoints_written >= counters.clean_runs
        assert counters.segments_cleaned > 150


class TestBenchContentgen:
    def test_section_carries_what_the_gate_reads(self):
        from repro.workloads import contentgen

        contentgen.incompressible(99)
        result = bench_contentgen(pages=2, reps=2)
        # Set-up emptied the memos (page 99 is gone): the timed pages
        # were generated, not recalled.
        assert contentgen.incompressible.cache_info().currsize <= 2
        assert len(result["ms_per_page"]) == 7
        assert all(ms > 0 for ms in result["ms_per_page"].values())
        assert result["pages_per_second"] > 0
        draw = result["bulk_draw"]
        assert draw["python_ms"] > 0
        assert (draw["numpy_ms"] is None) == (contentgen._np is None)


class TestProfileSim:
    def test_report_sections(self):
        report = profile_sim(scale=0.02, top_n=5, workloads=["thrasher"])
        assert "per-subsystem tottime" in report
        assert "repro.vm" in report
        assert "by cumulative time" in report

    def test_calls_per_reference_and_per_fault(self):
        report = profile_sim(scale=0.02, top_n=5, workloads=["thrasher"])
        line = next(line for line in report.splitlines()
                    if line.startswith("repro calls: "))
        match = re.fullmatch(
            r"repro calls: (\d+) over (\d+) references and (\d+) faults: "
            r"([\d.]+) per reference, ([\d.]+) per fault", line)
        calls, refs, faults = map(int, match.group(1, 2, 3))
        # Every reference is at least one call (touch); the thrasher
        # faults, and a fault costs more calls than a reference does.
        assert 0 < faults <= refs < calls
        assert match.group(4) == f"{calls / refs:.1f}"
        assert match.group(5) == f"{calls / faults:.1f}"


def _failures(payloads, baseline):
    return evaluate_gates(payloads, baseline).failures


def _baseline(**extra):
    baseline = {"fast_kernel_speedup": {"lzrw1": 2.0}}
    baseline.update(extra)
    return baseline


def _compression(speedup=2.0):
    return {"fast": {"aggregate": {"lzrw1": {"speedup": speedup}}}}


def _sim(scale=0.05, pps=1000.0):
    return {
        "scale": scale,
        "workloads": {"thrasher": {"pages_per_second": pps}},
    }


class TestBaselineCheck:
    FLOORS = dict(sim_scale=0.05,
                  sim_pages_per_second={"thrasher": 1000.0})

    def test_sim_within_tolerance_passes(self):
        ok_pps = 1000.0 * (1.0 - SIM_CHECK_TOLERANCE) + 1
        assert _failures(
            {"compression": _compression(), "sim": _sim(pps=ok_pps)},
            _baseline(**self.FLOORS),
        ) == []

    def test_sim_regression_fails(self):
        bad_pps = 1000.0 * (1.0 - SIM_CHECK_TOLERANCE) - 1
        failures = _failures(
            {"compression": _compression(), "sim": _sim(pps=bad_pps)},
            _baseline(**self.FLOORS),
        )
        assert len(failures) == 1
        assert failures[0].startswith("sim-floor thrasher:")

    def test_scale_mismatch_skips_sim_check(self):
        report = evaluate_gates(
            {"compression": _compression(),
             "sim": _sim(scale=0.12, pps=1.0)},
            _baseline(**self.FLOORS),
        )
        assert report.failures == []
        assert any(line.startswith("sim-floor: measured at scale 0.12")
                   for line in report.skipped)

    def test_missing_workload_fails(self):
        failures = _failures(
            {"compression": _compression(), "sim": _sim()},
            _baseline(sim_scale=0.05,
                      sim_pages_per_second={"compare": 1000.0}),
        )
        assert failures and "compare" in failures[0]
        assert "not measured" in failures[0]

    def test_no_sim_skips_sim_check(self):
        report = evaluate_gates(
            {"compression": _compression(), "sim": None},
            _baseline(**self.FLOORS),
        )
        assert report.failures == []
        assert "sim-floor: no sim payload in this run" in report.skipped

    def test_kernel_speedup_regression_still_fails(self):
        failures = _failures({"compression": _compression(speedup=1.0)},
                             _baseline())
        assert failures and "lzrw1" in failures[0]

    def test_every_fast_kernel_has_a_committed_floor(self):
        """perf-smoke gates a ``fast`` row only through its floor."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["fast_kernel_speedup"]
        assert set(committed) == set(FAST_KERNELS)
        measured = _compression()
        measured["fast"] = {"aggregate": {
            name: {"speedup": floor * (0.5 if name == "fpc" else 1.0)}
            for name, floor in committed.items()
        }}
        failures = _failures({"compression": measured},
                             _baseline(fast_kernel_speedup=committed))
        assert len(failures) == 1
        assert failures[0].startswith("fast-kernel-speedup fpc:")

    def test_a_compiled_run_without_numpy_is_judged(self, tmp_path):
        """The ``fast`` rows follow the compiled library, not numpy: a
        kernel run in an interpreter where numpy cannot be imported is
        judged on every row, not skipped."""
        hide = tmp_path / "numpy"
        hide.mkdir()
        (hide / "__init__.py").write_text(
            "raise ImportError('numpy hidden')\n")
        path = [str(tmp_path), str(REPO_ROOT / "src"),
                os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys\n"
             "from repro.perf import bench_compression\n"
             "payload = bench_compression(pages_per_kind=1, reps=2)\n"
             "assert 'numpy' not in sys.modules\n"
             "print(json.dumps(payload))\n"],
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        measured = json.loads(proc.stdout)
        report = evaluate_gates(
            {"compression": measured},
            _baseline(fast_kernel_speedup={name: 1.0
                                           for name in FAST_KERNELS}),
        )
        assert not [line for line in report.skipped
                    if line.startswith("fast-kernel-speedup")]
        judged = report.passed + report.failures
        assert sorted(line.split(":")[0] for line in judged
                      if line.startswith("fast-kernel-speedup")) == sorted(
            f"fast-kernel-speedup {name}" for name in FAST_KERNELS)


class TestSimLatency:
    def test_bench_sim_reports_percentiles(self):
        result = bench_sim(scale=0.02, workloads=["thrasher"], reps=2)
        row = result["workloads"]["thrasher"]
        latency = row["latency_us"]
        assert latency["count"] == row["references"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert row["noise_band"] >= 0.0

    def test_the_cold_arm_empties_the_kernel_caches_every_round(
            self, monkeypatch):
        cleared = []
        clear = perf.clear_shared_results
        monkeypatch.setattr(perf, "clear_shared_results",
                            lambda: cleared.append(1) or clear())
        result = bench_sim(scale=0.02, workloads=["thrasher"], reps=2)
        assert len(cleared) == 3    # the warm-up and both rounds
        assert result["cold"]["references"] \
            == result["aggregate"]["references"]
        assert result["workloads"]["thrasher"]["cold_wall_seconds"] > 0


class TestBenchOverhead:
    def test_rows_carry_what_the_gate_reads(self, monkeypatch):
        monkeypatch.setattr(perf, "_RUNS_PER_SAMPLE", 1)
        rows = bench_overhead(scale=0.02, reps=2)
        ceilings = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["overhead_ceiling_percent"]
        assert set(rows) == set(ceilings)
        for row in rows.values():
            assert row["lower_bound_percent"] == pytest.approx(
                row["overhead_percent"] - row["band_percent"], abs=0.011
            )
            assert row["verdict"] == "unresolved" or (
                row["verdict"].endswith("%")
                and abs(row["overhead_percent"]) > row["band_percent"]
            )


def _service_bench(digest="d" * 64, ops_s=1000.0, speedup=1.0,
                   p99=5000, cpus=1, spec=None):
    spec = spec if spec is not None else {"ops": 100, "seed": 1}
    return {"service": {
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
    }}


class TestServiceBaselineCheck:
    SPEC = {"ops": 100, "seed": 1}

    def test_all_gates_pass(self):
        baseline = {"service": dict(
            ledger_digest="d" * 64,
            spec_digest=spec_digest(self.SPEC),
            min_ops_per_second=1000.0,
            min_speedup=3.0,
            min_speedup_cpus=4,
            max_p99_us=10000,
        )}
        bench = _service_bench(ops_s=900.0)  # within tolerance
        assert _failures(bench, baseline) == []

    def test_digest_mismatch_is_a_failure(self):
        baseline = {"service": dict(
            ledger_digest="d" * 64,
            spec_digest=spec_digest(self.SPEC),
        )}
        failures = _failures(_service_bench(digest="e" * 64), baseline)
        assert failures and failures[0].startswith("service-ledger-digest:")

    def test_digest_skipped_for_different_spec(self):
        baseline = {"service": dict(
            ledger_digest="d" * 64,
            spec_digest=spec_digest(self.SPEC),
        )}
        bench = _service_bench(digest="e" * 64, spec={"ops": 999})
        report = evaluate_gates(bench, baseline)
        assert report.failures == []
        assert any(line.startswith("service-ledger-digest: bench ran a "
                                   "different spec")
                   for line in report.skipped)

    def test_throughput_floor(self):
        baseline = {"service": dict(min_ops_per_second=1000.0)}
        bad = 1000.0 * 0.69  # below the 30% tolerance band
        failures = _failures(_service_bench(ops_s=bad), baseline)
        assert failures and "throughput" in failures[0]

    def test_scaling_gate_needs_enough_cpus(self):
        baseline = {"service": dict(min_speedup=3.0, min_speedup_cpus=4)}
        # 1-CPU host: the scaling gate must not fire — and says why.
        report = evaluate_gates(_service_bench(speedup=1.0, cpus=1),
                                baseline)
        assert report.failures == []
        assert any(line.startswith("service-scaling: 1 CPU(s) visible")
                   for line in report.skipped)
        # 4-CPU host: it must.
        failures = _failures(_service_bench(speedup=1.0, cpus=4), baseline)
        assert failures and "scaling" in failures[0]
        # And a genuine 3x pass clears it.
        assert _failures(_service_bench(speedup=3.2, cpus=4),
                         baseline) == []

    def test_p99_ceiling(self):
        baseline = {"service": dict(max_p99_us=1000)}
        failures = _failures(_service_bench(p99=2000), baseline)
        assert failures and "p99" in failures[0]

    def test_missing_service_section(self):
        failures = _failures(_service_bench(), {})
        assert failures and "service" in failures[0]


def _plant(tree, path, value):
    """Set ``value`` at a dotted ``path``, creating the dicts on the way."""
    *parents, leaf = path.split(".")
    for key in parents:
        tree = tree.setdefault(key, {})
    tree[leaf] = value


def _synthetic(gate, got):
    """A payload/baseline pair that makes ``gate`` judge exactly ``got``
    against a committed 100.0 (or "abc" for an equality row)."""
    committed = "abc" if gate.compare == "==" else 100.0
    is_family = "*" in gate.measured
    baseline = {}
    _plant(baseline, gate.threshold,
           {"k": committed} if is_family else committed)
    payload = {"cpu_count": 8, "scaling": {"best_shards": 4}}
    _plant(payload,
           gate.measured.replace("*", "k")
           .replace("{scaling.best_shards}", "4"),
           got)
    return {gate.payload: payload}, baseline


class TestGateTable:
    @pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
    def test_every_gate_can_fail(self, gate):
        """Each row holds just inside its threshold and fails just
        outside it: a row that cannot be made to fail is not a gate."""
        if gate.compare == "==":
            inside, outside = "abc", "abd"
        else:
            limit = 100.0 * gate.tolerance
            nudge = -1e-6 if gate.compare == ">=" else 1e-6
            inside, outside = limit, limit * (1.0 + nudge)
        label = gate.name + (" k" if "*" in gate.measured else "")

        report = evaluate_gates(*_synthetic(gate, inside))
        assert report.failures == []
        assert report.passed == [label]

        report = evaluate_gates(*_synthetic(gate, outside))
        assert len(report.failures) == 1
        assert report.failures[0].startswith(label + ":")
        assert report.passed == []

    def test_committed_record_is_judged_row_by_row(self):
        """The committed BENCH_*.json against the committed baseline:
        every row is either evaluated or named as skipped, with the
        reason — and the record passes its own gates."""
        payloads = {
            name: json.loads(
                (REPO_ROOT / f"BENCH_{name}.json").read_text()
            )
            for name in ("compression", "sim", "service")
        }
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )
        report = evaluate_gates(payloads, baseline)
        assert report.failures == []
        for gate in GATES:
            judged = [line for line in report.passed
                      if line == gate.name
                      or line.startswith(gate.name + " ")]
            skipped = [line for line in report.skipped
                       if line.startswith(gate.name + ": ")]
            assert bool(judged) != bool(skipped), gate.name
            for line in skipped:
                assert len(line) > len(gate.name) + 2   # has a reason

    @pytest.mark.parametrize("speedup, fails", [
        (1.0, True), (1.51, True), (2.57, True), (56.0, False)])
    def test_committed_lzss_fast_floor_can_fail(self, speedup, fails):
        """The committed ``fast_kernel_speedup.lzss`` floor is the
        compiled encoder's against the seed's encoder, its reference
        loop (56 passes): a Python encoder's ratio fails it — the seed
        against itself, about 1.0, and the Python encoders deleted
        before it, 2.57 at best with numpy chain tables and 1.51 with a
        hash table."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["fast_kernel_speedup"]["lzss"]
        failures = _failures(
            {"compression": {"fast": {
                "aggregate": {"lzss": {"speedup": speedup}}}}},
            {"fast_kernel_speedup": {"lzss": committed}},
        )
        assert [line.split(":")[0] for line in failures] == (
            ["fast-kernel-speedup lzss"] if fails else []
        )

    @pytest.mark.parametrize("encoder, speedup, verdict", [
        ("compiled", 1.3, "failed"), ("compiled", 80.0, "passed"),
        ("python", 1.3, "failed")])
    def test_committed_lzrw1_fast_floor_is_the_compiled_encoders(
            self, encoder, speedup, verdict):
        """``fast_kernel_speedup.lzrw1`` is the compiled encoder against
        the seed's loop: a Python encoder's ratio (the deleted numpy-hash
        loop read about 1.3) fails it by name, and so does a record
        from before the library was required that says its Python paths
        ran (``lz_library``): no row is skipped for it any more."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["fast_kernel_speedup"]["lzrw1"]
        report = evaluate_gates(
            {"compression": {"lz_library": encoder, "fast": {
                "aggregate": {"lzrw1": {"speedup": speedup}}}}},
            {"fast_kernel_speedup": {"lzrw1": committed}},
        )
        lines = {"failed": report.failures, "passed": report.passed,
                 "skipped": report.skipped}
        row = {verdict: ["fast-kernel-speedup lzrw1"]}
        assert {kind: [line.split(":")[0] for line in found
                       if line.startswith("fast-kernel-speedup")]
                for kind, found in lines.items()} == {
            kind: row.get(kind, []) for kind in lines}

    @pytest.mark.parametrize("library, verdict", [
        ("compiled", "failed"), (None, "failed"), ("python", "failed")])
    def test_two_tier_overhead_is_skipped_only_without_the_library(
            self, library, verdict):
        """Every two-tier demotion decodes; the library is required, so
        the ``overhead`` row's ``two_tier`` key is never skipped: a run
        over its 200% ceiling fails it (+585.7% is what the Python
        decoders read), whatever library a record names — a record from
        before the library was required may say ``python`` — and the
        row's other keys are judged either way."""
        payload = {"overhead": {
            "two_tier": {"lower_bound_percent": 585.7},
            "selector": {"lower_bound_percent": 1.0}}}
        if library is not None:
            payload["lz_library"] = library
        report = evaluate_gates(
            {"sim": payload},
            {"overhead_ceiling_percent": {"two_tier": 200.0,
                                          "selector": 10.0}},
        )
        lines = {"failed": report.failures, "passed": report.passed,
                 "skipped": report.skipped}
        row = {kind: [line for line in found if line.startswith("overhead")]
               for kind, found in lines.items()}
        assert row["passed"] == ["overhead selector"]
        assert [line.split(":")[0] for line in row[verdict]] \
            == ["overhead two_tier"]
        assert sum(map(len, row.values())) == 2

    @pytest.mark.parametrize("name, loop, compiled", [
        ("rle", 1.0, 55.9), ("wk", 1.0, 84.7), ("varint-delta", 1.0, 39.0),
        ("fpc", 1.0, 111.7), ("bdi", 1.0, 60.0), ("cpack", 1.0, 80.4)])
    def test_a_fallback_to_the_loop_fails_its_row(
            self, name, loop, compiled):
        """Each word kernel's committed floor is its compiled encoder's
        ratio against its loop: the loop against itself (about 1.0)
        fails the row by name, and the lowest compiled ratio recorded
        passes it."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["fast_kernel_speedup"][name]
        for speedup, want in ((loop, [f"fast-kernel-speedup {name}"]),
                              (compiled, [])):
            failures = _failures(
                {"compression": {"fast": {
                    "aggregate": {name: {"speedup": speedup}}}}},
                {"fast_kernel_speedup": {name: committed}},
            )
            assert [line.split(":")[0] for line in failures] == want

    @pytest.mark.parametrize("pages_s, fails", [(2100, True), (4400, False)])
    def test_committed_contentgen_floor_can_fail(self, pages_s, fails):
        """The committed floor sits between what the generators measured
        drawing one ``randrange`` per byte (2,100 pages/s at best) and
        the slowest run of the ones that draw in bulk (4,400)."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["contentgen_pages_per_second"]
        failures = _failures(
            {"sim": {"contentgen": {"pages_per_second": pages_s}}},
            {"contentgen_pages_per_second": committed},
        )
        assert [line.split(":")[0] for line in failures] == (
            ["contentgen-floor"] if fails else []
        )

    @pytest.mark.parametrize("ops_s, fails", [(48000, True), (68000, False)])
    def test_committed_logstore_floor_can_fail(self, ops_s, fails):
        """30% under the committed floor sits between the slowest the
        churn measured on a noisy host with the checkpoint rows in a
        ``PageId``-keyed dict (48,000 ops/s) and the slowest it measured
        there with them kept in image order (68,000)."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["logstore_churn_ops_per_second"]
        failures = _failures(
            {"compression": {"micro": {"logstore_churn_ops_s": ops_s}}},
            {"logstore_churn_ops_per_second": committed},
        )
        assert [line.split(":")[0] for line in failures] == (
            ["logstore-floor"] if fails else []
        )

    @pytest.mark.parametrize("growth, fails", [
        (31.4, True), (20.1, True), (10.4, False)])
    def test_committed_shard_rss_ceiling_can_fail(self, growth, fails):
        """The committed ceiling sits between what one shard grew by
        with a hash table per ``Lzrw1`` (31.4 MB) or while every trial
        candidate's payload and every slot's finished results were kept
        (20.1 MB), and with one byte-budgeted store of finished results
        (10.4 MB)."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["service"]["max_shard_rss_growth_mb"]
        failures = _failures(
            {"service": {"runs": {"1": {"shard_peak_rss_growth_mb": growth}}}},
            {"service": {"max_shard_rss_growth_mb": committed}},
        )
        assert [line.split(":")[0] for line in failures] == (
            ["service-shard-rss"] if fails else []
        )

    @pytest.mark.parametrize("growth, fails", [
        ({"64": 48.7, "1024": 53.4}, True),
        ({"64": 22.0, "1024": 26.3}, False),
    ])
    def test_committed_adversarial_ceilings_can_fail(self, growth, fails):
        """The committed ceilings sit between what one shard grew by on
        the adversarial stream while every slot's memo kept its finished
        results (48.7 MB at 64 slots, 53.4 at 1,024) and with one
        byte-budgeted store of them (22.0, 26.3)."""
        service = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["service"]
        failures = _failures(
            {"service": {"adversarial": {
                "pages": service["adversarial_pages"],
                "runs": {slots: {"shard_peak_rss_growth_mb": mb}
                         for slots, mb in growth.items()},
            }}},
            {"service": {
                key: service[key] for key in (
                    "adversarial_pages",
                    "max_adversarial_shard_rss_growth_mb")
            }},
        )
        assert [line.split(":")[0] for line in failures] == (
            ["service-adversarial-rss 64", "service-adversarial-rss 1024"]
            if fails else []
        )

    def test_adversarial_ceilings_skip_another_stream_by_name(self):
        report = evaluate_gates(
            {"service": {"adversarial": {"pages": 64, "runs": {
                "64": {"shard_peak_rss_growth_mb": 99.0}}}}},
            {"service": {"adversarial_pages": 10240,
                         "max_adversarial_shard_rss_growth_mb": {"64": 24}}},
        )
        assert report.failures == []
        assert ("service-adversarial-rss: stream of 64 pages, ceilings "
                "recorded for 10240") in report.skipped

    @pytest.mark.parametrize("peak, fails", [(61.2, True), (56.5, False)])
    def test_committed_stream_replay_ceiling_can_fail(self, peak, fails):
        """The committed ceiling sits between the replay's peak while
        every memoized text page kept its own copy of the dictionary
        (61.2 MB, the lowest of three runs) and with the text memos
        keyed by a dictionary token (56.5, the highest of three)."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["stream_replay_peak_rss_mb"]
        failures = _failures(
            {"sim": {"scale": 0.05, "stream_replay": {"peak_rss_mb": peak}}},
            {"sim_scale": 0.05, "stream_replay_peak_rss_mb": committed},
        )
        assert [line.split(":")[0] for line in failures] == (
            ["stream-replay-rss"] if fails else []
        )

    @pytest.mark.parametrize("logstore, fails", [(35.9, True), (16.8, False)])
    def test_committed_import_footprint_ceiling_can_fail(self, logstore,
                                                         fails):
        """The committed ``logstore`` ceiling sits between a fresh
        ``import repro.storage.logstore`` with eager package inits
        (35.9 MB: the simulator and numpy) and with lazy ones (16.8,
        the highest measured)."""
        committed = json.loads(
            (REPO_ROOT / "benchmarks" / "perf_baseline.json").read_text()
        )["import_footprint_mb"]
        failures = _failures(
            {"compression": {"import_footprint": {
                "logstore": {"peak_rss_mb": logstore},
                "kv_front_end": {"peak_rss_mb": 36.4},
            }}},
            {"import_footprint_mb": committed},
        )
        assert [line.split(":")[0] for line in failures] == (
            ["import-footprint logstore"] if fails else []
        )

    def test_import_footprint_measures_each_set_and_names_a_broken_one(
            self, monkeypatch):
        monkeypatch.setattr(perf, "IMPORT_SETS",
                            {"disk": ("repro.storage.disk",)})
        row = perf.bench_import_footprint(reps=1)["disk"]
        assert row["numpy_loaded"] is False
        # repro, repro.storage, disk, device and counters: nothing else.
        assert row["repro_modules"] == 5
        assert row["peak_rss_mb"] is None or row["peak_rss_mb"] > 0
        monkeypatch.setattr(perf, "IMPORT_SETS",
                            {"broken": ("repro.no_such_module",)})
        with pytest.raises(RuntimeError, match="importing broken failed"):
            perf.bench_import_footprint(reps=1)

    def test_import_footprint_without_proc_is_skipped_by_name(self):
        report = evaluate_gates(
            {"compression": {"import_footprint": {
                "logstore": {"peak_rss_mb": None},
            }}},
            {"import_footprint_mb": {"logstore": 24}},
        )
        assert report.failures == []
        assert ("import-footprint: no /proc on this host: no child read "
                "its VmHWM") in report.skipped

    def test_shard_rss_without_proc_is_skipped_by_name(self):
        report = evaluate_gates(
            {"service": {"runs": {"1": {"shard_peak_rss_growth_mb": None}}}},
            {"service": {"max_shard_rss_growth_mb": 26.0}},
        )
        assert report.failures == []
        assert ("service-shard-rss: no /proc on this host: the shard's "
                "memory was not read") in report.skipped

    def test_a_baseline_that_gates_nothing_is_not_a_pass(self):
        failures = _failures({"compression": _compression()}, {})
        assert failures == [
            "compression: the baseline commits no threshold for this "
            "payload"
        ]


class TestCheckBaseline:
    def test_exit_codes(self, tmp_path):
        lines = []
        path = tmp_path / "baseline.json"
        assert check_baseline({"compression": _compression()}, path,
                              lines.append) == 2
        path.write_text(json.dumps(_baseline()))
        assert check_baseline({"compression": _compression()}, path,
                              lines.append) == 0
        assert any(line.startswith("skipped: sim-floor:") for line in lines)
        assert check_baseline({"compression": _compression(speedup=1.0)},
                              path, lines.append) == 1
        assert lines[-1].startswith(
            "REGRESSION: fast-kernel-speedup lzrw1:")
