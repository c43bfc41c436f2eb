"""Simulation engine: reference streams, mutations, results."""

import pytest

from repro.mem.page import PageId, mbytes
from repro.sim.engine import PageRef, SimulationEngine, run_workload
from repro.sim.machine import Machine, MachineConfig
from repro.sim.report import format_minutes_seconds, render_series, render_table
from repro.workloads import SyntheticWorkload


def make_machine(cc=True):
    workload = SyntheticWorkload(mbytes(1), references=1)
    machine = Machine(
        MachineConfig(memory_bytes=mbytes(1), compression_cache=cc),
        workload.build(),
    )
    seg = next(machine.address_space.segments())
    return machine, seg.segment_id


class TestRun:
    def test_reads_and_writes_counted(self):
        machine, seg = make_machine()
        refs = [
            PageRef(PageId(seg, 0)),
            PageRef(PageId(seg, 1), write=True),
            PageRef(PageId(seg, 0)),
        ]
        result = SimulationEngine(machine).run(refs)
        snapshot = result.metrics_snapshot
        assert snapshot["accesses"] == 3
        assert snapshot["read_accesses"] == 2
        assert snapshot["write_accesses"] == 1
        assert result.elapsed_seconds > 0.0

    def test_default_write_mutation_dirties_content(self):
        machine, seg = make_machine()
        SimulationEngine(machine).run([PageRef(PageId(seg, 0), write=True)])
        pte = machine.address_space.entry(PageId(seg, 0))
        assert pte.content.version > 0

    def test_explicit_mutation_applied(self):
        machine, seg = make_machine()
        refs = [PageRef(
            PageId(seg, 0), write=True,
            mutate=lambda content: content.store_word(0, 1234),
        )]
        SimulationEngine(machine).run(refs)
        pte = machine.address_space.entry(PageId(seg, 0))
        assert pte.content.load_word(0) == 1234

    def test_mutation_on_read_rejected(self):
        machine, seg = make_machine()
        refs = [PageRef(PageId(seg, 0), mutate=lambda c: None)]
        with pytest.raises(ValueError):
            SimulationEngine(machine).run(refs)

    def test_compute_seconds_charged(self):
        machine, seg = make_machine()
        result = SimulationEngine(machine).run(
            [PageRef(PageId(seg, 0), compute_seconds=5.0)]
        )
        assert result.elapsed_seconds > 5.0
        assert result.time_breakdown["base"] > 5.0

    def test_max_references_truncates(self):
        machine, seg = make_machine()
        refs = (PageRef(PageId(seg, n % 4)) for n in range(100))
        result = SimulationEngine(machine).run(refs, max_references=10)
        assert result.metrics_snapshot["accesses"] == 10

    def test_run_workload_helper(self):
        workload = SyntheticWorkload(mbytes(1), references=50)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(1)), workload.build()
        )
        result = run_workload(machine, workload.references())
        assert result.metrics_snapshot["accesses"] == 50

    def test_summary_readable(self):
        workload = SyntheticWorkload(mbytes(1), references=10)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(1)), workload.build()
        )
        result = run_workload(machine, workload.references())
        assert "elapsed" in result.summary()
        assert "faults" in result.summary()

    def test_digest_is_the_sha256_of_the_canonical_json(self):
        import hashlib
        import json

        workload = SyntheticWorkload(mbytes(1), references=40)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(0.25)), workload.build()
        )
        result = run_workload(machine, workload.references())
        canonical = json.dumps(result.as_dict(), sort_keys=True,
                               separators=(",", ":"))
        assert result.digest() == hashlib.sha256(
            canonical.encode()
        ).hexdigest()
        assert result.digest() == result.digest()


class TestObserver:
    def test_observer_called_on_period(self):
        machine, seg = make_machine()
        seen = []
        refs = [PageRef(PageId(seg, n % 4)) for n in range(25)]
        SimulationEngine(machine).run(
            refs,
            observer=lambda m, i: seen.append(i),
            observe_every=10,
        )
        assert seen == [10, 20]

    def test_observer_sees_live_machine_state(self):
        from repro.mem.page import mbytes as mb
        from repro.workloads import Thrasher

        workload = Thrasher(mb(1.2), cycles=2, write=True)
        machine = Machine(
            MachineConfig(memory_bytes=mb(0.5)), workload.build()
        )
        cache_sizes = []
        SimulationEngine(machine).run(
            workload.references(),
            observer=lambda m, i: cache_sizes.append(m.ccache.nframes),
            observe_every=64,
        )
        # The variable-sized cache grows during the run (Section 4.2).
        assert cache_sizes[-1] > cache_sizes[0]

    def test_invalid_period(self):
        machine, seg = make_machine()
        with pytest.raises(ValueError):
            SimulationEngine(machine).run([], observe_every=0)


class TestReport:
    def test_minutes_seconds(self):
        assert format_minutes_seconds(974) == "16:14"
        assert format_minutes_seconds(59.6) == "1:00"
        assert format_minutes_seconds(0) == "0:00"
        with pytest.raises(ValueError):
            format_minutes_seconds(-1)

    def test_render_table(self):
        text = render_table(
            ["app", "speedup"],
            [["compare", 2.68], ["isca", 1.6]],
            title="Table 1",
        )
        assert "Table 1" in text
        assert "compare" in text
        assert "2.68" in text

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_series(self):
        text = render_series("cc_ro", [1, 2], [3.5, 4.5],
                             x_label="MB", y_label="ms")
        assert "cc_ro" in text
        assert "MB" in text
        with pytest.raises(ValueError):
            render_series("bad", [1], [1, 2])
