"""The experiment harness: scaling, calibration, rendering."""

import hashlib
import json

import pytest

from repro.experiments import (
    EXPERIMENTS,
    PAPER_TABLE1,
    TABLE1_ORDER,
    Figure3Point,
    effective_memory,
    experiment_names,
    figure3_sweep,
    render_figure1,
    render_table1,
    run_cell,
    run_pair,
    table1_row,
)
from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.sweep import canonical_spec
from repro.tiers.spec import parse_tier_specs
from repro.workloads import Thrasher


class TestRunPair:
    def test_returns_both_systems(self):
        std, cc = run_pair(
            lambda: Thrasher(mbytes(0.8), cycles=2, write=True),
            MachineConfig(memory_bytes=mbytes(0.4)),
        )
        assert std.elapsed_seconds > cc.elapsed_seconds
        assert std.metrics_snapshot["accesses"] == (
            cc.metrics_snapshot["accesses"]
        )


class TestFigure3:
    def test_sweep_structure(self):
        result = figure3_sweep(
            write=True, scale=0.04, points=(0.5, 2.0), cycles=2
        )
        assert result.mode == "rw"
        assert len(result.points) == 2
        assert result.points[0].address_space_bytes < (
            result.points[1].address_space_bytes
        )

    def test_render(self):
        result = figure3_sweep(
            write=False, scale=0.04, points=(0.5,), cycles=2
        )
        text = result.render()
        assert "std_ro" in text and "cc_ro" in text

    def test_point_speedup(self):
        point = Figure3Point(1, 10.0, 2.0)
        assert point.speedup == 5.0
        assert Figure3Point(1, 1.0, 0.0).speedup == float("inf")


class TestTable1:
    def test_paper_reference_rows_complete(self):
        assert set(TABLE1_ORDER) == set(PAPER_TABLE1)
        for row in PAPER_TABLE1.values():
            std, cc, speedup, ratio, uncompressible = row
            assert speedup == pytest.approx(std / cc, abs=0.01)

    def test_unknown_application_rejected(self):
        with pytest.raises(KeyError):
            table1_row("netscape", scale=0.05)

    def test_uncalibrated_row(self):
        row = table1_row("compare", scale=0.04, calibrate=False)
        assert row.compute_seconds_per_ref == 0.0
        assert row.speedup > 1.0

    def test_calibration_targets_paper_std_time(self):
        scale = 0.04
        row = table1_row("gold_create", scale=scale)
        target = PAPER_TABLE1["gold_create"][0] * scale
        # Either calibration hit the target, or paging alone already
        # exceeded it (compute clamped to zero).
        if row.compute_seconds_per_ref > 0:
            assert row.std_seconds == pytest.approx(target, rel=0.25)

    def test_render_includes_paper_columns(self):
        row = table1_row("compare", scale=0.04, calibrate=False)
        text = render_table1([row])
        assert "compare" in text
        assert "2.68" in text  # the paper's number, shown alongside


class TestFigure1Rendering:
    def test_render(self):
        text = render_figure1()
        assert "Figure 1(a)" in text
        assert "Figure 1(b)" in text
        assert "c=16" in text


class TestExperimentRegistry:
    """The CLI derives its --experiment choices from the registry; this
    is the drift guard that keeps the two from diverging again."""

    def test_registry_names_are_stable(self):
        assert experiment_names() == (
            "figure3", "table1", "ablations", "tiers",
            "kernels", "lfs", "control",
        )

    def test_cli_choices_come_from_the_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        sweep = next(
            action
            for action in parser._subparsers._group_actions[0]
            .choices["sweep"]._actions
            if action.dest == "experiment"
        )
        assert tuple(sweep.choices) == experiment_names()

    def test_every_experiment_builds_points(self):
        options = {"mode": "both", "seed": 0}
        for name, experiment in EXPERIMENTS.items():
            points = experiment.points(0.05, options)
            assert points, f"{name} produced no sweep points"
            keys = [p.key for p in points]
            assert len(keys) == len(set(keys)), f"{name} has dup keys"

    def test_renderers_are_wired_where_output_exists(self):
        rendered = {n for n, e in EXPERIMENTS.items()
                    if e.render is not None}
        # Every renderer that takes the completed cells by key; table1
        # and figure3 render typed results through their own subcommands.
        assert rendered == {"ablations", "tiers", "kernels", "lfs",
                            "control"}


#: ``blake2b(json.dumps([[key, runner, canonical_spec] ...]), 6)`` and
#: the point count, per scale and experiment, recorded before the grids
#: took their workloads from ``repro.workloads.catalog``.  A resumed
#: sweep adopts a checkpoint record only when all three match, so
#: equality here means a checkpoint written by an older tree still
#: resumes.
POINT_FINGERPRINTS = {
    0.04: {
        "figure3": ("95f85f3e1f84", 20),
        "table1": ("610f8b63d928", 7),
        "ablations": ("c5c417f544f7", 28),
        "tiers": ("cffd8c75512b", 4),
        "kernels": ("10064bc12806", 49),
        "lfs": ("c5c51b317529", 12),
        "control": ("95c213b5a895", 12),
    },
    0.05: {
        "figure3": ("438c555cc9cb", 20),
        "table1": ("22bbca88887d", 7),
        "ablations": ("13292822ff56", 28),
        "tiers": ("b0d49112c240", 4),
        "kernels": ("e4db2b0c24e2", 49),
        "lfs": ("e293b62bf986", 12),
        "control": ("0d612525d0bf", 12),
    },
    0.12: {
        "figure3": ("8e108758f862", 20),
        "table1": ("78f45acd4be8", 7),
        "ablations": ("33d115400daf", 28),
        "tiers": ("e3a646dcc1b5", 4),
        "kernels": ("0cb5f3ea1512", 49),
        "lfs": ("fb1da46234cd", 12),
        "control": ("5cd6f87ccf9f", 12),
    },
    1.0: {
        "figure3": ("79979a37e096", 20),
        "table1": ("0e3c43897d53", 7),
        "ablations": ("4a2ae8d4d0cd", 28),
        "tiers": ("32e88313cc23", 4),
        "kernels": ("f1d97118a49b", 49),
        "lfs": ("ef44d3f8efb8", 12),
        "control": ("fe193321486b", 12),
    },
}


class TestPointFingerprints:
    """Every sweep point's identity, without running a simulation."""

    @pytest.mark.parametrize("scale", sorted(POINT_FINGERPRINTS))
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_points_are_byte_identical(self, name, scale):
        points = EXPERIMENTS[name].points(
            scale, {"mode": "both", "seed": 0}
        )
        blob = json.dumps(
            [[p.key, p.runner, canonical_spec(p.spec)] for p in points]
        )
        digest = hashlib.blake2b(blob.encode(), digest_size=6).hexdigest()
        assert (digest, len(points)) == POINT_FINGERPRINTS[scale][name]


class TestRunCell:
    SPEC = {
        "config": {"memory_bytes": mbytes(0.3), "tiers": "two-tier"},
        "workload": {"kind": "thrasher",
                     "working_set_bytes": mbytes(0.6), "cycles": 2},
    }

    def test_builds_and_runs_what_the_spec_describes(self):
        machine, result = run_cell(self.SPEC)
        assert machine.config == MachineConfig.from_spec(self.SPEC["config"])
        assert [t.name for t in machine.chain.tiers] == ["l1", "l2"]
        assert result.metrics_snapshot["accesses"] == 2 * 154
        # The same cell, built by hand.
        workload = Thrasher(mbytes(0.6), cycles=2)
        by_hand = Machine(
            MachineConfig(memory_bytes=mbytes(0.3),
                          tiers=parse_tier_specs("two-tier")),
            workload.build(),
        )
        assert (SimulationEngine(by_hand).run(workload.references()).digest()
                == result.digest())

    def test_effective_memory_counts_compressed_pages(self):
        machine, _ = run_cell(self.SPEC)
        frames, ratio = effective_memory(machine)
        chain = machine.chain
        total = machine.frames.total_frames
        assert frames == (total - chain.mapped_frames()
                          + chain.compressed_pages())
        assert ratio == frames / total > 1.0
