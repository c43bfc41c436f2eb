"""The experiment harness: scaling, calibration, rendering."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENTS,
    PAPER_TABLE1,
    TABLE1_ORDER,
    Figure3Point,
    Figure3Result,
    Table1Row,
    effective_memory,
    experiment_names,
    figure3_points,
    render_figure1,
    render_table1,
    run_cell,
    run_cells,
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
        std, cc = run_pair({
            "config": {"memory_bytes": mbytes(0.4)},
            "workload": {"kind": "thrasher", "cycles": 2, "write": True,
                         "working_set_bytes": mbytes(0.8)},
        })
        assert std.elapsed_seconds > cc.elapsed_seconds
        assert std.metrics_snapshot["accesses"] == (
            cc.metrics_snapshot["accesses"]
        )


def figure3_curve(write, points, cycles):
    """One Figure 3 curve at scale 0.04, through the sweep."""
    cells = run_cells(figure3_points(write, scale=0.04, points=points,
                                     cycles=cycles))
    return Figure3Result.from_cells("rw" if write else "ro", cells)


class TestFigure3:
    def test_sweep_structure(self):
        result = figure3_curve(True, points=(0.5, 2.0), cycles=2)
        assert result.mode == "rw"
        assert len(result.points) == 2
        assert result.points[0].address_space_bytes < (
            result.points[1].address_space_bytes
        )

    def test_render(self):
        result = figure3_curve(False, points=(0.5,), cycles=2)
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
        # Every row renders its own completed cells by key; figure3 and
        # table1 included, which their own subcommands print.
        assert all(callable(e.render) for e in EXPERIMENTS.values())


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


#: The fields each experiment's table reads from a cell; ``_INT_FIELDS``
#: are counts and byte totals, the rest floats.
RENDER_FIELDS = {
    "figure3": ("address_space_bytes", "std_ms_per_access",
                "cc_ms_per_access"),
    "table1": ("std_seconds", "cc_seconds", "ratio_percent",
               "uncompressible_percent", "compute_seconds_per_ref"),
    "ablations": ("std_seconds", "cc_seconds", "speedup"),
    "tiers": ("elapsed_seconds", "compressed_hit_rate",
              "effective_memory_ratio", "demoted_pages"),
    "kernels": ("stored_fraction", "stored_bytes", "total_bytes"),
    "lfs": ("elapsed_seconds", "segments_cleaned", "cleaner_copied_bytes"),
    "control": ("elapsed_seconds", "compressed_hit_rate",
                "effective_memory_ratio"),
}
_INT_FIELDS = {"address_space_bytes", "demoted_pages", "stored_bytes",
               "total_bytes", "segments_cleaned", "cleaner_copied_bytes"}

#: sha256 (first 16 hex digits) of each experiment's rendered text over
#: ``synthetic_cells``; figure3 and table1 as ``compression-cache
#: figure3`` / ``table1`` print it.
RENDER_PINS = {
    "figure3": "553adfe26bba34a1",
    "table1": "181595a8c72e147e",
    "ablations": "a4ba668e7db4b59d",
    "tiers": "13401715976e4152",
    "kernels": "0fa81ed62cff8939",
    "lfs": "b13df2b7b63eb528",
    "control": "6833961ff21c60b0",
}


def synthetic_cells(name):
    """Every cell of ``name`` at scale 0.05, filled with seeded values
    for the fields its table reads, in point order."""
    rng = random.Random(sorted(EXPERIMENTS).index(name))
    cells = {}
    for point in EXPERIMENTS[name].points(0.05, {"mode": "both", "seed": 0}):
        record = {
            field: (rng.randrange(1, 1 << 24) if field in _INT_FIELDS
                    else rng.uniform(0.01, 50.0))
            for field in RENDER_FIELDS[name]
        }
        if name == "table1":
            record["name"] = point.spec["name"]
        if point.key.endswith("/autotuned"):
            record["control"] = {"actions": rng.randrange(100)}
        cells[point.key] = record
    return cells


def typed_view_text(name, cells):
    """What ``compression-cache figure3`` / ``table1`` print for these
    cells, through ``Figure3Result.render`` / ``render_table1``."""
    if name == "table1":
        return render_table1([Table1Row(**record)
                              for record in cells.values()])
    blocks = []
    for mode in ("ro", "rw"):
        points = [Figure3Point(**record) for key, record in cells.items()
                  if key.startswith(f"figure3/{mode}/")]
        blocks.append(Figure3Result(mode, points).render())
    return "\n\n".join(blocks) + "\n"


class TestRenderPins:
    """Every experiment's rendered table over seeded synthetic cells,
    byte for byte."""

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_rendered_text_is_pinned(self, name):
        cells = synthetic_cells(name)
        texts = []
        if EXPERIMENTS[name].render is not None:
            texts.append(EXPERIMENTS[name].render(cells))
        if name in ("figure3", "table1"):
            texts.append(typed_view_text(name, cells))
        assert texts
        for text in texts:
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert digest == RENDER_PINS[name]


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


#: ``sweep --experiment NAME --scale 0.05 --digest`` per experiment, one
#: file the CI sweep smoke reads too.
SWEEP_DIGESTS = json.loads(
    (Path(__file__).parent / "sweep_digests.json").read_text()
)


class TestSweepDigests:
    """Every experiment's simulated cells at scale 0.05, end to end:
    a moved digest is a behaviour change in a run, an extractor or a
    point's spec."""

    def test_every_experiment_is_pinned(self):
        assert set(SWEEP_DIGESTS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_digest_is_pinned(self, capsys, name):
        from repro.cli import main

        assert main(["sweep", "--experiment", name, "--scale", "0.05",
                     "--jobs", "2", "--digest"]) == 0
        assert capsys.readouterr().out.strip() == SWEEP_DIGESTS[name]
