"""Integration: the paper's qualitative results at miniature scale.

These are the fastest whole-system checks of "who wins, by roughly what
factor, where crossovers fall" — the benchmark suite runs the fuller
versions.
"""

import pytest

from repro.experiments import (
    Figure3Result,
    figure3_points,
    run_cells,
    run_pair,
    table1_row,
)
from repro.mem.page import mbytes


class TestThrasherRegimes:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Figure3Result.from_cells("rw", run_cells(figure3_points(
            write=True, scale=0.05, points=(0.5, 1.5, 5.0), cycles=2
        )))

    def test_no_paging_below_memory(self, sweep):
        assert sweep.points[0].speedup == pytest.approx(1.0, abs=0.05)

    def test_big_win_in_compressed_band(self, sweep):
        assert sweep.points[1].speedup > 3.0

    def test_modest_win_beyond(self, sweep):
        assert 1.0 < sweep.points[2].speedup < sweep.points[1].speedup


class TestApplicationShapes:
    def test_compare_wins_clearly(self):
        row = table1_row("compare", scale=0.05)
        assert row.speedup > 1.5
        assert row.uncompressible_percent < 5.0

    def test_gold_warm_loses(self):
        row = table1_row("gold_warm", scale=0.05)
        assert row.speedup < 1.0
        assert 45.0 < row.ratio_percent < 75.0

    def test_sort_random_mostly_uncompressible(self):
        row = table1_row("sort_random", scale=0.05, calibrate=False)
        assert row.uncompressible_percent > 90.0
        assert row.speedup < 1.05


class TestCompressionIsTheDifference:
    def test_incompressible_data_neutralizes_the_cache(self):
        """With random pages the two systems converge (modulo the wasted
        compression effort)."""
        std, cc = run_pair({
            "config": {"memory_bytes": mbytes(0.7)},
            "workload": {
                "kind": "synthetic", "address_space_bytes": mbytes(2),
                "references": 3000, "compressible_fraction": 0.0,
                "hot_probability": 0.3, "write_fraction": 0.5, "seed": 21,
            },
        })
        assert cc.elapsed_seconds == pytest.approx(
            std.elapsed_seconds, rel=0.25
        )

    def test_compressible_data_engages_the_cache(self):
        std, cc = run_pair({
            "config": {"memory_bytes": mbytes(0.7)},
            "workload": {"kind": "thrasher", "cycles": 3, "write": True,
                         "working_set_bytes": mbytes(1.4)},
        })
        assert std.elapsed_seconds / cc.elapsed_seconds > 3.0
