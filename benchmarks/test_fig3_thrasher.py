"""Figure 3: thrasher page-access time and speedup versus address-space size.

Scaled-down regeneration of both panels for both access modes.  Shape
checks from the paper's figure:

* the std curves knee upward once the working set exceeds memory;
* the cc curves stay near compression cost while the compressed set
  fits (the flat region up to ~2.5x memory at 4:1 compression);
* cc speedup peaks in the fits-compressed band and remains > 1 beyond;
* rw costs more than ro on the standard system (two transfers/fault).
"""

import pytest
from conftest import run_once

from repro.experiments import Figure3Result, figure3_points, run_cells

SCALE = 0.08
POINTS = (0.5, 1.0, 1.5, 2.2, 3.5, 5.0)


@pytest.fixture(scope="module")
def sweeps():
    cells = run_cells(
        figure3_points(False, scale=SCALE, points=POINTS, cycles=3)
        + figure3_points(True, scale=SCALE, points=POINTS, cycles=3)
    )
    return {mode: Figure3Result.from_cells(mode, cells)
            for mode in ("ro", "rw")}


def test_figure3_rw(benchmark, sweeps):
    result = run_once(benchmark, lambda: sweeps["rw"])
    print()
    print(result.render())
    in_memory, knee, fits, beyond = (
        result.points[0], result.points[2], result.points[3],
        result.points[-1],
    )
    # Below memory size: no steady-state paging on either system (the
    # small residue is the one-time demand-fill amortized over 3 cycles),
    # far below the tens of ms per access once thrashing starts.
    assert in_memory.std_ms_per_access < 1.0
    assert in_memory.cc_ms_per_access < 1.0
    # Past memory: the std curve jumps by orders of magnitude.
    assert knee.std_ms_per_access > 100 * in_memory.std_ms_per_access
    # While the compressed set fits: big speedups.
    assert fits.speedup > 4.0
    # Beyond even the compressed capacity: smaller but still > 1.
    assert beyond.speedup > 1.2
    assert beyond.speedup < fits.speedup


def test_figure3_ro(benchmark, sweeps):
    result = run_once(benchmark, lambda: sweeps["ro"])
    print()
    print(result.render())
    fits = result.points[3]
    beyond = result.points[-1]
    assert fits.speedup > 4.0
    assert beyond.speedup > 1.0


def test_rw_costlier_than_ro_on_std(benchmark, sweeps):
    """The unmodified system pays a write-out plus a read per rw fault."""
    rw = run_once(benchmark,
                  lambda: sweeps["rw"].points[-1].std_ms_per_access)
    ro = sweeps["ro"].points[-1].std_ms_per_access
    assert rw > ro


def test_speedup_peaks_in_fits_compressed_band(benchmark, sweeps):
    run_once(benchmark, lambda: None)
    for mode in ("ro", "rw"):
        points = sweeps[mode].points
        peak = max(p.speedup for p in points)
        peak_point = max(points, key=lambda p: p.speedup)
        # The peak sits where paging exists but compression absorbs it:
        # past memory size, within ~4x memory (4:1 compression).
        assert 0.99 <= peak_point.address_space_bytes / (
            6 * 0.08 * 1024 * 1024
        ) <= 4.0
        assert peak > 4.0
