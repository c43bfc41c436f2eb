"""Clock, ledger, and cost model."""

import pytest

from repro.sim.costs import CostModel
from repro.sim.ledger import Ledger, TimeCategory


class TestClock:
    """The ledger is the clock: ``now`` moves only by a charge."""

    def test_advance(self):
        ledger = Ledger()
        assert ledger.now == 0.0
        ledger.charge(TimeCategory.BASE, 1.5)
        assert ledger.now == 1.5

    def test_start_offset(self):
        assert Ledger(10.0).now == 10.0

    def test_never_rewinds(self):
        ledger = Ledger()
        with pytest.raises(ValueError):
            ledger.charge(TimeCategory.BASE, -0.1)
        assert ledger.now == 0.0


class TestLedger:
    def test_charge_advances_clock(self):
        ledger = Ledger()
        ledger.charge(TimeCategory.IO_READ, 2.0)
        assert ledger.now == 2.0
        assert ledger.total(TimeCategory.IO_READ) == 2.0
        assert ledger.total() == 2.0

    def test_breakdown_skips_zero_categories(self):
        ledger = Ledger()
        ledger.charge(TimeCategory.COMPRESS, 1.0)
        assert ledger.breakdown() == {"compress": 1.0}

    def test_reset_totals_keeps_clock(self):
        ledger = Ledger()
        ledger.charge(TimeCategory.BASE, 3.0)
        ledger.reset_totals()
        assert ledger.total() == 0.0
        assert ledger.now == 3.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Ledger().charge(TimeCategory.BASE, -1.0)


class TestCostModel:
    def test_decompression_twice_as_fast(self):
        """The Figure 1 caption's LZRW1 assumption."""
        costs = CostModel()
        assert costs.decompress_seconds(4096) == pytest.approx(
            costs.compress_seconds(4096) / 2.0
        )

    def test_compression_much_faster_than_disk_io(self):
        """Section 3's premise on the measured platform."""
        from repro.storage.disk import DiskModel

        costs = CostModel.decstation_5000_200()
        compress = costs.compress_seconds(4096)
        io = DiskModel.rz57().read(4096)
        assert compress < io / 5

    def test_hardware_compression_preset(self):
        default = CostModel()
        hardware = CostModel.hardware_compression()
        assert hardware.compress_bandwidth > 10 * default.compress_bandwidth

    def test_faster_cpu_scales_everything(self):
        fast = CostModel.faster_cpu(4.0)
        base = CostModel()
        assert fast.compress_bandwidth == 4 * base.compress_bandwidth
        assert fast.fault_trap_s == base.fault_trap_s / 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CostModel(compress_bandwidth=0)
        with pytest.raises(ValueError):
            CostModel.faster_cpu(0)

    def test_copy_seconds(self):
        costs = CostModel(copy_bandwidth=1e6)
        assert costs.copy_seconds(1_000_000) == pytest.approx(1.0)
