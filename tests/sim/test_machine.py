"""Machine wiring and configuration."""

import pytest

from repro.mem.page import mbytes
from repro.sim.machine import DEVICE_PRESETS, Machine, MachineConfig
from repro.vm.compressed import CompressedVM
from repro.vm.faults import VmConfigurationError
from repro.vm.standard import StandardVM
from repro.workloads import SyntheticWorkload


def build(config, space_mb=2):
    workload = SyntheticWorkload(mbytes(space_mb), references=1)
    return Machine(config, workload.build())


class TestConstruction:
    def test_compression_cache_machine(self):
        machine = build(MachineConfig(memory_bytes=mbytes(1)))
        assert isinstance(machine.vm, CompressedVM)
        assert machine.ccache is not None
        assert machine.fragstore is not None

    def test_baseline_machine(self):
        machine = build(
            MachineConfig(memory_bytes=mbytes(1), compression_cache=False)
        )
        assert isinstance(machine.vm, StandardVM)
        assert machine.ccache is None

    def test_variant_and_baseline_helpers(self):
        config = MachineConfig(memory_bytes=mbytes(4))
        baseline = config.baseline()
        assert not baseline.compression_cache
        assert baseline.memory_bytes == config.memory_bytes
        assert config.variant(compressor="lzss").compressor == "lzss"

    def test_all_device_presets_buildable(self):
        for name in DEVICE_PRESETS:
            machine = build(
                MachineConfig(memory_bytes=mbytes(1), device=name)
            )
            assert machine.device is not None

    def test_unknown_device_rejected(self):
        with pytest.raises(VmConfigurationError):
            build(MachineConfig(memory_bytes=mbytes(1), device="ssd9000"))

    def test_lfs_filesystem(self):
        from repro.storage.lfs import LogStructuredFS

        machine = build(MachineConfig(memory_bytes=mbytes(1),
                                      filesystem="lfs"))
        assert isinstance(machine.fs, LogStructuredFS)

    def test_unknown_filesystem_rejected(self):
        with pytest.raises(VmConfigurationError):
            build(MachineConfig(memory_bytes=mbytes(1), filesystem="zfs"))

    def test_lfs_machine_runs_both_systems(self):
        from repro.sim.engine import SimulationEngine
        from repro.workloads import Thrasher

        for compression_cache in (False, True):
            workload = Thrasher(mbytes(1), cycles=2, write=True)
            machine = Machine(
                MachineConfig(memory_bytes=mbytes(0.5), filesystem="lfs",
                              compression_cache=compression_cache),
                workload.build(),
            )
            result = SimulationEngine(machine).run(workload.references())
            assert result.metrics_snapshot["faults"]["total"] > 0

    def test_too_little_memory_rejected(self):
        with pytest.raises(VmConfigurationError):
            build(MachineConfig(memory_bytes=8192))

    def test_page_size_mismatch_rejected(self):
        workload = SyntheticWorkload(mbytes(1), references=1,
                                     page_size=8192)
        with pytest.raises(VmConfigurationError):
            Machine(MachineConfig(memory_bytes=mbytes(1)), workload.build())


class TestMetadataOverhead:
    def test_cc_machine_has_fewer_user_frames(self):
        """Section 4.4's overheads cost the CC configuration real memory."""
        cc = build(MachineConfig(memory_bytes=mbytes(1)))
        std = build(
            MachineConfig(memory_bytes=mbytes(1), compression_cache=False)
        )
        assert cc.user_frames < std.user_frames

    def test_overhead_scales_with_address_space(self):
        small = build(MachineConfig(memory_bytes=mbytes(1)), space_mb=1)
        large = build(MachineConfig(memory_bytes=mbytes(1)), space_mb=16)
        assert large.user_frames < small.user_frames


class TestMeasurementReset:
    def test_reset_clears_metrics_keeps_state(self):
        from repro.sim.engine import SimulationEngine
        from repro.workloads import Thrasher

        workload = Thrasher(300 * 4096, cycles=1, write=True)
        machine = Machine(
            MachineConfig(memory_bytes=mbytes(1)), workload.build()
        )
        engine = SimulationEngine(machine)
        engine.run(workload.references())
        resident_before = machine.vm.resident_pages
        machine.reset_measurement()
        assert machine.vm.metrics.accesses == 0
        assert machine.ledger.total() == 0.0
        assert machine.vm.resident_pages == resident_before
        assert machine.ledger.now > 0.0  # clock keeps running


class TestConfigValidation:
    """Non-positive sizes and rates are rejected up front."""

    def test_rejects_nonpositive_sizes(self):
        import pytest

        from repro.sim.machine import MachineConfig

        for field_name in ("memory_bytes", "page_size", "fragment_size",
                           "batch_bytes"):
            with pytest.raises(ValueError, match=field_name):
                MachineConfig(**{field_name: 0})
            with pytest.raises(ValueError, match=field_name):
                MachineConfig(**{field_name: -4096})

    def test_rejects_nonpositive_threshold(self):
        import pytest

        from repro.sim.machine import MachineConfig

        with pytest.raises(ValueError, match="threshold_factor"):
            MachineConfig(threshold_factor=0.0)

    def test_device_models_validate(self):
        import pytest

        from repro.storage.disk import DiskModel
        from repro.storage.network import NetworkModel

        with pytest.raises(ValueError, match="bandwidth"):
            DiskModel(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError, match="rpm"):
            DiskModel(rpm=-1)
        with pytest.raises(ValueError, match="fixed_overhead_ms"):
            DiskModel(fixed_overhead_ms=-0.5)
        with pytest.raises(ValueError, match="bandwidth"):
            NetworkModel(bandwidth_bits_per_s=-1)
        with pytest.raises(ValueError, match="rpc_overhead_ms"):
            NetworkModel(rpc_overhead_ms=-2.0)
        with pytest.raises(ValueError, match="per_packet_ms"):
            NetworkModel(per_packet_ms=-0.1)


class TestFromSpec:
    """``MachineConfig.from_spec``: a sweep cell's ``config``, decoded."""

    def test_empty_spec_is_the_default_config(self):
        assert MachineConfig.from_spec({}) == MachineConfig()

    def test_plain_keys_are_fields_taken_as_given(self):
        spec = {
            "memory_bytes": mbytes(2), "compressor": "wk",
            "device": "wavelan", "filesystem": "lfs",
            "fragment_size": 512, "batch_bytes": 4096,
            "allow_spanning": False, "vm_architecture": "external-pager",
            "store": "lfs",
        }
        assert MachineConfig.from_spec(spec) == MachineConfig(**spec)

    def test_decoded_keys(self):
        from repro.ccache.allocator import AllocationBiases
        from repro.control.controller import ControlConfig
        from repro.sim.costs import CostModel
        from repro.storage.blockfs import PartialWritePolicy
        from repro.storage.logstore import LogStoreConfig
        from repro.tiers.spec import parse_tier_specs, two_tier_specs

        weights = {"file_cache_weight": 4.0, "vm_weight": 2.0,
                   "ccache_weight": 1.0}
        config = MachineConfig.from_spec({
            "log_store": {"sync_appends": True, "kill": "append:3:0.5"},
            "partial_write_policy": "whole-block",
            "biases": weights,
            "costs": ["cpu", 8.0],
            "tiers": "lzrw1:8,lzss",
            "control": {"seed": 3},
        })
        assert config.log_store == LogStoreConfig(sync_appends=True,
                                                  kill="append:3:0.5")
        assert config.partial_write_policy is PartialWritePolicy.WHOLE_BLOCK
        assert config.biases == AllocationBiases(**weights)
        assert config.costs == CostModel.faster_cpu(8.0)
        assert config.tiers == parse_tier_specs("lzrw1:8,lzss")
        assert config.control == ControlConfig(seed=3)
        for costs, model in (("base", CostModel()),
                             ("hardware", CostModel.hardware_compression())):
            assert MachineConfig.from_spec({"costs": costs}).costs == model
        # The geometry-grid convenience wins over "tiers"; its None is a
        # value (allocator-sized L1), everyone else's means "default".
        assert MachineConfig.from_spec(
            {"tiers": "lzrw1", "tier_l1_frames": 12}
        ).tiers == two_tier_specs(12)
        assert MachineConfig.from_spec(
            {"tier_l1_frames": None}
        ).tiers == two_tier_specs(None)
        assert MachineConfig.from_spec(
            {"tiers": None, "control": None, "log_store": None}
        ) == MachineConfig()

    def test_every_key_it_reads_is_listed(self):
        everything = {
            "memory_bytes": mbytes(1), "compressor": "lzss",
            "device": "pcmcia", "filesystem": "lfs", "fragment_size": 256,
            "batch_bytes": 8192, "allow_spanning": False,
            "vm_architecture": "external-pager", "store": "lfs",
            "log_store": {"sync_appends": True},
            "partial_write_policy": "overwrite",
            "biases": {"vm_weight": 3.0}, "costs": "hardware",
            "tiers": "wk", "control": {"seed": 1}, "tier_l1_frames": 9,
        }
        assert set(everything) == set(MachineConfig.SPEC_KEYS)
        full = MachineConfig.from_spec(everything)
        for key in MachineConfig.SPEC_KEYS:
            # "tiers" only shows once "tier_l1_frames" stops overriding it.
            hidden = {key, "tier_l1_frames"} if key == "tiers" else {key}
            without = {k: v for k, v in everything.items()
                       if k not in hidden}
            shown = {k: v for k, v in everything.items()
                     if k not in hidden - {key}}
            assert (MachineConfig.from_spec(without)
                    != MachineConfig.from_spec(shown)), key
        assert MachineConfig.from_spec(
            {**everything, "no_such_key": 1}
        ) == full

    @pytest.mark.parametrize("key, value, reason", [
        ("tiers", "bogus:x", "bad max_frames in tier item 'bogus:x'"),
        ("log_store", {"kill": "nowhere:1"}, "unknown kill site 'nowhere'"),
        ("costs", "quantum", "unknown costs spec: 'quantum'"),
        ("partial_write_policy", "sometimes", "'sometimes' is not a valid"),
        ("control", {"sede": 1}, "unknown ControlConfig fields: ['sede']"),
    ])
    def test_rejected_value_names_its_key(self, key, value, reason):
        from repro.sim.machine import SpecError

        with pytest.raises(SpecError) as caught:
            MachineConfig.from_spec({key: value})
        assert caught.value.key == key
        assert reason in str(caught.value.reason)
        assert str(caught.value).startswith(f"{key}: ")
        assert isinstance(caught.value, ValueError)
