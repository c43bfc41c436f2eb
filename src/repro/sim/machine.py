"""Machine configuration and construction.

A :class:`MachineConfig` captures everything the paper varies: user-memory
size ("a 32-Mbyte machine can behave as though it has as little as
12 Mbytes ... about 6 Mbytes are used by the kernel"), the backing device,
compression algorithm, backing-store interface parameters (fragment size,
batch size, spanning, partial-write policy), allocator biases, and
whether the compression cache exists at all.

:func:`build_machine` wires every substrate together into a ready
:class:`Machine` whose ``vm`` attribute is either a :class:`StandardVM`
(the "unmodified system") or a :class:`CompressedVM`.  The Section 4.4
metadata overheads are subtracted from usable memory so they cost the
compression-cache configuration real frames, as they did in 1993.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..ccache.allocator import AllocationBiases, ThreeWayAllocator
from ..ccache.circular import CompressionCache
from ..ccache.header import CODE_SIZE_BYTES, HASH_TABLE_BYTES, SLOT_DESCRIPTOR_BYTES
from ..ccache.threshold import AdaptiveCompressionGate
from ..compression import create as create_compressor
from ..compression.sampler import CompressionSampler
from ..control.controller import ControlConfig, ControlPlane, TierTelemetry
from ..faults.degrade import DegradationController, ResilienceCounters
from ..faults.device import FaultyDevice
from ..faults.plan import FaultPlan
from ..faults.retry import ResilientIO, RetryPolicy
from ..mem.frames import FrameOwner, FramePool
from ..mem.page import mbytes
from ..mem.pagetable import page_table_overhead_bytes
from ..mem.segment import AddressSpace
from ..pager.compression import CompressionPager
from ..pager.default import DefaultPager
from ..storage.backing import BackingStore
from ..storage.blockfs import BlockFileSystem, PartialWritePolicy
from ..storage.buffercache import BufferCache
from ..storage.device import BackingDevice
from ..storage.disk import DiskModel
from ..storage.fragstore import FragmentStore
from ..storage.lfs import LogStructuredFS
from ..storage.logstore import LogStoreConfig, LogStructuredStore
from ..storage.network import NetworkModel
from ..storage.swap import StandardSwap
from ..tiers.chain import TierChain
from ..tiers.compressed import CompressedTier, DemotionSink
from ..tiers.spec import (
    TierSpec,
    parse_tier_specs,
    two_tier_specs,
    validate_tier_specs,
)
from ..vm.compressed import CompressedVM
from ..vm.external import ExternalPagerVM
from ..vm.faults import VmConfigurationError
from ..vm.standard import StandardVM
from ..vm.system import BaseVM
from .costs import CostModel
from .ledger import Ledger

#: Named backing-device presets selectable from configuration.
DEVICE_PRESETS: Dict[str, Callable[[], BackingDevice]] = {
    "rz57": DiskModel.rz57,
    "pcmcia": DiskModel.slow_pcmcia,
    "modern-hdd": DiskModel.modern_hdd,
    "modern-ssd": DiskModel.modern_ssd,
    "ethernet": NetworkModel.ethernet,
    "wavelan": NetworkModel.wavelan,
}

#: Known compressed-page backing stores (``MachineConfig.store``).
STORE_KINDS = ("frag", "lfs")


#: The fewest page frames a machine pages in.
MIN_FRAMES = 4


class SpecError(ValueError):
    """A run-spec key whose value does not decode; ``key`` names it and
    ``reason`` is the decoder's own message."""

    def __init__(self, key: str, reason: Exception):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


def _costs_from_spec(costs: Any) -> CostModel:
    if costs == "base":
        return CostModel()
    if costs == "hardware":
        return CostModel.hardware_compression()
    if (isinstance(costs, (list, tuple)) and len(costs) == 2
            and costs[0] == "cpu" and isinstance(costs[1], (int, float))):
        return CostModel.faster_cpu(float(costs[1]))
    raise ValueError(f"unknown costs spec: {costs!r}")


def _fields_from_spec(cls) -> Callable[[Any], Any]:
    """Decoder of a JSON object naming some of ``cls``'s fields."""
    names = {f.name for f in fields(cls)}

    def decode(data: Any):
        if not isinstance(data, Mapping):
            raise ValueError(
                f"expected an object of {cls.__name__} fields, got {data!r}"
            )
        unknown = set(data) - names
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}"
            )
        return cls(**data)

    return decode


#: Run-spec keys that are ``MachineConfig`` fields taken as given.
_SPEC_PLAIN = (
    "memory_bytes", "compressor", "device", "filesystem",
    "fragment_size", "batch_bytes", "allow_spanning",
    "vm_architecture", "store",
)

#: Run-spec keys whose JSON value is decoded into the field's type
#: (``None`` leaves the field at its default).
_SPEC_DECODERS: Dict[str, Callable[[Any], Any]] = {
    "log_store": _fields_from_spec(LogStoreConfig),
    "partial_write_policy": PartialWritePolicy,
    "biases": _fields_from_spec(AllocationBiases),
    "costs": _costs_from_spec,
    "tiers": parse_tier_specs,
    "control": _fields_from_spec(ControlConfig),
}


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build one simulated machine."""

    #: Memory available to user processes (kernel already subtracted).
    memory_bytes: int = mbytes(14)
    page_size: int = 4096
    #: False builds the "unmodified system" baseline.
    compression_cache: bool = True
    compressor: str = "lzrw1"
    device: str = "rz57"
    #: "ufs" = update-in-place whole-block FS (Sprite's, with the
    #: Section 4.3 read-modify-write behaviour); "lfs" = the
    #: log-structured alternative the paper weighs for paging.
    filesystem: str = "ufs"
    partial_write_policy: PartialWritePolicy = (
        PartialWritePolicy.READ_MODIFY_WRITE
    )
    fragment_size: int = 1024
    batch_bytes: int = 32768
    allow_spanning: bool = True
    #: Compressed-page backing store: "frag" = the paper's fragment
    #: store (the default behind every golden digest); "lfs" = the
    #: crash-consistent log-structured store
    #: (:mod:`repro.storage.logstore`).
    store: str = "frag"
    #: Geometry/policy of the log-structured store; ignored unless
    #: ``store == "lfs"``.
    log_store: LogStoreConfig = field(default_factory=LogStoreConfig)
    biases: AllocationBiases = field(default_factory=AllocationBiases)
    adaptive_gate: bool = False
    prefetch_colocated: bool = True
    min_resident_frames: int = 2
    costs: CostModel = field(default_factory=CostModel)
    #: "monolithic" = the paper's in-kernel design; "external-pager" =
    #: the Mach-style restructuring (same policies behind an IPC-charged
    #: pager interface).
    vm_architecture: str = "monolithic"
    #: Fixed-size cache (Section 4.2's first prototype); None = variable.
    ccache_max_frames: Optional[int] = None
    #: Run the real compressor on every page (no memoization).
    exact_compression: bool = False
    #: Verify every decompression round trip (forces exact compression).
    paranoid: bool = False
    #: Deterministic fault-injection plan; ``None`` (the default) injects
    #: nothing, so the retry wrapper every machine's paging transfers run
    #: under charges nothing and no ``resilience`` key is reported.
    fault_plan: Optional[FaultPlan] = None
    #: Explicit compressed-tier chain, warmest first (see
    #: :mod:`repro.tiers`).  ``None`` — the default and the paper's
    #: configuration — builds the single compression cache from the
    #: ``compressor``/``ccache_max_frames`` fields above.
    tiers: Optional[Tuple[TierSpec, ...]] = None
    #: Closed-loop controller configuration (see :mod:`repro.control`);
    #: ``None`` (the default) builds no control machinery at all and
    #: leaves the hot path — and every golden digest — untouched.
    control: Optional[ControlConfig] = None

    def __post_init__(self) -> None:
        if self.tiers is not None:
            object.__setattr__(self, "tiers", tuple(self.tiers))
            validate_tier_specs(self.tiers)
        for name in (
            "memory_bytes", "page_size", "fragment_size", "batch_bytes"
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(
                    f"MachineConfig.{name} must be positive, got {value!r}"
                )
        if self.store not in STORE_KINDS:
            raise ValueError(
                f"MachineConfig.store must be one of {STORE_KINDS}, "
                f"got {self.store!r}"
            )

    #: Every key :meth:`from_spec` reads (docs/sweep.md lists them).
    SPEC_KEYS = (*_SPEC_PLAIN, *_SPEC_DECODERS, "tier_l1_frames")

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "MachineConfig":
        """Build a config from JSON-primitive overrides: a sweep cell's
        ``config``, the ``run`` command's options.

        Reads the keys of :attr:`SPEC_KEYS` and ignores any other
        (docs/sweep.md says what each accepts).  ``tier_l1_frames`` is
        the two-tier preset with that L1 cap (``None`` =
        allocator-sized), a convenience for geometry grids; it wins over
        ``tiers``.  A value its decoder rejects raises
        :class:`SpecError`.
        """
        changes = {name: spec[name] for name in _SPEC_PLAIN if name in spec}
        for key, decode in _SPEC_DECODERS.items():
            if spec.get(key) is not None:
                try:
                    changes[key] = decode(spec[key])
                except (ValueError, TypeError) as exc:
                    raise SpecError(key, exc) from exc
        if "tier_l1_frames" in spec:
            changes["tiers"] = two_tier_specs(spec["tier_l1_frames"])
        return cls(**changes)

    def variant(self, **changes) -> "MachineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def baseline(self) -> "MachineConfig":
        """The matching unmodified-system configuration."""
        return self.variant(compression_cache=False, control=None)


def _unwire(
    allocator: ThreeWayAllocator, chain: Optional[TierChain]
) -> None:
    """Clear every edge that points back up the wiring.

    :class:`Machine` owns its parts and the parts own what they are
    built on, but a few edges point the other way — the allocator holds
    the pools that call it back for frames, the coldest cache reports
    write-outs to the VM, every cache asks the control plane which pages
    are hot, a demotion sink knows the tier that writes through it — and
    each closes a reference cycle that would keep the address space,
    every cached payload and the store alive until a full collection.
    This runs when the machine dies (``weakref.finalize``), after which
    the parts are freed by reference count.  It is given the parts and
    never the machine: an argument that led back to the machine would
    keep it alive for ever.

    The pools' ``frame_provider`` stays: with the allocator's pools gone
    it points down, and a cache that outlives its machine then fails in
    ``obtain_frame`` instead of quietly serving itself.

    An edge added to ``Machine.__init__`` that points from a part to
    something holding that part belongs here too;
    ``tests/sim/test_machine_lifetime.py`` fails until it is.
    """
    allocator.release_pools()
    if chain is not None:
        for tier in chain.tiers:
            tier.cache.written_callback = None
            tier.cache.hot_filter = None
            if tier.sink is not None:
                tier.sink.source = None


class Machine:
    """A fully wired simulated machine for one address space.

    The machine owns its parts (``vm``, ``allocator``, ``chain``,
    ``ccache``, ...): they are valid while the machine is.  When the
    last reference to the machine goes, the wiring between the parts is
    undone so that they — and the address space's page contents — are
    freed at once; a part kept past that point fails on its first frame
    request (``OutOfFramesError``: the machine was released).  Hold the
    machine, not a part of it.
    """

    def __init__(self, config: MachineConfig, address_space: AddressSpace):
        if config.memory_bytes < MIN_FRAMES * config.page_size:
            raise VmConfigurationError(
                f"{config.memory_bytes} bytes is too little memory to page in"
            )
        if address_space.page_size != config.page_size:
            raise VmConfigurationError(
                f"address space page size {address_space.page_size} != "
                f"machine page size {config.page_size}"
            )
        self.config = config
        self.address_space = address_space
        self.ledger = Ledger()

        usable = config.memory_bytes - self._metadata_bytes()
        total_frames = usable // config.page_size
        if total_frames < config.min_resident_frames + 1:
            raise VmConfigurationError(
                f"metadata overhead leaves only {total_frames} frames"
            )
        self.frames = FramePool(total_frames)

        device_factory = DEVICE_PRESETS.get(config.device)
        if device_factory is None:
            known = ", ".join(sorted(DEVICE_PRESETS))
            raise VmConfigurationError(
                f"unknown device preset {config.device!r}; known: {known}"
            )
        self.device = device_factory()

        # The injector, the degradation controller and the reported
        # counters exist only under a plan.  The retry wrapper always
        # does: a plan-free machine runs the same paging-I/O code, and
        # with nothing injected no attempt fails.
        plan = config.fault_plan
        if plan is not None:
            self.resilience: Optional[ResilienceCounters] = (
                ResilienceCounters()
            )
            self.injector = plan.build(self.resilience)
            self.degradation: Optional[DegradationController] = (
                DegradationController(plan.degradation, self.resilience)
            )
            if plan.device.enabled:
                self.device = FaultyDevice(self.device, self.injector)
        else:
            self.resilience = None
            self.injector = None
            self.degradation = None
        self.retry = ResilientIO(
            plan.retry_policy() if plan is not None else RetryPolicy(),
            self.ledger,
            self.resilience,
        )

        if config.filesystem == "ufs":
            self.fs = BlockFileSystem(
                self.device,
                block_size=config.page_size,
                partial_write_policy=config.partial_write_policy,
            )
        elif config.filesystem == "lfs":
            self.fs = LogStructuredFS(
                self.device, block_size=config.page_size
            )
        else:
            raise VmConfigurationError(
                f"unknown filesystem {config.filesystem!r}; "
                "known: ufs, lfs"
            )
        self.swap = StandardSwap(self.fs, page_size=config.page_size)
        #: The one raw page path; every VM and pager below holds it.
        self.raw = DefaultPager(self.swap, self.retry)
        self.allocator = ThreeWayAllocator(
            self.frames, biases=config.biases, ledger=self.ledger,
        )
        self.buffer_cache = BufferCache(
            self.fs,
            self.frames,
            frame_provider=self.allocator.obtain_frame,
        )
        self.allocator.register(FrameOwner.FILE_CACHE, self.buffer_cache)

        #: The compressed-page backing store: a FragmentStore, or a
        #: LogStructuredStore under ``store="lfs"``.
        self.fragstore: Optional[BackingStore] = None
        self.ccache: Optional[CompressionCache] = None
        self.sampler: Optional[CompressionSampler] = None
        self.gate: Optional[AdaptiveCompressionGate] = None
        self.chain: Optional[TierChain] = None
        #: True when the configuration names an explicit tier chain;
        #: reporting then includes per-tier and gate snapshots that the
        #: default (digest-pinned) output omits.
        self.explicit_tiers = config.tiers is not None

        if config.vm_architecture not in ("monolithic", "external-pager"):
            raise VmConfigurationError(
                f"unknown vm_architecture {config.vm_architecture!r}; "
                "known: monolithic, external-pager"
            )
        external = config.vm_architecture == "external-pager"
        self.pager = None

        #: Control plane and its telemetry; ``None`` unless configured
        #: (telemetry alone is also built for explicit-tier monolithic
        #: runs so ``repro run --json`` can report per-tier hit rates).
        self.control: Optional[ControlPlane] = None
        self.telemetry: Optional[TierTelemetry] = None
        if config.control is not None:
            if not config.compression_cache:
                raise VmConfigurationError(
                    "the control plane requires the compression cache"
                )
            if external:
                raise VmConfigurationError(
                    "the control plane requires the monolithic VM "
                    "architecture"
                )

        if config.compression_cache:
            exact = config.exact_compression or config.paranoid
            if config.store == "lfs":
                # The log-structured store owns its segment layout, so
                # it charges the raw device directly instead of going
                # through the block filesystem.
                self.fragstore = LogStructuredStore(
                    self.device,
                    config=config.log_store,
                    batch_bytes=config.batch_bytes,
                    resilience=self.resilience,
                    injector=self.injector,
                )
            else:
                self.fragstore = FragmentStore(
                    self.fs,
                    fragment_size=config.fragment_size,
                    batch_bytes=config.batch_bytes,
                    allow_spanning=config.allow_spanning,
                    resilience=self.resilience,
                    injector=self.injector,
                )
            if config.tiers is not None:
                specs: Tuple[TierSpec, ...] = config.tiers
            else:
                # The paper's single cache, expressed as a one-tier chain
                # from the legacy scalar fields.
                specs = (
                    TierSpec(
                        name="cc",
                        compressor=config.compressor,
                        max_frames=config.ccache_max_frames,
                    ),
                )
            # Build cold to warm: each warmer tier's write-out sink needs
            # its colder neighbour to exist first.
            tiers: List[Optional[CompressedTier]] = [None] * len(specs)
            next_tier: Optional[CompressedTier] = None
            for i in range(len(specs) - 1, -1, -1):
                spec = specs[i]
                sampler = CompressionSampler(
                    create_compressor(spec.compressor),
                    exact=exact,
                )
                if next_tier is None:
                    backing = self.fragstore
                    sink = None
                else:
                    sink = DemotionSink(
                        self.ledger, config.costs, config.page_size
                    )
                    backing = sink
                cache = CompressionCache(
                    self.frames,
                    backing,
                    self.ledger,
                    page_size=config.page_size,
                    frame_provider=self.allocator.obtain_frame,
                    max_frames=spec.max_frames,
                    retry=self.retry,
                )
                tier = CompressedTier(
                    spec=spec,
                    cache=cache,
                    sampler=sampler,
                    # Only the warmest tier's gate can close: the gate
                    # models disabling eviction-path compression, and
                    # evictions enter the chain at the top.
                    gate=AdaptiveCompressionGate(
                        enabled=config.adaptive_gate and i == 0
                    ),
                    cleaner=spec.cleaner,
                    sink=sink,
                )
                if sink is not None:
                    sink.source = tier
                    sink.target = next_tier
                tiers[i] = tier
                next_tier = tier
            self.chain = TierChain(
                tuple(tiers), self.fragstore, self.raw,
                config.costs, config.page_size,
                injector=self.injector,
                degradation=self.degradation,
            )
            warmest = self.chain.warmest
            self.ccache = warmest.cache
            self.sampler = warmest.sampler
            self.gate = warmest.gate
            # The warmest tier takes the classic compression slot (its
            # weight comes from the trading policy); colder tiers compete
            # on their raw LRU age.
            self.allocator.register(FrameOwner.COMPRESSION, warmest.cache)
            for tier in self.chain.tiers[1:]:
                self.allocator.register_pool(
                    f"cc:{tier.name}", tier.cache, weight=1.0
                )
            if external:
                self.pager = CompressionPager(
                    chain=self.chain,
                    ledger=self.ledger,
                    page_size=config.page_size,
                )
                self.vm: BaseVM = ExternalPagerVM(
                    address_space=address_space,
                    frames=self.frames,
                    allocator=self.allocator,
                    ledger=self.ledger,
                    costs=config.costs,
                    pager=self.pager,
                    min_resident_frames=config.min_resident_frames,
                    paranoid=config.paranoid,
                )
            else:
                self.vm = CompressedVM(
                    address_space=address_space,
                    frames=self.frames,
                    allocator=self.allocator,
                    ledger=self.ledger,
                    costs=config.costs,
                    chain=self.chain,
                    min_resident_frames=config.min_resident_frames,
                    prefetch_colocated=config.prefetch_colocated,
                    paranoid=config.paranoid,
                )
                if config.control is not None or self.explicit_tiers:
                    self.telemetry = TierTelemetry()
                    self.vm.telemetry = self.telemetry
                if config.control is not None:
                    self.control = ControlPlane(
                        config.control,
                        self.ledger,
                        self.allocator,
                        self.chain,
                        self.vm.metrics,
                        self.telemetry,
                        total_frames,
                        config.min_resident_frames,
                    )
                    if self.control.hotness is not None:
                        for tier in self.chain.tiers:
                            tier.cache.hot_filter = self.control.hot_filter
        elif external:
            self.pager = self.raw
            self.vm = ExternalPagerVM(
                address_space=address_space,
                frames=self.frames,
                allocator=self.allocator,
                ledger=self.ledger,
                costs=config.costs,
                pager=self.pager,
                min_resident_frames=config.min_resident_frames,
                paranoid=config.paranoid,
            )
        else:
            self.vm = StandardVM(
                address_space=address_space,
                frames=self.frames,
                allocator=self.allocator,
                ledger=self.ledger,
                costs=config.costs,
                raw=self.raw,
                min_resident_frames=config.min_resident_frames,
                paranoid=config.paranoid,
            )
        weakref.finalize(
            self, _unwire, self.allocator, self.chain
        ).atexit = False

    def _metadata_bytes(self) -> int:
        """Section 4.4 bookkeeping memory, charged against user memory."""
        config = self.config
        overhead = page_table_overhead_bytes(
            self.address_space.total_pages, config.compression_cache
        )
        if config.compression_cache:
            max_cache_frames = config.memory_bytes // config.page_size
            # Each tier carries its own hash table and compressor code;
            # slot descriptors scale with the frames the caches could
            # jointly occupy, which is bounded by physical memory however
            # many tiers share it.
            ntiers = len(config.tiers) if config.tiers is not None else 1
            overhead += (
                (HASH_TABLE_BYTES + CODE_SIZE_BYTES) * ntiers
                + SLOT_DESCRIPTOR_BYTES * max_cache_frames
            )
        return overhead

    @property
    def user_frames(self) -> int:
        """Frames available to the three consumers."""
        return self.frames.total_frames

    def reset_measurement(self) -> None:
        """Start a fresh measurement window.

        Keeps all machine state (resident pages, compressed pages, swap
        contents) but zeroes metrics and ledger totals, so a workload can
        run an unmeasured setup phase — e.g. loading ``gold``'s index —
        before the timed queries.
        """
        from .metrics import SimulationMetrics

        self.ledger.reset_totals()
        self.vm.metrics = SimulationMetrics()
        if self.control is not None:
            self.control.rebind_metrics(self.vm.metrics)
