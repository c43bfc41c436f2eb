"""The simulation engine: drives a reference stream through a machine.

Workloads are generators of :class:`PageRef` events.  Each event is one
page-granularity step of the application: a read or write touch, an
optional in-place content mutation (so compressibility stays honest), and
optional application CPU time (the non-memory work of programs like the
``isca`` cache simulator).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, Optional

from ..mem.content import PageContent
from ..mem.page import PageId
from .ledger import TimeCategory
from .machine import Machine


@dataclass(frozen=True)
class PageRef:
    """One page-granularity step of a workload.

    Attributes:
        page_id: the page touched.
        write: whether the touch dirties the page.
        mutate: applied to the page's content after the touch; write
            events without an explicit mutation get a default one-word
            store so dirtiness is always real.
        compute_seconds: application CPU time consumed at this step,
            charged to the BASE category.
    """

    page_id: PageId
    write: bool = False
    mutate: Optional[Callable[[PageContent], None]] = None
    compute_seconds: float = 0.0


@dataclass
class RunResult:
    """Everything measured during one engine run."""

    elapsed_seconds: float
    metrics_snapshot: Dict[str, object]
    device_counters: Dict[str, object]
    fs_counters: Dict[str, object]
    swap_counters: Dict[str, object]
    fragstore_counters: Optional[Dict[str, object]]
    ccache_counters: Optional[Dict[str, object]]
    allocator_victims: Dict[str, int]
    compression_ratio_percent: float
    uncompressible_percent: float
    time_breakdown: Dict[str, float] = field(default_factory=dict)
    sampler_hits: int = 0
    sampler_misses: int = 0
    #: Fault-layer counters; ``None`` unless a fault plan was installed
    #: (keeping the serialized form — and its digests — unchanged for
    #: every plan-free run).
    fault_counters: Optional[Dict[str, object]] = None
    #: Adaptive-gate counters (probes, bypasses, open/close transitions);
    #: ``None`` unless the gate is enabled or an explicit tier chain is
    #: configured — default runs keep their serialized form unchanged.
    gate_counters: Optional[Dict[str, object]] = None
    #: Per-tier snapshots (warmest first, store last); ``None`` unless an
    #: explicit tier chain is configured.
    tier_counters: Optional[list] = None
    #: Adaptive-selector counters per tier running the ``adaptive``
    #: kernel (pages, memo hits, trials, per-kernel choices); ``None``
    #: unless some tier selects adaptively — default runs keep their
    #: serialized form (and digests) unchanged.
    selection_counters: Optional[Dict[str, object]] = None
    #: Closed-loop controller counters and action log; ``None`` unless a
    #: :class:`~repro.control.controller.ControlConfig` was installed —
    #: controller-off runs keep their serialized form (and every golden
    #: digest) unchanged.
    control_counters: Optional[Dict[str, object]] = None

    @property
    def sampler_hit_rate(self) -> float:
        """Fraction of compression measurements served from the memo."""
        total = self.sampler_hits + self.sampler_misses
        return self.sampler_hits / total if total else 0.0

    def summary(self) -> str:
        """One-line result for quick comparisons."""
        return (
            f"elapsed {self.elapsed_seconds:.2f}s, "
            f"faults {self.metrics_snapshot['faults']['total']}, "
            f"ratio {self.compression_ratio_percent:.0f}%, "
            f"uncompressible {self.uncompressible_percent:.1f}%, "
            f"sampler memo {self.sampler_hit_rate * 100:.0f}% "
            f"({self.sampler_hits}/{self.sampler_hits + self.sampler_misses})"
        )

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable copy of every measured field.

        Sweep runners return this from worker processes, so the values
        must survive ``json.dumps`` → checkpoint → ``json.loads``
        round-trips bit-for-bit (plain dicts, lists, numbers, strings).
        """
        payload = {
            "elapsed_seconds": self.elapsed_seconds,
            "metrics": self.metrics_snapshot,
            "device": self.device_counters,
            "fs": self.fs_counters,
            "swap": self.swap_counters,
            "fragstore": self.fragstore_counters,
            "ccache": self.ccache_counters,
            "allocator_victims": self.allocator_victims,
            "compression_ratio_percent": self.compression_ratio_percent,
            "uncompressible_percent": self.uncompressible_percent,
            "time_breakdown": self.time_breakdown,
            "sampler_hits": self.sampler_hits,
            "sampler_misses": self.sampler_misses,
        }
        if self.fault_counters is not None:
            payload["resilience"] = self.fault_counters
        if self.gate_counters is not None:
            payload["gate"] = self.gate_counters
        if self.tier_counters is not None:
            payload["tiers"] = self.tier_counters
        if self.selection_counters is not None:
            payload["selection"] = self.selection_counters
        if self.control_counters is not None:
            payload["control"] = self.control_counters
        return _jsonable(payload)

    def digest(self) -> str:
        """sha256 of the canonical JSON of :meth:`as_dict`: what
        ``--digest`` prints and the golden-digest tests pin."""
        canonical = json.dumps(self.as_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _jsonable(value):
    """Recursively coerce counters into JSON-native types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


class SimulationEngine:
    """Feeds a reference stream to a machine's VM and collects results."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._write_counter = 0

    def run(
        self,
        references: Iterable[PageRef],
        drain: bool = False,
        max_references: Optional[int] = None,
        observer: Optional[Callable[["Machine", int], None]] = None,
        observe_every: int = 256,
    ) -> RunResult:
        """Execute the stream; returns the collected result.

        Args:
            references: the workload's event stream.
            drain: evict and flush everything at the end (so every dirty
                page reaches the backing store); application benchmarks
                leave this off, matching process-exit semantics.
            max_references: optional cap, for truncated smoke runs.
            observer: called as ``observer(machine, reference_index)``
                every ``observe_every`` references — for time series like
                "compression-cache size over the run" (the Section 4.2
                variable-allocation behaviour).
            observe_every: observation period in references.
        """
        if observe_every < 1:
            raise ValueError(f"observe_every must be >= 1: {observe_every}")
        machine = self.machine
        vm = machine.vm
        ledger = machine.ledger
        start = ledger.now
        # The loop below runs once per reference — millions of times in a
        # sweep — so every attribute used per event is bound to a local.
        touch = vm.touch
        entry = machine.address_space.entry
        charge = ledger.charge
        default_mutation = self._default_mutation
        base = TimeCategory.BASE
        control = machine.control
        note_ref = control.note_reference if control is not None else None
        if max_references is not None:
            # islice instead of a per-reference bounds check in the loop.
            references = islice(references, max_references)
        seen = 0
        for ref in references:
            seen += 1
            touch(ref.page_id, ref.write)
            if note_ref is not None:
                note_ref(ref.page_id)
            if observer is not None and seen % observe_every == 0:
                observer(machine, seen)
            if ref.write:
                content = entry(ref.page_id).content
                mutate = ref.mutate
                if mutate is not None:
                    mutate(content)
                else:
                    default_mutation(content)
            elif ref.mutate is not None:
                raise ValueError(
                    f"read reference for {ref.page_id} carries a mutation"
                )
            if ref.compute_seconds:
                charge(base, ref.compute_seconds)
        if drain:
            vm.drain()
        return self._collect(start)

    def run_trace(
        self,
        reader,
        drain: bool = False,
        max_references: Optional[int] = None,
        observer: Optional[Callable[["Machine", int], None]] = None,
        observe_every: int = 256,
        chunk_size: int = 65536,
    ) -> RunResult:
        """Replay a binary trace through its column-chunk interface.

        ``reader`` is anything with a ``chunks(chunk_size)`` method
        yielding ``(writes, segments, numbers, ticks_us)`` parallel
        lists (see :class:`repro.workloads.btrace.BinaryTraceReader`).
        Observably identical to :meth:`run` over the equivalent
        :class:`PageRef` stream — write events get the default one-word
        mutation, ticks charge BASE time — but no per-reference python
        object is ever built: page ids are interned per (segment,
        number) pair and the inner loop walks four flat int lists.
        A record naming a page the address space lacks raises
        :class:`~repro.sim.trace.TraceFormatError` with its index
        (checked once per distinct page, as it is interned).
        """
        if observe_every < 1:
            raise ValueError(f"observe_every must be >= 1: {observe_every}")
        machine = self.machine
        vm = machine.vm
        ledger = machine.ledger
        start = ledger.now
        touch = vm.touch
        entry = machine.address_space.entry
        segment_of = machine.address_space.segment
        charge = ledger.charge
        default_mutation = self._default_mutation
        base = TimeCategory.BASE
        control = machine.control
        note_ref = control.note_reference if control is not None else None
        interned: Dict[tuple, PageId] = {}
        remaining = max_references
        seen = 0
        for writes, segments, numbers, ticks in reader.chunks(chunk_size):
            if remaining is not None and remaining < len(writes):
                writes = writes[:remaining]
            for write, segment, number, tick in zip(
                writes, segments, numbers, ticks
            ):
                seen += 1
                key = (segment, number)
                page_id = interned.get(key)
                if page_id is None:
                    try:
                        page_id = segment_of(segment).page_id(number)
                    except (KeyError, IndexError) as exc:
                        # sim.trace imports this module.
                        from .trace import TraceFormatError
                        raise TraceFormatError(
                            f"record {seen - 1} names a page this "
                            f"address space lacks: {exc.args[0]}"
                        ) from None
                    interned[key] = page_id
                touch(page_id, bool(write))
                if note_ref is not None:
                    note_ref(page_id)
                if observer is not None and seen % observe_every == 0:
                    observer(machine, seen)
                if write:
                    default_mutation(entry(page_id).content)
                if tick:
                    charge(base, tick / 1e6)
            if remaining is not None:
                remaining -= len(writes)
                if remaining <= 0:
                    break
        if drain:
            vm.drain()
        return self._collect(start)

    def _default_mutation(self, content: PageContent) -> None:
        """A write touch with no explicit mutation stores one word."""
        self._write_counter += 1
        offset = (self._write_counter * 4) % (len(content) - 4)
        offset -= offset % 4
        content.store_word(offset, self._write_counter & 0xFFFFFFFF)

    def _collect(self, start: float) -> RunResult:
        machine = self.machine
        metrics = machine.vm.metrics
        sampler = machine.sampler
        return RunResult(
            sampler_hits=sampler.hits if sampler is not None else 0,
            sampler_misses=sampler.misses if sampler is not None else 0,
            elapsed_seconds=machine.ledger.now - start,
            metrics_snapshot=metrics.snapshot(machine.ledger),
            device_counters=machine.device.counters.snapshot(),
            fs_counters=machine.fs.counters.snapshot(),
            swap_counters=machine.swap.counters.snapshot(),
            fragstore_counters=(
                machine.fragstore.counters.snapshot()
                if machine.fragstore is not None
                else None
            ),
            ccache_counters=(
                machine.ccache.counters.snapshot()
                if machine.ccache is not None
                else None
            ),
            allocator_victims=machine.allocator.counters.snapshot(),
            compression_ratio_percent=metrics.compression.mean_ratio_percent,
            uncompressible_percent=metrics.compression.uncompressible_percent,
            time_breakdown=machine.ledger.breakdown(),
            fault_counters=(
                machine.resilience.snapshot()
                if machine.resilience is not None
                else None
            ),
            gate_counters=(
                machine.gate.snapshot()
                if machine.gate is not None
                and (machine.gate.enabled or machine.explicit_tiers)
                else None
            ),
            tier_counters=(
                machine.chain.snapshot() if machine.explicit_tiers else None
            ),
            selection_counters=self._selection_counters(),
            control_counters=(
                machine.control.counters.snapshot()
                if machine.control is not None
                else None
            ),
        )

    def _selection_counters(self) -> Optional[Dict[str, object]]:
        """Per-tier adaptive-selector snapshots, or None when no tier
        runs the adaptive kernel (so default digests never change)."""
        from ..compression.adaptive import AdaptiveCompressor

        chain = self.machine.chain
        if chain is None:
            return None
        counters = {
            tier.name: tier.sampler.compressor.selection_snapshot()
            for tier in chain.tiers
            if isinstance(tier.sampler.compressor, AdaptiveCompressor)
        }
        return counters or None


def run_workload(machine: Machine, references: Iterable[PageRef],
                 drain: bool = False) -> RunResult:
    """Convenience wrapper: one engine, one run."""
    return SimulationEngine(machine).run(references, drain=drain)
