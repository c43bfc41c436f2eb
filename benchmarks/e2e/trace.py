"""Span recorder and the layer wrappers of the traced run.

A span is ``(name, start, end, parent)``; spans are kept in parallel
arrays in memory and written as ``.jsonl`` once the run is over.  The
wrappers are installed from here, around the public functions of each
``repro`` layer, and removed again after the traced passes — nothing
inside ``src/`` knows it is being traced.

Self time is a span's duration minus the part its child spans cover, so
the self times of all spans plus the time outside any span add up to the
traced wall time; that remainder is ``unattributed_fraction``.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter

#: (module, class, method, span name[, when]) — the layer boundaries.
#: ``when(self)`` limits a wrapper to the instances it is about.
_SPANS: Tuple[tuple, ...] = (
    ("repro.sim.engine", "SimulationEngine", "run", "sim.engine.run"),
    ("repro.vm.system", "BaseVM", "touch", "vm.touch"),
    ("repro.ccache.circular", "CompressionCache", "insert", "ccache.insert"),
    ("repro.ccache.circular", "CompressionCache", "fetch", "ccache.fetch"),
    ("repro.ccache.circular", "CompressionCache", "clean_pages",
     "ccache.clean"),
    ("repro.ccache.circular", "CompressionCache", "shrink_one",
     "ccache.shrink"),
    ("repro.ccache.allocator", "TieredAllocator", "obtain_frame",
     "ccache.allocator.obtain"),
    ("repro.tiers.compressed", "DemotionSink", "put_many", "tiers.demote"),
    ("repro.tiers.compressed", "DemotionSink", "put", "tiers.demote"),
    # The fault path asks the chain which tier holds the page; that is
    # tier work only when there is more than one tier to ask.
    ("repro.tiers.chain", "TierChain", "find", "tiers.fault",
     lambda chain: len(chain.tiers) > 1),
    ("repro.control.controller", "ControlPlane", "note_reference",
     "control.note_reference"),
    ("repro.control.controller", "TierController", "evaluate",
     "control.evaluate"),
    ("repro.storage.fragstore", "FragmentStore", "put",
     "storage.fragstore.put"),
    ("repro.storage.fragstore", "FragmentStore", "get",
     "storage.fragstore.get"),
    ("repro.storage.fragstore", "FragmentStore", "maybe_collect",
     "storage.fragstore.collect"),
    ("repro.storage.logstore", "LogStructuredStore", "put",
     "storage.logstore.put"),
    ("repro.storage.logstore", "LogStructuredStore", "get",
     "storage.logstore.get"),
    ("repro.storage.logstore", "LogStructuredStore", "free",
     "storage.logstore.free"),
    ("repro.storage.logstore", "LogStructuredStore", "flush",
     "storage.logstore.flush"),
    ("repro.storage.logstore", "LogStructuredStore", "maybe_collect",
     "storage.logstore.collect"),
    ("repro.storage.logstore", "LogStructuredStore", "crash_and_recover",
     "storage.logstore.recover"),
    ("repro.compression.sampler", "CompressionSampler", "compress",
     "compression.sampler.lookup"),
    ("repro.compression.sampler", "CompressionSampler", "compressed_size",
     "compression.sampler.lookup"),
    ("repro.service.store", "VslotStore", "get", "service.store.get"),
    ("repro.service.store", "VslotStore", "put", "service.store.put"),
    ("repro.service.store", "VslotStore", "delete", "service.store.delete"),
)


class SpanRecorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []
        #: byte counts the compression wrappers add up.
        self.compress_bytes_in = 0
        self.compress_bytes_out = 0
        self._undo: List[Tuple[type, str, object]] = []

    # -- recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, fn: Callable, name: str,
             when: Optional[Callable[[object], bool]] = None,
             after: Optional[Callable[[tuple, object], None]] = None,
             ) -> Callable:
        """``fn`` with a span recorded around every call."""
        ident = self._name_id(name)
        name_of, starts, ends = self.name_of, self.starts, self.ends
        parents, stack = self.parents, self._stack

        def traced(*args, **kwargs):
            if when is not None and not when(args[0]):
                return fn(*args, **kwargs)
            index = len(starts)
            name_of.append(ident)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = len(self.starts)
        self.name_of.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(_clock())
        try:
            yield
        finally:
            self.ends[index] = _clock()
            self._stack.pop()

    # -- installation -------------------------------------------------

    def _patch(self, owner: type, attr: str, name: str, **hooks) -> None:
        # Patch where the method is defined so subclasses inherit it.
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                original = klass.__dict__[attr]
                if hasattr(original, "__wrapped__"):
                    return  # already wrapped through another subclass
                self._undo.append((klass, attr, original))
                setattr(klass, attr, self.wrap(original, name, **hooks))
                return
        raise AttributeError(f"{owner.__name__}.{attr} not found")

    def install(self) -> None:
        """Wrap every layer boundary in :data:`_SPANS` and every
        registered compression kernel."""
        for entry in _SPANS:
            module, klass, attr, name = entry[:4]
            owner = getattr(importlib.import_module(module), klass)
            when = entry[4] if len(entry) > 4 else None
            self._patch(owner, attr, name, when=when)
        from repro import compression

        for kernel in compression.available():
            owner = type(compression.create(kernel))
            self._patch(owner, "compress", "compression.compress",
                        after=self._count_compress)
            self._patch(owner, "decompress", "compression.decompress")

    def _count_compress(self, args: tuple, result) -> None:
        # Only the outermost kernel call: the adaptive selector's trial
        # compressions are its own work, not extra user bytes.
        if not self._inside("compression.compress"):
            self.compress_bytes_in += len(args[1])
            self.compress_bytes_out += result.compressed_size

    def _inside(self, name: str) -> bool:
        ident = self._name_ids.get(name)
        return any(self.name_of[i] == ident for i in self._stack)

    def uninstall(self) -> None:
        while self._undo:
            klass, attr, original = self._undo.pop()
            setattr(klass, attr, original)

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        ``calls`` and ``seconds`` count only spans not nested inside a
        span of the same name, so a kernel calling a kernel is one call.
        """
        count = len(self.starts)
        cover = [0.0] * count
        starts, ends, parents, name_of = (
            self.starts, self.ends, self.parents, self.name_of
        )
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                cover[parent] += ends[i] - starts[i]
        out = {
            name: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            for name in self.names
        }
        for i in range(count):
            row = out[self.names[name_of[i]]]
            duration = ends[i] - starts[i]
            row["self_seconds"] += duration - cover[i]
            ancestor = parents[i]
            while ancestor >= 0 and name_of[ancestor] != name_of[i]:
                ancestor = parents[ancestor]
            if ancestor < 0:
                row["calls"] += 1
                row["seconds"] += duration
        return out

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(
            self.ends[i] - self.starts[i]
            for i in range(len(self.starts)) if self.parents[i] < 0
        )

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i in range(len(self.starts)):
                out.write(json.dumps({
                    "run": self.run_id,
                    "id": i,
                    "name": self.names[self.name_of[i]],
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                }) + "\n")


def layer_metrics(recorder: SpanRecorder, traced_wall: float,
                  untraced_over_traced: float) -> Dict[str, float]:
    """The span-derived per-layer metrics, by the names BENCHMARK.json
    declares; names with no span in this run read 0.

    ``untraced_over_traced`` is the time of the same work without the
    wrappers as a share of its time with them."""
    totals = recorder.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def layer_self(prefix: str) -> float:
        return sum(
            row["self_seconds"] for name, row in totals.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    metrics: Dict[str, float] = {}
    for name in (
        "compression.compress", "compression.decompress", "vm.touch",
        "ccache.insert", "ccache.fetch", "ccache.clean", "ccache.shrink",
        "ccache.allocator.obtain", "storage.fragstore.put",
        "storage.fragstore.get", "storage.fragstore.collect",
        "storage.logstore.put", "storage.logstore.get",
        "storage.logstore.free",
    ):
        metrics[name + "_s"] = get(name, "seconds")
        metrics[name + "_calls"] = get(name, "calls")
    for name in (
        "sim.engine.run", "tiers.demote", "tiers.fault",
        "control.note_reference", "control.evaluate",
        "storage.logstore.flush", "storage.logstore.collect",
        "storage.logstore.recover",
    ):
        metrics[name + "_s"] = get(name, "seconds")
    metrics["compression.compress_bytes_in"] = recorder.compress_bytes_in
    metrics["compression.stored_fraction"] = (
        recorder.compress_bytes_out / recorder.compress_bytes_in
        if recorder.compress_bytes_in else 0.0
    )
    metrics["compression.sampler.lookup_s"] = get(
        "compression.sampler.lookup", "self_seconds"
    )
    metrics["sim.engine.self_s"] = get("sim.engine.run", "self_seconds")
    metrics["vm.self_s"] = get("vm.touch", "self_seconds")
    metrics["ccache.self_s"] = layer_self("ccache")
    metrics["compression.self_s"] = layer_self("compression")
    metrics["tiers.self_s"] = layer_self("tiers")
    metrics["control.self_s"] = layer_self("control")
    metrics["storage.self_s"] = layer_self("storage")
    # Kernel time is its own layer; the store's share excludes it.
    for op in ("get", "put", "delete"):
        metrics[f"service.store.{op}_s"] = get(
            f"service.store.{op}", "self_seconds"
        )
    metrics["unattributed_fraction"] = (
        max(0.0, traced_wall - recorder.root_seconds()) / traced_wall
    )
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead_fraction"] = 1.0 - untraced_over_traced
    return metrics
