"""The one raw page path, and the collector, under a device that fails.

The machines here carry no fault plan: the device itself raises, so what
runs is the code every plan-free run goes through — the always-present
retry wrapper around :class:`repro.pager.default.DefaultPager` and the
chain's re-invocation of a collection that a transfer interrupted.
"""

import pytest

from repro.faults.errors import PagingFaultError, TransientIOError
from repro.faults.retry import ResilientIO, RetryPolicy
from repro.mem.page import PageId, mbytes
from repro.pager.default import DefaultPager
from repro.sim.engine import run_workload
from repro.sim.ledger import Ledger
from repro.sim.machine import DEVICE_PRESETS, Machine, MachineConfig
from repro.storage.blockfs import BlockFileSystem
from repro.storage.disk import DiskModel
from repro.storage.fragstore import FragmentStore
from repro.storage.lfs import LogStructuredFS
from repro.storage.logstore import LogStoreConfig, LogStructuredStore
from repro.storage.swap import StandardSwap
from repro.workloads import SyntheticWorkload


class FailingDevice:
    """A device whose ``fails(op, nth)`` picks transfers to fail, ``nth``
    counting every attempt from 1; each failure is transient."""

    def __init__(self, fails):
        self.inner = DiskModel.rz57()
        self.fails = fails
        self.attempts = 0
        self.injected = 0

    @property
    def counters(self):
        return self.inner.counters

    def _attempt(self, op, nbytes):
        self.attempts += 1
        if self.fails(op, self.attempts):
            self.injected += 1
            raise TransientIOError(op, nbytes, 0.001)

    def read(self, nbytes, sequential=False):
        self._attempt("read", nbytes)
        return self.inner.read(nbytes, sequential)

    def write(self, nbytes, sequential=False):
        self._attempt("write", nbytes)
        return self.inner.write(nbytes, sequential)


def stutter(_op, nth):
    """The first attempt of every transfer fails; its retry succeeds."""
    return nth % 2 == 1


class TestRawPath:
    def test_every_transfer_retried_once_and_bytes_kept(self):
        device = FailingDevice(stutter)
        retry = ResilientIO(RetryPolicy(), Ledger())
        raw = DefaultPager(
            StandardSwap(BlockFileSystem(device, block_size=4096)), retry
        )
        pages = {PageId(0, n): bytes([n]) * 4096 for n in range(8)}
        for page_id, data in pages.items():
            assert raw.write(page_id, data)
        for page_id, data in pages.items():
            assert raw.read(page_id) == data
            assert raw.pagein(page_id) == data
        assert device.injected == 24
        assert retry.resilience.retries == 24
        assert retry.resilience.recovered_operations == 24
        assert retry.resilience.retries_exhausted == 0
        # Failed attempts and backoff are charged beside the transfers.
        assert retry.ledger.total() > device.inner.counters.busy_seconds

    @pytest.mark.parametrize("cache,architecture", [
        (False, "monolithic"),        # StandardVM
        (True, "monolithic"),         # CompressedVM, 4:3 rule rejects all
        (True, "external-pager"),     # CompressionPager, likewise
        (False, "external-pager"),    # DefaultPager as the pager
    ])
    def test_all_four_holders_share_it(self, monkeypatch, cache,
                                       architecture):
        device = FailingDevice(stutter)
        monkeypatch.setitem(DEVICE_PRESETS, "stutter", lambda: device)
        workload = SyntheticWorkload(
            mbytes(0.5), references=1500, compressible_fraction=0.0,
            write_fraction=0.5, seed=3,
        )
        machine = Machine(
            MachineConfig(
                memory_bytes=mbytes(0.25), device="stutter",
                compression_cache=cache, vm_architecture=architecture,
                paranoid=True,     # every page read back is compared
            ),
            workload.build(),
        )
        result = run_workload(machine, workload.references(), drain=True)
        counted = machine.retry.resilience
        assert device.injected > 100
        assert counted.retries == device.injected
        assert counted.recovered_operations == device.injected
        assert counted.retries_exhausted == 0
        assert machine.swap.counters.pages_in > 0
        # No plan: the counters above are the wrapper's own, unreported.
        assert machine.resilience is None
        assert "resilience" not in result.as_dict()


class Once:
    """Fails the ``nth`` transfer of kind ``op`` seen once armed."""

    def __init__(self, op, nth):
        self.op = op
        self.left = nth
        self.armed = False

    def __call__(self, op, _attempt):
        if not self.armed or op != self.op:
            return False
        self.left -= 1
        return self.left == 0


def fragment_store(device, filesystem):
    fs = (BlockFileSystem(device) if filesystem == "ufs"
          else LogStructuredFS(device, segment_blocks=4))
    return FragmentStore(fs, gc_min_bytes=0)


def log_store(device, _filesystem):
    return LogStructuredStore(
        device,
        LogStoreConfig(segment_bytes=4096, total_segments=64,
                       min_sealed_for_gc=2, checkpoint_every=3),
        batch_bytes=2048,
    )


class TestInterruptedCollection:
    """``TierChain.run_cleaners`` re-invokes ``maybe_collect`` after a
    device error, or gives the collection up: wherever the error lands,
    every page must still read back what was put — from the staged
    state, once flushed, and (the log store) after crash recovery."""

    @pytest.mark.parametrize("build,filesystem", [
        (fragment_store, "ufs"), (fragment_store, "lfs"), (log_store, ""),
    ], ids=["frag-ufs", "frag-lfs", "logstore"])
    @pytest.mark.parametrize("op", ["read", "write"])
    @pytest.mark.parametrize("reinvoke", [True, False],
                             ids=["retried", "given-up"])
    def test_any_transfer_may_fail(self, build, filesystem, op, reinvoke):
        for nth in range(1, 200):
            fails = Once(op, nth)
            device = FailingDevice(fails)
            store = build(device, filesystem)
            # Live pages left among garbage from the front of the store
            # on, so that compacting moves them over each other.
            pages = {}
            for n in range(60):
                pages[PageId(0, n)] = bytes([n]) * (300 + 13 * n)
                store.put(PageId(0, n), pages[PageId(0, n)])
            for n in range(0, 60, 3):
                store.free(PageId(0, n))
                del pages[PageId(0, n)]
            for n in range(1, 60, 6):
                pages[PageId(0, n)] = bytes([n + 100]) * (900 - 13 * n)
                store.put(PageId(0, n), pages[PageId(0, n)])
            store.flush()
            fails.armed = True
            try:
                store.maybe_collect(force=True)
            except PagingFaultError:
                if reinvoke:
                    store.maybe_collect(force=True)
            if not device.injected:
                break    # a collection makes fewer than ``nth`` transfers
            for phase in ("staged", "flushed", "recovered"):
                assert store.live_pages == len(pages), (nth, phase)
                for page_id, payload in pages.items():
                    assert store.get(page_id)[0] == payload, (nth, phase)
                store.flush()
                if phase == "flushed" and build is log_store:
                    store.crash_and_recover()
        assert nth > 1    # at least one collection was interrupted
