"""Two-tier chains end to end: demotion, faulting, reporting, digests.

The pinned digests play the same role as tests/sim/test_golden_digests.py
for the default layout: they freeze the complete ``RunResult.as_dict()``
of a two-tier run so later refactors of the chain machinery cannot
silently change its simulation behaviour.  A mismatch means behaviour
moved; fix the change, do not refresh the digest (unless the PR's point
is a deliberate semantics change).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.compression.base import CompressionResult
from repro.compression.sampler import shared_results_size
from repro.compression.stats import CompressionStats
from repro.faults.plan import FaultPlan
from repro.mem.page import PageId, mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.ledger import TimeCategory
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.chain import Rejected
from repro.tiers.spec import TierSpec, parse_tier_specs
from repro.workloads import Thrasher, catalog

PLAN_DIR = Path(__file__).parents[2] / "experiments" / "fault_plans"

#: SHA-256 of canonical JSON of RunResult.as_dict() for two-tier runs of
#: the bench_sim workloads (scale 0.12, memoized sampler), captured when
#: the tier chain was introduced.
GOLDEN_TWO_TIER = {
    "thrasher":
        "028f727c16540df8f999da898ee117b20bcaff4f102b0bba5f592e8f5d17177f",
    "gold-warm":
        "a8d976c53f52d67be3b807e8f5fa7dcbc0bf290fdb238d9f2d700d3795796e66",
}


def two_tier_machine(scale=0.08, paranoid=False, cycles=3, **config):
    memory = mbytes(6 * scale)
    workload = Thrasher(int(memory * 2), cycles=cycles, write=True)
    config = MachineConfig(
        memory_bytes=memory,
        tiers=parse_tier_specs("two-tier"),
        paranoid=paranoid,
        **config,
    )
    return Machine(config, workload.build()), workload


class TestTwoTierEndToEnd:
    def test_pages_demote_and_fault_back(self):
        machine, workload = two_tier_machine()
        result = SimulationEngine(machine).run(workload.references())
        chain = machine.chain
        assert len(chain.tiers) == 2
        assert (chain.warmest.name, chain.coldest.name) == ("l1", "l2")
        # The thrasher overcommits a capped L1: pages must demote to L2
        # and the DEMOTE recompression time must be charged.
        assert chain.demoted_pages() > 0
        assert chain.warmest.sink.demoted_pages == chain.demoted_pages()
        assert result.time_breakdown.get("demote", 0.0) > 0.0
        assert machine.vm.metrics.faults.total > 0

    def test_two_tier_contents_verify_paranoid(self):
        """Every fault decompresses with the right tier's kernel.

        Paranoid mode re-derives each faulted page from its compressed
        payload and compares against ground truth, so a kernel mismatch
        anywhere in the demote/fault paths (L1 payload decoded as LZSS,
        store payload decoded as LZRW1, ...) fails loudly.
        """
        machine, workload = two_tier_machine(scale=0.05, paranoid=True,
                                             cycles=2)
        SimulationEngine(machine).run(workload.references())
        assert machine.chain.demoted_pages() > 0

    def test_terminal_tier_owns_store_writes(self):
        """Only L2 write-outs update per-page saved versions; demotions
        out of L1 stay in memory (no I/O, no version updates)."""
        machine, workload = two_tier_machine()
        SimulationEngine(machine).run(workload.references())
        l1, l2 = machine.chain.tiers
        assert l1.cache.written_callback is None
        assert l2.cache.written_callback is not None

    def test_colder_tier_competes_through_allocator(self):
        machine, workload = two_tier_machine()
        SimulationEngine(machine).run(workload.references())
        victims = machine.allocator.counters.snapshot()
        assert "cc:l2" in victims

    def test_result_reports_tiers_and_gate(self):
        machine, workload = two_tier_machine()
        result = SimulationEngine(machine).run(workload.references())
        payload = result.as_dict()
        assert payload["gate"]["probes"] > 0
        names = [tier["name"] for tier in payload["tiers"]]
        assert names == ["l1", "l2", "store"]
        l1 = payload["tiers"][0]
        assert l1["compressor"] == "lzrw1"
        assert l1["demoted_out"] == machine.chain.demoted_pages()

    def test_default_config_reports_neither(self):
        """The default layout's serialized form — and so the 14 golden
        digests — must not grow new keys."""
        memory = mbytes(6 * 0.08)
        workload = Thrasher(int(memory * 2), cycles=2, write=True)
        machine = Machine(
            MachineConfig(memory_bytes=memory), workload.build()
        )
        result = SimulationEngine(machine).run(workload.references())
        payload = result.as_dict()
        assert "tiers" not in payload
        assert "gate" not in payload

    def test_config_rejects_bad_chains(self):
        with pytest.raises(ValueError, match="unique"):
            MachineConfig(tiers=(TierSpec(name="cc"), TierSpec(name="cc")))
        with pytest.raises(ValueError, match="at least one"):
            MachineConfig(tiers=())


class TestTwoTierGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TWO_TIER))
    def test_two_tier_digest_pinned(self, name):
        workload = catalog.build(name, 0.12)
        config = MachineConfig(
            memory_bytes=mbytes(6 * 0.12),
            tiers=parse_tier_specs("two-tier"),
        )
        machine = Machine(config, workload.build())
        result = SimulationEngine(machine).run(workload.references())
        blob = json.dumps(
            result.as_dict(), sort_keys=True, separators=(",", ":")
        ).encode()
        digest = hashlib.sha256(blob).hexdigest()
        assert digest == GOLDEN_TWO_TIER[name], (
            f"{name}: two-tier simulation output diverged from the pinned "
            "behaviour"
        )


class TestRawStoredPagesBelowTheWarmestTier:
    """Only evictions meet the 4:3 rule: a demotion is admitted whatever
    its size, so a colder tier — and the store under it — can hold a
    page its kernel stored raw.  The caches keep payloads, not flags,
    and ``wk`` and ``rle`` mark raw storage *only* in the flag (their
    decoders reject a raw page), so every re-wrap of a payload has to
    recover it: the demotion out of such a tier, the fault from it, the
    paranoid check of that fault."""

    @pytest.mark.parametrize("architecture",
                             ["monolithic", "external-pager"])
    @pytest.mark.parametrize("tiers", [
        "lzrw1:4,wk",           # raw pages reach the store and fault back
        "lzrw1:4,wk:8,lzss",    # ... and are demoted again, out of wk
        "lzrw1:2,wk:4,rle",     # ... into a capped tier, over three frames
    ])
    def test_an_overcommitted_thrasher_runs_to_the_end(
            self, architecture, tiers, monkeypatch):
        rewrapped = []
        from_payload = CompressionResult.from_payload.__func__

        def spy(cls, payload, original_size):
            result = from_payload(cls, payload, original_size)
            rewrapped.append(result.stored_raw)
            return result

        monkeypatch.setattr(CompressionResult, "from_payload",
                            classmethod(spy))
        memory = mbytes(6 * 0.05)
        workload = Thrasher(int(memory * 2), cycles=3, write=True)
        machine = Machine(
            MachineConfig(
                memory_bytes=memory,
                tiers=parse_tier_specs(tiers),
                vm_architecture=architecture,
                # The pager decodes every pagein; the in-kernel VM only
                # when it verifies.
                paranoid=architecture == "monolithic",
            ),
            workload.build(),
        )
        result = SimulationEngine(machine).run(workload.references(),
                                               drain=True)
        assert result.metrics_snapshot["faults"]["total"] > 0
        assert machine.chain.demoted_pages() > 0
        assert True in rewrapped and False in rewrapped


#: One page LZRW1 shrinks far past the 4:3 rule.
PAGE = (b"the compression cache " * 187)[:4096]


class TestChainVerbs:
    """The verbs both paging architectures call, one at a time."""

    def test_closed_gate_bypasses_and_charges_nothing(self):
        machine, _ = two_tier_machine(adaptive_gate=True)
        chain, ledger = machine.chain, machine.ledger
        gate = chain.warmest.gate
        for _ in range(gate.window):
            gate.record(False)
        assert not gate.open
        stats = CompressionStats()
        assert chain.compress_evicted(PAGE, stats) is Rejected.BYPASSED
        assert ledger.total() == 0.0
        assert gate.pages_bypassed == 1
        assert stats.total_pages == 0

    def test_degraded_substrate_bypasses_and_counts_the_eviction(self):
        plan = FaultPlan.from_dict(
            {"degradation": {"min_events": 2, "cooldown_evictions": 4}}
        )
        machine, _ = two_tier_machine(fault_plan=plan)
        for _ in range(2):
            machine.degradation.record(False)
        assert machine.degradation.degraded
        outcome = machine.chain.compress_evicted(PAGE, CompressionStats())
        assert outcome is Rejected.BYPASSED
        assert machine.ledger.total() == 0.0
        assert machine.resilience.bypassed_evictions == 1

    def test_injected_crash_is_charged_and_reported_to_degradation(self):
        plan = FaultPlan.from_dict(
            {"compressor": {"crash_rate": 1.0},
             "degradation": {"min_events": 3}}
        )
        machine, _ = two_tier_machine(fault_plan=plan)
        chain, stats = machine.chain, CompressionStats()
        for attempt in range(1, 4):
            outcome = chain.compress_evicted(PAGE, stats)
            assert outcome is Rejected.UNCOMPRESSIBLE
            assert machine.ledger.total(TimeCategory.COMPRESS) == (
                pytest.approx(
                    attempt * machine.config.costs.compress_seconds(4096)
                )
            )
        assert machine.resilience.compressor_crashes == 3
        # Three recorded failures out of three reach the threshold.
        assert machine.degradation.degraded
        # A crash has no size to hold against the 4:3 rule.
        assert stats.total_pages == 0
        assert chain.warmest.gate.probes == 0

    def test_injected_expansion_fails_the_rule_and_never_meets_the_memo(self):
        plan = FaultPlan.from_dict({"compressor": {"expand_rate": 1.0}})
        machine, _ = two_tier_machine(fault_plan=plan)
        chain, stats = machine.chain, CompressionStats()
        sampler = chain.warmest.sampler
        shared = shared_results_size()
        outcome = chain.compress_evicted(PAGE, stats)
        assert outcome is Rejected.UNCOMPRESSIBLE
        assert stats.pages_uncompressible == 1
        assert chain.warmest.gate.probes == 1
        assert (sampler.hits, sampler.misses) == (0, 0)
        assert shared_results_size() == shared

    def test_kept_result_is_admitted_dirty_at_the_pages_version(self):
        machine, _ = two_tier_machine()
        chain, stats = machine.chain, CompressionStats()
        result = chain.compress_evicted(PAGE, stats)
        assert not isinstance(result, Rejected)
        assert stats.pages_compressed == 1
        assert machine.ledger.total(TimeCategory.COMPRESS) > 0.0
        page = PageId(0, 3)
        chain.admit(page, result, 7)
        cache = chain.warmest.cache
        assert page in cache and page not in chain.coldest.cache
        assert cache.entries[page].dirty
        assert cache.entries[page].content_version == 7

    def test_fetch_removes_a_dirty_entry_and_keeps_a_clean_one(self):
        machine, _ = two_tier_machine()
        chain = machine.chain
        result = chain.compress_evicted(PAGE, CompressionStats())
        dirty, clean = PageId(0, 1), PageId(0, 2)
        chain.admit(dirty, result, 1)
        chain.coldest.cache.insert(
            clean, result.payload, dirty=False, now=machine.ledger.now,
            on_backing_store=True,
        )
        assert chain.fetch(dirty) == (chain.warmest, result.payload)
        assert not chain.holds(dirty)
        assert chain.fetch(clean) == (chain.coldest, result.payload)
        assert chain.find(clean) is chain.coldest
        assert chain.fetch(PageId(0, 99)) is None

    def test_charge_decompress_scales_by_the_tier(self):
        machine, _ = two_tier_machine()
        chain = machine.chain
        base = machine.config.costs.decompress_seconds(4096)
        chain.charge_decompress(chain.warmest)
        assert machine.ledger.total(TimeCategory.DECOMPRESS) == base
        chain.charge_decompress(chain.coldest)  # lzss, compress_scale 2
        assert machine.ledger.total(TimeCategory.DECOMPRESS) == (
            pytest.approx(3 * base)
        )

    def test_run_cleaners_reads_free_frames_once_per_tier(self):
        """A warmer tier's clean pass can change the free count the
        colder tier should be paced on, so the count is not hoisted."""
        machine, workload = two_tier_machine()
        SimulationEngine(machine).run(workload.references())

        class CountingPool:
            reads = 0

            @property
            def free_frames(self):
                self.reads += 1
                return machine.frames.free_frames

            def __getattr__(self, name):
                return getattr(machine.frames, name)

        pool = CountingPool()
        for tier in machine.chain.tiers:
            tier.cache.frames = pool
        invocations = machine.chain.run_cleaners()
        assert pool.reads == len(machine.chain.tiers)
        assert 0 <= invocations <= len(machine.chain.tiers)

    def test_drain_under_a_flaky_disk_leaves_no_dirty_page(self):
        plan = FaultPlan.from_json(PLAN_DIR / "disk-flaky.json")
        machine, workload = two_tier_machine(fault_plan=plan)
        SimulationEngine(machine).run(workload.references())
        chain = machine.chain
        assert sum(tier.cache.dirty_pages() for tier in chain.tiers) > 0
        chain.drain()
        assert [tier.cache.dirty_pages() for tier in chain.tiers] == [0, 0]
        assert machine.resilience.injected_faults > 0

    def test_snapshot_ends_with_the_store_row(self):
        machine, workload = two_tier_machine()
        SimulationEngine(machine).run(workload.references(), drain=True)
        rows = machine.chain.snapshot()
        assert [row["name"] for row in rows] == ["l1", "l2", "store"]
        assert rows[0]["demoted_out"] == machine.chain.demoted_pages()
        assert rows[-1] == {
            "name": "store",
            "kind": "store",
            "frames": 0,
            "pages": machine.fragstore.live_pages,
            "fragstore": machine.fragstore.counters.snapshot(),
            "swap": machine.swap.counters.snapshot(),
        }
        assert rows[-1]["pages"] > 0
