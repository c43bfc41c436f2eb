"""Property: demotion only happens under genuine warm-tier pressure.

A page must never move to a colder tier while the warmer tier still has
reclaimable (clean, already-backed) space — demotion pays a decompress +
recompress, so spending it while a free-to-drop frame exists would be
pure waste.  The shrink path encodes this by preferring all-clean victim
frames; the property pins it from the outside: every
:class:`~repro.tiers.compressed.DemotionSink` write must be observed
with zero reclaimable frames at the moment its source tier's shrink
began.

Cleaners are disabled throughout: the cleaner *deliberately* writes
dirty pages ahead of pressure (that is its job, and the copies stay in
the warm tier), so the invariant is about the shrink path only.

The second subject is what a demotion decodes: the sink runs the
source kernel's decoder once on every page it moves, and the
process-wide result caches the recompressions go through change no
simulation bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccache.cleaner import CleanerPolicy
from repro.compression.lzrw1 import Lzrw1
from repro.compression.sampler import (
    clear_shared_results,
    shared_results_size,
)
from repro.mem.page import PageId, mbytes
from repro.mem.segment import AddressSpace
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import TierSpec, two_tier_specs
from repro.workloads import catalog

NPAGES = 200

#: A cleaner that never demotes ahead of pressure.
NO_CLEAN = CleanerPolicy(target_clean_fraction=0.0)


def build_machine(**config):
    config = MachineConfig(
        memory_bytes=mbytes(0.5),
        **config,
        tiers=(
            TierSpec(name="l1", compressor="lzrw1", max_frames=6,
                     cleaner=NO_CLEAN),
            TierSpec(name="l2", compressor="lzss", cleaner=NO_CLEAN),
        ),
    )
    space = AddressSpace()
    segment = space.add_segment("heap", NPAGES)
    machine = Machine(config, space)
    return machine, segment


def instrument(machine):
    """Record L1's reclaimable frames at shrink entry; collect the value
    seen by every demotion out of L1."""
    l1 = machine.chain.warmest
    cache = l1.cache
    sink = l1.sink
    state = {"at_shrink": None}
    observed = []

    orig_shrink = cache.shrink_one

    def recording_shrink():
        state["at_shrink"] = cache.reclaimable_frames()
        return orig_shrink()

    cache.shrink_one = recording_shrink

    orig_put = sink.put

    def recording_put(page_id, payload):
        observed.append(state["at_shrink"])
        return orig_put(page_id, payload)

    sink.put = recording_put
    return observed


def run_touches(machine, segment, pages):
    for number in pages:
        machine.vm.touch(PageId(segment.segment_id, number), write=True)


@settings(max_examples=20, deadline=None)
@given(
    pages=st.lists(
        st.integers(min_value=0, max_value=NPAGES - 1),
        min_size=30,
        max_size=250,
    )
)
def test_demotion_only_without_reclaimable_warm_space(pages):
    machine, segment = build_machine()
    observed = instrument(machine)
    run_touches(machine, segment, pages)
    assert all(value == 0 for value in observed), (
        f"pages demoted to the colder tier while the warm tier had "
        f"reclaimable frames: {[v for v in observed if v != 0]}"
    )


def _run_two_tier(name):
    """One ``two_tier_specs()`` run of a named workload."""
    workload = catalog.build(name, 0.05)
    config = MachineConfig(memory_bytes=mbytes(6 * 0.05),
                           tiers=two_tier_specs())
    machine = Machine(config, workload.build())
    result = SimulationEngine(machine).run(workload.references())
    return machine, result.as_dict()


@pytest.mark.parametrize("name", ["thrasher", "multiprogram"])
def test_cold_and_warm_two_tier_runs_are_identical(name):
    """The process-wide result caches are wall-clock only: a run that
    starts with them empty and one that replays its results give the
    same complete result, ledger and colder-tier contents."""
    clear_shared_results()
    cold_machine, cold = _run_two_tier(name)
    assert cold_machine.chain.demoted_pages() > 0
    assert shared_results_size() > 0
    warm_machine, warm = _run_two_tier(name)
    assert cold == warm
    assert cold_machine.ledger.breakdown() == warm_machine.ledger.breakdown()
    l2_sizes = [
        {h.page_id: len(h.payload)
         for h in machine.chain.tiers[1].cache.entries.values()}
        for machine in (cold_machine, warm_machine)
    ]
    assert l2_sizes[0] == l2_sizes[1]


def test_every_demotion_runs_the_decoder_once(monkeypatch):
    """No decode is cached: in an exact tier, a cold one and a warm one,
    each demotion out of the lzrw1 L1 runs lzrw1's decoder once."""
    decodes = []
    real = Lzrw1.decompress
    monkeypatch.setattr(
        Lzrw1, "decompress",
        lambda self, result: decodes.append(1) or real(self, result),
    )

    def sweep(**config):
        del decodes[:]
        machine, segment = build_machine(**config)
        run_touches(machine, segment, list(range(NPAGES)) * 2)
        sink = machine.chain.warmest.sink
        return sink.demoted_pages + sink.spilled_pages

    clear_shared_results()
    demotions = sweep(exact_compression=True)
    assert len(decodes) == demotions > 0
    for _ in ("cold", "warm"):
        assert sweep() == demotions
        assert len(decodes) == demotions
    clear_shared_results()


def test_put_many_equals_sequential_puts():
    """DemotionSink.put_many == N put() calls, observably."""
    machine_a, seg_a = build_machine()
    machine_b, seg_b = build_machine()
    run_touches(machine_a, seg_a, list(range(NPAGES)))
    run_touches(machine_b, seg_b, list(range(NPAGES)))

    def dirty_items(machine, count):
        cache = machine.chain.warmest.cache
        items = []
        for header in cache.entries.values():
            if header.dirty:
                payload, _ = cache.fetch(header.page_id, remove=False)
                items.append((header.page_id, payload))
            if len(items) == count:
                break
        return items

    items_a = dirty_items(machine_a, 4)
    items_b = dirty_items(machine_b, 4)
    assert items_a == items_b and items_a
    total_a = machine_a.chain.warmest.sink.put_many(items_a)
    total_b = sum(
        machine_b.chain.warmest.sink.put(pid, payload)
        for pid, payload in items_b
    )
    assert total_a == total_b
    assert machine_a.ledger.breakdown() == machine_b.ledger.breakdown()


def test_sequential_sweep_demotes_and_respects_invariant():
    """Deterministic companion: a sweep over the whole segment is
    guaranteed to overflow the 6-frame L1 and drive real demotions."""
    machine, segment = build_machine()
    observed = instrument(machine)
    run_touches(machine, segment, list(range(NPAGES)) * 2)
    assert observed, "expected the sweep to force demotions out of L1"
    assert all(value == 0 for value in observed)
    sink = machine.chain.warmest.sink
    assert sink.demoted_pages + sink.spilled_pages == len(observed)
