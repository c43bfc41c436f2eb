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

The second subject is what a demotion decodes: the sink recovers a
payload's bytes through the process-wide decode memo
(``shared_decompress``), which must change no simulation bit and must
stand aside for a tier that runs ``exact``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccache.cleaner import CleanerPolicy
from repro.compression import sampler as sampler_mod
from repro.compression.lzrw1 import Lzrw1
from repro.compression.sampler import clear_shared_results
from repro.mem.page import PageId, mbytes
from repro.mem.segment import AddressSpace
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers import compressed
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
def test_memoised_demotion_decode_changes_no_simulation_bit(
        name, monkeypatch):
    """Decoding each distinct payload once per process is wall-clock
    only: cold (both process-wide caches empty) and warm, the complete
    result, the ledger and the colder tier's contents equal those of a
    run whose every demotion runs the decoder."""
    clear_shared_results()
    cold_machine, cold = _run_two_tier(name)
    assert cold_machine.chain.demoted_pages() > 0
    assert 0 < len(sampler_mod._SHARED_DECODED) \
        < cold_machine.chain.demoted_pages()
    _, warm = _run_two_tier(name)
    monkeypatch.setattr(
        compressed, "shared_decompress",
        lambda compressor, result: compressor.decompress(result),
    )
    decoding_machine, decoding = _run_two_tier(name)
    assert cold == warm == decoding
    assert (cold_machine.ledger.breakdown()
            == decoding_machine.ledger.breakdown())
    l2_sizes = [
        {h.page_id: h.compressed_size
         for h in machine.chain.tiers[1].cache.iter_entries()}
        for machine in (cold_machine, decoding_machine)
    ]
    assert l2_sizes[0] == l2_sizes[1]


def test_exact_tier_decodes_on_every_demotion(monkeypatch):
    """Exact mode means the real kernel every time, both directions."""
    decodes = []
    real = Lzrw1.decompress
    monkeypatch.setattr(
        Lzrw1, "decompress",
        lambda self, result: decodes.append(1) or real(self, result),
    )

    def sweep(**config):
        clear_shared_results()
        del decodes[:]
        machine, segment = build_machine(**config)
        run_touches(machine, segment, list(range(NPAGES)) * 2)
        sink = machine.chain.warmest.sink
        return sink.demoted_pages + sink.spilled_pages

    demotions = sweep(exact_compression=True)
    assert len(decodes) == demotions > 0
    assert not sampler_mod._SHARED_DECODED
    assert sweep() == demotions
    assert len(decodes) == len(sampler_mod._SHARED_DECODED) < demotions


def test_put_many_equals_sequential_puts():
    """DemotionSink.put_many == N put() calls, observably."""
    machine_a, seg_a = build_machine()
    machine_b, seg_b = build_machine()
    run_touches(machine_a, seg_a, list(range(NPAGES)))
    run_touches(machine_b, seg_b, list(range(NPAGES)))

    def dirty_items(machine, count):
        cache = machine.chain.warmest.cache
        items = []
        for header in cache.iter_entries():
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
