"""Recovery reads bytes it did not write: mutations of the medium.

The kill grid tears writes the way a power loss does — a prefix of the
last one.  This harness damages the medium *anywhere*: after a seeded
churn and ``flush`` it flips, zeroes or cuts off a span inside a log
segment or either checkpoint slot, then recovers.  Whatever the damage,

* recovery returns — no exception, no hang;
* every page ``acknowledged_pages()`` lists reads back, through ``get``,
  as a payload once put for *that* page, or raises
  :class:`FragmentChecksumError` (a checkpointed record's payload is
  only verified when read) — never other bytes, never another error;
* damage recovery could see is counted: a changed slot is an
  ``invalid_checkpoint_slots``, a replayed record changed anywhere its
  own framing can vouch for is a ``torn_records``;
* a changed slot alone loses nothing (the other slot, a longer replay);

and a store recovered from the undamaged medium goes on exactly as the
one that never stopped.
"""

import random
import struct
from collections import defaultdict

import pytest

from repro.faults.errors import FragmentChecksumError
from repro.mem.page import PageId
from repro.storage.disk import DiskModel
from repro.storage.logstore import (
    LogStoreConfig,
    LogStructuredStore,
    RecoveryStats,
)

#: The framing, restated rather than imported (as the checkpoint tests
#: do): which bytes of a record vouch for which is the point here.
_SEG_HEADER_BYTES = 16
_REC_HEADER = struct.Struct("<2sBBQQiiIII")
#: Header bytes recovery needs intact to call what follows a record of
#: this segment's current life at all: the magic and the segment seq.
_IDENTITY = set(range(0, 2)) | set(range(12, 20))

PAGES = [PageId(n // 16, n % 16) for n in range(48)]
#: Churns that end some twenty records past their last checkpoint (one
#: that ends *on* a checkpoint has no replayed record to damage).
SEEDS = (10, 12, 15)
MUTATIONS = 300


class ReplayRecorder(LogStructuredStore):
    """Notes which byte range of which segment each recovery replays."""

    def _replay_segment(self, seg, sseq, start, last_seen_seq, pages_in):
        stop, max_seq, count = super()._replay_segment(
            seg, sseq, start, last_seen_seq, pages_in)
        self.replayed_ranges.append((seg, start, stop))
        return stop, max_seq, count

    def _recover(self):
        self.replayed_ranges = []
        super()._recover()


def make_store():
    config = LogStoreConfig(segment_bytes=8192, total_segments=40,
                            checkpoint_every=3)
    return ReplayRecorder(DiskModel.rz57(), config=config, batch_bytes=4096)


def churn(store, rng, count, history):
    """Puts of unrepeatable bytes, frees, gets and cleaning passes;
    ``history`` collects every payload ever put, per page."""
    for index in range(1, count + 1):
        page = rng.choice(PAGES)
        draw = rng.random()
        if draw < 0.70:
            payload = rng.randbytes(rng.randrange(60, 1500))
            history[page].add(payload)
            store.put(page, payload)
        elif draw < 0.85:
            store.free(page)
        elif store.contains(page):
            store.get(page)
        if index % 32 == 0:
            store.maybe_collect()
    store.flush()


class Medium:
    """One churned store, its medium as ``flush`` left it, and what an
    undamaged recovery makes of that medium."""

    def __init__(self, seed):
        self.seed = seed
        self.store = make_store()
        self.history = defaultdict(set)
        churn(self.store, random.Random(seed), 700, self.history)
        self.disk = {seg: bytes(data)
                     for seg, data in self.store._disk.items()}
        self.slots = list(self.store._cp_slots)
        self.acknowledged = self.store.acknowledged_pages()
        self.final = {page: self.store.get(page)[0]
                      for page in self.acknowledged}
        self.recover()
        self.pristine = self.store.recovery
        # (segment, offset, size) of every record that recovery replayed.
        self.replayed = []
        for seg, start, stop in self.store.replayed_ranges:
            off = start
            while off < stop:
                nbytes = _REC_HEADER.unpack_from(self.disk[seg], off)[7]
                self.replayed.append((seg, off, _REC_HEADER.size + nbytes))
                off += _REC_HEADER.size + nbytes

    def recover(self, segment=None, slot=None):
        """Put the medium back — but for one damaged segment or slot —
        and recover from it; returns the recovery's statistics."""
        store = self.store
        store._disk = {seg: bytearray(data)
                       for seg, data in self.disk.items()}
        store._cp_slots = list(self.slots)
        if segment is not None:
            store._disk[segment[0]] = bytearray(segment[1])
        if slot is not None:
            store._cp_slots[slot[0]] = slot[1]
        store.recovery = RecoveryStats()
        store.crash_and_recover()
        return store.recovery

    def check_reads(self):
        """The safety property; returns how many reads ended in the
        typed error."""
        typed = 0
        for page in self.store.acknowledged_pages():
            try:
                payload = self.store.get(page)[0]
            except FragmentChecksumError:
                typed += 1
            else:
                assert payload in self.history[page], page
        return typed


@pytest.fixture(scope="module", params=SEEDS)
def medium(request):
    return Medium(request.param)


def damaged(rng, data, start):
    """``data`` with a span at ``start`` flipped, zeroed or cut off, and
    the positions whose byte changed or went missing."""
    out = bytearray(data)
    end = min(len(out), start + rng.randrange(1, 65))
    verb = rng.choice(("flip", "zero", "truncate"))
    if verb == "flip":
        for at in range(start, end):
            out[at] ^= rng.randrange(1, 256)
    elif verb == "zero":
        out[start:end] = bytes(end - start)
    else:
        del out[start:]
        end = len(data)
    changed = {at for at in range(start, end)
               if at >= len(out) or out[at] != data[at]}
    return bytes(out), changed


def test_the_undamaged_medium_recovers_to_what_was_acknowledged(medium):
    assert medium.pristine.replayed_records == len(medium.replayed) > 0
    assert medium.pristine.torn_records == 0
    assert medium.pristine.invalid_checkpoint_slots == 0
    assert medium.store.acknowledged_pages() == medium.acknowledged
    assert medium.check_reads() == 0
    assert {page: medium.store.get(page)[0]
            for page in medium.acknowledged} == medium.final


def test_a_recovered_store_goes_on_as_the_uninterrupted_one():
    stores = []
    for crash in (False, True):
        store, rng = make_store(), random.Random(SEEDS[0])
        churn(store, rng, 700, defaultdict(set))
        if crash:
            store.crash_and_recover()
        churn(store, rng, 400, defaultdict(set))
        stores.append(store)
    straight, recovered = stores
    assert recovered.recovery.replayed_records > 0
    assert recovered.counters.snapshot() == straight.counters.snapshot()
    assert recovered._cp_slots == straight._cp_slots
    assert recovered._disk == straight._disk
    assert recovered.acknowledged_pages() == straight.acknowledged_pages()


def test_a_damaged_checkpoint_slot_is_counted_and_loses_nothing(medium):
    rng = random.Random(2 * medium.seed)
    changed_slots = 0
    for _ in range(MUTATIONS // 3):
        which = rng.randrange(2)
        raw = medium.slots[which]
        slot, changed = damaged(rng, raw, rng.randrange(len(raw)))
        recovery = medium.recover(slot=(which, slot))
        assert recovery.invalid_checkpoint_slots == bool(changed)
        assert recovery.torn_records == 0
        # The other slot and a longer replay: same pages, same bytes.
        assert medium.store.acknowledged_pages() == medium.acknowledged
        assert medium.check_reads() == 0
        changed_slots += bool(changed)
    assert changed_slots > MUTATIONS // 4


def test_a_damaged_segment_never_reads_back_as_other_bytes(medium):
    rng = random.Random(2 * medium.seed + 1)
    typed = torn = 0
    for trial in range(MUTATIONS):
        if trial % 2:
            # Somewhere in a record the undamaged recovery replays.
            seg, off, size = rng.choice(medium.replayed)
            start = off + rng.randrange(size)
        else:
            seg = rng.choice(sorted(medium.disk))
            start = rng.randrange(len(medium.disk[seg]))
        data, changed = damaged(rng, medium.disk[seg], start)
        recovery = medium.recover(segment=(seg, data))
        assert recovery.invalid_checkpoint_slots == 0
        typed += medium.check_reads()

        # Replay reaches the first replayed record the damage touches
        # exactly as the undamaged recovery did.  With its header still
        # on the medium and still naming this life of the segment, what
        # is wrong with it is a torn record, and counted.
        hit = next((off for rseg, off, size in medium.replayed
                    if rseg == seg and changed & set(range(off, off + size))),
                   None)
        if (hit is not None
                and len(data) >= hit + _REC_HEADER.size
                and not changed & set(range(_SEG_HEADER_BYTES))
                and not changed & {hit + at for at in _IDENTITY}):
            assert recovery.torn_records >= 1, (seg, start, sorted(changed))
            torn += 1
        if not changed:
            assert recovery.snapshot() == medium.pristine.snapshot()
    # The harness does reach both outcomes it distinguishes.
    assert typed > 0 and torn > MUTATIONS // 8
