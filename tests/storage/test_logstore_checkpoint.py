"""The checkpoint image is frozen, byte for byte.

A checkpoint slot's length is charged to the device, so it feeds every
lfs golden digest, the kill grid and ``benchmarks/e2e/expected.json``.
The store assembles the image from rows rendered when records commit;
:func:`reference_checkpoint` below is the encoder it replaced — build
the whole document, ``json.dumps`` it — kept here as the oracle.

* every slot image the store produces, on any path (periodic, cleaner,
  crash redo, recovery), equals the oracle's encoding of the same
  durable state, and the row cache is exactly the durable imap;
* a CRC-valid slot whose JSON is not a checkpoint is an invalid slot,
  not an exception out of recovery;
* one fixed churn is pinned to the digests the parent commit produced.
"""

import hashlib
import json
import random
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.degrade import ResilienceCounters
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan, LfsFaultConfig
from repro.mem.page import PageId
from repro.storage.disk import DiskModel
from repro.storage.logstore import (
    KILL_SITES,
    LogStoreConfig,
    LogStructuredStore,
)

#: The slot framing, restated rather than imported: the oracle and the
#: hand-built slots below must not move if the store's constants do.
_CP_HEADER = struct.Struct("<4sQII")


def frame(blob, seq):
    """A well-formed ``LCKP`` slot around an arbitrary blob."""
    return _CP_HEADER.pack(b"LCKP", seq, len(blob), zlib.crc32(blob)) + blob


def reference_checkpoint(store, seq):
    """The encoder ``_pack_checkpoint`` used before rows were cached."""
    head = (
        None if store._head_seg is None
        else [store._head_seg, store._head_off]
    )
    doc = {
        "seq": seq,
        "gc_generation": store.gc_generation,
        "record_seq": store._next_rec_seq,
        "segment_seq": store._next_seg_seq,
        "head": head,
        "allocated": sorted(
            [seg, sseq, store._written.get(seg, 0),
             store._control.get(seg, 0)]
            for seg, sseq in store._allocated.items()
        ),
        "imap": [
            [p.segment, p.number, loc.segment, loc.offset,
             loc.nbytes, loc.crc32, loc.seq]
            for p, loc in sorted(store._imap.items())
            if loc.segment >= 0
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return frame(blob, seq)


class _Increasing(list):
    """One segment's registered record offsets: each must exceed the
    last, which is what lets the store ``append`` where it once had to
    ``insort``."""

    def append(self, offset):
        assert not self or offset > self[-1], (self[-1], offset)
        super().append(offset)


class _OffsetIndex(dict):
    """``_seg_offsets`` handing out :class:`_Increasing` lists."""

    def setdefault(self, seg, default=None):
        return super().setdefault(seg, _Increasing())


class OracleStore(LogStructuredStore):
    """Checks every image it packs, and the row cache behind it."""

    def _pack_checkpoint(self, seq):
        packed = super()._pack_checkpoint(seq)
        assert packed == reference_checkpoint(self, seq)
        return packed

    def _init_volatile(self):
        super()._init_volatile()
        self._seg_offsets = _OffsetIndex()

    def _recover(self):
        # Recovery rebuilds the read index from the imap, in page order,
        # into a fresh dict and sorts it; every registration after that
        # must arrive in increasing order.
        super()._recover()
        self._seg_offsets = _OffsetIndex(
            (seg, _Increasing(offsets))
            for seg, offsets in self._seg_offsets.items()
        )

    def check(self):
        durable = {
            page: [page.segment, page.number, loc.segment, loc.offset,
                   loc.nbytes, loc.crc32, loc.seq]
            for page, loc in self._imap.items() if loc.segment >= 0
        }
        # The read index: per segment, exactly its durable records'
        # offsets, sorted, each naming its page.
        located = {}
        for page, row in durable.items():
            located.setdefault(row[2], {})[row[3]] = page
        for seg, offsets in self._seg_offsets.items():
            assert offsets == sorted(located.get(seg, {}))
            assert self._seg_page_at[seg] == located.get(seg, {})
        assert all(seg in self._seg_offsets for seg in located)
        # Image order: sorted, no duplicates, one row per page.  A
        # discarded page lingers, noted, until the next image.
        assert self._cp_keys == sorted(set(self._cp_keys))
        assert len(self._cp_rows) == len(self._cp_keys)
        assert self._cp_dead <= set(self._cp_keys)
        assert self.durable_rows() == durable
        # Every cached allocated-table row is what formatting it now
        # would give; rows are only ever missing, never stale.
        assert self._cp_allocated == {
            seg: "[%d,%d,%d,%d]" % (seg, self._allocated[seg],
                                    self._written.get(seg, 0),
                                    self._control.get(seg, 0))
            for seg in self._cp_allocated
        }
        # The image of the state as it stands, not only of the states
        # the store happened to checkpoint.  Packing removes what the
        # discards noted and fills the rows the table lacks, so the
        # store gets back what it had: a check is an observer, and noted
        # pages must be able to outlive a verb.
        kept = (list(self._cp_keys), list(self._cp_rows),
                set(self._cp_dead), dict(self._cp_allocated))
        self._pack_checkpoint(self._cp_next_seq)
        assert not self._cp_dead
        assert self._cp_keys == sorted(durable)
        assert sorted(self._cp_allocated) == sorted(self._allocated)
        (self._cp_keys, self._cp_rows, self._cp_dead,
         self._cp_allocated) = kept

    def durable_rows(self):
        """page -> decoded row, for every page no discard has noted."""
        return {
            page: json.loads(row)
            for page, row in zip(self._cp_keys, self._cp_rows)
            if page not in self._cp_dead
        }


def make_store(sync=False, kill=None, lost_rate=0.0, crash_rate=0.0,
               seed=0):
    injector = None
    if lost_rate or crash_rate:
        plan = FaultPlan(seed=seed, lfs=LfsFaultConfig(
            crash_rate=crash_rate, checkpoint_lost_rate=lost_rate))
        injector = FaultInjector(plan, ResilienceCounters())
    config = LogStoreConfig(
        segment_bytes=8192, total_segments=40, checkpoint_every=3,
        sync_appends=sync, kill=kill,
    )
    return OracleStore(DiskModel.rz57(), config=config, batch_bytes=4096,
                       injector=injector)


PAGES = [PageId(n // 16, n % 16) for n in range(48)]
VERBS = ("put", "put", "put", "free", "flush", "collect", "force",
         "crash")


def apply(store, verb, page, size):
    if verb == "put":
        store.put(page, bytes([size % 251 + 1]) * size)
    elif verb == "free":
        store.free(page)
    elif verb == "flush":
        store.flush()
    elif verb == "collect":
        store.maybe_collect()
    elif verb == "force":
        store.maybe_collect(force=True)
    else:
        store.crash_and_recover()
    store.check()


def seeded_steps(seed, count):
    rng = random.Random(seed)
    return [(rng.choice(VERBS), rng.choice(PAGES), rng.randrange(60, 1500))
            for _ in range(count)]


STORES = [
    pytest.param(dict(), id="batched"),
    pytest.param(dict(sync=True), id="sync"),
    pytest.param(dict(lost_rate=0.5), id="batched-checkpoint-lost"),
    pytest.param(dict(sync=True, lost_rate=0.4, crash_rate=0.03),
                 id="chaos"),
] + [
    pytest.param(dict(kill=f"{site}:{count}:{frac}"),
                 id=f"kill-{site}-{count}-{frac}")
    for site in KILL_SITES for count, frac in ((1, 0.0), (3, 0.5), (9, 0.9))
]


@pytest.mark.parametrize("options", STORES)
def test_every_image_equals_the_reference_encoding(options):
    for seed in (1, 2):
        store = make_store(seed=seed, **options)
        store.check()                      # the mkfs image
        for step in seeded_steps(seed, 500):
            apply(store, *step)
        assert store.counters.checkpoints_written > 10
        assert store.counters.segments_cleaned > 0
        if "kill" in options:
            assert store._kill is None and store.recovery.recoveries


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(VERBS), st.sampled_from(PAGES),
                  st.integers(60, 1500)),
        min_size=1, max_size=120,
    ),
    sync=st.booleans(),
    kill=st.none() | st.tuples(
        st.sampled_from(KILL_SITES), st.integers(1, 20),
        st.sampled_from((0.0, 0.3, 0.99)),
    ),
    lost_rate=st.sampled_from((0.0, 0.5)),
)
def test_random_sequences_keep_image_and_rows_exact(steps, sync, kill,
                                                    lost_rate):
    spec = None if kill is None else "%s:%d:%s" % kill
    store = make_store(sync=sync, kill=spec, lost_rate=lost_rate)
    for step in steps:
        apply(store, *step)


def test_staged_then_dropped_records_never_get_a_row():
    store = make_store()
    page = PageId(0, 1)
    store.put(page, b"a" * 100)
    store.put(page, b"b" * 200)            # drops the staged first copy
    assert store._cp_rows == [] and store._cp_keys == []
    store.flush()
    assert store.durable_rows()[page][4] == 200
    store.put(page, b"c" * 300)            # supersedes the durable copy
    assert store.durable_rows() == {} and store._cp_dead == {page}
    store.free(page)                       # staged copy dropped, tombstone
    store.flush()
    assert store.durable_rows() == {} and store._cp_keys == [page]
    store.check()
    store._write_checkpoint()              # an image removes what was noted
    assert store._cp_rows == [] and store._cp_keys == []
    assert not store._cp_dead and not store.contains(page)


def test_cleaner_copies_move_a_row_without_duplicating_it():
    store = make_store()
    for number in range(40):
        store.put(PageId(0, number), bytes([number + 1]) * 700)
    for number in range(0, 40, 2):
        store.free(PageId(0, number))
    store.flush()
    before = store.durable_rows()
    store.maybe_collect(force=True)
    store.check()
    assert store.counters.cleaner_copied_bytes > 0
    assert set(store.durable_rows()) == set(before)
    assert store.durable_rows() != before  # copied records have new homes
    newest = store._cp_slots[(store._cp_next_seq - 1) % 2]
    image = json.loads(newest[_CP_HEADER.size:])
    assert len(image["imap"]) == len({(r[0], r[1]) for r in image["imap"]})


# ----------------------------------------------------------------------
# Slots that frame correctly but are not checkpoints
# ----------------------------------------------------------------------

GOOD = {"seq": 9, "gc_generation": 0, "record_seq": 4, "segment_seq": 1,
        "head": [0, 56], "allocated": [[0, 0, 40, 0]],
        "imap": [[0, 1, 0, 16, 0, 0, 3]]}


def _mutated(**fields):
    doc = dict(GOOD)
    for key, value in fields.items():
        if value is KeyError:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc).encode()


BAD_BLOBS = {
    "array": b"[1,2,3]",
    "number": b"9",
    "null": b"null",
    "not-utf8": b"\xff\xfe{}",
    "not-json": b"{\"seq\":",
    "no-imap": _mutated(imap=KeyError),
    "no-allocated": _mutated(allocated=KeyError),
    "no-head": _mutated(head=KeyError),
    "no-record-seq": _mutated(record_seq=KeyError),
    "float-seq": _mutated(seq=9.0),
    "string-counter": _mutated(gc_generation="0"),
    "bool-counter": _mutated(segment_seq=True),
    "imap-not-list": _mutated(imap={"0": 1}),
    "imap-short-row": _mutated(imap=[[0, 1, 0, 16, 0, 0]]),
    "imap-string-field": _mutated(imap=[[0, 1, 0, "16", 0, 0, 3]]),
    "imap-row-not-list": _mutated(imap=[7]),
    "allocated-long-row": _mutated(allocated=[[0, 0, 40, 0, 0]]),
    "allocated-null-field": _mutated(allocated=[[0, None, 40, 0]]),
    "head-scalar": _mutated(head=3),
    "head-triple": _mutated(head=[0, 56, 1]),
    "head-float": _mutated(head=[0, 56.5]),
}


def test_the_well_formed_control_blob_parses():
    parse = LogStructuredStore._parse_checkpoint
    assert parse(frame(json.dumps(GOOD).encode(), 9)) == GOOD
    assert parse(frame(_mutated(head=None), 9))["head"] is None
    assert parse(frame(json.dumps(GOOD).encode(), 8)) is None


@pytest.mark.parametrize("name", sorted(BAD_BLOBS))
def test_crc_valid_slot_of_the_wrong_shape_is_invalid(name):
    raw = frame(BAD_BLOBS[name], 9)
    assert LogStructuredStore._parse_checkpoint(raw) is None


@pytest.mark.parametrize("name", sorted(BAD_BLOBS))
def test_recovery_uses_the_other_slot_or_a_full_scan(name):
    store = make_store(sync=True)
    for number in range(80):
        store.put(PageId(0, number), bytes([number + 1]) * 900)
    store.free(PageId(0, 3))
    acknowledged = store.acknowledged_pages()
    assert store.counters.checkpoints_written >= 2
    newest = (store._cp_next_seq - 1) % 2

    store._cp_slots[newest] = frame(BAD_BLOBS[name], store._cp_next_seq - 1)
    store.crash_and_recover()
    assert store.recovery.invalid_checkpoint_slots == 1
    assert store.acknowledged_pages() == acknowledged
    store.check()

    store._cp_slots = [frame(BAD_BLOBS[name], 7), frame(BAD_BLOBS[name], 8)]
    store.crash_and_recover()
    assert store.recovery.invalid_checkpoint_slots == 3
    assert store.acknowledged_pages() == acknowledged
    store.check()


# ----------------------------------------------------------------------
# One fixed churn, pinned to what the parent commit produced
# ----------------------------------------------------------------------


def churn(store, seed=12, count=5000, keys=400, collect_every=64,
          crash_every=0):
    """``benchmarks/e2e/lfs_workload.py``'s generator, a tenth the size."""
    rng = random.Random(seed)
    pool = [rng.randbytes(rng.randint(400, 2600)) for _ in range(64)]
    pages = [PageId(1 + number // 128, number % 128)
             for number in range(keys)]
    live = {}
    order = []
    for index in range(1, count + 1):
        draw = rng.random()
        if draw < 0.55 or not order:
            page = pages[rng.randrange(keys // 5) if rng.random() < 0.8
                         else rng.randrange(keys)]
            if page not in live:
                order.append(page)
            live[page] = pool[rng.randrange(len(pool))]
            store.put(page, live[page])
        else:
            page = order[rng.randrange(len(order))]
            if draw < 0.90:
                assert store.get(page)[0] == live[page]
            else:
                order.remove(page)
                del live[page]
                store.free(page)
        if index % collect_every == 0:
            store.maybe_collect()
        if crash_every and index % crash_every == 0:
            store.flush()                  # staged records are volatile
            store.crash_and_recover()
    store.flush()
    store.crash_and_recover()
    return live


def fingerprint(store):
    def digest(data):
        return hashlib.blake2b(data, digest_size=16).hexdigest()

    acknowledged = json.dumps(sorted(
        [p.segment, p.number, crc]
        for p, crc in store.acknowledged_pages().items()
    )).encode()
    return {
        "counters": digest(json.dumps(store.counters.snapshot(),
                                      sort_keys=True).encode()),
        "recovery": store.recovery.snapshot(),
        "slots": [digest(slot) for slot in store._cp_slots],
        "acknowledged": digest(acknowledged),
    }


#: Printed by this file's ``fingerprint`` at commit 7d219c5 (PR 11),
#: before the row cache, the replay index and the shape check existed.
PINNED = {
    "plain": {
        "counters": "e00ca204479973a8d46532b82f00c3c4",
        "recovery": {
            "recoveries": 1, "replayed_records": 5, "torn_records": 0,
            "scanned_segments": 1, "scanned_bytes": 7154,
            "invalid_checkpoint_slots": 0,
        },
        "slots": ["2712732d5296246a9863a074556feb44",
                  "b8981d3a5be3438100e50e35f556375c"],
        "acknowledged": "c501f2add5269137cef969df73dfd0e7",
    },
    "lost-checkpoints": {
        "counters": "aeea446257256b83e4fda3b2ccc8d449",
        "recovery": {
            "recoveries": 8, "replayed_records": 503, "torn_records": 0,
            "scanned_segments": 30, "scanned_bytes": 679716,
            "invalid_checkpoint_slots": 0,
        },
        "slots": ["89d4bc96478944d0fa5c00837b407dc6",
                  "f8304f5fdd6e9cc095a32c457fe7d004"],
        "acknowledged": "c501f2add5269137cef969df73dfd0e7",
    },
}


def pinned_store(name):
    config = LogStoreConfig(total_segments=48)
    if name == "plain":
        return OracleStore(DiskModel.rz57(), config=config), {}
    # Half the checkpoints vanish and the store reboots every 700
    # operations, so replay runs through segment-free records the
    # surviving checkpoint never saw.
    plan = FaultPlan(seed=3, lfs=LfsFaultConfig(checkpoint_lost_rate=0.5))
    injector = FaultInjector(plan, ResilienceCounters())
    store = OracleStore(DiskModel.rz57(), config=config, injector=injector)
    return store, {"crash_every": 700}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixed_churn_matches_the_parent_commit(name):
    store, options = pinned_store(name)
    live = churn(store, **options)
    assert fingerprint(store) == PINNED[name]
    assert store.counters.checkpoints_written > 50
    assert set(store.acknowledged_pages()) == set(live)
    for page, payload in live.items():
        assert store.get(page)[0] == payload
