"""Property-based consistency: random op sequences vs ground truth.

The cache keeps incremental dirty/frame counters for O(1) cleaner
scheduling; this test hammers the public API with random operation
sequences (including reentrant-free paths) and re-derives every counter
from first principles after each step.
"""

from hypothesis import given, settings, strategies as st

from repro.ccache.circular import CompressionCache
from repro.ccache.header import COMPRESSED_PAGE_HEADER_BYTES
from repro.mem.frames import FramePool
from repro.mem.page import PageId
from repro.sim.ledger import Ledger
from repro.storage.blockfs import BlockFileSystem
from repro.storage.disk import DiskModel
from repro.storage.fragstore import FragmentStore


def _ops():
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("insert"),
                st.integers(0, 20),                 # page number
                st.integers(1, 4000),               # payload size
                st.booleans(),                      # dirty
            ),
            st.tuples(st.just("fetch"), st.integers(0, 20), st.booleans()),
            st.tuples(st.just("drop"), st.integers(0, 20)),
            st.tuples(st.just("clean"), st.integers(0, 5)),
            st.tuples(st.just("shrink"), st.integers(0, 0)),
        ),
        min_size=1,
        max_size=60,
    )


def _check_ground_truth(cache):
    true_dirty_entries = sum(
        1 for e in cache.entries.values() if e.dirty
    )
    assert cache._dirty_entries == true_dirty_entries
    for index, slot in cache._frames.items():
        true_pages = {
            p for p, e in cache.entries.items()
            if e.offset // cache.page_size <= index
            <= (e.offset + e.footprint - 1) // cache.page_size
        }
        assert set(slot.pages) == true_pages
        # shrink_one relies on registration order being ascending offset.
        offsets = [cache.entries[p].offset for p in slot.pages]
        assert offsets == sorted(offsets)
        true_dirty = sum(
            1 for p in true_pages if cache.entries[p].dirty
        )
        assert slot.dirty_pages == true_dirty
    assert cache._dirty_frames == sum(
        1 for s in cache._frames.values() if s.dirty_pages > 0
    )
    # Payload integrity: what's in the cache is what was inserted.
    for page_id, entry in cache.entries.items():
        assert entry.footprint == (
            len(entry.payload) + COMPRESSED_PAGE_HEADER_BYTES)
    # The cache's own recount must agree with this one.
    cache.check_invariants()


@settings(max_examples=80, deadline=None)
@given(ops=_ops())
def test_random_op_sequences_stay_consistent(ops):
    frames = FramePool(64)
    fs = BlockFileSystem(DiskModel.rz57())
    fragstore = FragmentStore(fs)
    cache = CompressionCache(frames, fragstore, Ledger())
    now = 0.0
    for op in ops:
        now += 1.0
        kind = op[0]
        if kind == "insert":
            _, number, size, dirty = op
            page_id = PageId(0, number)
            if page_id in cache:
                continue
            cache.insert(
                page_id, b"p" * size, dirty=dirty, now=now,
                on_backing_store=not dirty,
            )
        elif kind == "fetch":
            _, number, remove = op
            page_id = PageId(0, number)
            if page_id in cache:
                cache.fetch(page_id, remove=remove)
        elif kind == "drop":
            page_id = PageId(0, op[1])
            if page_id in cache:
                cache.drop(page_id)
        elif kind == "clean":
            cache.clean_pages(op[1])
        elif kind == "shrink":
            cache.shrink_one()
        _check_ground_truth(cache)
    # Frame ownership must reconcile with the pool.
    assert frames.owned_by(
        __import__("repro.mem.frames", fromlist=["FrameOwner"]).FrameOwner.COMPRESSION
    ) == cache.nframes


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4050), min_size=1, max_size=30),
)
def test_insert_fetch_everything_releases_all_frames(sizes):
    frames = FramePool(64)
    fs = BlockFileSystem(DiskModel.rz57())
    cache = CompressionCache(frames, FragmentStore(fs), Ledger())
    for n, size in enumerate(sizes):
        cache.insert(PageId(0, n), b"q" * size, dirty=False, now=float(n),
                     on_backing_store=True)
    for n, size in enumerate(sizes):
        payload, _ = cache.fetch(PageId(0, n))
        assert payload == b"q" * size
    assert cache.compressed_pages == 0
    assert cache.nframes <= 1  # at most the tail frame
