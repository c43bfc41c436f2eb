"""The ``gold`` workload: a main-memory mail-index engine.

Table 1's worst cases come from "the 'index engine' for the Gold Mailer",
a main-memory database that "compresses slightly worse than 2:1" and has
"a high fraction of nonsequential page accesses ... each of which
requires a full 4-Kbyte read from backing store".  Three runs:

* ``gold create`` — "creates a new index from scratch.  It has a high
  degree of write accesses"; message text flows through as well, so 42%
  of compressed pages miss the 4:3 threshold.  0.90x.
* ``gold cold`` — "a sequence of queries against an existing gold index
  engine, with the index engine having just started.  Thus the index
  engine writes many pages as well as reading them."  0.80x.
* ``gold warm`` — "the same set of queries once gold cold has executed";
  mostly read-only faults on an established address space.  0.73x.

We implement the engine's memory behaviour as a real inverted index over
hash buckets: a query hashes its terms to buckets scattered across the
index segment (non-sequential reads), walks a few posting pages, and
occasionally updates access metadata.  Creation appends postings to
random buckets and streams message text.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..mem.page import DEFAULT_PAGE_SIZE, PageId, pages_for_bytes
from ..mem.segment import AddressSpace
from ..sim.engine import PageRef
from .base import Workload
from .contentgen import incompressible, index_page


class GoldWorkload(Workload):
    """The Gold mailer index engine's memory behaviour.

    Args:
        mode: "create", "cold", or "warm".
        index_bytes: size of the index segment.
        operations: messages indexed (create) or queries run (cold/warm).
        terms_per_operation: buckets touched per message/query.
        text_fraction: for create, fraction of touches that stream
            incompressible message text (drives the 42% uncompressible).
        update_rate: for queries, probability a bucket touch also writes
            (metadata updates; "a small number of pages are modified").
        hot_fraction / hot_probability: query locality — terms are
            Zipf-ish, so queries concentrate on a hot slice of the index.
            The hot slice is comparable to physical memory in the
            measured configuration, which is what makes the compression
            cache hurt: it converts would-be resident hits into
            decompressions and, under churn, into "full 4-Kbyte read[s]
            from backing store".
        op_seconds: CPU per operation (parsing, scoring).
    """

    MODES = ("create", "cold", "warm")

    def __init__(
        self,
        mode: str,
        index_bytes: int,
        operations: int,
        terms_per_operation: int = 6,
        text_fraction: float = 0.45,
        update_rate: float = 0.4,
        hot_fraction: float = 0.5,
        hot_probability: float = 0.8,
        op_seconds: float = 0.0,
        seed: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(page_size=page_size)
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}: {mode!r}")
        if index_bytes <= 0 or operations <= 0:
            raise ValueError("index size and operations must be positive")
        self.mode = mode
        self.index_bytes = index_bytes
        self.operations = operations
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction out of range: {hot_fraction}")
        if not 0.0 <= hot_probability <= 1.0:
            raise ValueError(
                f"hot_probability out of range: {hot_probability}"
            )
        self.terms_per_operation = terms_per_operation
        self.text_fraction = text_fraction
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self.update_rate = update_rate if mode != "warm" else 0.04
        self.op_seconds = op_seconds
        self.seed = seed
        self.name = f"gold_{mode}"
        self.index_pages = pages_for_bytes(index_bytes, page_size)
        # Message-text staging buffers (reused ring, so their pages are
        # hot but incompressible).
        self.text_pages = max(4, pages_for_bytes(index_bytes // 8, page_size))
        self._index_segment = -1
        self._text_segment = -1

    def _build(self, space: AddressSpace) -> None:
        # Values, not ``self``: see Thrasher._build.
        seed, page_size = self.seed, self.page_size
        index = space.add_segment(
            "gold-index",
            self.index_pages,
            content_factory=lambda n: index_page(
                n, seed=seed, page_size=page_size
            ),
        )
        text = space.add_segment(
            "gold-text",
            self.text_pages,
            content_factory=lambda n: incompressible(
                n, seed=seed ^ 0x7E7, page_size=page_size
            ),
        )
        self._index_segment = index.segment_id
        self._text_segment = text.segment_id
        for number in range(self.index_pages):
            index.entry(number).content.stable_key = (
                f"gold:{self.seed}:idx:{number}"
            )
        for number in range(self.text_pages):
            text.entry(number).content.stable_key = (
                f"gold:{self.seed}:txt:{number}"
            )

    # ------------------------------------------------------------------
    # Reference streams
    # ------------------------------------------------------------------

    def _bucket(self, rng: random.Random) -> int:
        """Hash a term to a bucket page.

        Buckets scatter non-sequentially (the paper's "high fraction of
        nonsequential page accesses"), with terms concentrating on a hot
        slice of the index (mail terms are Zipf-distributed — common
        words hit the same buckets whether querying or indexing).
        """
        if rng.random() < self.hot_probability:
            hot_pages = max(1, int(self.index_pages * self.hot_fraction))
            return rng.randrange(hot_pages)
        return rng.randrange(self.index_pages)

    def _create_refs(self, rng: random.Random) -> Iterator[PageRef]:
        text_cursor = 0
        for _ in range(self.operations):
            # Stream the message body through the text ring.
            body_pages = 1 + rng.randrange(3)
            for _ in range(body_pages):
                if rng.random() < self.text_fraction:
                    yield PageRef(
                        PageId(self._text_segment,
                               text_cursor % self.text_pages),
                        write=True,
                        compute_seconds=self.op_seconds / 4,
                    )
                    text_cursor += 1
            # Append postings to each term's bucket, walking the bucket's
            # overflow chain to find the tail first.
            for _ in range(self.terms_per_operation):
                bucket = self._bucket(rng)
                if rng.random() < 0.5:
                    yield PageRef(
                        PageId(
                            self._index_segment,
                            (bucket + 1) % self.index_pages,
                        )
                    )
                yield PageRef(
                    PageId(self._index_segment, bucket),
                    write=True,
                    compute_seconds=self.op_seconds / self.terms_per_operation,
                )

    def _query_refs(self, rng: random.Random) -> Iterator[PageRef]:
        for _ in range(self.operations):
            for _ in range(self.terms_per_operation):
                bucket = self._bucket(rng)
                write = rng.random() < self.update_rate
                yield PageRef(
                    PageId(self._index_segment, bucket),
                    write=write,
                    compute_seconds=self.op_seconds / self.terms_per_operation,
                )
                # Walk a short posting chain: neighbouring overflow pages.
                for step in range(1, 1 + rng.randrange(2)):
                    yield PageRef(
                        PageId(
                            self._index_segment,
                            (bucket + step) % self.index_pages,
                        )
                    )

    def _references(self) -> Iterator[PageRef]:
        rng = random.Random(self.seed ^ 0x601D5EED)
        if self.mode == "create":
            yield from self._create_refs(rng)
        else:
            yield from self._query_refs(rng)

    def setup_references(self) -> Iterator[PageRef]:
        """Unmeasured warm-up.

        ``cold`` starts with the index on backing store (the engine "having
        just started"): a sequential pass writes every index page so it
        exists outside memory.  ``warm`` additionally runs the full query
        stream once ("once gold cold has executed").
        """
        self.build()
        if self.mode == "create":
            return
        for number in range(self.index_pages):
            yield PageRef(PageId(self._index_segment, number), write=True)
        if self.mode == "warm":
            rng = random.Random(self.seed ^ 0x601D5EED)
            yield from self._query_refs(rng)

    def total_references(self) -> int:
        """Rough event count of the measured stream."""
        if self.mode == "create":
            return self.operations * (self.terms_per_operation + 2)
        return int(self.operations * self.terms_per_operation * 1.5)
