"""Binary request/response framing between front-end and shards.

One *frame* carries a whole batch — the front-end coalesces up to
``batch_ops`` operations per flush, so a frame is one
:meth:`~repro.service.shard.FrameSocket.send_frame` (a single
``sendmsg`` of length prefix and frame over the shard's ``socketpair``,
unless the socket takes only part of it) regardless of batch size.
Layout (little-endian throughout)::

    frame    := u32 count, record*
    request  := u8 op, u16 tenant, u16 vslot, u64 key, u32 len, len bytes
    response := u8 status, u32 len, len bytes

Parsing never copies payloads: :func:`iter_requests` and
:func:`iter_responses` yield :class:`memoryview` slices into the frame
buffer, and the packers splice caller-provided buffers (any object
supporting the buffer protocol) straight into the outgoing
``bytearray``.  The only materializing copy on the whole path is the
one the shard store makes when it takes ownership of a PUT payload —
the frame buffer is transient, the stored bytes are not.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ProtocolError

# -- operations ------------------------------------------------------

OP_GET = 0
OP_PUT = 1
OP_DELETE = 2
#: Control plane: per-shard ledgers + counters as a JSON payload.
OP_STATS = 3
#: Control plane: flush and exit the worker loop (reply then die).
OP_SHUTDOWN = 4

OP_NAMES = {
    OP_GET: "get",
    OP_PUT: "put",
    OP_DELETE: "delete",
    OP_STATS: "stats",
    OP_SHUTDOWN: "shutdown",
}

# -- response statuses -----------------------------------------------

ST_HIT = 0           # GET served (payload attached)
ST_MISS = 1          # GET for a non-resident key
ST_STORED = 2        # PUT accepted
ST_DELETED = 3       # DELETE removed the key
ST_NOT_FOUND = 4     # DELETE for a non-resident key
ST_QUOTA_DENIED = 5  # PUT rejected by the tenant's byte quota
ST_STATS = 6         # control reply (JSON payload)
ST_BYE = 7           # shutdown acknowledgement
ST_PROTOCOL_ERROR = 8  # malformed frame; the connection closes after this

STATUS_NAMES = {
    ST_HIT: "hit",
    ST_MISS: "miss",
    ST_STORED: "stored",
    ST_DELETED: "deleted",
    ST_NOT_FOUND: "not_found",
    ST_QUOTA_DENIED: "quota_denied",
    ST_STATS: "stats",
    ST_BYE: "bye",
    ST_PROTOCOL_ERROR: "protocol_error",
}

#: Upper bound a TCP front-end accepts for one request frame.  Generous
#: relative to any legitimate batch (batch_ops x page-size payloads),
#: tight enough that a garbage length prefix cannot pin the reader.
MAX_FRAME_BYTES = 16 << 20

_HEADER = struct.Struct("<I")
_REQUEST = struct.Struct("<BHHQI")
_RESPONSE = struct.Struct("<BI")


class RequestBatch:
    """Accumulates request records into one outgoing frame."""

    __slots__ = ("_buf", "count")

    def __init__(self) -> None:
        self._buf = bytearray(_HEADER.size)
        self.count = 0

    def add(
        self,
        op: int,
        tenant: int,
        vslot: int,
        key: int,
        payload: Optional[object] = None,
    ) -> None:
        """Append one record; ``payload`` is any buffer-protocol object."""
        if payload is None:
            self._buf += _REQUEST.pack(op, tenant, vslot, key, 0)
        else:
            view = memoryview(payload)
            self._buf += _REQUEST.pack(op, tenant, vslot, key, view.nbytes)
            self._buf += view
        self.count += 1

    def finish(self) -> bytearray:
        """Back-patch the count; returns the wire-ready buffer."""
        _HEADER.pack_into(self._buf, 0, self.count)
        return self._buf


def pack_requests(
    records: Sequence[Tuple[int, int, int, int, Optional[object]]],
) -> bytearray:
    """One-shot helper: a frame from ``(op, tenant, vslot, key, payload)``."""
    batch = RequestBatch()
    for op, tenant, vslot, key, payload in records:
        batch.add(op, tenant, vslot, key, payload)
    return batch.finish()


def iter_requests(
    frame: memoryview,
) -> Iterator[Tuple[int, int, int, int, memoryview]]:
    """Yield ``(op, tenant, vslot, key, payload view)`` per record.

    Raises :class:`ProtocolError` on truncation, trailing garbage or an
    op outside :data:`OP_NAMES` — a shard must never guess at a
    half-frame, and a record it cannot serve must not reach it.  No
    field sizes an allocation: a length is checked against the bytes
    the frame has before a view is cut.
    """
    if len(frame) < _HEADER.size:
        raise ProtocolError(f"frame shorter than header: {len(frame)}")
    (count,) = _HEADER.unpack_from(frame, 0)
    offset = _HEADER.size
    rec = _REQUEST
    size = rec.size
    for _ in range(count):
        if offset + size > len(frame):
            raise ProtocolError("truncated request record")
        op, tenant, vslot, key, length = rec.unpack_from(frame, offset)
        if op not in OP_NAMES:
            raise ProtocolError(f"unknown op {op}")
        offset += size
        if offset + length > len(frame):
            raise ProtocolError("truncated request payload")
        yield op, tenant, vslot, key, frame[offset:offset + length]
        offset += length
    if offset != len(frame):
        raise ProtocolError(
            f"{len(frame) - offset} trailing bytes after {count} records"
        )


class ResponseBatch:
    """Accumulates response records into one outgoing frame."""

    __slots__ = ("_buf", "count")

    def __init__(self) -> None:
        self._buf = bytearray(_HEADER.size)
        self.count = 0

    def add(self, status: int, payload: Optional[object] = None) -> None:
        if payload is None:
            self._buf += _RESPONSE.pack(status, 0)
        else:
            view = memoryview(payload)
            self._buf += _RESPONSE.pack(status, view.nbytes)
            self._buf += view
        self.count += 1

    def finish(self) -> bytearray:
        _HEADER.pack_into(self._buf, 0, self.count)
        return self._buf


def iter_responses(
    frame: memoryview,
) -> Iterator[Tuple[int, memoryview]]:
    """Yield ``(status, payload view)`` per response record."""
    if len(frame) < _HEADER.size:
        raise ProtocolError(f"frame shorter than header: {len(frame)}")
    (count,) = _HEADER.unpack_from(frame, 0)
    offset = _HEADER.size
    rec = _RESPONSE
    size = rec.size
    for _ in range(count):
        if offset + size > len(frame):
            raise ProtocolError("truncated response record")
        status, length = rec.unpack_from(frame, offset)
        offset += size
        if offset + length > len(frame):
            raise ProtocolError("truncated response payload")
        yield status, frame[offset:offset + length]
        offset += length
    if offset != len(frame):
        raise ProtocolError(
            f"{len(frame) - offset} trailing bytes after {count} records"
        )


def parse_responses(frame: memoryview) -> List[Tuple[int, memoryview]]:
    """Materialize :func:`iter_responses` (front-end completion path)."""
    return list(iter_responses(frame))
