"""Foreign bytes into the service's request decoder (ROADMAP robustness
item c, wire slice).

``protocol.iter_requests`` reads every frame a TCP client sends.  Valid
multi-record frames — GET / PUT / DELETE / STATS, payloads of 0, 1 and
4,096 bytes — are truncated at every length, have bytes of the count,
of a record's length field and of anywhere else overwritten, and have
bytes appended.  The contract: ``list(iter_requests(view))`` raises
:class:`ProtocolError`, or returns records that re-pack into exactly the
frame (every byte belongs to one header or one payload); never another
exception, and never an allocation a length field sized.  Through
``serve_tcp``, a :data:`ST_PROTOCOL_ERROR` reply means that no record of
the frame was applied.
"""

from __future__ import annotations

import asyncio
import random
import tracemalloc

import pytest

from repro.service.errors import ProtocolError
from repro.service.protocol import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_STATS,
    ST_PROTOCOL_ERROR,
    iter_requests,
    pack_requests,
)

from .test_service import make_config, read_reply, tcp_service

HEADER = 4
RECORD = 17          # u8 op, u16 tenant, u16 vslot, u64 key, u32 len
LENGTH_FIELD = 13    # offset of ``len`` within a record header
MUTATIONS_PER_FRAME = 300
#: Beyond the frame itself: the records list, a tuple, a view and a few
#: ints per record, and the raised exception.
ALLOCATION_SLACK = 8192


def _frame(rng: random.Random) -> bytes:
    """A valid frame of one to eight records."""
    records = []
    for _ in range(rng.randrange(1, 9)):
        op = rng.choice((OP_GET, OP_PUT, OP_PUT, OP_DELETE, OP_STATS))
        size = rng.choice((0, 1, 4096))
        payload = rng.randbytes(size) or None
        records.append((op, rng.randrange(2), rng.randrange(64),
                        rng.getrandbits(64), payload))
    return bytes(pack_requests(records))


def _length_fields(frame: bytes):
    """Offset of every record's length field in a valid frame."""
    offsets = []
    offset = HEADER
    while offset < len(frame):
        offsets.append(offset + LENGTH_FIELD)
        length = int.from_bytes(
            frame[offset + LENGTH_FIELD:offset + RECORD], "little")
        offset += RECORD + length
    return offsets


def _mutate(rng: random.Random, frame: bytes) -> bytes:
    body = bytearray(frame)
    kind = rng.randrange(4)
    if kind == 0:                       # the count
        body[rng.randrange(HEADER)] = rng.randrange(256)
    elif kind == 1:                     # one record's length field
        field = rng.choice(_length_fields(frame))
        body[field + rng.randrange(4)] = rng.randrange(256)
    elif kind == 2:                     # anywhere
        for _ in range(rng.randrange(1, 4)):
            body[rng.randrange(len(body))] = rng.randrange(256)
    else:                               # appended bytes
        body += rng.randbytes(rng.randrange(1, 40))
    return bytes(body)


def _parse(frame: bytes):
    """The records, or ``None`` when the decoder refused the frame."""
    try:
        return list(iter_requests(memoryview(frame)))
    except ProtocolError:
        return None


def _decoded(frame: bytes):
    """:func:`_parse`, holding what it accepts to tile the frame."""
    records = _parse(frame)
    if records is not None:
        assert bytes(pack_requests(records)) == frame
    return records


def test_truncation_at_every_length_is_refused():
    rng = random.Random("truncate")
    for _ in range(6):
        frame = _frame(rng)
        assert _decoded(frame) is not None
        for length in range(len(frame)):
            assert _decoded(frame[:length]) is None, length


@pytest.mark.parametrize("seed", range(4))
def test_mutated_frames_are_refused_or_tile_exactly(seed):
    rng = random.Random(f"requests-{seed}")
    refused = 0
    for _ in range(4):
        frame = _frame(rng)
        for _ in range(MUTATIONS_PER_FRAME):
            refused += _decoded(_mutate(rng, frame)) is None
    # Most damage is detected; what is not decodes to whole records.
    assert refused > 2 * MUTATIONS_PER_FRAME


def test_no_length_field_sizes_an_allocation():
    rng = random.Random("allocation")
    frame = _frame(rng)
    cases = [_mutate(rng, frame) for _ in range(200)]
    # The largest claims a field can make: every record and payload.
    cases.append(b"\xff\xff\xff\xff" + frame[HEADER:])
    for field in _length_fields(frame):
        cases.append(frame[:field] + b"\xff\xff\xff\xff" + frame[field + 4:])
    tracemalloc.start()
    try:
        for case in cases:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _parse(case)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= len(case) + ALLOCATION_SLACK, (len(case), peak)
    finally:
        tracemalloc.stop()


def _applied(stats):
    """What records change: the ledgers and what each shard holds (its
    op and batch counts move with every STATS call)."""
    return stats["ledgers"], [
        (shard["resident_entries"], shard["resident_bytes"])
        for shard in stats["shards"]
    ]


def test_a_refused_frame_through_tcp_applies_nothing():
    """Mutations of a frame that opens with PUTs: whenever the reply is
    a protocol error, the shard's ledgers have not moved."""
    rng = random.Random("tcp")
    put = [(OP_PUT, 0, 0, key, bytes([key]) * 1024) for key in range(3)]
    frame = bytes(pack_requests(put + [(OP_DELETE, 0, 0, 1, None)]))
    cases = [frame[:len(frame) - 1], frame[:HEADER + RECORD + 1024 + 5],
             frame + b"\x00"]
    while len(cases) < 8:
        case = _mutate(rng, frame)
        if _decoded(case) is None:
            cases.append(case)

    async def scenario():
        config = make_config(shards=1, vslots=2)
        async with tcp_service(config) as (service, connect):
            for case in cases:
                before = _applied(await service.stats())
                reader, writer = await connect()
                writer.write(len(case).to_bytes(4, "little") + case)
                await writer.drain()
                (status, _message), = await read_reply(reader)
                assert status == ST_PROTOCOL_ERROR
                assert _applied(await service.stats()) == before

    asyncio.run(scenario())
