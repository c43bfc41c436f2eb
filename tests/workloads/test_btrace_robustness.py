"""Foreign bytes into the RBT1 trace reader (ROADMAP robustness item c,
trace slice).

``BinaryTraceReader`` reads files ``trace-record`` did not necessarily
write.  Recorded traces are truncated at every length, have a byte of
each header and record field overwritten, and have bytes appended.  The
contract: opening and decoding (both backends) raises
:class:`TraceFormatError`, or yields records that re-encode into exactly
the file — every reserved bit zero, every byte one field's; never
another exception, and opening never allocates what a count field
claims.  ``trace-replay`` turns a record it cannot honour (reserved bits
set, a page the workload lacks) into a message and exit status 2.
"""

from __future__ import annotations

import random
import struct
import tracemalloc

import pytest

from repro.cli import main
from repro.mem.page import mbytes
from repro.sim.trace import TraceFormatError
from repro.workloads import Thrasher, btrace

HEADER = btrace.HEADER.size
RECORD = btrace.RECORD_SIZE
#: (offset, width) of every field: the header's, then a record's.
HEADER_FIELDS = ((0, 4), (4, 1), (5, 1), (6, 2), (8, 8))
RECORD_FIELDS = ((0, 1), (1, 1), (2, 2), (4, 4), (8, 4), (12, 4))
MUTATIONS_PER_TRACE = 300
BACKENDS = (None, False)  # numpy when importable, and struct
#: Beyond the file itself: the reader, its header tuple, and the
#: raised exception.
ALLOCATION_SLACK = 8192


def _trace(references: int, seed: int) -> bytes:
    """A recorded thrasher trace, ticks and kinds included."""
    rng = random.Random(seed)
    workload = Thrasher(mbytes(0.25), cycles=2, write=True, seed=seed)
    workload.build()
    records = []
    for ref, _ in zip(workload.references(), range(references)):
        records.append(btrace.pack_record(
            ref.page_id.segment, ref.page_id.number, ref.write,
            kind=rng.getrandbits(32), tick_us=rng.randrange(1000)))
    return (btrace.HEADER.pack(btrace.MAGIC, btrace.VERSION, RECORD, 0,
                               len(records))
            + b"".join(records))


def _records(data: bytes, fast):
    """The records as ``(write, segment, number, tick, kind)``."""
    with btrace.BinaryTraceReader(data, fast=fast) as reader:
        rows = [row for chunk in reader.chunks(7) for row in zip(*chunk)]
        kinds = [kind for part in reader.kinds(7) for kind in part]
    return [row + (kind,) for row, kind in zip(rows, kinds)]


def _decode(data: bytes, fast):
    """:func:`_records`, or ``None`` when the reader refused the bytes."""
    try:
        return _records(data, fast)
    except TraceFormatError:
        return None


def _decoded(data: bytes):
    """:func:`_decode` on both backends, holding what they accept to
    agree and to re-encode into exactly ``data``."""
    results = [_decode(data, fast) for fast in BACKENDS]
    assert results[0] == results[1]
    records = results[0]
    if records is not None:
        again = btrace.HEADER.pack(btrace.MAGIC, btrace.VERSION, RECORD, 0,
                                   len(records)) + b"".join(
            btrace.pack_record(segment, number, write, kind, tick)
            for write, segment, number, tick, kind in records)
        assert again == data
        assert all(write in (0, 1) for write, *_ in records)
    return records


def _mutate(rng: random.Random, data: bytes) -> bytes:
    body = bytearray(data)
    kind = rng.randrange(3)
    if kind == 0:                       # one header field
        offset, width = rng.choice(HEADER_FIELDS)
        body[offset + rng.randrange(width)] = rng.randrange(256)
    elif kind == 1:                     # one field of one record
        offset, width = rng.choice(RECORD_FIELDS)
        start = HEADER + RECORD * rng.randrange((len(data) - HEADER) // RECORD)
        body[start + offset + rng.randrange(width)] = rng.randrange(256)
    else:                               # appended bytes
        body += rng.randbytes(rng.choice((1, RECORD - 1, RECORD, 40)))
    return bytes(body)


def test_truncation_at_every_length_is_refused():
    data = _trace(40, seed=1)
    assert len(_decoded(data)) == 40
    for length in range(len(data)):
        assert _decoded(data[:length]) is None, length


@pytest.mark.parametrize("seed", range(4))
def test_mutated_traces_are_refused_or_tile_exactly(seed):
    rng = random.Random(f"btrace-{seed}")
    data = _trace(60, seed)
    refused = 0
    for _ in range(MUTATIONS_PER_TRACE):
        refused += _decoded(_mutate(rng, data)) is None
    # What is not refused (a changed page, kind or tick, or a byte
    # rewritten to itself) decodes to whole records.
    assert 0 < refused < MUTATIONS_PER_TRACE


@pytest.mark.parametrize("offset, value", [
    (6, 1), (7, 0x80),                       # the header's reserved u16
    (HEADER, 0x02), (HEADER, 0x81), (HEADER, 7),   # op bits 1-7
    (HEADER + 1, 1), (HEADER + RECORD * 5 + 1, 0xFF),  # a record's pad
])
def test_each_reserved_field_is_enforced(offset, value):
    data = bytearray(_trace(8, seed=2))
    data[offset] = value
    for fast in BACKENDS:
        with pytest.raises(TraceFormatError, match="reserved"):
            _records(bytes(data), fast)


def test_a_reserved_bit_names_its_record():
    data = bytearray(_trace(30, seed=3))
    data[HEADER + RECORD * 17] |= 0x04
    for fast in BACKENDS:
        with pytest.raises(TraceFormatError, match="^record 17: "):
            _records(bytes(data), fast)


@pytest.mark.parametrize("use_mmap", [True, False])
def test_opening_allocates_no_more_than_the_file(tmp_path, use_mmap):
    rng = random.Random("allocation")
    data = _trace(500, seed=4)
    cases = [data, data[:-1], data + b"\x00"]
    cases += [_mutate(rng, data) for _ in range(40)]
    for claim in (0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 1 << 40):
        cases.append(data[:8] + struct.pack("<Q", claim) + data[16:])
    path = tmp_path / "t.btrace"
    tracemalloc.start()
    try:
        for case in cases:
            path.write_bytes(case)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                btrace.BinaryTraceReader(path, use_mmap=use_mmap).close()
            except TraceFormatError:
                pass
            peak = tracemalloc.get_traced_memory()[1] - before
            # A mapping is not a traced allocation; a read is the file.
            limit = ALLOCATION_SLACK + (0 if use_mmap else len(case))
            assert peak <= limit, (len(case), peak)
    finally:
        tracemalloc.stop()


# --------------------------------------------------------------------------
# trace-replay: a record the replay cannot honour is a message and exit 2.

SCALE = "0.02"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "thrasher.bt"
    assert main(["trace-record", "--workload", "thrasher", "--scale", SCALE,
                 "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("field, offset, fmt, value, message", [
    ("segment", 2, "<H", 65535, "no segment with id 65535"),
    ("page number", 4, "<I", 0xFFFFFFFF, "page 4294967295 outside segment"),
    ("op", 0, "<B", 7, "reserved bits set"),
])
@pytest.mark.parametrize("no_mmap", [False, True])
def test_replay_refuses_a_record_it_cannot_honour(
        recorded, tmp_path, capsys, field, offset, fmt, value, message,
        no_mmap):
    data = bytearray(recorded)
    index = 9
    struct.pack_into(fmt, data, HEADER + RECORD * index + offset, value)
    path = tmp_path / "bad.bt"
    path.write_bytes(data)
    argv = ["trace-replay", str(path), "--workload", "thrasher",
            "--scale", SCALE] + (["--no-mmap"] if no_mmap else [])
    assert main(argv) == 2, field
    err = capsys.readouterr().err
    assert f"record {index}" in err and message in err, err


def test_replay_of_the_recorded_trace_still_succeeds(recorded, tmp_path,
                                                    capsys):
    path = tmp_path / "good.bt"
    path.write_bytes(recorded)
    assert main(["trace-replay", str(path), "--workload", "thrasher",
                 "--scale", SCALE]) == 0
    assert "replayed" in capsys.readouterr().out
