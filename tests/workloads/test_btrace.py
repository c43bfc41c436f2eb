"""Binary trace format: round-trips, malformed files, backend equality.

The format promise is threefold: (1) fixed little-endian records decode
to the same values on any host, (2) the mmap, in-memory, and
struct-fallback read paths are value-identical, and (3) replaying a
binary trace through the engine's batch dispatch is observably identical
to replaying the same references one PageRef at a time.
"""

import hashlib
import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.page import PageId, mbytes
from repro.sim.engine import PageRef, SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.sim.trace import Trace, TraceFormatError
from repro.workloads import Thrasher, btrace


def make_refs():
    return [
        PageRef(PageId(0, 0), write=False),
        PageRef(PageId(0, 7), write=True),
        PageRef(PageId(3, 4096), write=True),
        PageRef(PageId(65535, 0xFFFFFFFF), write=False,
                compute_seconds=0.000123),
        PageRef(PageId(0, 7), write=False, compute_seconds=1.5),
    ]


def dump_bytes(refs):
    buf = io.BytesIO()
    btrace.dump(buf, refs)
    return buf.getvalue()


class TestRoundTrip:
    def test_refs_survive_a_round_trip(self, tmp_path):
        refs = make_refs()
        path = tmp_path / "t.btrace"
        assert btrace.dump(path, refs) == len(refs)
        with btrace.BinaryTraceReader(path) as reader:
            assert len(reader) == len(refs)
            back = list(reader)
        assert [r.page_id for r in back] == [r.page_id for r in refs]
        assert [r.write for r in back] == [r.write for r in refs]
        # compute time quantizes to whole microseconds
        assert [r.compute_seconds for r in back] == [
            round(r.compute_seconds * 1e6) / 1e6 for r in refs
        ]
        assert all(r.mutate is None for r in back)

    def test_zero_length_trace(self, tmp_path):
        path = tmp_path / "empty.btrace"
        assert btrace.dump(path, []) == 0
        assert path.stat().st_size == btrace.HEADER.size
        with btrace.BinaryTraceReader(path) as reader:
            assert len(reader) == 0
            assert list(reader) == []
            assert list(reader.chunks()) == []

    def test_max_events_caps_recording(self):
        data = dump_bytes(make_refs() * 10)
        buf = io.BytesIO()
        assert btrace.dump(buf, make_refs() * 10, max_events=7) == 7
        assert len(btrace.BinaryTraceReader(buf.getvalue())) == 7
        assert len(btrace.BinaryTraceReader(data)) == 50

    def test_dump_repeated_writes_the_recorded_pass_n_times(self):
        refs = make_refs()
        once = dump_bytes(refs)
        buf = io.BytesIO()
        assert btrace.dump_repeated(buf, refs) == (5, 4, 2 / 5)
        assert buf.getvalue() == once  # one pass: what dump() writes
        buf = io.BytesIO()
        assert btrace.dump_repeated(buf, iter(refs), repeat=3) == (
            15, 4, 2 / 5,
        )
        body = once[btrace.HEADER.size:]
        assert buf.getvalue()[btrace.HEADER.size:] == body * 3
        assert len(btrace.BinaryTraceReader(buf.getvalue())) == 15
        # max_events bounds the recorded pass, not the file.
        buf = io.BytesIO()
        assert btrace.dump_repeated(buf, refs, 2, max_events=3) == (
            6, 3, 2 / 3,
        )
        assert buf.getvalue()[btrace.HEADER.size:] == body[:48] * 2
        buf = io.BytesIO()
        assert btrace.dump_repeated(buf, [], repeat=4) == (0, 0, 0.0)
        assert len(btrace.BinaryTraceReader(buf.getvalue())) == 0

    def test_writer_backpatches_count(self, tmp_path):
        path = tmp_path / "w.btrace"
        with btrace.BinaryTraceWriter(path) as writer:
            writer.append_record(1, 2, True, kind=0xDEADBEEF, tick_us=9)
            writer.append_record(1, 3, False)
        reader = btrace.BinaryTraceReader(path)
        assert len(reader) == 2
        assert list(reader.kinds()) == [[0xDEADBEEF, 0]]


class TestEndianness:
    def test_record_bytes_are_fixed_little_endian(self):
        # Golden bytes, independent of host endianness: the format spec
        # in docs/traces.md, byte for byte.
        rec = btrace.pack_record(
            0x0102, 0x03040506, True, kind=0x0A0B0C0D, tick_us=0x11121314
        )
        assert rec == bytes(
            [0x01, 0x00,              # op = write, pad
             0x02, 0x01,              # segment 0x0102 LE
             0x06, 0x05, 0x04, 0x03,  # number 0x03040506 LE
             0x0D, 0x0C, 0x0B, 0x0A,  # kind LE
             0x14, 0x13, 0x12, 0x11]  # tick LE
        )

    def test_header_bytes(self):
        data = dump_bytes([])
        assert data[:4] == b"RBT1"
        assert data[4] == btrace.VERSION
        assert data[5] == btrace.RECORD_SIZE
        assert data[8:16] == (0).to_bytes(8, "little")

    def test_values_round_trip_through_fixed_layout(self):
        refs = make_refs()
        reader = btrace.BinaryTraceReader(dump_bytes(refs))
        (writes, segments, numbers, ticks), = list(reader.chunks())
        assert writes == [0, 1, 1, 0, 0]
        assert segments == [0, 0, 3, 65535, 0]
        assert numbers == [0, 7, 4096, 0xFFFFFFFF, 7]
        assert ticks == [0, 0, 0, 123, 1500000]


class TestAnalyzeCli:
    def test_empty_binary_trace_reports_and_exits_zero(self, tmp_path,
                                                       capsys):
        """trace-analyze on a zero-record trace is not an error: it
        says so explicitly and exits 0 (regression: the histogram code
        used to be reached with no references)."""
        from repro.cli import main

        path = tmp_path / "empty.btrace"
        with btrace.BinaryTraceWriter(path):
            pass  # header only, zero records
        assert main(["trace-analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "empty trace" in out
        assert "0 references" in out

    def test_empty_text_trace_reports_and_exits_zero(self, tmp_path,
                                                     capsys):
        from repro.cli import main

        path = tmp_path / "empty.trace"
        Trace([]).dump(path)
        assert main(["trace-analyze", str(path)]) == 0
        assert "empty trace" in capsys.readouterr().out


class TestMalformed:
    def test_truncated_records_rejected(self, tmp_path):
        path = tmp_path / "trunc.btrace"
        btrace.dump(path, make_refs())
        whole = path.read_bytes()
        for cut in (1, btrace.RECORD_SIZE - 1, btrace.RECORD_SIZE + 3):
            path.write_bytes(whole[:-cut])
            with pytest.raises(TraceFormatError, match="truncated"):
                btrace.BinaryTraceReader(path)

    def test_shorter_than_header_rejected(self, tmp_path):
        path = tmp_path / "stub.btrace"
        for size in (0, 1, btrace.HEADER.size - 1):
            path.write_bytes(b"RBT1"[:size].ljust(size, b"\x00"))
            with pytest.raises(TraceFormatError, match="header"):
                btrace.BinaryTraceReader(path)

    def test_bad_magic_rejected(self):
        data = bytearray(dump_bytes([]))
        data[:4] = b"NOPE"
        with pytest.raises(TraceFormatError, match="magic"):
            btrace.BinaryTraceReader(bytes(data))

    def test_unknown_version_rejected(self):
        data = bytearray(dump_bytes([]))
        data[4] = 99
        with pytest.raises(TraceFormatError, match="version"):
            btrace.BinaryTraceReader(bytes(data))

    def test_foreign_record_size_rejected(self):
        data = bytearray(dump_bytes([]))
        data[5] = 24
        with pytest.raises(TraceFormatError, match="record size"):
            btrace.BinaryTraceReader(bytes(data))

    def test_overdeclared_count_rejected(self):
        data = bytearray(dump_bytes(make_refs()))
        struct.pack_into("<Q", data, 8, 6)  # file holds 5
        with pytest.raises(TraceFormatError, match="truncated"):
            btrace.BinaryTraceReader(bytes(data))


references_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.booleans(),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    max_size=300,
)


@settings(max_examples=25, deadline=None)
@given(rows=references_strategy, chunk_size=st.sampled_from([1, 7, 64, 1 << 16]))
def test_mmap_memory_and_fallback_backends_agree(rows, chunk_size, tmp_path_factory):
    """Property: every read path decodes identical columns."""
    path = tmp_path_factory.mktemp("bt") / "p.btrace"
    with btrace.BinaryTraceWriter(path) as writer:
        for segment, number, write, tick in rows:
            writer.append_record(segment, number, write, tick_us=tick)
    variants = []
    for use_mmap, fast in [(True, None), (False, None), (True, False),
                           (False, False)]:
        with btrace.BinaryTraceReader(
            path, use_mmap=use_mmap, fast=fast
        ) as reader:
            assert reader.mmapped == use_mmap
            variants.append(list(reader.chunks(chunk_size)))
    assert variants[0] == variants[1] == variants[2] == variants[3]
    flat = [
        (s, n, bool(w), t)
        for chunk in variants[0]
        for w, s, n, t in zip(*chunk)
    ]
    assert flat == [(s, n, w, t) for s, n, w, t in rows]


def result_digest(result):
    canonical = json.dumps(result.as_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_batch_replay_matches_per_reference_replay(tmp_path):
    """run_trace over the binary trace == run over the PageRef stream."""
    workload = Thrasher(mbytes(0.6), cycles=2, write=True)
    workload.build()
    trace = Trace.record(workload.references())
    path = tmp_path / "t.btrace"
    btrace.dump(path, iter(trace))

    def fresh_machine():
        w = Thrasher(mbytes(0.6), cycles=2, write=True)
        return Machine(MachineConfig(memory_bytes=mbytes(0.3)), w.build())

    baseline = SimulationEngine(fresh_machine()).run(iter(trace))
    for use_mmap in (True, False):
        with btrace.BinaryTraceReader(path, use_mmap=use_mmap) as reader:
            batched = SimulationEngine(fresh_machine()).run_trace(
                reader, chunk_size=97
            )
        assert result_digest(batched) == result_digest(baseline)


def test_batch_replay_honours_max_references(tmp_path):
    workload = Thrasher(mbytes(0.6), cycles=2, write=True)
    workload.build()
    trace = Trace.record(workload.references())
    path = tmp_path / "t.btrace"
    btrace.dump(path, iter(trace))
    cap = len(trace) // 2

    def fresh_machine():
        w = Thrasher(mbytes(0.6), cycles=2, write=True)
        return Machine(MachineConfig(memory_bytes=mbytes(0.3)), w.build())

    capped = SimulationEngine(fresh_machine()).run(
        iter(trace), max_references=cap
    )
    with btrace.BinaryTraceReader(path) as reader:
        batched = SimulationEngine(fresh_machine()).run_trace(
            reader, max_references=cap, chunk_size=13
        )
    assert result_digest(batched) == result_digest(capped)


def test_batch_replay_observer_cadence(tmp_path):
    workload = Thrasher(mbytes(0.5), cycles=1, write=True)
    workload.build()
    trace = Trace.record(workload.references())
    path = tmp_path / "t.btrace"
    btrace.dump(path, iter(trace))
    seen = []
    w = Thrasher(mbytes(0.5), cycles=1, write=True)
    machine = Machine(MachineConfig(memory_bytes=mbytes(0.3)), w.build())
    with btrace.BinaryTraceReader(path) as reader:
        SimulationEngine(machine).run_trace(
            reader, observer=lambda _m, i: seen.append(i),
            observe_every=10, chunk_size=16,
        )
    assert seen == list(range(10, len(trace) + 1, 10))
