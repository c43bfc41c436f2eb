"""FrameSocket: u32-length-prefixed frames over a stream socketpair,
on blocking and non-blocking ends alike."""

import socket
import threading
import time
import tracemalloc

import pytest

from repro.service import ServiceConfig, TenantSpec
from repro.service.errors import ProtocolError
from repro.service.protocol import MAX_FRAME_BYTES
from repro.service.shard import FrameSocket, shard_main


@pytest.fixture
def pair():
    ours, theirs = socket.socketpair()
    ours.setblocking(False)
    theirs.setblocking(False)
    yield ours, theirs
    ours.close()
    theirs.close()


def test_frame_reassembled_from_single_bytes(pair):
    ours, theirs = pair
    reader = FrameSocket(ours)
    frames = [b"", b"x", bytes(range(256)) * 5]
    wire = b"".join(
        len(frame).to_bytes(4, "little") + frame for frame in frames
    )
    got = []
    for i in range(len(wire)):
        theirs.send(wire[i:i + 1])
        frame = reader.recv_frame()
        if frame is not None:
            got.append(bytes(frame))
    assert got == frames
    assert reader.recv_frame() is None  # nothing half-read left over


def test_parked_frames_leave_whole_and_in_order(pair):
    ours, theirs = pair
    writer, reader = FrameSocket(ours), FrameSocket(theirs)
    frames = [bytes([i]) * size
              for i, size in enumerate((300_000, 5, 700_000, 0, 64))]
    # The first frame overruns the kernel buffer; the rest queue
    # behind its tail even though the small ones would fit.
    assert [writer.send_frame(frame) for frame in frames] == [False] * 5
    got = []
    flushed = False
    while len(got) < len(frames):
        frame = reader.recv_frame()
        if frame is not None:
            got.append(bytes(frame))
        elif not flushed:
            flushed = writer.flush()
    assert got == frames
    assert flushed and not writer.unsent
    assert writer.send_frame(b"next")  # and the direct path is back
    assert reader.recv_frame() == b"next"


def test_blocking_end_round_trip():
    ours, theirs = socket.socketpair()
    with ours, theirs:
        writer, reader = FrameSocket(ours), FrameSocket(theirs)
        assert writer.send_frame(bytearray(b"abc" * 1000))
        assert reader.recv_frame() == b"abc" * 1000


@pytest.mark.parametrize("sent", [b"", b"\x08\x00", b"\x08\x00\x00\x00abc"])
def test_eof_raises_wherever_the_stream_ends(pair, sent):
    ours, theirs = pair
    reader = FrameSocket(ours)
    theirs.send(sent)
    assert reader.recv_frame() is None
    theirs.close()
    with pytest.raises(EOFError):
        reader.recv_frame()


def test_write_to_a_closed_peer_raises(pair):
    ours, theirs = pair
    writer = FrameSocket(ours)
    theirs.close()
    with pytest.raises(OSError):
        writer.send_frame(b"late")


def _traced(call):
    """``call()``'s result, and the bytes it left allocated and its peak
    allocation, as ``tracemalloc`` saw them."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.mark.parametrize("prefix", [MAX_FRAME_BYTES + 1, 0xFFFFFFFF])
@pytest.mark.parametrize("blocking", [False, True])
def test_oversized_prefix_is_refused_before_any_buffer(pair, prefix, blocking):
    """A length prefix is foreign bytes: above ``MAX_FRAME_BYTES`` it is
    a typed error at once, not a buffer of that size and a wait for a
    body that never comes (4 GB and 20 s for the all-ones prefix)."""
    ours, theirs = pair
    if blocking:
        ours.settimeout(5.0)  # a reader that waits for the body fails
    reader = FrameSocket(ours)
    theirs.send(prefix.to_bytes(4, "little"))

    def refused():
        try:
            reader.recv_frame()
        except ProtocolError as exc:
            return str(exc)
        return "no error"

    started = time.perf_counter()
    message, held, peak = _traced(refused)
    assert time.perf_counter() - started < 1.0
    assert str(prefix) in message
    # Four bytes came in: the reader keeps no more than that, and at
    # its peak held one read's buffer, nothing the size of the prefix.
    assert held < 1024
    assert peak < 1 << 20


def test_a_prefix_at_the_bound_is_a_frame(pair):
    ours, theirs = pair
    reader = FrameSocket(ours)
    theirs.send(MAX_FRAME_BYTES.to_bytes(4, "little"))
    frame, held, peak = _traced(reader.recv_frame)
    assert frame is None  # header taken, body awaited
    # The body's buffer grows as it arrives, not ahead of it.
    assert held < 1024
    assert peak < 1 << 20
    body = bytes(range(256)) * (MAX_FRAME_BYTES // 256)
    sent = 0
    while frame is None:
        if sent < len(body):
            try:
                sent += theirs.send(body[sent:sent + (1 << 20)])
            except BlockingIOError:
                pass
        frame = reader.recv_frame()
    assert sent == len(body)
    assert len(frame) == MAX_FRAME_BYTES and frame == body
    assert reader.recv_frame() is None


def test_two_frames_in_one_send_come_back_in_order(pair):
    """Bytes read past the end of a frame are the next frame's: each
    call returns one frame, a buffer of its own."""
    ours, theirs = pair
    reader = FrameSocket(ours)
    theirs.send(b"\x03\x00\x00\x00abc\x02\x00\x00\x00de")
    first = reader.recv_frame()
    second = reader.recv_frame()
    assert (first, second) == (b"abc", b"de")
    first[:] = b"xyz"
    assert second == b"de"
    assert reader.recv_frame() is None


def test_a_frame_fed_one_byte_at_a_time_comes_back_whole(pair):
    ours, theirs = pair
    reader = FrameSocket(ours)
    frame = bytes(range(256)) * 3
    wire = len(frame).to_bytes(4, "little") + frame
    for i in range(len(wire) - 1):
        theirs.send(wire[i:i + 1])
        assert reader.recv_frame() is None
    theirs.send(wire[-1:])
    assert reader.recv_frame() == frame


def test_worker_leaves_its_loop_on_an_oversized_prefix():
    """The shard's blocking end: ``shard_main`` returns and closes its
    socket instead of waiting on a body no front end will send."""
    config = ServiceConfig(
        shards=1, vslots=2, tenants=(TenantSpec("default"),),
        tier_bytes=(64 << 10,), compressor="null", page_size=1024,
    )
    ours, theirs = socket.socketpair()
    with ours:
        ours.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "little"))
        worker = threading.Thread(
            target=shard_main, args=(config, 0, theirs), daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert theirs.fileno() == -1
        assert ours.recv(1) == b""  # the worker answered nothing
