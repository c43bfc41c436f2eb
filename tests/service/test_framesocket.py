"""FrameSocket: u32-length-prefixed frames over a stream socketpair,
on blocking and non-blocking ends alike."""

import socket

import pytest

from repro.service.shard import FrameSocket


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
