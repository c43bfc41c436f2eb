"""Wire framing: round trips, zero-copy views, truncation rejection."""

import pytest

from repro.service.errors import ProtocolError
from repro.service.protocol import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ST_HIT,
    ST_MISS,
    RequestBatch,
    ResponseBatch,
    iter_requests,
    iter_responses,
    pack_requests,
)


class TestRequestFraming:
    def test_round_trip_mixed_batch(self):
        records = [
            (OP_PUT, 0, 5, 123456789, b"payload bytes"),
            (OP_GET, 1, 6, 42, None),
            (OP_DELETE, 0, 7, 7, None),
        ]
        frame = pack_requests(records)
        out = list(iter_requests(memoryview(bytes(frame))))
        assert len(out) == 3
        op, tenant, vslot, key, payload = out[0]
        assert (op, tenant, vslot, key) == (OP_PUT, 0, 5, 123456789)
        assert bytes(payload) == b"payload bytes"
        assert out[1][:4] == (OP_GET, 1, 6, 42)
        assert out[1][4].nbytes == 0
        assert out[2][:4] == (OP_DELETE, 0, 7, 7)

    def test_payload_views_are_zero_copy(self):
        frame = bytes(pack_requests([(OP_PUT, 0, 0, 1, b"x" * 4096)]))
        view = memoryview(frame)
        (_, _, _, _, payload) = next(iter_requests(view))
        # A slice of the frame buffer, not a copy.
        assert payload.obj is frame

    def test_batch_accepts_buffer_protocol_payloads(self):
        batch = RequestBatch()
        batch.add(OP_PUT, 0, 0, 1, memoryview(b"abcd"))
        batch.add(OP_PUT, 0, 0, 2, bytearray(b"efgh"))
        out = list(iter_requests(memoryview(bytes(batch.finish()))))
        assert [bytes(p) for *_, p in out] == [b"abcd", b"efgh"]

    def test_64bit_keys_and_16bit_fields_survive(self):
        key = (1 << 64) - 1
        frame = pack_requests([(OP_GET, 65535, 65535, key, None)])
        (_, tenant, vslot, got, _) = next(
            iter_requests(memoryview(bytes(frame)))
        )
        assert (tenant, vslot, got) == (65535, 65535, key)

    def test_truncated_record_rejected(self):
        frame = bytes(pack_requests([(OP_GET, 0, 0, 1, None)]))
        with pytest.raises(ProtocolError):
            list(iter_requests(memoryview(frame[:-1])))

    def test_truncated_payload_rejected(self):
        frame = bytes(pack_requests([(OP_PUT, 0, 0, 1, b"abcdef")]))
        with pytest.raises(ProtocolError):
            list(iter_requests(memoryview(frame[:-3])))

    def test_trailing_garbage_rejected(self):
        frame = bytes(pack_requests([(OP_GET, 0, 0, 1, None)])) + b"xx"
        with pytest.raises(ProtocolError):
            list(iter_requests(memoryview(frame)))

    def test_unknown_op_rejected(self):
        frame = bytes(pack_requests([(OP_GET, 0, 0, 1, None)]))
        with pytest.raises(ProtocolError, match="unknown op 9"):
            list(iter_requests(memoryview(b"\x01\x00\x00\x00\x09"
                                          + frame[5:])))

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError):
            list(iter_requests(memoryview(b"\x01")))


class TestResponseFraming:
    def test_round_trip(self):
        batch = ResponseBatch()
        batch.add(ST_HIT, b"page data")
        batch.add(ST_MISS)
        out = list(iter_responses(memoryview(bytes(batch.finish()))))
        assert out[0][0] == ST_HIT
        assert bytes(out[0][1]) == b"page data"
        assert out[1][0] == ST_MISS
        assert out[1][1].nbytes == 0

    def test_truncated_response_rejected(self):
        batch = ResponseBatch()
        batch.add(ST_HIT, b"abcdef")
        frame = bytes(batch.finish())
        with pytest.raises(ProtocolError):
            list(iter_responses(memoryview(frame[:-2])))
