"""Property-based round-trip guarantees for every registered algorithm."""

import zlib

from hypothesis import given, settings, strategies as st

from repro.compression import CompressionResult, available, create

_ALGORITHMS = sorted(available())


def _payloads():
    """Byte strings across the compressibility spectrum."""
    return st.one_of(
        st.binary(min_size=0, max_size=2048),
        # Highly repetitive inputs (tile a short seed).
        st.tuples(
            st.binary(min_size=1, max_size=64),
            st.integers(min_value=1, max_value=128),
        ).map(lambda t: (t[0] * t[1])[:4096]),
        # Word-structured inputs.
        st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=0,
            max_size=512,
        ).map(lambda ws: b"".join(w.to_bytes(4, "little") for w in ws)),
    )


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(_ALGORITHMS), data=_payloads())
def test_round_trip(name, data):
    compressor = create(name)
    result = compressor.compress(data)
    assert compressor.decompress(result) == data


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(_ALGORITHMS), data=_payloads())
def test_never_expands_beyond_raw(name, data):
    """The raw fallback bounds stored size by the input size — and is
    taken exactly when the kernel cannot shrink the input, which is how
    ``CompressionResult.from_payload`` tells a raw payload by length,
    at every size (``Compressor.compress`` makes the comparison once)."""
    result = create(name).compress(data)
    assert result.compressed_size <= len(data)
    assert result.original_size == len(data)
    assert result.stored_raw == (result.compressed_size >= len(data))
    assert CompressionResult.from_payload(result.payload, len(data)) == result


@settings(max_examples=60, deadline=None)
@given(data=_payloads())
def test_lzrw1_tracks_entropy(data):
    """LZRW1 must compress at least somewhat when zlib compresses 4x.

    A weak sanity bound tying our encoder to a reference: if the data is
    extremely redundant, LZRW1 should achieve at least 2:1.
    """
    if len(data) < 256:
        return
    zlib_ratio = len(zlib.compress(data, 6)) / len(data)
    if zlib_ratio < 0.25:
        ours = create("lzrw1").compress(data).ratio
        assert ours <= 0.5


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=1, max_size=1024))
def test_lzss_never_worse_than_lzrw1(data):
    fast = create("lzrw1").compress(data).compressed_size
    slow = create("lzss").compress(data).compressed_size
    assert slow <= fast
