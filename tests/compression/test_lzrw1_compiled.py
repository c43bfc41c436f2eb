"""The compiled kernel library: byte-identical, and never a failure.

``_kernels.c`` is built on first use and loaded with ``ctypes``
(:func:`repro.compression.compiled.compiled_library`).  Its LZRW1
encoder and the loader are held here; ``test_lz_compiled.py`` holds its
LZSS encoder, its LZ decoder and calls from many threads, and
``test_word_kernels_compiled.py`` the word kernels' entry points.  Two
things must hold:

* *identity* — the LZRW1 encoder emits the Python loop's bytes (the
  frozen seed, :class:`~repro.compression._seed_reference.SeedLzrw1`)
  for every input length, alphabet, table size and buffer type, and the
  Python decoder reads them back; on a host with a working C compiler
  the library must actually load, so a silent fallback fails here;
* *fallback* — no compiler, a compile error and an unwritable or
  untrusted cache directory each leave the Python loops running — both
  encoders and the decoder — with the same payloads, and raise nothing;
  a damaged cached library is rebuilt; builders racing on an empty
  cache leave one whole library.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import compiled
from repro.compression._seed_reference import SeedLzrw1, SeedLzss
from repro.compression.compiled import compile_command, compiled_library
from repro.compression.lzrw1 import Lzrw1, decode_items
from repro.compression.lzss import Lzss
from repro.perf import _corpus_kinds

#: The ``src`` directory this package was imported from.
SRC = Path(compiled.__file__).resolve().parents[2]

needs_library = pytest.mark.skipif(
    compiled_library() is None, reason="the compiled library did not load")


def compiler_works(tmp: Path) -> bool:
    """Whether :func:`compile_command` builds a trivial library here."""
    source = tmp / "probe.c"
    source.write_text("int probe(void) { return 1; }\n")
    try:
        subprocess.run(compile_command() + ["-o", str(tmp / "probe.so"),
                                            str(source)],
                       check=True, capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def test_the_library_loads_where_a_compiler_works(tmp_path):
    if not compiler_works(tmp_path):
        pytest.skip("no working C compiler (CC, else sysconfig's)")
    assert compiled_library() is not None
    for kernel in (Lzrw1, Lzss):
        assert kernel()._library is compiled_library()
        assert kernel(fast=False)._library is None


@st.composite
def inputs(draw) -> bytes:
    """0-8,192 bytes over 2- to 256-symbol alphabets: random, or a
    period of 1-300 symbols with sparse changes."""
    size = draw(st.integers(0, 8192))
    alphabet = draw(st.sampled_from((2, 3, 4, 16, 64, 256)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return bytes(rng.choices(range(alphabet), k=size))
    period = rng.choices(range(alphabet), k=draw(st.integers(1, 300)))
    out = bytearray((bytes(period) * (size // len(period) + 1))[:size])
    for _ in range(draw(st.integers(0, 20)) if size else 0):
        out[rng.randrange(size)] = rng.randrange(alphabet)
    return bytes(out)


@needs_library
@pytest.mark.parametrize("table_bits", range(4, 21))
@settings(max_examples=25, deadline=None)
@given(data=inputs(), wrap=st.sampled_from((bytes, bytearray, memoryview)))
def test_compiled_equals_the_python_loop(table_bits, data, wrap):
    n = len(data)
    want = SeedLzrw1(table_bits).compress(wrap(data))
    got = Lzrw1(table_bits).compress(wrap(data))
    assert got == want
    if not got.stored_raw:
        assert decode_items(got.payload, n, "lzrw1") == data


@needs_library
@pytest.mark.parametrize("table_bits", (4, 10, 12, 16))
def test_compiled_equals_the_python_loop_on_the_corpus(table_bits):
    compiled, python = Lzrw1(table_bits), SeedLzrw1(table_bits)
    for pages in _corpus_kinds(12).values():
        for page in pages:
            result = compiled.compress(page)
            assert result == python.compress(page)
            assert compiled.decompress(result) == page


def corpus_sample() -> list:
    return [pages[0] for pages in _corpus_kinds(1).values()] + [
        bytes(5), b"abcabcabcabc", random.Random(4).randbytes(4096)]


def assert_seed_payloads(lzrw1_kernel, lzss_kernel) -> None:
    """Both kernels emit the seed's payloads and read them back."""
    for page in corpus_sample():
        for kernel, seed in ((lzrw1_kernel, SeedLzrw1()),
                             (lzss_kernel, SeedLzss())):
            result = kernel.compress(page)
            assert result == seed.compress(page)
            assert kernel.decompress(result) == page


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """A process whose compiled library is untried, caching under
    ``tmp_path/cache``; yields a check that it fell back and still
    emits and reads the seed's payloads."""
    monkeypatch.setattr(compiled, "_COMPILED", [])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

    def fell_back() -> None:
        assert_seed_payloads(Lzrw1(), Lzss())
        assert compiled_library() is None
        assert compiled._COMPILED == [None]  # tried once, not per call

    return fell_back


def library_files(tmp_path: Path) -> list:
    return sorted(os.listdir(tmp_path / "cache" / "repro"))


class TestFallback:
    def test_no_compiler(self, fresh, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", "false")
        fresh()
        assert library_files(tmp_path) == []

    def test_a_compile_error(self, fresh, monkeypatch, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("long lzrw1_encode(void) { return }\n")
        monkeypatch.setattr(compiled, "_SOURCE", str(broken))
        fresh()
        assert library_files(tmp_path) == []

    def test_an_unwritable_cache_directory(self, fresh, monkeypatch,
                                           tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        fresh()

    def test_a_group_writable_cache_directory(self, fresh, tmp_path):
        cache = tmp_path / "cache" / "repro"
        cache.mkdir(parents=True)
        cache.chmod(0o775)
        fresh()
        assert library_files(tmp_path) == []

    def test_a_cache_directory_owned_by_another_uid(self, fresh,
                                                    monkeypatch, tmp_path):
        other = os.getuid() + 1
        monkeypatch.setattr(compiled.os, "getuid", lambda: other)
        fresh()
        assert library_files(tmp_path) == []

    def test_a_truncated_library(self, fresh, tmp_path):
        """Cut in half: loading it could raise SIGBUS, so the checksum
        refuses it, and it is rebuilt in place where a compiler works
        (built by another process first: a library this one has mapped
        must not be cut); elsewhere the Python loop runs."""
        works = compiler_works(tmp_path)
        library = Path(compiled._library_path())
        if works:
            assert build_in_child(tmp_path / "cache").stdout.strip() == "True"
        else:
            library.parent.mkdir(mode=0o700, parents=True)
            library.write_bytes(b"\x7fELF" + bytes(4092))
        body = library.read_bytes()
        library.write_bytes(body[:len(body) // 2])
        if not works:
            fresh()
            return
        kernel = Lzrw1()
        assert_seed_payloads(kernel, Lzss())
        assert kernel._library is not None
        assert library_files(tmp_path) == [library.name]
        body = library.read_bytes()
        assert hashlib.sha256(body[:-32]).digest() == body[-32:]


_BUILD = ("from repro.compression.compiled import compiled_library; "
          "print(compiled_library() is not None)")


def child(cache: Path) -> dict:
    """A fresh interpreter that loads (building if need be) the compiled
    library with ``cache`` as its cache home, and prints whether it did."""
    return {"args": [sys.executable, "-c", _BUILD], "text": True,
            "env": dict(os.environ, XDG_CACHE_HOME=str(cache),
                        PYTHONPATH=str(SRC))}


def build_in_child(cache: Path) -> subprocess.CompletedProcess:
    return subprocess.run(**child(cache), capture_output=True, check=True,
                          timeout=300)


def test_builders_racing_leave_one_whole_library(tmp_path):
    if not compiler_works(tmp_path):
        pytest.skip("no working C compiler (CC, else sysconfig's)")
    children = [subprocess.Popen(**child(tmp_path / "cache"),
                                 stdout=subprocess.PIPE)
                for _ in range(2)]
    outputs = [child.communicate(timeout=300)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert [out.strip() for out in outputs] == ["True", "True"]
    [name] = library_files(tmp_path)
    assert name.startswith("kernels-") and name.endswith(".so")
    # And a third process loads what they left.
    assert build_in_child(tmp_path / "cache").stdout.strip() == "True"
