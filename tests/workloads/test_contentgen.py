"""Content generators: determinism, frozen bytes and measured
compressibility bands.

Table 1's compressibility columns depend on these generators producing
pages whose *real* LZRW1 ratios land where the paper's applications did;
each band below pins that calibration, and the bytes themselves are
pinned three ways: a frozen digest per generator, the generators as first
written (kept verbatim below as the oracle) on Hypothesis input, and the
bulk draw helper against the ``randrange`` calls it stands for.
"""

import random
import statistics
import struct
import tracemalloc
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import create
from repro.workloads import contentgen as cg

from ..conftest import PAGE


@pytest.fixture(scope="module")
def lzrw1():
    return create("lzrw1")


def mean_ratio(generator, lzrw1, n=30):
    return statistics.mean(
        lzrw1.compress(generator(i)).ratio for i in range(n)
    )


class TestDeterminism:
    def test_same_args_same_bytes(self):
        assert cg.repeating_pattern(3, seed=1) == cg.repeating_pattern(3, seed=1)
        assert cg.dp_band_values(5) == cg.dp_band_values(5)
        assert cg.incompressible(2) == cg.incompressible(2)
        assert cg.index_page(4) == cg.index_page(4)
        assert cg.cache_table_page(6) == cg.cache_table_page(6)

    def test_different_pages_different_bytes(self):
        assert cg.repeating_pattern(1) != cg.repeating_pattern(2)
        assert cg.incompressible(1) != cg.incompressible(2)

    def test_all_generators_fill_a_page(self):
        dictionary = cg.make_dictionary(nwords=128)
        pages = [
            cg.repeating_pattern(0),
            cg.incompressible(0),
            cg.dp_band_values(0),
            cg.text_page_random(0, dictionary),
            cg.text_page_clustered(0, dictionary),
            cg.index_page(0),
            cg.cache_table_page(0),
        ]
        assert all(len(page) == PAGE for page in pages)


class TestCompressibilityBands:
    def test_thrasher_pages_roughly_4_to_1(self, lzrw1):
        """Figure 3 caption: 'pages compress roughly 4:1'."""
        ratio = mean_ratio(lambda i: cg.repeating_pattern(i), lzrw1)
        assert 0.2 < ratio < 0.35

    def test_dp_band_roughly_3_to_1(self, lzrw1):
        """Table 1 compare: compression ratio 31%."""
        ratio = mean_ratio(cg.dp_band_values, lzrw1)
        assert 0.25 < ratio < 0.40

    def test_cache_table_roughly_3_to_1(self, lzrw1):
        """Table 1 isca: compression ratio 32%."""
        ratio = mean_ratio(cg.cache_table_page, lzrw1)
        assert 0.25 < ratio < 0.40

    def test_incompressible_never_compresses(self, lzrw1):
        for i in range(10):
            assert lzrw1.compress(cg.incompressible(i)).stored_raw

    def test_random_text_misses_threshold(self, lzrw1):
        """Table 1 sort random: ~98% of pages compress less than 4:3."""
        dictionary = cg.make_dictionary()
        over = sum(
            lzrw1.compress(cg.text_page_random(i, dictionary)).ratio > 0.75
            for i in range(30)
        )
        assert over >= 28

    def test_clustered_text_roughly_3_to_1(self, lzrw1):
        """Table 1 sort partial: kept pages compress to ~30%."""
        dictionary = cg.make_dictionary()
        ratio = mean_ratio(
            lambda i: cg.text_page_clustered(i, dictionary,
                                             cluster_words=30),
            lzrw1,
        )
        assert 0.2 < ratio < 0.4

    def test_index_pages_slightly_worse_than_2_to_1(self, lzrw1):
        """Table 1 gold: 'compresses slightly worse than 2:1' with a
        tail of pages missing the threshold."""
        ratios = [
            lzrw1.compress(cg.index_page(i)).ratio for i in range(60)
        ]
        kept = [r for r in ratios if r <= 0.75]
        assert kept, "some index pages must compress"
        assert 0.45 < statistics.mean(kept) < 0.70
        over = sum(r > 0.75 for r in ratios) / len(ratios)
        assert 0.0 < over < 0.5


class TestDictionary:
    def test_words_unique(self):
        words = cg.make_dictionary(nwords=500)
        assert len(set(words)) == 500

    def test_word_lengths(self):
        words = cg.make_dictionary(nwords=100, min_len=5, max_len=12)
        assert all(5 <= len(w) <= 12 for w in words)

    def test_repeating_pattern_validation(self):
        with pytest.raises(ValueError):
            cg.repeating_pattern(0, unique_bytes=0)
        with pytest.raises(ValueError):
            cg.repeating_pattern(0, unique_bytes=PAGE + 1)


# --------------------------------------------------------------------------
# Frozen bytes.

_SEEDS = (0, 1, 7)
#: Sixteen page numbers; the last is the shape ``traffic.page_payload``
#: makes (a content version folded in above bit 40).
_PAGE_NUMBERS = tuple(range(14)) + ((1 << 20) + 5, (3 << 40) ^ 0x1234567)
_PAGE_SIZES = (1024, 4096)


def _corpus_generators(module):
    """name -> ``f(page_number, seed, page_size)`` over ``module``'s
    generators (``cg``, or the oracle below)."""
    words = module.make_dictionary(128)
    return {
        "repeating_pattern": lambda number, seed, size: b"".join(
            module.repeating_pattern(number, seed, unique, size)
            for unique in (1, 640, size)
        ),
        "incompressible": module.incompressible,
        "dp_band_values": module.dp_band_values,
        "text_page_random": lambda number, seed, size:
            module.text_page_random(number, words, seed, size),
        "text_page_clustered": lambda number, seed, size:
            module.text_page_clustered(number, words, seed, page_size=size),
        "index_page": module.index_page,
        "cache_table_page": module.cache_table_page,
    }


def _corpus_digest(generate) -> str:
    digest = sha256()
    for seed in _SEEDS:
        for number in _PAGE_NUMBERS:
            for size in _PAGE_SIZES:
                digest.update(generate(number, seed, size))
    return digest.hexdigest()


#: SHA-256 over seeds x page numbers x page sizes of each generator's
#: pages, and of the space-joined dictionaries, captured on the tree
#: whose generators called ``rng.randrange`` / ``rng.choice`` once per
#: draw.
GOLDEN_CONTENT = {
    "repeating_pattern":
        "fbbf6704bd932af1364771a32a2ad8a036bb4820d71243d02d74f25119e5f39c",
    "incompressible":
        "f0fcf6cf212f1b71acdfd469d0d7faac546b7856fb9e61d6375bf97a91e4213f",
    "dp_band_values":
        "c482123bfcbcbdcb750956bb14a05e184f0be298989439682541f68b24225be7",
    "text_page_random":
        "0e72ccbd91a73e73a9f06cd201391b294b2058b20472a39c66a9727bed3d1e5c",
    "text_page_clustered":
        "b97f33defc4928d15b1318e1a99da04953e5848d0b59c8cb9e8d25d2946d1c0d",
    "index_page":
        "967890c620e3f1fdd698e13327479a960a1ed9893b0ad2871271e56b4f5c81fa",
    "cache_table_page":
        "9ff598be39a6c4e37b257067cbfc5d4410fafaa0182df759b3e5121600c15ade",
}
GOLDEN_DICTIONARIES = {
    (128,):
        "4f769661e6cb03b90026ee43f9a0b29d095d1be2539caca4e0185ae74cf7935a",
    ():  # the 4,096 words the sort workloads and the bands above use
        "8f1514819f834270a1229a0d6660b100c5326dfe5933a2e3a3d20b5b1371c82b",
}


class TestFrozenBytes:
    """Every simulator golden digest, kernel corpus digest and ratio in
    the figures sits on these bytes.  A mismatch means a change to how a
    generator draws moved its output; fix the change, do not refresh the
    digest.  (Refreshing is only legitimate in a PR whose point is to
    change what the workloads' pages contain.)"""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONTENT))
    def test_generator_corpus(self, name):
        generate = _corpus_generators(cg)[name]
        assert _corpus_digest(generate) == GOLDEN_CONTENT[name]

    @pytest.mark.parametrize("args", sorted(GOLDEN_DICTIONARIES))
    def test_dictionary(self, args):
        words = cg.make_dictionary(*args)
        assert sha256(b" ".join(words)).hexdigest() == \
            GOLDEN_DICTIONARIES[args]


# --------------------------------------------------------------------------
# The generators as first written — one ``randrange`` / ``choice`` /
# ``expovariate`` call per draw — kept verbatim (minus the memo) as the
# oracle.  Do not tidy them: their draw order is the contract.


class _Oracle:
    @staticmethod
    def repeating_pattern(page_number, seed=0, unique_bytes=640,
                          page_size=PAGE):
        rng = random.Random((seed << 32) ^ page_number ^ 0x5EED)
        prefix = bytes(rng.randrange(256) for _ in range(unique_bytes))
        reps = -(-page_size // unique_bytes)
        return (prefix * reps)[:page_size]

    @staticmethod
    def incompressible(page_number, seed=0, page_size=PAGE):
        rng = random.Random((seed << 32) ^ page_number ^ 0xBADC0DE)
        return bytes(rng.randrange(256) for _ in range(page_size))

    @staticmethod
    def dp_band_values(page_number, seed=0, page_size=PAGE,
                       plateau_mean=3.0):
        rng = random.Random((seed << 32) ^ page_number ^ 0xD1A60)
        nwords = page_size // 4
        words = []
        value = rng.randrange(0, 1 << 16)
        while len(words) < nwords:
            run = max(1, int(rng.expovariate(1.0 / plateau_mean)))
            words.extend([value] * min(run, nwords - len(words)))
            value = (value + rng.choice((-1, 0, 1, 1, 2))) & 0xFFFFFFFF
        return struct.pack(f"<{nwords}I", *words)

    @staticmethod
    def make_dictionary(nwords=4096, seed=7, min_len=5, max_len=12):
        rng = random.Random(seed)
        seen = set()
        words = []
        while len(words) < nwords:
            length = rng.randrange(min_len, max_len + 1)
            word = "".join(rng.choice(cg._WORD_ALPHABET)
                           for _ in range(length))
            if word not in seen:
                seen.add(word)
                words.append(word.encode("ascii"))
        return words

    @staticmethod
    def text_page_random(page_number, dictionary, seed=0, page_size=PAGE):
        rng = random.Random((seed << 32) ^ page_number ^ 0x7E47)
        buf = bytearray()
        while len(buf) < page_size:
            buf += rng.choice(dictionary)
            buf += b" "
        return bytes(buf[:page_size])

    @staticmethod
    def text_page_clustered(page_number, dictionary, seed=0,
                            cluster_words=30, page_size=PAGE):
        rng = random.Random((seed << 32) ^ page_number ^ 0xC1E4)
        cluster = [rng.choice(dictionary) for _ in range(cluster_words)]
        buf = bytearray()
        while len(buf) < page_size:
            buf += rng.choice(cluster)
            buf += b" "
        return bytes(buf[:page_size])

    @staticmethod
    def index_page(page_number, seed=0, page_size=PAGE,
                   structured_fraction=0.5, jitter=0.12):
        rng = random.Random((seed << 32) ^ page_number ^ 0x601D)
        fraction = min(0.95, max(0.05,
                                 rng.gauss(structured_fraction, jitter)))
        structured_bytes = int(page_size * fraction) // 8 * 8
        base = rng.randrange(0, 1 << 24) << 6
        buf = bytearray()
        for i in range(structured_bytes // 8):
            if i % 6 == 0:  # occupied bucket slot: pointer + length
                buf += struct.pack(
                    "<II", (base + i * 64) & 0xFFFFFFFF,
                    rng.randrange(1, 16)
                )
            else:  # empty slot
                buf += bytes(8)
        while len(buf) < page_size:
            buf.append(rng.randrange(256))
        return bytes(buf[:page_size])

    @staticmethod
    def cache_table_page(page_number, seed=0, page_size=PAGE):
        rng = random.Random((seed << 32) ^ page_number ^ 0x15CA)
        buf = bytearray()
        base_tag = rng.randrange(0, 1 << 20) << 8
        index = 0
        while len(buf) < page_size:
            tag = base_tag | (index & 0xF)  # sequential ways within a set
            index += 1
            state = 0 if rng.random() < 0.85 else rng.choice((1, 1, 2, 3))
            counter = 0 if rng.random() < 0.95 else rng.randrange(1, 8)
            buf += struct.pack("<IBBH", tag & 0xFFFFFFFF, state, counter, 0)
            if rng.random() < 0.01:
                base_tag = rng.randrange(0, 1 << 20) << 8
        return bytes(buf[:page_size])


def test_oracle_is_the_frozen_generators():
    """The differential's oracle is itself held to the digests."""
    for name, generate in _corpus_generators(_Oracle).items():
        assert _corpus_digest(generate) == GOLDEN_CONTENT[name], name


_seeds = st.integers(0, 2 ** 32 - 1)
_page_numbers = st.one_of(st.integers(0, 4096), st.integers(0, 2 ** 43))
#: Includes sizes that are no multiple of 8 (or of 4), and tiny ones.
_page_sizes = st.one_of(st.sampled_from((1024, 4096, 8192)),
                        st.integers(1, 5000))


class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(number=_page_numbers, seed=_seeds, size=_page_sizes,
           data=st.data())
    def test_pages(self, number, seed, size, data):
        unique = data.draw(st.integers(1, size))
        assert (cg.repeating_pattern(number, seed, unique, size)
                == _Oracle.repeating_pattern(number, seed, unique, size))
        for name in ("incompressible", "dp_band_values", "index_page",
                     "cache_table_page"):
            assert (getattr(cg, name)(number, seed, size)
                    == getattr(_Oracle, name)(number, seed, size)), name

    @settings(max_examples=40, deadline=None)
    @given(number=_page_numbers, seed=_seeds, size=_page_sizes,
           plateau_mean=st.floats(0.05, 1e6),
           fraction=st.floats(-0.5, 1.5), jitter=st.floats(0.0, 1.0))
    def test_optional_arguments(self, number, seed, size, plateau_mean,
                                fraction, jitter):
        assert (cg.dp_band_values(number, seed, size, plateau_mean)
                == _Oracle.dp_band_values(number, seed, size, plateau_mean))
        assert (cg.index_page(number, seed, size, fraction, jitter)
                == _Oracle.index_page(number, seed, size, fraction, jitter))

    @settings(max_examples=60, deadline=None)
    @given(number=_page_numbers, seed=_seeds, size=_page_sizes,
           nwords=st.sampled_from((1, 2, 3, 31, 128, 500)),
           lengths=st.sampled_from(((1, 1), (1, 3), (5, 12), (20, 40))),
           cluster=st.integers(1, 40))
    def test_text_pages(self, number, seed, size, nwords, lengths, cluster):
        # One- to three-letter words fill a page slowly enough that the
        # first bulk draw runs short and a second continues the stream.
        nwords = min(nwords, 26 ** lengths[0])
        words = cg.make_dictionary(nwords, seed, *lengths)
        assert words == _Oracle.make_dictionary(nwords, seed, *lengths)
        assert (cg.text_page_random(number, words, seed, size)
                == _Oracle.text_page_random(number, words, seed, size))
        assert (cg.text_page_clustered(number, words, seed, cluster, size)
                == _Oracle.text_page_clustered(number, words, seed,
                                               cluster, size))

    def test_empty_dictionary_is_an_index_error(self):
        with pytest.raises(IndexError):
            cg.text_page_random(0, [])
        with pytest.raises(IndexError):
            cg.text_page_clustered(0, [b"word"], cluster_words=0)


# --------------------------------------------------------------------------
# The text memos' dictionary token.

#: How a caller may hand over a dictionary: the list ``make_dictionary``
#: returned, a tuple it keeps, or a fresh equal tuple / list every call.
_DICTIONARY_FORMS = {
    "list": lambda words, held: words,
    "held tuple": lambda words, held: held,
    "equal tuple": lambda words, held: tuple(list(words)),
    "equal list": lambda words, held: list(words),
}


def _text_generators(form):
    words = cg.make_dictionary(128)
    held = tuple(words)
    return {
        "text_page_random": lambda number, seed, size:
            cg.text_page_random(number, form(words, held), seed, size),
        "text_page_clustered": lambda number, seed, size:
            cg.text_page_clustered(number, form(words, held), seed,
                                   page_size=size),
    }


class TestDictionaryToken:
    """The text memos are keyed by a token for the dictionary's content:
    one canonical tuple per distinct word list, never a copy an entry."""

    @pytest.mark.parametrize("form", sorted(_DICTIONARY_FORMS))
    def test_every_form_yields_the_frozen_pages(self, form):
        generators = _text_generators(_DICTIONARY_FORMS[form])
        for warm in (False, True):  # generated, then from the memo
            if not warm:
                cg.clear_caches()
            for name, generate in generators.items():
                assert _corpus_digest(generate) == GOLDEN_CONTENT[name]
        words = cg.make_dictionary(128)
        for number in (0, 5, 1 << 33):
            page = _DICTIONARY_FORMS[form](words, tuple(words))
            assert (cg.text_page_random(number, page, 3, 1000)
                    == _Oracle.text_page_random(number, words, 3, 1000))
            assert (cg.text_page_clustered(number, page, 3, 7, 1000)
                    == _Oracle.text_page_clustered(number, words, 3, 7,
                                                   1000))

    def test_all_forms_share_one_canonical_dictionary(self):
        """Once one form has been seen, a new page through any other
        form retains its page and an entry, not another 4,096-word copy
        (32 KBytes of tuple)."""
        words = cg.make_dictionary()
        held = tuple(words)
        cg.clear_caches()
        cg.text_page_random(0, held)
        cg.text_page_clustered(0, held)
        number = 1
        for form in sorted(_DICTIONARY_FORMS):
            for generate in (cg.text_page_random, cg.text_page_clustered):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    # The form is built inside the count: were it kept,
                    # it would show.
                    page = generate(number,
                                    _DICTIONARY_FORMS[form](words, held))
                    retained = tracemalloc.get_traced_memory()[0] - before
                finally:
                    tracemalloc.stop()
                assert retained < len(page) + 1024, (form, retained)
                number += 1
        assert len(cg._TOKENS) == 1
        # The first tuple seen is the one held, and resolves by identity.
        assert cg._TOKENS_BY_ID[id(held)].words is held
        cg.clear_caches()

    def test_a_list_changed_in_place_yields_its_new_pages(self):
        words = cg.make_dictionary(128)
        before = (cg.text_page_random(0, words),
                  cg.text_page_clustered(0, words))
        words.reverse()
        words[3] = b"changed"
        after = (cg.text_page_random(0, words),
                 cg.text_page_clustered(0, words))
        assert after == (_Oracle.text_page_random(0, words),
                         _Oracle.text_page_clustered(0, words))
        assert after[0] != before[0] and after[1] != before[1]

    def test_the_table_is_bounded_and_eviction_changes_no_page(self):
        """A caller with a new word list every call fills the table to
        its bound and no further; a list whose token was evicted gets a
        new one and the same pages."""
        cg.clear_caches()
        first = cg.make_dictionary(64, 0)
        page = cg.text_page_random(0, first)
        for seed in range(1, 3 * cg._DICTIONARY_SLOTS):
            cg.text_page_clustered(0, cg.make_dictionary(64, seed))
            assert len(cg._TOKENS) == len(cg._TOKENS_BY_ID) <= \
                cg._DICTIONARY_SLOTS
        assert tuple(first) not in cg._TOKENS
        assert cg.text_page_random(0, first) == page \
            == _Oracle.text_page_random(0, first)
        cg.clear_caches()

    def test_clear_caches_retains_no_dictionary(self):
        cg.clear_caches()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            words = cg.make_dictionary()
            for form in _DICTIONARY_FORMS.values():
                dictionary = form(words, tuple(words))
                cg.text_page_random(0, dictionary)
                cg.text_page_clustered(0, dictionary)
            del words, dictionary
            cg.clear_caches()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # One dictionary is 32 KBytes of tuple plus 4,096 words.
        assert retained < 4096, retained
        assert cg._TOKENS == {} and cg._TOKENS_BY_ID == {}


# --------------------------------------------------------------------------
# The bulk draw.

_PATHS = [cg._accepted_python] + (
    [] if cg._np is None else [cg._accepted_numpy]
)
_BELOW = (2, 5, 26, 30, 255, 256, 257, 4096, 1 << 24)


class TestBulkDraw:
    def test_getrandbits_is_the_next_outputs_low_word_first(self):
        """What the whole thing rests on."""
        for seed in range(20):
            for m in (1, 2, 3, 64, 1000):
                one, many = random.Random(seed), random.Random(seed)
                wide = one.getrandbits(32 * m)
                words = [many.getrandbits(32) for _ in range(m)]
                assert wide == sum(w << (32 * i)
                                   for i, w in enumerate(words))
                assert one.getstate() == many.getstate()

    def test_narrow_getrandbits_is_one_outputs_top_bits(self):
        for k in range(1, 33):
            one, other = random.Random(k), random.Random(k)
            for _ in range(50):
                assert one.getrandbits(k) == other.getrandbits(32) >> (32 - k)

    @pytest.mark.parametrize("accepted", _PATHS)
    @pytest.mark.parametrize("n", _BELOW)
    def test_equals_randrange(self, monkeypatch, accepted, n):
        monkeypatch.setattr(cg, "_accepted", accepted)
        for seed in range(6):
            for count in (0, 1, 2, 3, 17, 640, 4096, 5000):
                got = cg._draw_below(random.Random(seed), n, count)
                rng = random.Random(seed)
                assert len(got) >= count
                # Every value returned, not only the first ``count``,
                # is the stream's: a short caller may call again.
                assert got == [rng.randrange(n) for _ in range(len(got))]

    @pytest.mark.parametrize("accepted", _PATHS)
    def test_short_first_pass_draws_again(self, monkeypatch, accepted):
        """Two standard deviations of slack: about one first pass in
        forty comes up short, and a second continues the stream."""
        calls = []
        monkeypatch.setattr(
            cg, "_accepted",
            lambda rng, n, m: calls.append(m) or accepted(rng, n, m),
        )
        second_passes = 0
        for n in (2, 256, 4096):
            for seed in range(300):
                del calls[:]
                got = cg._draw_below(random.Random(seed), n, 8)
                rng = random.Random(seed)
                assert got == [rng.randrange(n) for _ in range(len(got))]
                second_passes += len(calls) > 1
        assert second_passes > 0

    @pytest.mark.skipif(cg._np is None, reason="needs numpy")
    def test_both_paths_consume_the_same_outputs(self):
        for n in _BELOW:
            for m in (1, 7, 1000):
                one, other = random.Random(n), random.Random(n)
                assert (cg._accepted_numpy(one, n, m)
                        == cg._accepted_python(other, n, m))
                assert one.getstate() == other.getstate()

    def test_call_again_continues_the_stream(self):
        rng, reference = random.Random(5), random.Random(5)
        got = cg._draw_below(rng, 30, 10) + cg._draw_below(rng, 30, 10)
        assert got == [reference.randrange(30) for _ in range(len(got))]
