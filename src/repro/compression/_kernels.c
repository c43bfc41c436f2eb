/* The kernel library: the compiled twins of repro.compression's LZRW1
 * and LZSS encoders and of the item decoder they share, of the six word
 * kernels' encoders (rle, bdi, varint-delta, wk, fpc, cpack) and of the
 * rle and cpack decoders, emitting and accepting exactly what the Python
 * loops do.
 *
 * Built on first use by repro.compression.compiled (cc -O2 -shared
 * -fPIC) and called through ctypes; see "The compiled kernel library"
 * in docs/kernels.md.  Each kernel's format is its module docstring's.
 * Every buffer is the caller's; nothing here keeps state between calls.
 */
#include <stdint.h>
#include <string.h>

/* ---- LZRW1 and LZSS: groups of a 16-bit little-endian control word
 * and up to 16 items, bit i set for a copy item ((len-3) << 4 |
 * offset >> 8, offset & 0xFF), clear for a literal byte. */

#define MAX_OFFSET 4095
#define MIN_MATCH 3
#define MAX_MATCH 18
#define GROUP 16
#define LZSS_HEADS 4096

/* Williams's hash of the trigram at p, to the low `mask` bits. */
static uint32_t trigram_hash(const uint8_t *p, uint32_t mask)
{
    uint32_t key = ((p[0] << 8) ^ (p[1] << 4) ^ p[2]) & 0xFFFF;
    return ((40543u * key) >> 4) & mask;
}

/* The item stream both encoders write: out[control_at..] holds the open
 * group's control word, o is the next free byte. */
struct items {
    uint8_t *out;
    long o, control_at;
    unsigned control, count;
};

static void put_literal(struct items *s, uint8_t byte)
{
    s->out[s->o++] = byte;
    s->count++;
}

static void put_copy(struct items *s, long length, long offset)
{
    s->out[s->o++] = (uint8_t)(((length - MIN_MATCH) << 4) | (offset >> 8));
    s->out[s->o++] = (uint8_t)(offset & 0xFF);
    s->control |= 1u << s->count;
    s->count++;
}

static void close_group(struct items *s)
{
    s->out[s->control_at] = (uint8_t)(s->control & 0xFF);
    s->out[s->control_at + 1] = (uint8_t)(s->control >> 8);
}

/* After an item: flush a full group.  Returns 0 once the flushed output
 * reaches n bytes (it cannot beat raw any more), else 1. */
static int end_item(struct items *s, long n)
{
    if (s->count < GROUP)
        return 1;
    close_group(s);
    if (s->o >= n)
        return 0;
    s->control_at = s->o;
    s->o += 2;
    s->control = 0;
    s->count = 0;
    return 1;
}

/* The encoding's length, after the last item. */
static long finish(struct items *s)
{
    if (s->count == 0)      /* no partial final group: drop its word */
        return s->control_at;
    close_group(s);
    return s->o;
}

/* LZRW1: encode the n bytes at data into out; return the encoding's
 * length, or -1 as soon as a flushed group brings the output to n bytes
 * (the page is stored raw).  A pending group is at most 2 + 2 * GROUP
 * bytes, so out needs n + 64 bytes.  table is int32[1 << table_bits],
 * reset here: -1 marks a slot no position has hashed to yet. */
long lzrw1_encode(const uint8_t *data, long n, int table_bits,
                  int32_t *table, uint8_t *out)
{
    const uint32_t mask = (1u << table_bits) - 1;
    struct items s = {out, 2, 0, 0, 0};
    long i = 0;

    if (n < MIN_MATCH + 1)
        return -1;
    memset(table, 0xFF, sizeof(int32_t) << table_bits);

    while (i < n) {
        int copied = 0;
        if (i <= n - MIN_MATCH) {
            uint32_t h = trigram_hash(data + i, mask);
            long cand = table[h];
            table[h] = (int32_t)i;
            if (cand >= 0 && data[cand] == data[i]
                    && i - cand <= MAX_OFFSET) {
                long max_len = n - i < MAX_MATCH ? n - i : MAX_MATCH;
                long len = 1;
                while (len < max_len && data[cand + len] == data[i + len])
                    len++;
                if (len >= MIN_MATCH) {
                    put_copy(&s, len, i - cand);
                    i += len;
                    copied = 1;
                }
            }
        }
        if (!copied)
            put_literal(&s, data[i++]);
        if (!end_item(&s, n))
            return -1;
    }
    return finish(&s);
}

/* The seed LZSS's match search at i: the longest match among the first
 * depth entries of i's chain (prev) within MAX_OFFSET, the earliest on a
 * tie, stopping at a full-length one.  Returns its length, or 0 below
 * MIN_MATCH; *offset is set with a match. */
static long lzss_search(const uint8_t *data, long n, const int32_t *prev,
                        long i, long depth, long *offset)
{
    long max_len, best = 0;
    long cand;

    if (i + MIN_MATCH > n)
        return 0;
    max_len = n - i < MAX_MATCH ? n - i : MAX_MATCH;
    for (cand = prev[i]; cand >= 0 && depth > 0;
            cand = prev[cand], depth--) {
        long len = 0;
        if (i - cand > MAX_OFFSET)
            break;
        if (data[cand + best] != data[i + best])
            continue;
        while (len < max_len && data[cand + len] == data[i + len])
            len++;
        if (len > best) {
            best = len;
            *offset = i - cand;
            if (len == max_len)
                break;
        }
    }
    return best >= MIN_MATCH ? best : 0;
}

/* LZSS: the seed's chained-hash search with one-byte lazy matching.
 * The seed links every position with a trigram into its bucket's chain
 * before any later position is searched, so the chain seen from p is
 * prev[p], prev[prev[p]], ... with prev[p] the previous position whose
 * trigram has p's 12-bit hash: built here for the whole page first.
 * head is int32[LZSS_HEADS], prev int32[n]; out needs n + 64 bytes.
 * Returns as lzrw1_encode does. */
long lzss_encode(const uint8_t *data, long n, long depth, int lazy,
                 int32_t *head, int32_t *prev, uint8_t *out)
{
    struct items s = {out, 2, 0, 0, 0};
    long i, offset = 0;

    if (n < MIN_MATCH + 1)
        return -1;
    memset(head, 0xFF, sizeof(int32_t) * LZSS_HEADS);
    for (i = 0; i + MIN_MATCH <= n; i++) {
        uint32_t h = trigram_hash(data + i, LZSS_HEADS - 1);
        prev[i] = head[h];
        head[h] = (int32_t)i;
    }

    i = 0;
    while (i < n) {
        long len = lzss_search(data, n, prev, i, depth, &offset);
        if (lazy && len >= MIN_MATCH && len < MAX_MATCH && i + 1 < n) {
            long later;
            if (lzss_search(data, n, prev, i + 1, depth, &later) > len)
                len = 0;    /* the next position matches longer */
        }
        if (len) {
            put_copy(&s, len, offset);
            i += len;
        } else {
            put_literal(&s, data[i++]);
        }
        if (!end_item(&s, n))
            return -1;
    }
    return finish(&s);
}

/* Decode the item stream of `end` payload bytes into out until `want`
 * bytes are out or the payload ends.  Returns the bytes written (up to
 * want + MAX_MATCH - 1: the caller rejects a stream that ends short or
 * runs an item past want, so out needs want + MAX_MATCH bytes), or a
 * negative error: -1 a truncated control word, -2 a truncated copy item,
 * -3 a copy offset of 0 or past the output, with where[0] the offset and
 * where[1] the output position. */
long lz_decode(const uint8_t *payload, long end, long want, uint8_t *out,
               long *where)
{
    long i = 0, o = 0;

    while (i < end && o < want) {
        unsigned control, bit;
        if (i + 2 > end)
            return -1;
        control = payload[i] | (payload[i + 1] << 8);
        i += 2;
        for (bit = 0; bit < GROUP && i < end && o < want; bit++) {
            if (control >> bit & 1) {
                long length, offset, k;
                if (i + 2 > end)
                    return -2;
                length = (payload[i] >> 4) + MIN_MATCH;
                offset = ((payload[i] & 0x0F) << 8) | payload[i + 1];
                i += 2;
                if (offset == 0 || offset > o) {
                    where[0] = offset;
                    where[1] = o;
                    return -3;
                }
                for (k = 0; k < length; k++)    /* may self-overlap */
                    out[o + k] = out[o - offset + k];
                o += length;
            } else {
                out[o++] = payload[i++];
            }
        }
    }
    return o;
}


/* ---- The word kernels.  Each encoder writes the encoding of the n
 * bytes at data to out, which needs 2 * n + 64 bytes, and returns its
 * length, or -1 where the Python loop returns None (too short for a
 * word, a line or a run). */

static uint32_t le32(const uint8_t *p)
{
    return p[0] | p[1] << 8 | p[2] << 16 | (uint32_t)p[3] << 24;
}

static void put_le32(uint8_t *p, uint32_t v)
{
    p[0] = (uint8_t)v;
    p[1] = (uint8_t)(v >> 8);
    p[2] = (uint8_t)(v >> 16);
    p[3] = (uint8_t)(v >> 24);
}

/* wk.py's _BitWriter: fields of up to 35 bits, LSB first, from out[o]. */
struct bits {
    uint8_t *out;
    long o;
    uint64_t acc;
    unsigned n;
};

static void put_bits(struct bits *b, uint64_t value, unsigned width)
{
    b->acc |= value << b->n;
    b->n += width;
    while (b->n >= 8) {
        b->out[b->o++] = (uint8_t)b->acc;
        b->acc >>= 8;
        b->n -= 8;
    }
}

/* Write the partial last byte; returns the end of the stream. */
static long flush_bits(struct bits *b)
{
    if (b->n) {
        b->out[b->o++] = (uint8_t)b->acc;
        b->acc = 0;
        b->n = 0;
    }
    return b->o;
}

/* _BitReader: a field of up to 32 bits from the stream's `end` bytes;
 * 0 once the stream is exhausted. */
struct reader {
    const uint8_t *in;
    long pos, end;
    uint64_t acc;
    unsigned n;
};

static int get_bits(struct reader *r, unsigned width, uint32_t *value)
{
    while (r->n < width) {
        if (r->pos >= r->end)
            return 0;
        r->acc |= (uint64_t)r->in[r->pos++] << r->n;
        r->n += 8;
    }
    *value = (uint32_t)(r->acc & ((1ull << width) - 1));
    r->acc >>= width;
    r->n -= width;
    return 1;
}

/* ---- rle: a header 0x00..0x7F copies header + 1 literal bytes, a
 * header 0x80..0xFF repeats the next byte header - 0x7D times. */

#define RLE_MIN_RUN 3
#define RLE_MAX_RUN 130
#define RLE_MAX_LITERAL 128

static long rle_literals(const uint8_t *data, long start, long end,
                         uint8_t *out, long o)
{
    while (start < end) {
        long take = end - start < RLE_MAX_LITERAL ? end - start
                                                  : RLE_MAX_LITERAL;
        out[o++] = (uint8_t)(take - 1);
        memcpy(out + o, data + start, take);
        o += take;
        start += take;
    }
    return o;
}

/* Whether a run of three equal bytes starts at any of p[0..7] (reads
 * p[0..9]): a zero byte of (p ^ p + 1) | (p + 1 ^ p + 2), eight bytes
 * at a time. */
static int run_in_next8(const uint8_t *p)
{
    uint64_t a, b, c, v;
    memcpy(&a, p, 8);
    memcpy(&b, p + 1, 8);
    memcpy(&c, p + 2, 8);
    v = (a ^ b) | (b ^ c);
    return ((v - 0x0101010101010101ull) & ~v & 0x8080808080808080ull) != 0;
}

long rle_encode(const uint8_t *data, long n, uint8_t *out)
{
    long i = 0, literal = 0, o = 0;

    while (i < n) {
        uint8_t byte = data[i];
        long run = 1;
        if (i + 10 <= n && !run_in_next8(data + i)) {
            i += 8;     /* eight literals */
            continue;
        }
        while (i + run < n && run < RLE_MAX_RUN && data[i + run] == byte)
            run++;
        if (run >= RLE_MIN_RUN) {
            o = rle_literals(data, literal, i, out, o);
            out[o++] = (uint8_t)(0x7D + run);
            out[o++] = byte;
            literal = i + run;
        }
        /* A run of two is two literals: the run at i + 1 is one byte. */
        i += run;
    }
    return rle_literals(data, literal, n, out, o);
}

/* Decode into out (want bytes) until the payload ends.  Returns the
 * bytes written, or -1 a truncated literal block, -2 a truncated run,
 * -3 a block that would take the output past want. */
long rle_decode(const uint8_t *payload, long end, long want, uint8_t *out)
{
    long i = 0, o = 0;

    while (i < end) {
        unsigned header = payload[i++];
        long count;
        if (header < RLE_MAX_LITERAL) {
            count = header + 1;
            if (i + count > end)
                return -1;
            if (o + count > want)
                return -3;
            memcpy(out + o, payload + i, count);
            i += count;
        } else {
            count = header - 0x7D;
            if (i >= end)
                return -2;
            if (o + count > want)
                return -3;
            memset(out + o, payload[i++], count);
        }
        o += count;
    }
    return o;
}

/* ---- bdi: a page header byte, then per 64-byte line an encoding byte
 * and its payload (bdi.py's table), then the tail. */

#define BDI_LINE 64

static const struct { int enc, k, d; } bdi_deltas[] = {
    {2, 8, 1}, {3, 4, 1}, {4, 8, 2}, {5, 2, 1}, {6, 4, 2}, {7, 8, 4},
};

static uint64_t le_k(const uint8_t *p, int k)
{
    uint64_t v = 0;
    while (k--)
        v = v << 8 | p[k];
    return v;
}

static int all_zero(const uint8_t *p, long n)
{
    long i;
    for (i = 0; i < n; i++)
        if (p[i])
            return 0;
    return 1;
}

/* Whether the n bytes at p (a multiple of 8) repeat their first 8. */
static int repeats8(const uint8_t *p, long n)
{
    long i;
    for (i = 8; i < n; i += 8)
        if (memcmp(p, p + i, 8))
            return 0;
    return 1;
}

/* Whether every k-byte value of the line is within [-half, half) of the
 * first, as an unbounded difference. */
static int bdi_fits(const uint8_t *line, int k, int d)
{
    uint64_t base = le_k(line, k), half = 1ull << (8 * d - 1);
    int i;
    for (i = k; i < BDI_LINE; i += k) {
        uint64_t v = le_k(line + i, k);
        if (v >= base ? v - base >= half : base - v > half)
            return 0;
    }
    return 1;
}

static long bdi_line(const uint8_t *line, uint8_t *out, long o)
{
    unsigned e;
    if (all_zero(line, BDI_LINE)) {
        out[o++] = 0;
        return o;
    }
    if (repeats8(line, BDI_LINE)) {
        out[o++] = 1;
        memcpy(out + o, line, 8);
        return o + 8;
    }
    for (e = 0; e < sizeof bdi_deltas / sizeof bdi_deltas[0]; e++) {
        int k = bdi_deltas[e].k, d = bdi_deltas[e].d, i;
        uint64_t base;
        if (!bdi_fits(line, k, d))
            continue;
        base = le_k(line, k);
        out[o++] = (uint8_t)bdi_deltas[e].enc;
        memcpy(out + o, line, k);
        o += k;
        for (i = 0; i < BDI_LINE; i += k) {
            uint64_t delta = le_k(line + i, k) - base;
            int j;
            for (j = 0; j < d; j++)
                out[o++] = (uint8_t)(delta >> 8 * j);
        }
        return o;
    }
    out[o++] = 8;
    memcpy(out + o, line, BDI_LINE);
    return o + BDI_LINE;
}

long bdi_encode(const uint8_t *data, long n, uint8_t *out)
{
    long lines = n / BDI_LINE, line, o = 1;

    if (all_zero(data, n)) {
        out[0] = 0;
        return 1;
    }
    if (n >= 16 && n % 8 == 0 && repeats8(data, n)) {
        out[0] = 1;
        memcpy(out + 1, data, 8);
        return 9;
    }
    if (lines == 0)
        return -1;
    out[0] = 2;
    for (line = 0; line < lines; line++)
        o = bdi_line(data + BDI_LINE * line, out, o);
    memcpy(out + o, data + BDI_LINE * lines, n - BDI_LINE * lines);
    return o + n - BDI_LINE * lines;
}

/* ---- varint-delta: chunks <tag><count varint><body>; tag 1 an
 * ascending run (first word and gaps as varints), tag 0 raw words, tag
 * 2 the tail. */

#define DELTA_MIN_RUN 4

static long put_varint(uint8_t *out, long o, uint64_t v)
{
    while (v >= 0x80) {
        out[o++] = (uint8_t)(v | 0x80);
        v >>= 7;
    }
    out[o++] = (uint8_t)v;
    return o;
}

static long delta_raw(const uint8_t *data, long start, long end,
                      uint8_t *out, long o)
{
    if (start == end)
        return o;
    out[o++] = 0;
    o = put_varint(out, o, end - start);
    memcpy(out + o, data + 4 * start, 4 * (end - start));
    return o + 4 * (end - start);
}

long delta_encode(const uint8_t *data, long n, uint8_t *out)
{
    long words = n / 4, index = 0, raw = 0, o = 0, tail = n - 4 * words;

    if (words < DELTA_MIN_RUN)
        return -1;
    while (index < words) {
        long end = index + 1, i;
        while (end < words && le32(data + 4 * end) >= le32(data + 4 * end - 4))
            end++;
        /* A shorter run's words are raw: the run from the next word
         * ends at the same place. */
        if (end - index >= DELTA_MIN_RUN) {
            o = delta_raw(data, raw, index, out, o);
            out[o++] = 1;
            o = put_varint(out, o, end - index);
            o = put_varint(out, o, le32(data + 4 * index));
            for (i = index + 1; i < end; i++)
                o = put_varint(out, o, le32(data + 4 * i)
                                       - le32(data + 4 * i - 4));
            raw = end;
        }
        index = end;
    }
    o = delta_raw(data, raw, words, out, o);
    if (tail) {
        out[o++] = 2;
        o = put_varint(out, o, tail);
        memcpy(out + o, data + 4 * words, tail);
        o += tail;
    }
    return o;
}

/* ---- wk: a header <u32 words, u16 tag, index and low-bit stream
 * lengths>, the 2-bit tags, 4-bit indices and 10-bit low bits, the
 * missed words and the tail.  Returns -2 where a stream is longer
 * than its 16-bit length field. */

#define WK_LOW_BITS 10

long wk_encode(const uint8_t *data, long n, uint8_t *out)
{
    long words = n / 4, w, tag_len, index_len, low_len, misses = 0;
    long index_at, low_at, miss_at, tail = n - 4 * words;
    uint32_t dict[16] = {0};
    struct bits tags, indices, lows;

    if (words == 0)
        return -1;
    /* Each stream is written to its own region, then closed up. */
    tag_len = (2 * words + 7) / 8;
    index_at = 10 + tag_len;
    low_at = index_at + (4 * words + 7) / 8;
    miss_at = low_at + (WK_LOW_BITS * words + 7) / 8;
    tags = (struct bits){out, 10, 0, 0};
    indices = (struct bits){out, index_at, 0, 0};
    lows = (struct bits){out, low_at, 0, 0};
    for (w = 0; w < words; w++) {
        uint32_t word = le32(data + 4 * w), slot, entry;
        if (word == 0) {
            put_bits(&tags, 0, 2);
            continue;
        }
        slot = (uint32_t)((uint64_t)(word >> WK_LOW_BITS) * 0x9E3779B1u
                          >> 22) & 15;
        entry = dict[slot];
        if (entry == word) {
            put_bits(&tags, 1, 2);
            put_bits(&indices, slot, 4);
        } else if (entry >> WK_LOW_BITS == word >> WK_LOW_BITS) {
            put_bits(&tags, 2, 2);
            put_bits(&indices, slot, 4);
            put_bits(&lows, word & ((1u << WK_LOW_BITS) - 1), WK_LOW_BITS);
            dict[slot] = word;
        } else {
            put_bits(&tags, 3, 2);
            put_le32(out + miss_at + 4 * misses++, word);
            dict[slot] = word;
        }
    }
    flush_bits(&tags);
    index_len = flush_bits(&indices) - index_at;
    low_len = flush_bits(&lows) - low_at;
    if (tag_len > 0xFFFF || index_len > 0xFFFF || low_len > 0xFFFF)
        return -2;
    put_le32(out, (uint32_t)words);
    out[4] = (uint8_t)tag_len;
    out[5] = (uint8_t)(tag_len >> 8);
    out[6] = (uint8_t)index_len;
    out[7] = (uint8_t)(index_len >> 8);
    out[8] = (uint8_t)low_len;
    out[9] = (uint8_t)(low_len >> 8);
    memmove(out + index_at + index_len, out + low_at, low_len);
    memmove(out + index_at + index_len + low_len, out + miss_at,
            4 * misses);
    w = index_at + index_len + low_len + 4 * misses;
    memcpy(out + w, data + 4 * words, tail);
    return w + tail;
}

/* ---- fpc: <u32 words>, then per word (or zero run of up to 8) a 3-bit
 * prefix and its data bits, then the tail. */

static int half_fits8(uint32_t half)
{
    return half < 0x80 || half >= 0xFF80;
}

long fpc_encode(const uint8_t *data, long n, uint8_t *out)
{
    long words = n / 4, w, tail = n - 4 * words;
    struct bits b = {out, 4, 0, 0};
    unsigned zrun = 0;

    if (words == 0)
        return -1;
    put_le32(out, (uint32_t)words);
    for (w = 0; w < words; w++) {
        uint32_t word = le32(data + 4 * w);
        if (word == 0) {
            if (++zrun == 8) {
                put_bits(&b, 7 << 3, 6);
                zrun = 0;
            }
            continue;
        }
        if (zrun) {
            put_bits(&b, (zrun - 1) << 3, 6);
            zrun = 0;
        }
        /* Wrapping compares: word + 8 < 16 is -8 <= (int32)word < 8. */
        if (word + 8u < 16u)
            put_bits(&b, 1 | (word & 0xF) << 3, 7);
        else if (word + 0x80u < 0x100u)
            put_bits(&b, 2 | (word & 0xFF) << 3, 11);
        else if (word + 0x8000u < 0x10000u)
            put_bits(&b, 3 | (uint64_t)(word & 0xFFFF) << 3, 19);
        else if ((word & 0xFFFF) == 0)
            put_bits(&b, 4 | (uint64_t)(word >> 16) << 3, 19);
        else if (half_fits8(word & 0xFFFF) && half_fits8(word >> 16))
            put_bits(&b, 5 | (word & 0xFF) << 3
                     | (uint64_t)(word >> 16 & 0xFF) << 11, 19);
        else if (word == (word & 0xFF) * 0x01010101u)
            put_bits(&b, 6 | (word & 0xFF) << 3, 11);
        else
            put_bits(&b, 7 | (uint64_t)word << 3, 35);
    }
    if (zrun)
        put_bits(&b, (zrun - 1) << 3, 6);
    w = flush_bits(&b);
    memcpy(out + w, data + 4 * words, tail);
    return w + tail;
}

/* ---- cpack: <u32 words>, then per word a 2-bit code (11: a 2-bit
 * extension follows) and its index and raw bits, LSB first, then the
 * tail.  The dictionary is a 16-entry FIFO that every miss and partial
 * match pushes. */

#define CPACK_DICT 16
#define CPACK_ZERO 0
#define CPACK_MISS 1
#define CPACK_EXACT 2
#define CPACK_HIGH16 (3 | 0 << 2)
#define CPACK_LOWBYTE (3 | 1 << 2)
#define CPACK_HIGH24 (3 | 2 << 2)

/* counts is uint8_t[65536], zero on entry and on return: while the
 * page is encoded, counts[h] is the number of dictionary entries whose
 * top two bytes are h, so a word no entry shares them with (any random
 * word, nearly) is a miss without the 16-entry scan. */
long cpack_encode(const uint8_t *data, long n, uint8_t *out,
                  uint8_t *counts)
{
    long words = n / 4, w, tail = n - 4 * words;
    uint32_t dict[CPACK_DICT] = {0};
    unsigned fill = 0, pos;
    struct bits b = {out, 4, 0, 0};

    if (words == 0)
        return -1;
    put_le32(out, (uint32_t)words);
    counts[0] = CPACK_DICT;
    for (w = 0; w < words; w++) {
        uint32_t word = le32(data + 4 * w);
        unsigned best = 0, at = 0;
        if (word == 0) {
            put_bits(&b, CPACK_ZERO, 2);
            continue;
        }
        if (word < 0x100) {
            put_bits(&b, CPACK_LOWBYTE | word << 4, 12);
            continue;
        }
        /* The first exact match (a pushed word had none, so there is
         * at most one), else the first entry sharing the top three
         * bytes, else the first sharing the top two. */
        for (pos = 0; counts[word >> 16] && pos < CPACK_DICT; pos++) {
            uint32_t differ = dict[pos] ^ word;
            if (differ == 0) {
                best = 4;
                at = pos;
                break;
            }
            if (best < 3 && differ < 0x100) {
                best = 3;
                at = pos;
            } else if (best < 2 && differ < 0x10000) {
                best = 2;
                at = pos;
            }
        }
        if (best == 4) {
            put_bits(&b, CPACK_EXACT | at << 2, 6);
            continue;
        }
        if (best == 3)
            put_bits(&b, CPACK_HIGH24 | at << 4 | (word & 0xFF) << 8, 16);
        else if (best == 2)
            put_bits(&b, CPACK_HIGH16 | at << 4
                     | (uint64_t)(word & 0xFFFF) << 8, 24);
        else
            put_bits(&b, CPACK_MISS | (uint64_t)word << 2, 34);
        counts[dict[fill] >> 16]--;
        counts[word >> 16]++;
        dict[fill] = word;
        fill = (fill + 1) % CPACK_DICT;
    }
    for (pos = 0; pos < CPACK_DICT; pos++)
        counts[dict[pos] >> 16] = 0;
    w = flush_bits(&b);
    memcpy(out + w, data + 4 * words, tail);
    return w + tail;
}

/* Decode into out, which needs want bytes.  Returns want, or -1 a
 * header too short, -2 a word count inconsistent with want, -3 an
 * exhausted bit stream, -4 an unknown extension code (always 3). */
long cpack_decode(const uint8_t *payload, long end, long want, uint8_t *out)
{
    uint32_t dict[CPACK_DICT] = {0};
    unsigned fill = 0;
    struct reader r = {payload + 4, 0, 0, 0, 0};
    int64_t words, tail, w;

    if (end < 4)
        return -1;
    words = le32(payload);
    tail = (int64_t)want - 4 * words;
    if (tail < 0 || 4 + tail > end)
        return -2;
    r.end = end - tail - 4;
    for (w = 0; w < words; w++) {
        uint32_t code, field, word;
        if (!get_bits(&r, 2, &code))
            return -3;
        if (code == CPACK_ZERO || code == CPACK_EXACT) {
            word = 0;
            if (code == CPACK_EXACT) {
                if (!get_bits(&r, 4, &field))
                    return -3;
                word = dict[field];
            }
            put_le32(out + 4 * w, word);
            continue;
        }
        if (code == CPACK_MISS) {
            if (!get_bits(&r, 32, &word))
                return -3;
        } else {
            uint32_t ext, index;
            if (!get_bits(&r, 2, &ext))
                return -3;
            if (ext == 1) {
                if (!get_bits(&r, 8, &word))
                    return -3;
                put_le32(out + 4 * w, word);
                continue;
            }
            if (ext == 3)
                return -4;
            if (!get_bits(&r, 4, &index) || !get_bits(&r, ext ? 8 : 16,
                                                      &field))
                return -3;
            word = (dict[index] & (ext ? 0xFFFFFF00u : 0xFFFF0000u))
                   | field;
        }
        put_le32(out + 4 * w, word);
        dict[fill] = word;
        fill = (fill + 1) % CPACK_DICT;
    }
    memcpy(out + 4 * words, payload + end - tail, tail);
    return want;
}
