/* The LZ library: the compiled twins of repro.compression's LZRW1 and
 * LZSS encoders and of the item decoder they share, emitting and
 * accepting exactly what the Python loops do.
 *
 * Built on first use by repro.compression.lzrw1 (cc -O2 -shared -fPIC)
 * and called through ctypes; see "The compiled LZ library" in
 * docs/kernels.md.  The format is lzrw1.py's module docstring's: groups
 * of a 16-bit little-endian control word and up to 16 items, bit i set
 * for a copy item ((len-3) << 4 | offset >> 8, offset & 0xFF), clear
 * for a literal byte.  Every buffer is the caller's; nothing here keeps
 * state between calls.
 */
#include <stdint.h>
#include <string.h>

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
