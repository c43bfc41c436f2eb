/* LZRW1 encoder: the compiled twin of repro.compression.lzrw1.Lzrw1's
 * pure-Python encoder, emitting byte-identical payloads.
 *
 * Built on first use by repro.compression.lzrw1 (cc -O2 -shared -fPIC)
 * and called through ctypes; see the "Compiled encoder" part of
 * docs/kernels.md.  The format is the module docstring's: groups of a
 * 16-bit little-endian control word and up to 16 items, bit i set for a
 * copy item ((len-3) << 4 | offset >> 8, offset & 0xFF), clear for a
 * literal byte.
 */
#include <stdint.h>
#include <string.h>

#define MAX_OFFSET 4095
#define MIN_MATCH 3
#define MAX_MATCH 18
#define GROUP 16

/* Encode the n bytes at data into out; return the encoding's length, or
 * -1 as soon as a flushed group brings the output to n bytes (the page
 * is stored raw).  A pending group is at most 2 + 2 * GROUP bytes, so
 * out needs n + 64 bytes.  table is int32[1 << table_bits], owned by
 * the caller and reset here: -1 marks a slot no position has hashed to
 * yet in this call. */
long lzrw1_encode(const uint8_t *data, long n, int table_bits,
                  int32_t *table, uint8_t *out)
{
    const uint32_t mask = (1u << table_bits) - 1;
    long i = 0, o = 2, control_at = 0;
    unsigned control = 0, items = 0;

    if (n < MIN_MATCH + 1)
        return -1;
    memset(table, 0xFF, sizeof(int32_t) << table_bits);

    while (i < n) {
        int copied = 0;
        if (i <= n - MIN_MATCH) {
            uint32_t key = ((data[i] << 8) ^ (data[i + 1] << 4)
                            ^ data[i + 2]) & 0xFFFF;
            uint32_t h = ((40543u * key) >> 4) & mask;
            long cand = table[h];
            table[h] = (int32_t)i;
            if (cand >= 0 && data[cand] == data[i]
                    && i - cand <= MAX_OFFSET) {
                long max_len = n - i < MAX_MATCH ? n - i : MAX_MATCH;
                long len = 1;
                while (len < max_len && data[cand + len] == data[i + len])
                    len++;
                if (len >= MIN_MATCH) {
                    long offset = i - cand;
                    out[o++] = (uint8_t)(((len - MIN_MATCH) << 4)
                                         | (offset >> 8));
                    out[o++] = (uint8_t)(offset & 0xFF);
                    control |= 1u << items;
                    i += len;
                    copied = 1;
                }
            }
        }
        if (!copied)
            out[o++] = data[i++];
        if (++items == GROUP) {
            out[control_at] = (uint8_t)(control & 0xFF);
            out[control_at + 1] = (uint8_t)(control >> 8);
            if (o >= n)     /* cannot beat raw any more */
                return -1;
            control_at = o;
            o += 2;
            control = 0;
            items = 0;
        }
    }
    if (items == 0)         /* no partial final group: drop its word */
        return control_at;
    out[control_at] = (uint8_t)(control & 0xFF);
    out[control_at + 1] = (uint8_t)(control >> 8);
    return o;
}
