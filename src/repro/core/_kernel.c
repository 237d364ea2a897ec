/* Compiled hot loops of the sketch pipeline.
 *
 * Built by _kernel.py with the local C compiler on first import and loaded
 * through ctypes.  Every function is a bit-exact twin of a numpy path that
 * stays in the package as the test oracle and as the fallback when no
 * compiler is available:
 *
 *   hash_scatter   HashPlan.hash_scatter_numpy   (repro/core/plan.py)
 *   diff_advance   SketchFamily.delta_payload    (repro/core/family.py)
 *   merge_cells    sum_cells                     (repro/core/family.py)
 *   sparse_body    encode_sparse_cells           (repro/streams/net/codec.py)
 *   sparse_decode  decode_sparse_cells           (repro/streams/net/codec.py)
 *
 * A delta travels as its non-zero cells: strictly increasing flat indices
 * into the counter slab and their int64 values.
 */
#include <stdint.h>
#include <stdlib.h>

#define MERSENNE_P ((UINT64_C(1) << 61) - 1)

/* (a * x + c) mod 2^61 - 1 for a < p, x < 2^60, c < p. */
static inline uint64_t mul_add_mod(uint64_t a, uint64_t x, uint64_t c)
{
    unsigned __int128 v = (unsigned __int128)a * x + c;
    uint64_t r = (uint64_t)(v & MERSENNE_P) + (uint64_t)(v >> 61);
    r = (r & MERSENNE_P) + (r >> 61);
    return r >= MERSENNE_P ? r - MERSENNE_P : r;
}

/* Apply n updates to the r member sketches of one family.
 *
 * Sketch-major: each sketch's (levels, s, 2) counter slab stays in L1
 * while all n elements pass through it.  Element i lands in level
 * LSB(h_k(e)) (levels - 1 for h = 0), and in cell pair j of that level at
 * bit parity(e & mask_kj) ^ flip_kj.  Weights are added as uint64 so
 * overflow wraps exactly as numpy's int64 addition does.  counts == NULL
 * means one insertion per element.  totals is the (r, levels) bucket-total
 * matrix; touched[level] is set for every level any update landed in.
 * Returns -1 if the level scratch buffer cannot be allocated, else 0.
 */
int hash_scatter(const uint64_t *elements, const int64_t *counts, int64_t n,
                 const uint64_t *coeffs, int64_t t, const uint64_t *masks,
                 const uint8_t *flips, int64_t r, int64_t s, int64_t levels,
                 int64_t *counters, int64_t *totals, uint8_t *touched)
{
    uint8_t *level_of = malloc(n > 0 ? (size_t)n : 1);
    if (level_of == NULL)
        return -1;
    for (int64_t k = 0; k < r; k++) {
        const uint64_t *c = coeffs + k * t;
        const uint64_t *m = masks + k * s;
        const uint8_t *f = flips + k * s;
        uint64_t *slab = (uint64_t *)counters + k * levels * s * 2;
        uint64_t *total = (uint64_t *)totals + k * levels;
        /* Hash first, scatter second: the Horner chains of different
         * elements are independent, so this loop pipelines. */
        for (int64_t i = 0; i < n; i++) {
            uint64_t e = elements[i], h = c[0];
            for (int64_t d = 1; d < t; d++)
                h = mul_add_mod(h, e, c[d]);
            level_of[i] = h ? (uint8_t)__builtin_ctzll(h) : (uint8_t)(levels - 1);
        }
        for (int64_t i = 0; i < n; i++) {
            uint64_t e = elements[i];
            uint64_t w = counts ? (uint64_t)counts[i] : 1;
            uint64_t *cell = slab + (int64_t)level_of[i] * s * 2;
            for (int64_t j = 0; j < s; j++)
                cell[2 * j + (__builtin_parityll(e & m[j]) ^ f[j])] += w;
            total[level_of[i]] += w;
            touched[level_of[i]] = 1;
        }
    }
    free(level_of);
    return 0;
}

/* The non-zero cells of current (+ addend, unless NULL) - baseline
 * (wrapping), then baseline = current (+ addend), in one pass over n
 * cells.  indices and values must hold n entries; the cells land in their
 * first nnz, in ascending index order.  Returns nnz.  The writes are
 * unconditional, so the loop has no branch on the data. */
int64_t diff_advance(const int64_t *current, const int64_t *addend,
                     int64_t *baseline, int64_t *indices, int64_t *values,
                     int64_t n)
{
    int64_t nnz = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t c = (uint64_t)current[i] + (addend ? (uint64_t)addend[i] : 0);
        uint64_t d = c - (uint64_t)baseline[i];
        indices[nnz] = i;
        values[nnz] = (int64_t)d;
        baseline[i] = (int64_t)c;
        nnz += d != 0;
    }
    return nnz;
}

/* Sum two cell sets into out_indices/out_values (each must hold na + nb
 * entries), adding values (wrapping) where the indices meet and dropping
 * cells that sum to zero.  Returns the number of cells written. */
int64_t merge_cells(const int64_t *a_indices, const int64_t *a_values,
                    int64_t na, const int64_t *b_indices,
                    const int64_t *b_values, int64_t nb,
                    int64_t *out_indices, int64_t *out_values)
{
    int64_t i = 0, j = 0, n = 0;
    while (i < na || j < nb) {
        int64_t index;
        uint64_t value;
        if (j >= nb || (i < na && a_indices[i] < b_indices[j])) {
            index = a_indices[i];
            value = (uint64_t)a_values[i++];
        } else if (i >= na || b_indices[j] < a_indices[i]) {
            index = b_indices[j];
            value = (uint64_t)b_values[j++];
        } else {
            index = a_indices[i];
            value = (uint64_t)a_values[i++] + (uint64_t)b_values[j++];
        }
        out_indices[n] = index;
        out_values[n] = (int64_t)value;
        n += value != 0;
    }
    return n;
}

static inline uint8_t *put_varint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = (uint8_t)(v | 0x80);
        v >>= 7;
    }
    *p++ = (uint8_t)v;
    return p;
}

/* The sparse body of nnz cells, without its u32 count: nnz LEB128 index
 * gaps, then nnz LEB128 zigzag values.  out must hold 20 * nnz bytes.
 * Returns the body length. */
int64_t sparse_body(const int64_t *indices, const int64_t *values,
                    int64_t nnz, uint8_t *out)
{
    uint8_t *p = out;
    int64_t previous = -1;
    for (int64_t i = 0; i < nnz; i++) {
        p = put_varint(p, (uint64_t)(indices[i] - previous - 1));
        previous = indices[i];
    }
    for (int64_t i = 0; i < nnz; i++) {
        uint64_t x = (uint64_t)values[i];
        p = put_varint(p, (x << 1) ^ (uint64_t)(values[i] >> 63));
    }
    return p - out;
}

/* Decode a sparse body (after its u32 count) into count strictly
 * increasing indices below num_cells and count values.
 *
 * Errors are reported in the numpy decoder's order of checks, whatever
 * their position in the stream:
 *   1  the bytes are not exactly 2 * count varints (truncated, trailing);
 *   2  a varint runs longer than 10 bytes;
 *   3  a 10-byte varint overflows 64 bits;
 *   4  a gap or the last index reaches num_cells;
 *   5  the indices are not strictly increasing.
 */
int sparse_decode(const uint8_t *data, int64_t size, int64_t count,
                  uint64_t num_cells, int64_t *indices, int64_t *values)
{
    int64_t pos = 0;
    int too_long = 0, overflow = 0, beyond = 0, unordered = 0;
    uint64_t index = 0;
    for (int64_t v = 0; v < 2 * count; v++) {
        uint64_t x = 0;
        int64_t len = 0;
        uint8_t byte;
        do {
            if (pos >= size)
                return 1;
            byte = data[pos++];
            if (len < 10)
                x |= (uint64_t)(byte & 0x7F) << (7 * len);
            len++;
        } while (byte & 0x80);
        if (len > 10)
            too_long = 1;
        else if (len == 10 && byte > 1)
            overflow = 1;
        if (v < count) {
            if (x >= num_cells)
                beyond = 1;
            uint64_t next = v ? index + x + 1 : x;
            if (v && (int64_t)next <= (int64_t)index)
                unordered = 1;
            index = next;
            indices[v] = (int64_t)index;
        } else {
            values[v - count] = (int64_t)((x >> 1) ^ (UINT64_C(0) - (x & 1)));
        }
    }
    if (pos != size)
        return 1;
    if (too_long)
        return 2;
    if (overflow)
        return 3;
    if (beyond || (count && (int64_t)index >= (int64_t)num_cells))
        return 4;
    return unordered ? 5 : 0;
}
