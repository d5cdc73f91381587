/* The row loop of hofa.kernels.pattern_count_fast.
 *
 * Counts the bits set in the AND of n + 1 slots of packed words over the
 * rows of a window.  A row of slot j < n is k words at its row pointer; a
 * row of the last slot is read from its row pointer and shifted right by
 * s bits across word pairs, so bit b of its word w is bit s + b of the
 * slot's row from word w on.  Bits of word k - 1 past the window are
 * cleared by ``tail``.  The final pair reads word k only when s plus the
 * bits of ``tail`` exceed 64: the window ends at least s bits before the
 * slot's row does, so that word is then in the row, and otherwise ``tail``
 * clears all that it would add.
 *
 * ``args`` holds, as int64: the n + 1 slots' first-row addresses, the
 * window's extents on its ``nlead`` leading axes, and each slot's strides in
 * words on those axes (slot-major).  The kernel allocates nothing.
 *
 * Build: cc -O3 -march=native -shared -fPIC -o LIB _kernel.c
 */
#include <stdint.h>

static inline __attribute__((always_inline)) uint64_t
row_count(const uint64_t *const *rows, int nslots, int64_t k, int s,
          uint64_t tail)
{
    const uint64_t *last = rows[nslots - 1];
    uint64_t total = 0, acc;
    int64_t w;
    int j;

    if (s) {
        for (w = 0; w < k - 1; w++) {
            acc = (last[w] >> s) | (last[w + 1] << (64 - s));
            for (j = 0; j < nslots - 1; j++)
                acc &= rows[j][w];
            total += (uint64_t)__builtin_popcountll(acc);
        }
        acc = last[w] >> s;
        if (tail >> (64 - s))  /* s + the bits of tail > 64 */
            acc |= last[w + 1] << (64 - s);
    } else {
        for (w = 0; w < k - 1; w++) {
            acc = last[w];
            for (j = 0; j < nslots - 1; j++)
                acc &= rows[j][w];
            total += (uint64_t)__builtin_popcountll(acc);
        }
        acc = last[w];
    }
    for (j = 0; j < nslots - 1; j++)
        acc &= rows[j][w];
    return total + (uint64_t)__builtin_popcountll(acc & tail);
}

uint64_t
hofa_pattern_count(int nslots, int nlead, const int64_t *args, int64_t k,
                   int s, uint64_t tail)
{
    const int64_t *extent = args + nslots, *stride = args + nslots + nlead;
    const uint64_t *rows[nslots];
    int64_t idx[nlead + 1];
    uint64_t total = 0;
    int a, j;

    for (j = 0; j < nslots; j++)
        rows[j] = (const uint64_t *)(uintptr_t)args[j];
    for (a = 0; a < nlead; a++)
        idx[a] = 0;
    for (;;) {
        switch (nslots) {  /* the common slot counts, unrolled */
        case 2: total += row_count(rows, 2, k, s, tail); break;
        case 3: total += row_count(rows, 3, k, s, tail); break;
        case 4: total += row_count(rows, 4, k, s, tail); break;
        default: total += row_count(rows, nslots, k, s, tail);
        }
        /* the next row: the last leading axis moves fastest */
        for (a = nlead - 1; a >= 0; a--) {
            if (++idx[a] < extent[a]) {
                for (j = 0; j < nslots; j++)
                    rows[j] += stride[j * nlead + a];
                break;
            }
            for (j = 0; j < nslots; j++)
                rows[j] -= stride[j * nlead + a] * (extent[a] - 1);
            idx[a] = 0;
        }
        if (a < 0)
            return total;
    }
}
