/* Greedy-Counting (Algorithm 2) for L1 and L2, one source at a time.
 *
 * Compiled at first use by repro/core/native.py and called through
 * ctypes from repro/core/traversal.py, which validates every array
 * (dtype, contiguity, sizes, vertex ids in range) before the call.
 *
 * For each source the walk pops vertices from a FIFO queue, evaluates
 * each unvisited out-neighbor once, counts it when its distance is
 * <= r and enqueues it when it is within r or a pivot (Algorithm 2,
 * lines 13-14).  It stops the moment the count reaches k.
 *
 * The sum below runs in its own order, so a distance can differ in the
 * last bits from numpy's.  The walk therefore flags a source that
 * evaluated a distance within `band` of r, or a power sum that could
 * have overflowed, and the caller re-walks flagged sources with the
 * numpy kernel (docs/margins.md, "Native walk margin").
 *
 * Build with -ffp-contract=off and without fast-math: the per-coordinate
 * terms must round exactly as numpy's do.
 */

#include <stdint.h>
#include <math.h>
#include <float.h>

/* At or below this, no partial sum of the same non-negative terms
 * overflows in any summation order; a larger sum is flagged. */
#define SUM_LIMIT (DBL_MAX / 4.0)

static double power_sum(const double *a, const double *b, int64_t dim, int p)
{
    double s = 0.0;
    int64_t j;
    if (p == 1) {
        for (j = 0; j < dim; j++)
            s += fabs(a[j] - b[j]);
    } else {
        for (j = 0; j < dim; j++) {
            double t = a[j] - b[j];
            s += t * t;
        }
    }
    return s;
}

/* Counts for sources[0..nsrc): counts[t] is the walk's count, equal to
 * k when it stopped there; flagged[t] is 1 when the source must be
 * re-walked.  stamp and queue are n-entry scratch rows; source t uses
 * stamp value epoch + t + 1, so the caller keeps epoch + nsrc below
 * INT32_MAX and never hands out a used value again before clearing
 * the stamps.  Returns the number of distances evaluated. */
int64_t repro_walk_count(
    const double *store, int64_t dim, int p,
    const int64_t *indptr, const int64_t *indices, const uint8_t *pivot,
    const int64_t *sources, int64_t nsrc,
    double r, int64_t k, double band,
    int32_t *stamp, int32_t *queue, int32_t epoch,
    int64_t *counts, uint8_t *flagged)
{
    int64_t pairs = 0;
    int64_t t;
    for (t = 0; t < nsrc; t++) {
        const int32_t mark = epoch + (int32_t)t + 1;
        const int64_t s = sources[t];
        const double *row = store + s * dim;
        int64_t head = 0, tail = 0, count = 0;
        uint8_t flag = 0;
        stamp[s] = mark;
        queue[tail++] = (int32_t)s;
        while (head < tail && count < k) {
            const int64_t v = queue[head++];
            int64_t e;
            for (e = indptr[v]; e < indptr[v + 1]; e++) {
                const int64_t u = indices[e];
                double sum, d;
                if (stamp[u] == mark)
                    continue;
                stamp[u] = mark;
                sum = power_sum(row, store + u * dim, dim, p);
                pairs++;
                if (!(sum <= SUM_LIMIT))
                    flag = 1;
                d = (p == 1) ? sum : sqrt(sum);
                if (fabs(d - r) <= band)
                    flag = 1;
                if (d <= r) {
                    if (++count >= k)
                        break;
                    queue[tail++] = (int32_t)u;
                } else if (pivot[u]) {
                    queue[tail++] = (int32_t)u;
                }
            }
        }
        counts[t] = count;
        flagged[t] = flag;
    }
    return pairs;
}
