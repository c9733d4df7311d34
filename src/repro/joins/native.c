/*
 * The kernel's four inner loops, compiled on first use by
 * repro/joins/native.py and called through ctypes.
 *
 * count_<t>  searches one ascending run for every needle's joinable bounds
 *            (numpy's searchsorted, side "left" for the low bound and
 *            "right" for the high one), optionally clips each needle to its
 *            segment's slice of the run, and sums the counts per segment:
 *            the body of repro.joins.local.count_regions for one task.
 * merge_<t>  merges key-sorted runs, oldest first, into one counted run in
 *            a single linear pass: repro.streaming.incremental._merge_sorted.
 * offer      offers one batch of entries to a bounded Efraimidis-Spirakis
 *            min-heap held as three parallel arrays:
 *            repro.streaming.incremental.DecayedReservoir.add_batch.
 * sweep_rows groups consecutive rows of a column-aggregated sample matrix
 *            so that no candidate block outweighs a threshold: one greedy
 *            sweep of repro.core.coarsening._sweep_rows.
 *
 * <t> is f64 (double keys) or i64 (int64_t keys); one macro below writes
 * both.  Every result equals the numpy reference bit for bit, so the order
 * is numpy's: NaN sorts after everything and NaNs are equal to each other,
 * -0.0 == 0.0, and +-inf are ordinary values.  The inner loops compare with
 * the plain `<`, which agrees with that order on every non-NaN pair: each
 * run's NaN tail is located once, searches run over the part before it, and
 * a NaN bound is answered at the tail's boundary.
 *
 * Counts are summed in uint64_t, so they wrap exactly as numpy's int64 sums
 * do.  Every index read from an input is checked against the array it
 * indexes before anything is written: an out-of-range one makes count_<t>
 * return nonzero having read nothing out of bounds and written nothing, and
 * the caller counts with numpy instead.
 *
 * sweep_rows is the kernel's one floating-point arithmetic, and it must
 * round as numpy does: every product and sum once, in numpy's order.  So
 * the library is built with -ffp-contract=off.  Otherwise a compiler for a
 * target with fused multiply-add (aarch64, x86-64 with -mfma) may fuse
 * a * b + c * d into one instruction that rounds once where numpy rounds
 * twice, and a block weight lands on the other side of the threshold.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FLOAT_IS_NAN(x) ((x) != (x))
#define NEVER_NAN(x) ((void)(x), 0)

/* A needle's count between run positions lo and hi: cum[hi] - cum[lo] for
 * a counted run, hi - lo when every key counts once (cum NULL). */
#define SPAN(cum, lo, hi)                                                      \
    ((cum) ? (uint64_t)(cum)[hi] - (uint64_t)(cum)[lo]                         \
           : (uint64_t)(hi) - (uint64_t)(lo))

/* Run r's counts (NULL: every key counts once) and length, out of a merge's
 * table: three words per run, its keys' address, its length, its counts'
 * address. */
static const int64_t *cum_of(const uint64_t *table, int64_t r)
{
    return (const int64_t *)(uintptr_t)table[3 * r + 2];
}

static int64_t size_of(const uint64_t *table, int64_t r)
{
    return (int64_t)table[3 * r + 1];
}

/* Element x lies before the answer of a left search for v (x < v), or of a
 * right search (x <= v, written so that it needs only `<`). */
#define BEFORE_LEFT(x, v) ((x) < (v))
#define BEFORE_RIGHT(x, v) (!((v) < (x)))

/*
 * The first i in [0, size) whose keys[i] is not BEFORE v, or size, for
 * keys ascending and free of NaN.  It gallops from `from` (the previous
 * needle's answer) in whichever direction the answer lies, then bisects,
 * so sorted needles cost O(log gap) each and any order stays exact.
 */
#define GALLOP(NAME, KEY, BEFORE)                                              \
    static int64_t NAME(const KEY *keys, int64_t size, KEY v, int64_t from)    \
    {                                                                          \
        int64_t lo, hi, step = 1;                                              \
        if (from > size)                                                       \
            from = size;                                                       \
        if (from < size && BEFORE(keys[from], v)) {                            \
            /* Right of from: keys[lo - 1] is before v. */                     \
            lo = hi = from + 1;                                                \
            while (hi < size && BEFORE(keys[hi], v)) {                         \
                lo = hi + 1;                                                   \
                hi = size - hi > step ? hi + step : size;                      \
                step *= 2;                                                     \
            }                                                                  \
        } else {                                                               \
            /* At or left of from: keys[hi] is not before v, or hi == size. */ \
            lo = hi = from;                                                    \
            while (lo > 0 && !BEFORE(keys[lo - 1], v)) {                       \
                hi = lo - 1;                                                   \
                lo = hi > step ? hi - step : 0;                                \
                step *= 2;                                                     \
            }                                                                  \
        }                                                                      \
        while (lo < hi) {                                                      \
            int64_t mid = lo + (hi - lo) / 2;                                  \
            if (BEFORE(keys[mid], v))                                          \
                lo = mid + 1;                                                  \
            else                                                               \
                hi = mid;                                                      \
        }                                                                      \
        return lo;                                                             \
    }

#define KERNELS(T, KEY, IS_NAN)                                                \
                                                                               \
    GALLOP(lower_##T, KEY, BEFORE_LEFT)                                        \
    GALLOP(upper_##T, KEY, BEFORE_RIGHT)                                       \
                                                                               \
    /* Where the NaN tail of ascending keys begins (size if there is none). */ \
    static int64_t nan_tail_##T(const KEY *keys, int64_t size)                 \
    {                                                                          \
        int64_t lo = 0, hi = size;                                             \
        if (size == 0 || !IS_NAN(keys[size - 1]))                              \
            return size;                                                       \
        while (lo < hi) {                                                      \
            int64_t mid = lo + (hi - lo) / 2;                                  \
            if (IS_NAN(keys[mid]))                                             \
                hi = mid;                                                      \
            else                                                               \
                lo = mid + 1;                                                  \
        }                                                                      \
        return lo;                                                             \
    }                                                                          \
                                                                               \
    /*                                                                         \
     * One task of count_regions.  run[0:size) ascends; cum (size + 1          \
     * entries) or NULL.  lows / highs hold `needles` joinable bounds.         \
     * Unclipped (picked NULL): out[0] is the sum over every needle of its     \
     * count.  Clipped: gathered needle j is needle picked[j] of segment       \
     * segment[j]; its positions are clipped to [clip_lows[s],                 \
     * clip_highs[s]) when clip_lows is given, and out[s] sums segment s for   \
     * s in [0, segments).  Returns 0, or 1 on an index out of range.          \
     */                                                                        \
    int count_##T(const KEY *run, int64_t size, const int64_t *cum,            \
                  const KEY *lows, const KEY *highs, int64_t needles,          \
                  const int64_t *picked, const int64_t *segment,               \
                  int64_t gathered, const int64_t *clip_lows,                  \
                  const int64_t *clip_highs, int64_t segments, int64_t *out)   \
    {                                                                          \
        int64_t tail = nan_tail_##T(run, size), lo = 0, hi = 0, j;             \
        uint64_t sum = 0;                                                      \
        if (!picked) {                                                         \
            for (j = 0; j < needles; j++) {                                    \
                KEY low = lows[j], high = highs[j];                            \
                lo = IS_NAN(low) ? tail : lower_##T(run, tail, low, lo);       \
                hi = IS_NAN(high) ? size : upper_##T(run, tail, high, hi);     \
                sum += SPAN(cum, lo, hi);                                      \
            }                                                                  \
            out[0] = (int64_t)sum;                                             \
            return 0;                                                          \
        }                                                                      \
        /* Every index is checked before anything is read through it. */       \
        for (j = 0; j < gathered; j++)                                         \
            if ((uint64_t)picked[j] >= (uint64_t)needles                       \
                || (uint64_t)segment[j] >= (uint64_t)segments)                 \
                return 1;                                                      \
        for (j = 0; clip_lows && j < segments; j++)                            \
            if ((uint64_t)clip_lows[j] > (uint64_t)size                        \
                || (uint64_t)clip_highs[j] > (uint64_t)size)                   \
                return 1;                                                      \
        for (j = 0; j < segments; j++)                                         \
            out[j] = 0;                                                        \
        for (j = 0; j < gathered; j++) {                                       \
            int64_t s = segment[j], a, b;                                      \
            KEY low = lows[picked[j]], high = highs[picked[j]];                \
            lo = IS_NAN(low) ? tail : lower_##T(run, tail, low, lo);           \
            hi = IS_NAN(high) ? size : upper_##T(run, tail, high, hi);         \
            a = lo;                                                            \
            b = hi;                                                            \
            if (clip_lows) {                                                   \
                if (a < clip_lows[s])                                          \
                    a = clip_lows[s];                                          \
                if (b > clip_highs[s])                                         \
                    b = clip_highs[s];                                         \
                if (b < a)                                                     \
                    b = a;                                                     \
            }                                                                  \
            out[s] = (int64_t)((uint64_t)out[s] + SPAN(cum, a, b));            \
        }                                                                      \
        return 0;                                                              \
    }                                                                          \
                                                                               \
    /* Run r's keys, out of a merge's table. */                                \
    static const KEY *keys_##T(const uint64_t *table, int64_t r)               \
    {                                                                          \
        return (const KEY *)(uintptr_t)table[3 * r];                           \
    }                                                                          \
                                                                               \
    /* Emit keys[start:stop) of a run no other run shares these keys with:     \
     * one entry per stretch of equal keys, its last key kept. */              \
    static int64_t alone_##T(const KEY *keys, const int64_t *cum,              \
                             int64_t start, int64_t stop, KEY *out_keys,       \
                             int64_t *out_cum, int64_t m, uint64_t *total)     \
    {                                                                          \
        while (start < stop) {                                                 \
            int64_t end = start + 1;                                           \
            uint64_t count;                                                    \
            while (end < stop && !(keys[start] < keys[end]))                   \
                end++;                                                         \
            count = SPAN(cum, start, end);                                     \
            if (count) {                                                       \
                out_keys[m] = keys[end - 1];                                   \
                *total += count;                                               \
                out_cum[++m] = (int64_t)*total;                                \
            }                                                                  \
            start = end;                                                       \
        }                                                                      \
        return m;                                                              \
    }                                                                          \
                                                                               \
    /*                                                                         \
     * Merge `runs` ascending runs, oldest first, into one counted run.        \
     * table[3 r] is run r's key address, table[3 r + 1] its length and        \
     * table[3 r + 2] its cum address (0: every key counts once).  Equal keys  \
     * become one entry -- all NaNs one -- whose count is the sum of their     \
     * multiplicities, keeping the key that comes last in (run, position)      \
     * order; zero counts are dropped.  out_keys holds room for every key,     \
     * out_cum one more.  Returns the entries written (out_cum[0] = 0), or -1  \
     * if scratch memory could not be had.                                     \
     */                                                                        \
    int64_t merge_##T(int64_t runs, const uint64_t *table, KEY *out_keys,      \
                      int64_t *out_cum)                                        \
    {                                                                          \
        /* at[r]: run r's next position; tails[r]: where its NaNs begin. */    \
        int64_t *at = malloc(2 * (size_t)(runs > 0 ? runs : 1) * sizeof *at);  \
        int64_t *tails, m = 0, r;                                              \
        uint64_t total = 0, nans = 0;                                          \
        const KEY *last = NULL;                                                \
        if (!at)                                                               \
            return -1;                                                         \
        tails = at + runs;                                                     \
        out_cum[0] = 0;                                                        \
        for (r = 0; r < runs; r++) {                                           \
            at[r] = 0;                                                         \
            tails[r] = nan_tail_##T(keys_##T(table, r), size_of(table, r));    \
        }                                                                      \
        for (;;) {                                                             \
            /* The run with the smallest head (the oldest on a tie), and the   \
             * one with the next smallest. */                                  \
            int64_t first = -1, second = -1, stop;                             \
            const KEY *keys;                                                   \
            KEY head;                                                          \
            uint64_t count = 0;                                                \
            for (r = 0; r < runs; r++) {                                       \
                if (at[r] == tails[r])                                         \
                    continue;                                                  \
                head = keys_##T(table, r)[at[r]];                              \
                if (first < 0 || head < keys_##T(table, first)[at[first]]) {   \
                    second = first;                                            \
                    first = r;                                                 \
                } else if (second < 0                                          \
                           || head < keys_##T(table, second)[at[second]]) {    \
                    second = r;                                                \
                }                                                              \
            }                                                                  \
            if (first < 0)                                                     \
                break;                                                         \
            /* What the first run holds below every other head is its own. */  \
            keys = keys_##T(table, first);                                     \
            stop = tails[first];                                               \
            if (second >= 0) {                                                 \
                head = keys_##T(table, second)[at[second]];                    \
                stop = lower_##T(keys, stop, head, at[first]);                 \
            }                                                                  \
            if (stop > at[first]) {                                            \
                m = alone_##T(keys, cum_of(table, first),                      \
                              at[first], stop, out_keys, out_cum, m, &total);  \
                at[first] = stop;                                              \
                continue;                                                      \
            }                                                                  \
            /* A key several runs hold: take it from each, oldest first. */    \
            head = keys[at[first]];                                            \
            for (r = 0; r < runs; r++) {                                       \
                const int64_t *cum = cum_of(table, r);                         \
                int64_t end = at[r];                                           \
                keys = keys_##T(table, r);                                     \
                while (end < tails[r] && !(head < keys[end]))                  \
                    end++;                                                     \
                if (end > at[r]) {                                             \
                    count += SPAN(cum, at[r], end);                            \
                    last = keys + end - 1;                                     \
                    at[r] = end;                                               \
                }                                                              \
            }                                                                  \
            if (count) {                                                       \
                out_keys[m] = *last;                                           \
                total += count;                                                \
                out_cum[++m] = (int64_t)total;                                 \
            }                                                                  \
        }                                                                      \
        /* The NaNs, one entry after everything else. */                       \
        for (r = 0; r < runs; r++) {                                           \
            const int64_t *cum = cum_of(table, r);                             \
            int64_t size = size_of(table, r);                                  \
            if (tails[r] < size) {                                             \
                nans += SPAN(cum, tails[r], size);                             \
                last = keys_##T(table, r) + size - 1;                          \
            }                                                                  \
        }                                                                      \
        if (nans) {                                                            \
            out_keys[m] = *last;                                               \
            total += nans;                                                     \
            out_cum[++m] = (int64_t)total;                                     \
        }                                                                      \
        free(at);                                                              \
        return m;                                                              \
    }

KERNELS(f64, double, FLOAT_IS_NAN)
KERNELS(i64, int64_t, NEVER_NAN)

/*
 * The reservoir heap.  Entry i is (priorities[i], counters[i], keys[i]),
 * and the arrays are the list of tuples Python's heapq would hold, entry
 * for entry, because the heap array's order is what the reservoir's keys()
 * exposes.  So every step mirrors CPython's heapq: heappush sifts the new
 * entry down from the end; heapreplace puts it at the root, promotes the
 * smaller child all the way down to a leaf and sifts the entry back up from
 * there (_siftup, then _siftdown).  Entries compare as the tuples do: by
 * priority, ties by counter.  Priorities are never NaN and counters are
 * unique, so the key is never compared.
 */
static int before(double priority, int64_t counter, double other_priority,
                  int64_t other_counter)
{
    return priority < other_priority
           || (priority == other_priority && counter < other_counter);
}

/* heapq's _siftdown: the entry at pos moves up past every parent it sorts
 * before, stopping at start. */
static void sift_down(double *priorities, int64_t *counters, double *keys,
                      int64_t start, int64_t pos)
{
    double priority = priorities[pos], key = keys[pos];
    int64_t counter = counters[pos];
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (!before(priority, counter, priorities[parent], counters[parent]))
            break;
        priorities[pos] = priorities[parent];
        counters[pos] = counters[parent];
        keys[pos] = keys[parent];
        pos = parent;
    }
    priorities[pos] = priority;
    counters[pos] = counter;
    keys[pos] = key;
}

/* heapq's _siftup from the root of a heap of `end` entries. */
static void sift_up(double *priorities, int64_t *counters, double *keys,
                    int64_t end)
{
    double priority = priorities[0], key = keys[0];
    int64_t counter = counters[0], pos = 0, child;
    while (pos < end >> 1) {
        child = 2 * pos + 1;
        if (child + 1 < end
            && !before(priorities[child], counters[child],
                       priorities[child + 1], counters[child + 1]))
            child++;
        priorities[pos] = priorities[child];
        counters[pos] = counters[child];
        keys[pos] = keys[child];
        pos = child;
    }
    priorities[pos] = priority;
    counters[pos] = counter;
    keys[pos] = key;
    sift_down(priorities, counters, keys, 0, pos);
}

/*
 * Offer n entries, in order, to a heap of `size` entries and room for
 * `capacity`: repro.sampling.reservoir.offer_entries behind
 * DecayedReservoir.add_batch's batch-start filter.  When the heap starts
 * the batch full, only entries whose priority is above its minimum at that
 * moment take a counter; otherwise every entry does.  An entry with a
 * counter is pushed while the heap holds fewer than `capacity`, and
 * afterwards replaces the minimum when its priority is strictly larger.
 * The arrays must hold room for min(capacity, size + n) entries.  Returns
 * the next unused counter, or -1 (nothing written) unless 0 <= size <=
 * capacity, 0 < capacity and 0 <= counter.
 */
int64_t offer(double *priorities, int64_t *counters, double *keys,
              int64_t size, int64_t capacity, int64_t counter,
              const double *new_priorities, const double *new_keys, int64_t n)
{
    int64_t i;
    int full;
    double floor;
    if (capacity <= 0 || size < 0 || size > capacity || counter < 0)
        return -1;
    full = size == capacity;
    floor = full ? priorities[0] : 0.0;
    for (i = 0; i < n; i++) {
        double priority = new_priorities[i];
        if (full && !(priority > floor))
            continue;
        if (size < capacity) {
            priorities[size] = priority;
            counters[size] = counter;
            keys[size] = new_keys[i];
            sift_down(priorities, counters, keys, 0, size);
            size++;
        } else if (priority > priorities[0]) {
            priorities[0] = priority;
            counters[0] = counter;
            keys[0] = new_keys[i];
            sift_up(priorities, counters, keys, size);
        }
        counter++;
    }
    return counter;
}

/*
 * One greedy sweep of coarsening's per-axis threshold search:
 * repro.core.coarsening._sweep_rows.  freq and cand are rows x cols,
 * row-major: each row's output frequency and candidate count per column
 * group; row_input has rows entries and col_input cols.  A group takes rows
 * while each column's block -- the group's rows in that column -- weighs
 *
 *     w_i * (input + col_input[g]) + w_o * freq[g]
 *
 * at most `threshold`, where input and freq[g] are running sums from the
 * group's first row, added in row order (np.cumsum's order).  Only a column
 * whose candidate count since the group opened is above 0 is compared.
 * Counts are whole and non-negative (reduceat sums of a boolean mask), so
 * these running sums are exact and agree with _sweep_rows's differences of
 * one prefix sum.  A row overfills when such a column weighs more than
 * threshold and none of them weighs NaN (numpy's max of the row is then
 * NaN, never above).  An overfilling row met while the group's input is 0.0
 * and no candidate has been seen is taken anyway (the row that opens a
 * group always is); any other closes the group before it, and the next
 * group opens there.
 *
 * out has room for max_groups + 1 entries.  Returns the boundaries
 * written -- out[0] = 0, one per group start, out[last] = rows -- or 0 when
 * more than max_groups groups are needed, or -1 (nothing computed) unless
 * 1 <= max_groups and scratch memory could be had.
 */
int64_t sweep_rows(const double *freq, const double *cand,
                   const double *row_input, const double *col_input,
                   int64_t rows, int64_t cols, double w_i, double w_o,
                   double threshold, int64_t max_groups, int64_t *out)
{
    /* The group's block frequencies and candidate counts so far. */
    double *sums, *counts, input = 0.0;
    int64_t row = 0, m = 1, g;
    int seen = 0;
    if (max_groups < 1)
        return -1;
    sums = calloc(2 * (size_t)(cols > 0 ? cols : 1), sizeof *sums);
    if (!sums)
        return -1;
    counts = sums + cols;
    out[0] = 0;
    while (row < rows) {
        const double *f = freq + row * cols, *c = cand + row * cols;
        double after = input + row_input[row];
        int over = 0, nan = 0, seen_after = 0;
        for (g = 0; g < cols; g++) {
            sums[g] += f[g];
            counts[g] += c[g];
            if (counts[g] > 0) {
                double weight = w_i * (after + col_input[g]) + w_o * sums[g];
                seen_after = 1;
                if (weight != weight)
                    nan = 1;
                else if (weight > threshold)
                    over = 1;
            }
        }
        if (over && !nan && (input != 0.0 || seen)) {
            /* Close the group before this row; the row opens the next. */
            if (m >= max_groups) {
                free(sums);
                return 0;
            }
            out[m++] = row;
            memset(sums, 0, 2 * (size_t)cols * sizeof *sums);
            input = 0.0;
            seen = 0;
            continue;
        }
        input = after;
        seen = seen_after;
        row++;
    }
    out[m++] = rows;
    free(sums);
    return m;
}
