/*
 * The kernel's inner loops, compiled on first use by repro/joins/native.py
 * and called through ctypes.
 *
 * count_<t>  searches one ascending run for every needle's joinable bounds
 *            (numpy's searchsorted, side "left" for the low bound and
 *            "right" for the high one), optionally clips each needle to its
 *            segment's slice of the run, and sums the counts per segment:
 *            the body of repro.joins.local.count_regions for one task.
 * merge_<t>  merges key-sorted runs, oldest first, into one counted run in
 *            a single linear pass: repro.streaming.incremental._merge_sorted.
 * offer      offers one batch of entries to a bounded Efraimidis-Spirakis
 *            min-heap held as three parallel arrays (priority, counter,
 *            payload): repro.streaming.incremental.DecayedReservoir.add_batch
 *            (payload: the key) and repro.sampling.reservoir's
 *            WeightedReservoir (payload: the entry's position in the
 *            offered pool), one call per Stream-Sample worker and merge.
 * sweep_rows groups consecutive rows of a column-aggregated sample matrix
 *            so that no candidate block outweighs a threshold: one greedy
 *            sweep of repro.core.coarsening's per-axis threshold search.
 * closure    builds every minimal candidate rectangle MonotonicBSP can
 *            reach from a grid's root, with its child pairs: once per
 *            repro.core.tiling_tables.TilingTables.
 * tile       runs MonotonicBSP's dynamic program over that closure at one
 *            threshold: once per probe of regionalization's search.
 *
 * <t> is f64 (double keys) or i64 (int64_t keys); one macro below writes
 * both.  Every result equals the numpy reference (kept in the test harness,
 * tests/reference_*.py) bit for bit, so the order is numpy's: NaN sorts
 * after everything and NaNs are equal to each other, -0.0 == 0.0, and +-inf
 * are ordinary values.  The inner loops compare with
 * the plain `<`, which agrees with that order on every non-NaN pair: each
 * run's NaN tail is located once, searches run over the part before it, and
 * a NaN bound is answered at the tail's boundary.
 *
 * Counts are summed in uint64_t, so they wrap exactly as numpy's int64 sums
 * do.  Every index read from an input is checked against the array it
 * indexes before anything is written: an out-of-range one makes count_<t>
 * return nonzero having read nothing out of bounds and written nothing, and
 * the caller raises.  closure and tile check each index as they read it,
 * and return -2 at the first one out of range.
 *
 * sweep_rows is the kernel's one floating-point arithmetic (closure is
 * integers only, and tile only compares a rectangle's leaf threshold with
 * delta; the weights are numpy's, summed before the call), and it must
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
 * keys[i] its payload (a key, or a position in Stream-Sample's pool), and
 * the arrays are the list of tuples Python's heapq would hold, entry for
 * entry, because the heap array's order is what the reservoir's keys() and
 * Stream-Sample's with-replacement draw expose.  So every step mirrors CPython's heapq: heappush sifts the new
 * entry down from the end; heapreplace puts it at the root, promotes the
 * smaller child all the way down to a leaf and sifts the entry back up from
 * there (_siftup, then _siftdown).  Entries compare as the tuples do: by
 * priority, ties by counter.  Priorities are never NaN and counters are
 * unique, so the payload is never compared.
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
 * `capacity`: a heapq push / heapreplace loop behind
 * DecayedReservoir.add_batch's batch-start filter (a WeightedReservoir
 * offers several entries only to an empty heap).  When the heap starts
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
 * repro.core.coarsening's feasibility probe.  freq and cand are rows x cols,
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
 * these running sums are exact and agree with the numpy sweep's differences
 * of one prefix sum.  A row overfills when such a column weighs more than
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

/*
 * One round of the closure of MonotonicBSP's child relation: the minimal
 * candidate rectangles reachable from the whole grid's by splitting the
 * rectangles that need it, with their children.  The tables are
 * repro.core.tiling_tables.TilingTables' lookups, in its own
 * (ascending-span) columns: rows/lo/hi hold the `candidates` candidate rows
 * by position with their spans; per grid row, below[r] is the first
 * position at or below it and above[r] the last at or above it; per column,
 * first[c] is the first position whose span ends at or after c and last[c]
 * the last whose span starts at or before it.
 *
 * A rectangle is four int64s (row_lo, row_hi, col_lo, col_hi), given ids in
 * the order they are met; keys[0:count) are those met so far.  With count
 * 0 the round meets the root -- the whole grid shrunk -- as id 0 (or
 * nothing, without a candidate row).  Otherwise it gives each rectangle i
 * of [start, count) for which split[i - start] is set its children, in id
 * order, and none to the others: children[offsets[i]:offsets[i + 1]], one
 * pair per split, each half shrunk, horizontal cuts from the top, then
 * vertical cuts from the left -- the vertical part reversed, entry by
 * entry, when `mirrored` (columns cut from the grid's right, and a pair's
 * first half is the grid's right one).  That is the order the DP tries
 * splits in, and so the order that breaks ties between equally good ones.
 * A half met for the first time takes the next id; the next round decides
 * whether it splits.  Integers only: which rectangles split is the
 * caller's to weigh.
 *
 * keys has room for rect_room rectangles (4 each) and offsets for rect_room
 * + 1 entries; children holds `entries` entries, offsets[start] == entries,
 * and has room for child_room.  Returns 0 with sizes[0] the new count and
 * sizes[1] the new entries, 1 when keys ran out of room and 2 when children
 * did (keys[0:count), offsets[0:start + 1] and children[0:entries) are as
 * they were: grow the full one and call again), -1 when scratch memory
 * could not be had, or -2 when a lookup points outside the table it
 * indexes (the tables are not a monotone grid's).
 */

/* The open-addressed id table.  A rectangle's key packs its four
 * coordinates, 16 bits each (closure refuses a larger grid); a slot holds a
 * key and its id, or id -1 when empty.  At most half the slots are full. */
typedef struct {
    uint64_t key;
    int64_t id;
} Slot;

typedef struct {
    int64_t *keys;   /* the caller's: 4 coordinates per rectangle, by id */
    int64_t count;   /* rectangles met */
    int64_t room;    /* rectangles keys has room for */
    Slot *slots;
    uint64_t mask;   /* the number of slots - 1 */
} Rects;

static uint64_t pack(const int64_t *key)
{
    return (uint64_t)key[0] | (uint64_t)key[1] << 16 | (uint64_t)key[2] << 32
           | (uint64_t)key[3] << 48;
}

static Slot *slot_of(Slot *slots, uint64_t mask, uint64_t key)
{
    /* splitmix64's finalizer: every key bit moves every slot bit. */
    uint64_t at = (key ^ key >> 30) * 0xbf58476d1ce4e5b9u;
    at = (at ^ at >> 27) * 0x94d049bb133111ebu;
    at = (at ^ at >> 31) & mask;
    while (slots[at].id >= 0 && slots[at].key != key)
        at = (at + 1) & mask;
    return slots + at;
}

/* Give the table mask + 1 slots, holding keys[0:count).  0, or -1 when
 * the memory could not be had. */
static int rects_slot(Rects *rects, uint64_t mask)
{
    int64_t id;
    Slot *slots = malloc(((size_t)mask + 1) * sizeof *slots);
    if (!slots)
        return -1;
    memset(slots, 0xff, ((size_t)mask + 1) * sizeof *slots);
    for (id = 0; id < rects->count; id++) {
        uint64_t key = pack(rects->keys + 4 * id);
        Slot *slot = slot_of(slots, mask, key);
        slot->key = key;
        slot->id = id;
    }
    free(rects->slots);
    rects->slots = slots;
    rects->mask = mask;
    return 0;
}

/* The id of rectangle (a, b, c, d), giving it the next one if it is new:
 * -1 when keys has no room for it, -2 when the table could not grow. */
static int64_t rect_id(Rects *rects, int64_t a, int64_t b, int64_t c, int64_t d)
{
    int64_t *held, key[4];
    uint64_t packed;
    Slot *slot;
    key[0] = a;
    key[1] = b;
    key[2] = c;
    key[3] = d;
    packed = pack(key);
    slot = slot_of(rects->slots, rects->mask, packed);
    if (slot->id >= 0)
        return slot->id;
    if (rects->count == rects->room)
        return -1;
    if (2 * (uint64_t)(rects->count + 1) > rects->mask + 1) {
        if (rects_slot(rects, 2 * rects->mask + 1))
            return -2;
        slot = slot_of(rects->slots, rects->mask, packed);
    }
    held = rects->keys + 4 * rects->count;
    memcpy(held, key, sizeof key);
    slot->key = packed;
    slot->id = rects->count;
    return rects->count++;
}

/* Is every lookup a position in [0, candidates) (below and first may also
 * be candidates, above and last -1: no such row), and every span inside
 * the grid's columns? */
static int lookups_fit(const int64_t *rows, const int64_t *lo,
                       const int64_t *hi, int64_t candidates,
                       const int64_t *below, const int64_t *above,
                       int64_t num_rows, const int64_t *first,
                       const int64_t *last, int64_t num_cols)
{
    int64_t i;
    for (i = 0; i < candidates; i++)
        if ((uint64_t)rows[i] >= (uint64_t)num_rows
            || (uint64_t)lo[i] >= (uint64_t)num_cols
            || (uint64_t)hi[i] >= (uint64_t)num_cols)
            return 0;
    for (i = 0; i < num_rows; i++)
        if ((uint64_t)below[i] > (uint64_t)candidates || above[i] < -1
            || above[i] >= candidates)
            return 0;
    for (i = 0; i < num_cols; i++)
        if ((uint64_t)first[i] > (uint64_t)candidates || last[i] < -1
            || last[i] >= candidates)
            return 0;
    return 1;
}

/* Append rectangle (a, b, c, d)'s id to children, or leave the round: 1
 * when keys is full, -1 when the id table could not grow. */
#define CHILD(a, b, c, d)                                                      \
    do {                                                                       \
        int64_t id = rect_id(&rects, a, b, c, d);                              \
        if (id < 0) {                                                          \
            status = id == -1 ? 1 : -1;                                        \
            goto out;                                                          \
        }                                                                      \
        children[entries++] = id;                                              \
    } while (0)

int64_t closure(const int64_t *rows, const int64_t *lo, const int64_t *hi,
                int64_t candidates, const int64_t *below,
                const int64_t *above, int64_t num_rows, const int64_t *first,
                const int64_t *last, int64_t num_cols, int64_t mirrored,
                int64_t *keys, int64_t count, int64_t rect_room,
                const uint8_t *split, int64_t start, int64_t *offsets,
                int64_t *children, int64_t entries, int64_t child_room,
                int64_t *sizes)
{
    Rects rects = {NULL, 0, 0, NULL, 0};
    int64_t i, end = count, status = 0;
    uint64_t mask = 1023;
    if (num_rows < 1 || num_cols < 1 || num_rows > 65536 || num_cols > 65536
        || candidates < 0 || count < 0 || count > rect_room || start < 0
        || start > count || entries < 0 || entries > child_room
        || !lookups_fit(rows, lo, hi, candidates, below, above, num_rows,
                        first, last, num_cols))
        return -2;
    if (count == 0) {
        /* The root: the whole grid shrunk, as TilingTables.shrink does it. */
        int64_t top = below[0] > first[0] ? below[0] : first[0];
        int64_t bottom = above[num_rows - 1] < last[num_cols - 1]
                             ? above[num_rows - 1] : last[num_cols - 1];
        if (top <= bottom) {
            if (rect_room < 1)
                return 1;
            keys[0] = rows[top];
            keys[1] = rows[bottom];
            keys[2] = lo[top];
            keys[3] = hi[bottom];
            count = 1;
        }
        sizes[0] = count;
        sizes[1] = entries;
        return 0;
    }
    /* The id table, rebuilt from the rectangles met so far. */
    for (i = 0; i < count; i++) {
        const int64_t *key = keys + 4 * i;
        if ((uint64_t)key[0] >= (uint64_t)num_rows
            || (uint64_t)key[1] >= (uint64_t)num_rows
            || (uint64_t)key[2] >= (uint64_t)num_cols
            || (uint64_t)key[3] >= (uint64_t)num_cols)
            return -2;
    }
    rects.keys = keys;
    rects.count = count;
    rects.room = rect_room;
    while (mask + 1 < 2 * (uint64_t)count)
        mask = 2 * mask + 1;
    if (rects_slot(&rects, mask))
        return -1;
    for (i = start; i < end; i++) {
        int64_t row_lo = keys[4 * i], row_hi = keys[4 * i + 1];
        int64_t col_lo = keys[4 * i + 2], col_hi = keys[4 * i + 3];
        int64_t row, col, cuts, top, bottom;
        if (row_lo > row_hi || col_lo > col_hi) {
            status = -2;
            goto out;
        }
        if (split[i - start]) {
            if (entries + 2 * (row_hi - row_lo + col_hi - col_lo) > child_room) {
                status = 2;
                goto out;
            }
            top = below[row_lo];
            bottom = above[row_hi];
            /* Above a horizontal cut the rows end at the last candidate
             * row above it, whose span end clips the right column; below
             * it they start at the first candidate row below it, whose
             * span start clips the left column. */
            for (row = row_lo; row < row_hi; row++) {
                int64_t cut_end = above[row], cut_start = below[row + 1];
                if (cut_end < 0 || cut_start >= candidates) {
                    status = -2;
                    goto out;
                }
                CHILD(row_lo, rows[cut_end], col_lo,
                      hi[cut_end] < col_hi ? hi[cut_end] : col_hi);
                CHILD(rows[cut_start], row_hi,
                      lo[cut_start] > col_lo ? lo[cut_start] : col_lo, col_hi);
            }
            /* Left of a vertical cut the rows end at the last one whose
             * span starts left of it, right of it they start at the first
             * whose span ends right of it. */
            cuts = entries;
            for (col = col_lo; col < col_hi; col++) {
                int64_t cut_end = last[col] < bottom ? last[col] : bottom;
                int64_t cut_start = first[col + 1] > top ? first[col + 1] : top;
                if (cut_end < 0 || cut_start >= candidates) {
                    status = -2;
                    goto out;
                }
                CHILD(row_lo, rows[cut_end], col_lo, hi[cut_end] < col ? hi[cut_end] : col);
                CHILD(rows[cut_start], row_hi,
                      lo[cut_start] > col + 1 ? lo[cut_start] : col + 1, col_hi);
            }
            if (mirrored) {
                int64_t left = cuts, right = entries - 1;
                for (; left < right; left++, right--) {
                    int64_t swap = children[left];
                    children[left] = children[right];
                    children[right] = swap;
                }
            }
        }
        offsets[i + 1] = entries;
    }
    sizes[0] = rects.count;
    sizes[1] = entries;
out:
    free(rects.slots);
    return status;
}
#undef CHILD

/*
 * MonotonicBSP's dynamic program at one threshold, over a closure: the
 * fewest regions of weight <= delta covering each rectangle the search
 * from `root` meets.  A rectangle is one region when
 * leaf_thresholds[x] <= delta (its weight, or -inf for a single cell);
 * otherwise it splits, trying its children's pairs in order, solving an
 * unsolved half before going on, keeping the first pair of strictly fewest
 * regions and stopping at the first pair of two (no split does better).
 * The walk keeps its own stack, one frame per rectangle being split.
 *
 * counts and splits have n entries.  On return counts[x] is x's region
 * count (0: never met) and splits[x], for a split x, the offset into
 * children of its best pair (0 for any other).  Returns 0, -1 when the stack could not be
 * had, or -2 when an offset or a child lies outside what it indexes or a
 * rectangle above delta has no pair to split by.
 */
int64_t tile(const int64_t *offsets, const int64_t *children,
             const double *leaf_thresholds, int64_t n, int64_t m,
             int64_t root, double delta, int64_t *counts, int64_t *splits)
{
    /* Per frame: rectangle, next offset, best count, offset of the best. */
    int64_t *stack, depth = 0;
    if ((uint64_t)root >= (uint64_t)n)
        return -2;
    memset(counts, 0, (size_t)n * sizeof *counts);
    memset(splits, 0, (size_t)n * sizeof *splits);
    if (leaf_thresholds[root] <= delta) {
        counts[root] = 1;
        return 0;
    }
    stack = malloc((size_t)n * 4 * sizeof *stack);
    if (!stack)
        return -1;
#define PUSH(x)                                                                \
    do {                                                                       \
        int64_t *frame = stack + 4 * depth++;                                  \
        if (offsets[x] < 0 || offsets[x] > offsets[(x) + 1]                    \
            || offsets[(x) + 1] > m || (offsets[(x) + 1] - offsets[x]) % 2     \
            || offsets[(x) + 1] == offsets[x] || depth > n) {                  \
            free(stack);                                                       \
            return -2;                                                         \
        }                                                                      \
        frame[0] = (x);                                                        \
        frame[1] = offsets[x];                                                 \
        frame[2] = INT64_MAX;                                                  \
        frame[3] = 0;                                                          \
    } while (0)
    PUSH(root);
    while (depth) {
        int64_t *frame = stack + 4 * (depth - 1);
        int64_t rect = frame[0], offset = frame[1], best = frame[2];
        int64_t best_offset = frame[3], end = offsets[rect + 1], unsolved = -1;
        while (offset < end) {
            int64_t first = children[offset], second = children[offset + 1];
            int64_t first_count, second_count;
            if ((uint64_t)first >= (uint64_t)n || (uint64_t)second >= (uint64_t)n) {
                free(stack);
                return -2;
            }
            first_count = counts[first];
            if (!first_count) {
                if (!(leaf_thresholds[first] <= delta)) {
                    unsolved = first;
                    break;
                }
                counts[first] = first_count = 1;
            }
            second_count = counts[second];
            if (!second_count) {
                if (!(leaf_thresholds[second] <= delta)) {
                    unsolved = second;
                    break;
                }
                counts[second] = second_count = 1;
            }
            if (first_count + second_count < best) {
                best = first_count + second_count;
                best_offset = offset;
                if (best == 2)
                    break;
            }
            offset += 2;
        }
        if (unsolved >= 0) {
            /* Solve the half first, then resume this rectangle here. */
            frame[1] = offset;
            frame[2] = best;
            frame[3] = best_offset;
            PUSH(unsolved);
            continue;
        }
        counts[rect] = best;
        splits[rect] = best_offset;
        depth--;
    }
#undef PUSH
    free(stack);
    return 0;
}
