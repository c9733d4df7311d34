/*
 * The kernel's inner loops, compiled on first use by repro/joins/native.py
 * and called through ctypes.
 *
 * count_<t>  searches one ascending run for every needle's joinable bounds
 *            (numpy's searchsorted, side "left" for the low bound and
 *            "right" for the high one) and sums the counts: one task of
 *            repro.joins.local.count_regions, the batch join's per region.
 * count_half_<t>
 *            counts one half of a stream batch against a state owner's
 *            runs: each machine's needles searched in every run it reads,
 *            clipped to its slice of the run and summed into its total.
 *            Two calls per batch (repro.streaming.backends.StateOwner.count),
 *            or two per machine where each machine is timed on its own.
 * merge_<t>  merges key-sorted runs, oldest first, into one counted run in
 *            a single linear pass: repro.streaming.incremental._merge_sorted.
 * offer      offers one batch of entries to a bounded Efraimidis-Spirakis
 *            min-heap held as three parallel arrays (priority, counter,
 *            payload): repro.streaming.incremental.DecayedReservoir.add_batch
 *            (payload: the key) and repro.sampling.reservoir's
 *            WeightedReservoir (payload: the entry's position in the
 *            offered pool), one call per Stream-Sample worker and merge.
 * group_sums sums a sparse matrix's rows by column group as np.add.reduceat
 *            sums its dense form: coarsening's aggregates of the band
 *            sample matrix, a few calls per refinement pass.
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
 * indexes before anything is written: an out-of-range one makes
 * count_half_<t> return nonzero having read nothing out of bounds and
 * written nothing, and the caller raises.  closure and tile check each
 * index as they read it, and return -2 at the first one out of range.
 *
 * group_sums and sweep_rows are the kernel's floating-point arithmetic
 * (closure is integers only, and tile only compares a rectangle's leaf
 * threshold with delta; its weights are numpy's, summed before the call),
 * and they must round as numpy does: every product and sum once, in
 * numpy's order.  So the library is built with -ffp-contract=off.  Otherwise a compiler for a
 * target with fused multiply-add (aarch64, x86-64 with -mfma) may fuse
 * a * b + c * d into one instruction that rounds once where numpy rounds
 * twice, and a block weight lands on the other side of the threshold.
 */

#include <math.h>
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

/* A run count_half_<t> searches: STATE_WORDS words of its table, the
 * run's keys, length and counts (0: every key counts once), the machines
 * reading it and how many there are, and the slice rule each reader reads
 * it through (0: every reader reads it whole): the cut keys (doubles) and
 * their number, and per reader where its slice starts and stops -- an index
 * of the cut keys, their number for 0 or their number + 1 for the run's
 * length. */
#define STATE_WORDS 9

struct state_run {
    const void *keys;
    int64_t size;
    const int64_t *cum, *readers;
    int64_t count;
    const double *cut_keys;
    int64_t cuts;
    const int64_t *first, *last;
};

static struct state_run run_of(const uint64_t *table, int64_t r)
{
    const uint64_t *words = table + STATE_WORDS * r;
    struct state_run run;
    run.keys = (const void *)(uintptr_t)words[0];
    run.size = (int64_t)words[1];
    run.cum = (const int64_t *)(uintptr_t)words[2];
    run.readers = (const int64_t *)(uintptr_t)words[3];
    run.count = (int64_t)words[4];
    run.cut_keys = (const double *)(uintptr_t)words[5];
    run.cuts = (int64_t)words[6];
    run.first = (const int64_t *)(uintptr_t)words[7];
    run.last = (const int64_t *)(uintptr_t)words[8];
    return run;
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
     * One search task: run[0:size) ascends; cum (size + 1 entries) or         \
     * NULL.  lows / highs hold `needles` joinable bounds; out[0] is the       \
     * sum over every needle of its count.                                     \
     */                                                                        \
    void count_##T(const KEY *run, int64_t size, const int64_t *cum,           \
                   const KEY *lows, const KEY *highs, int64_t needles,         \
                   int64_t *out)                                               \
    {                                                                          \
        int64_t tail = nan_tail_##T(run, size), lo = 0, hi = 0, j;             \
        uint64_t sum = 0;                                                      \
        for (j = 0; j < needles; j++) {                                        \
            KEY low = lows[j], high = highs[j];                                \
            lo = IS_NAN(low) ? tail : lower_##T(run, tail, low, lo);           \
            hi = IS_NAN(high) ? size : upper_##T(run, tail, high, hi);         \
            sum += SPAN(cum, lo, hi);                                          \
        }                                                                      \
        out[0] = (int64_t)sum;                                                 \
    }                                                                          \
                                                                               \
    /*                                                                         \
     * Where the slice rule cuts ascending keys at a cut key c: the first      \
     * position whose key, as a double, is not below c (numpy's searchsorted   \
     * of the keys' float64 view, side "left"), NaNs sorting last.             \
     */                                                                        \
    static int64_t cut_##T(const KEY *keys, int64_t tail, double c)            \
    {                                                                          \
        int64_t lo = 0, hi = tail;                                             \
        while (lo < hi) {                                                      \
            int64_t mid = lo + (hi - lo) / 2;                                  \
            if ((double)keys[mid] < c)                                         \
                lo = mid + 1;                                                  \
            else                                                               \
                hi = mid;                                                      \
        }                                                                      \
        return lo;                                                             \
    }                                                                          \
                                                                               \
    /* A reader's slice bound: cut `at` of the run, or 0, or its length. */    \
    static int64_t bound_##T(const KEY *keys, int64_t size, int64_t tail,      \
                             const double *cut_keys, int64_t cuts, int64_t at) \
    {                                                                          \
        if (at < cuts)                                                         \
            return cut_##T(keys, tail, cut_keys[at]);                          \
        return at == cuts ? 0 : size;                                          \
    }                                                                          \
                                                                               \
    /*                                                                         \
     * One half of a stream batch's count, every machine's total at once.      \
     * lows / highs hold the joinable bounds of `needles` routed keys, and     \
     * machine m's share of them is [starts[m], stops[m]).  The table has      \
     * STATE_WORDS words per searched run (see run_of).  Each reader's         \
     * needles are searched in the run, each answer clipped to the reader's    \
     * slice of the run, and the counts added to out[reader].  Returns 0,      \
     * or, having written nothing: 1 for a reader that is no machine, 2 for    \
     * a share outside the needles, 3 for a slice bound that indexes no cut.   \
     */                                                                        \
    int count_half_##T(const KEY *lows, const KEY *highs, int64_t needles,     \
                        const int64_t *starts, const int64_t *stops,           \
                        int64_t machines, int64_t runs,                        \
                        const uint64_t *table, int64_t *out)                   \
    {                                                                          \
        int64_t r, i, j;                                                       \
        /* Every index is checked before anything is read through it. */       \
        for (r = 0; r < runs; r++) {                                           \
            struct state_run run = run_of(table, r);                           \
            for (i = 0; i < run.count; i++) {                                  \
                int64_t m = run.readers[i];                                    \
                if ((uint64_t)m >= (uint64_t)machines)                         \
                    return 1;                                                  \
                if ((uint64_t)starts[m] > (uint64_t)needles                    \
                    || (uint64_t)stops[m] > (uint64_t)needles)                 \
                    return 2;                                                  \
                if (run.cut_keys                                               \
                    && ((uint64_t)run.first[i] > (uint64_t)run.cuts + 1        \
                        || (uint64_t)run.last[i] > (uint64_t)run.cuts + 1))    \
                    return 3;                                                  \
            }                                                                  \
        }                                                                      \
        for (r = 0; r < runs; r++) {                                           \
            struct state_run run = run_of(table, r);                           \
            const KEY *keys = (const KEY *)run.keys;                           \
            int64_t size = run.size, tail = nan_tail_##T(keys, size);          \
            int64_t lo = 0, hi = 0;                                            \
            for (i = 0; i < run.count; i++) {                                  \
                int64_t m = run.readers[i], first = 0, last = size;            \
                uint64_t sum = 0;                                              \
                if (run.cut_keys) {                                            \
                    first = bound_##T(keys, size, tail, run.cut_keys, run.cuts,\
                                      run.first[i]);                           \
                    last = bound_##T(keys, size, tail, run.cut_keys, run.cuts, \
                                     run.last[i]);                             \
                }                                                              \
                for (j = starts[m]; j < stops[m]; j++) {                       \
                    KEY low = lows[j], high = highs[j];                        \
                    int64_t a, b;                                              \
                    lo = IS_NAN(low) ? tail : lower_##T(keys, tail, low, lo);  \
                    hi = IS_NAN(high) ? size : upper_##T(keys, tail, high, hi);\
                    a = lo < first ? first : lo;                               \
                    b = hi > last ? last : hi;                                 \
                    if (b > a)                                                 \
                        sum += SPAN(run.cum, a, b);                            \
                }                                                              \
                out[m] = (int64_t)((uint64_t)out[m] + sum);                    \
            }                                                                  \
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
 * The exact inverse of a band's rounded bounds.  From the R1 side the band
 * test is fl(k1 - beta) <= k2 <= fl(k1 + beta); from the R2 side it is
 * L(k2) <= k1 <= U(k2), where L(k) is the smallest double x with
 * fl(x + beta) >= k and U(k) the largest with fl(x - beta) <= k.  Rounding
 * is monotone, so each is one value, and fl(k -+ beta) lies within a few
 * ulps of it unless k's ulp is far finer than the sum's (k near zero, a
 * wide band): NUDGES single-ulp steps settle the common case, and a key
 * they do not settle is bisected over the doubles' ordinals, whose range
 * spans fewer than 2**65 of them, so 66 halvings close it.  Steps move the
 * bits (nextafter toward +-inf), so nothing overflows: the step above the
 * largest double is +inf, and +-inf step no further outward.
 */
#define NUDGES 4
#define HALVINGS 66

/* An order-preserving int64 image of a double (both zeros are 0), and back. */
static int64_t ordinal_of(double x)
{
    int64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return bits >= 0 ? bits : INT64_MIN - bits;
}

static double from_ordinal(int64_t ordinal)
{
    int64_t bits = ordinal >= 0 ? ordinal : INT64_MIN - ordinal;
    double x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* nextafter(x, up ? +inf : -inf) for a double that is not NaN. */
static double step(double x, int up)
{
    uint64_t bits;
    if (x == 0.0)
        bits = up ? 1 : UINT64_C(0x8000000000000001);
    else {
        memcpy(&bits, &x, sizeof bits);
        if ((x > 0.0) != up)
            bits -= 1; /* toward zero */
        else if (!isinf(x))
            bits += 1; /* away from zero, at most to +-inf */
    }
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* L(k): the smallest x with fl(x + beta) >= k. */
static double lower_inverse(double k, double beta)
{
    double x = k - beta;
    int64_t lo, hi, i;
    for (i = 0; i < NUDGES; i++) {
        if (x + beta < k)
            x = step(x, 1);
        else if (step(x, 0) + beta >= k)
            x = step(x, 0);
        else
            return x;
    }
    if (x + beta >= k && step(x, 0) + beta < k)
        return x;
    lo = ordinal_of(-INFINITY);
    hi = ordinal_of(k);
    for (i = 0; i < HALVINGS; i++) {
        int64_t mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1);
        if (from_ordinal(mid) + beta >= k)
            hi = mid;
        else
            lo = mid;
    }
    return from_ordinal(hi);
}

/* U(k): the largest x with fl(x - beta) <= k. */
static double upper_inverse(double k, double beta)
{
    double x = k + beta;
    int64_t lo, hi, i;
    for (i = 0; i < NUDGES; i++) {
        if (x - beta > k)
            x = step(x, 0);
        else if (step(x, 1) - beta <= k)
            x = step(x, 1);
        else
            return x;
    }
    if (x - beta <= k && step(x, 1) - beta > k)
        return x;
    lo = ordinal_of(k);
    hi = ordinal_of(INFINITY);
    for (i = 0; i < HALVINGS; i++) {
        int64_t mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1);
        if (from_ordinal(mid) - beta <= k)
            lo = mid;
        else
            hi = mid;
    }
    return from_ordinal(lo);
}

/* lows[i] = L(keys[i]) and highs[i] = U(keys[i]), for keys that are not NaN. */
void band_inverse(const double *keys, int64_t size, double beta, double *lows,
                  double *highs)
{
    int64_t i;
    for (i = 0; i < size; i++) {
        lows[i] = lower_inverse(keys[i], beta);
        highs[i] = upper_inverse(keys[i], beta);
    }
}

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
 * numpy's pairwise sum (pairwise_sum_DOUBLE in its umath loops) of the n
 * dense values at positions [p, p + n) of a sparse row, whose nonzero
 * entries are index[e0:e1) (ascending, every one inside) with their values.
 * Below 8 values numpy adds them in order to 0.0; up to 128 it keeps eight
 * lanes (position i in lane i % 8) over the first n - n % 8 positions,
 * combines them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and
 * adds the rest in order; above that it splits at n / 2 rounded down to a
 * multiple of 8.  The values are non-negative, so a zero left out adds
 * 0.0 exactly: walking the entries through the same tree is the same sum.
 */
static double pairwise(const int64_t *index, const double *value, int64_t e0,
                       int64_t e1, int64_t p, int64_t n)
{
    int64_t e, half, lo, hi;
    if (e0 == e1)
        return 0.0;
    if (n < 8) {
        double res = 0.0;
        for (e = e0; e < e1; e++)
            res += value[e];
        return res;
    }
    if (n <= 128) {
        double r[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, res;
        int64_t blocked = p + n - n % 8;
        for (e = e0; e < e1 && index[e] < blocked; e++)
            r[(index[e] - p) % 8] += value[e];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; e < e1; e++)
            res += value[e];
        return res;
    }
    half = n / 2;
    half -= half % 8;
    /* The first entry at or after the split. */
    lo = e0;
    hi = e1;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (index[mid] < p + half)
            lo = mid + 1;
        else
            hi = mid;
    }
    return pairwise(index, value, e0, lo, p, half)
           + pairwise(index, value, lo, e1, p + half, n - half);
}

/*
 * A sparse matrix's sums by column group, as np.add.reduceat sums its dense
 * form along the columns: coarsening's aggregates of the band sample
 * matrix, row-major (entries sorted by row, then column) or column-major.
 * Row m holds the entries ptr[m]..ptr[m + 1] of index (their columns,
 * ascending) and value (non-negative); group g covers columns
 * bounds[g]..bounds[g + 1], with bounds[0] = 0 and bounds[groups] the column
 * count.  reduceat copies a segment's first value and adds numpy's pairwise
 * sum of the rest to it, so out[m * groups + g] is that first value (0.0
 * without an entry there) plus pairwise() of the rest, and equals the dense
 * reduceat bit for bit on either axis and any stride.
 *
 * Writes all rows x groups sums.  Returns 0, or -2 (out untouched past the
 * row it stopped at) when ptr does not run from 0 up to entries, a row's
 * columns are not ascending inside [0, bounds[groups]), or the bounds do
 * not rise from 0.
 */
int64_t group_sums(const int64_t *ptr, const int64_t *index,
                   const double *value, int64_t rows, int64_t entries,
                   const int64_t *bounds, int64_t groups, double *out)
{
    int64_t m, g, e;
    if (rows < 0 || groups < 1 || bounds[0] != 0 || ptr[0] != 0
        || ptr[rows] != entries)
        return -2;
    for (g = 0; g < groups; g++)
        if (bounds[g + 1] <= bounds[g])
            return -2;
    for (m = 0; m < rows; m++) {
        int64_t start = ptr[m], stop = ptr[m + 1];
        if (stop < start || stop > entries)
            return -2;
        for (e = start; e < stop; e++)
            if (index[e] < (e > start ? index[e - 1] + 1 : 0)
                || index[e] >= bounds[groups])
                return -2;
        e = start;
        for (g = 0; g < groups; g++) {
            int64_t p = bounds[g], end = bounds[g + 1], rest;
            double head = 0.0;
            if (e < stop && index[e] == p)
                head = value[e++];
            rest = e;
            while (e < stop && index[e] < end)
                e++;
            /* A one-column segment is its first value, nothing added. */
            out[m * groups + g] =
                end - p > 1 ? head + pairwise(index, value, rest, e, p + 1, end - p - 1)
                            : head;
        }
    }
    return 0;
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
