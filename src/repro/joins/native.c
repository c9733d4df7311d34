/*
 * The kernel's inner loops, as the CPython extension module
 * repro.joins._native: compiled on first use by repro/joins/native.py and
 * loaded as any extension module is.
 *
 * fold       a stream batch's state work and count in one call: each merge
 *            cascade the batch's arrivals start (the runs of a group they
 *            fold into, merged into one counted run), then each half of the
 *            count -- routed needles searched in the runs of every group
 *            they meet (numpy's searchsorted, side "left" for the low bound
 *            and "right" for the high one), each answer clipped to every
 *            reader's slice of the run and summed into its total.  One call
 *            per stream batch (one per machine where each machine is timed
 *            on its own), one with a half and no merge per batch join (the
 *            first half of a batch into empty state) and pool task, one with
 *            a merge and no half for repro.streaming.incremental's appends.
 * band_inverse  the transposed band's exact inverse bounds.
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
 * search     numpy's searchsorted of needles into ascending keys: the plan
 *            build's searches (bucket_index, Stream-Sample's d2equi windows
 *            and job 3, the with-replacement draw).
 * spans      each grid row's candidate columns by bisection on the join
 *            condition's rule: the sample matrix's band, once per
 *            histogram pair of a plan build.
 *
 * The file is in two parts.  The first is the loops, in plain C over
 * pointers and lengths.  The second (at the end) is the module: one
 * function per entry point, which takes the numpy arrays as objects and
 * passes each through one check, take() -- an ndarray, of the dtype its
 * loop reads in native byte order, C-contiguous and aligned, writable
 * where the loop writes it -- then checks sizes and index ranges itself.
 * A refusal is a TypeError (an object or a dtype) or a ValueError (a
 * layout, a size, an index) that starts with the entry point's name; an
 * object, dtype or layout refusal reads "<entry>: <argument> is <found>,
 * not <expected>".  Nothing is written before every check has passed;
 * then the entry point releases the GIL around the loop it calls (a loop
 * that cannot have its scratch memory raises MemoryError).
 *
 * Keys are doubles (f64) or int64_t (i64); the macros below write each loop
 * for both, and the search once more for int64 runs searched with double
 * bounds (each key compared as the double it rounds to, as numpy's
 * searchsorted casts it).  Every result equals the numpy reference (kept in
 * the test harness, tests/reference_*.py) bit for bit, so the order is
 * numpy's: NaN sorts after everything and NaNs are equal to each other,
 * -0.0 == 0.0, and +-inf are ordinary values.  The inner loops compare with
 * the plain `<`, which agrees with that order on every non-NaN pair: each
 * run's NaN tail is located once, searches and merges run over the part
 * before it, and a NaN bound is answered at the tail's boundary.
 *
 * Counts are summed in uint64_t, so they wrap exactly as numpy's int64 sums
 * do.  Every index fold reads from an input is checked against the array it
 * indexes while the call is parsed, before anything is merged or written.
 * closure and tile check each index as they read it, and return -2 at the
 * first one out of range.
 *
 * group_sums and sweep_rows are the kernel's floating-point arithmetic
 * (closure is integers only, tile only compares a rectangle's leaf
 * threshold with delta -- its weights are numpy's, summed before the call
 * -- and spans rounds one difference per test, as numpy's subtraction does),
 * and they must round as numpy does: every product and sum once, in
 * numpy's order.  So the library is built with -ffp-contract=off.  Otherwise a compiler for a
 * target with fused multiply-add (aarch64, x86-64 with -mfma) may fuse
 * a * b + c * d into one instruction that rounds once where numpy rounds
 * twice, and a block weight lands on the other side of the threshold.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FLOAT_IS_NAN(x) ((x) != (x))
#define NEVER_NAN(x) ((void)(x), 0)

/* A key dtype: F64 or I64 (NO_KEY: neither). */
#define F64 0
#define I64 1
#define NO_KEY (-1)

/* A needle's count between run positions lo and hi: cum[hi] - cum[lo] for
 * a counted run, hi - lo when every key counts once (cum NULL). */
#define SPAN(cum, lo, hi)                                                      \
    ((cum) ? (uint64_t)(cum)[hi] - (uint64_t)(cum)[lo]                         \
           : (uint64_t)(hi) - (uint64_t)(lo))

/* A run: ascending keys, their number and their cumulative counts (NULL:
 * every key counts once). */
struct run {
    const void *keys;
    int64_t size;
    const int64_t *cum;
};


/* Element x lies before the answer of a left search for v (x < v), or of a
 * right search (x <= v, written so that it needs only `<`). */
#define BEFORE_LEFT(x, v) ((x) < (v))
#define BEFORE_RIGHT(x, v) (!((v) < (x)))

/*
 * How many keys right of `from` a search compares one at a time before it
 * gallops.  A stream_growth needle's answer lies about 7 keys past the
 * previous one's (2,000 sorted needles against runs of ~13.8K keys), where
 * a walk's predictable compares beat a gallop's log2(gap) unpredictable
 * ones.  Replaying recorded folds on a 2-core Xeon, the count's two halves
 * took 274 -> 205 us per growth fold and 53 -> 38 us per stream_steady
 * fold with this walk (best of five rounds).  Walks of 16 or 32 keys read
 * 193 / 41 and 188 / 43 us, but no better end to end (32: growth 1.03x,
 * steady 1.02x, stream_drift 0.98x); a branch-free count of the 8 keys
 * read 241 / 47 us, and growth 0.93x end to end.
 */
#define WALK 8

/*
 * The first i in [0, size) whose keys[i] is not BEFORE v, or size, for
 * keys ascending and free of NaN, each compared as a BOUND.  Starting at
 * `from`, it walks up to WALK keys rightwards one at a time, and only past
 * them gallops (from the last key walked, or leftwards from `from`) and
 * then bisects.  So a needle whose answer lies within the walk costs a few
 * compares, a farther one O(log gap), and any `from` gives the exact
 * answer.  Inline: fold's count and search both call it, and gcc -O2 left
 * it out of line for two callers, a call per needle that read stream_growth
 * 0.95x end to end.
 */
#define GALLOP(NAME, KEY, BOUND, BEFORE)                                       \
    static inline int64_t NAME(const KEY *keys, int64_t size, BOUND v,         \
                               int64_t from)                                   \
    {                                                                          \
        int64_t lo, hi, last, step = 1;                                        \
        if (from > size)                                                       \
            from = size;                                                       \
        if (from < size && BEFORE((BOUND)keys[from], v)) {                     \
            /* Right of from: walk to last, the end of the window. */          \
            last = size - from > WALK ? from + WALK : size - 1;                \
            for (lo = from + 1; lo <= last; lo++)                              \
                if (!BEFORE((BOUND)keys[lo], v))                               \
                    return lo;                                                 \
            /* Past it: keys[lo - 1] is before v. */                           \
            hi = lo;                                                           \
            while (hi < size && BEFORE((BOUND)keys[hi], v)) {                  \
                lo = hi + 1;                                                   \
                hi = size - hi > step ? hi + step : size;                      \
                step *= 2;                                                     \
            }                                                                  \
        } else {                                                               \
            /* At or left of from: keys[hi] is not before v, or hi == size. */ \
            lo = hi = from;                                                    \
            while (lo > 0 && !BEFORE((BOUND)keys[lo - 1], v)) {                \
                hi = lo - 1;                                                   \
                lo = hi > step ? hi - step : 0;                                \
                step *= 2;                                                     \
            }                                                                  \
        }                                                                      \
        while (lo < hi) {                                                      \
            int64_t mid = lo + (hi - lo) / 2;                                  \
            if (BEFORE((BOUND)keys[mid], v))                                   \
                lo = mid + 1;                                                  \
            else                                                               \
                hi = mid;                                                      \
        }                                                                      \
        return lo;                                                             \
    }

/* What fold does with one key dtype: locate a run's NaN tail, cut a run by
 * the slice rule, merge a cascade of runs. */
#define RUNS(T, KEY, IS_NAN)                                                   \
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
    /*                                                                         \
     * Merge the older run a into the newer run b: one entry per stretch of    \
     * equal keys -- all NaNs one, last -- counting what both runs count       \
     * there, keeping b's last key of the stretch if b holds it and a's        \
     * otherwise.  With `drop`, entries that count zero are left out; without  \
     * it they stay, so a later merge keeps the key of the newest run that     \
     * held it.  Writes out_cum[0] = 0; returns the entries written.           \
     */                                                                        \
    static int64_t merge2_##T(struct run a, struct run b, KEY *out_keys,       \
                              int64_t *out_cum, int drop)                      \
    {                                                                          \
        const KEY *ak = (const KEY *)a.keys, *bk = (const KEY *)b.keys;        \
        int64_t at = nan_tail_##T(ak, a.size), bt = nan_tail_##T(bk, b.size);  \
        int64_t i = 0, j = 0, m = 0, ie, je;                                   \
        uint64_t total = 0, count;                                             \
        KEY key;                                                               \
        out_cum[0] = 0;                                                        \
        for (;;) {                                                             \
            /* The next stretch of equal keys: from a, from b or from both. */ \
            if (i < at && (j == bt || ak[i] < bk[j])) {                        \
                key = ak[i];                                                   \
                for (ie = i + 1; ie < at && !(key < ak[ie]); ie++)             \
                    ;                                                          \
                count = SPAN(a.cum, i, ie);                                    \
                key = ak[ie - 1];                                              \
                i = ie;                                                        \
            } else if (j < bt && (i == at || bk[j] < ak[i])) {                 \
                key = bk[j];                                                   \
                for (je = j + 1; je < bt && !(key < bk[je]); je++)             \
                    ;                                                          \
                count = SPAN(b.cum, j, je);                                    \
                key = bk[je - 1];                                              \
                j = je;                                                        \
            } else if (i < at) {                                               \
                key = ak[i];                                                   \
                for (ie = i + 1; ie < at && !(key < ak[ie]); ie++)             \
                    ;                                                          \
                for (je = j + 1; je < bt && !(key < bk[je]); je++)             \
                    ;                                                          \
                count = SPAN(a.cum, i, ie) + SPAN(b.cum, j, je);               \
                key = bk[je - 1];                                              \
                i = ie;                                                        \
                j = je;                                                        \
            } else                                                             \
                break;                                                         \
            if (count || !drop) {                                              \
                out_keys[m] = key;                                             \
                total += count;                                                \
                out_cum[++m] = (int64_t)total;                                 \
            }                                                                  \
        }                                                                      \
        if (at < a.size || bt < b.size) {                                      \
            count = SPAN(a.cum, at, a.size) + SPAN(b.cum, bt, b.size);         \
            if (count || !drop) {                                              \
                out_keys[m] = bt < b.size ? bk[b.size - 1] : ak[a.size - 1];   \
                total += count;                                                \
                out_cum[++m] = (int64_t)total;                                 \
            }                                                                  \
        }                                                                      \
        return m;                                                              \
    }                                                                          \
                                                                               \
    /*                                                                         \
     * Merge `count` runs (oldest first) into one counted run: a right fold    \
     * of two-way merges, the newest pair first, each older run merged into    \
     * what the newer ones made.  Zero counts are kept until the last step,    \
     * so every entry keeps the key that comes last in (run, position) order,  \
     * and dropped there.  out_keys holds room for every key, out_cum one      \
     * more.  Returns the entries written, or -1 if scratch memory could not   \
     * be had.                                                                 \
     */                                                                        \
    static int64_t merge_##T(const struct run *runs, int64_t count,           \
                             KEY *out_keys, int64_t *out_cum)                  \
    {                                                                          \
        struct run empty = {NULL, 0, NULL}, newer;                             \
        int64_t total = 0, r, m = 0;                                           \
        size_t room;                                                           \
        char *scratch = NULL;                                                  \
        if (count == 1)                                                        \
            return merge2_##T(runs[0], empty, out_keys, out_cum, 1);           \
        for (r = 0; r < count; r++)                                            \
            total += runs[r].size;                                             \
        /* A step before the last writes one of two buffers, in turn: keys,    \
         * then cum. */                                                        \
        room = (size_t)total * sizeof(KEY) + ((size_t)total + 1) * 8;          \
        if (count > 2 && !(scratch = malloc(2 * room)))                        \
            return -1;                                                         \
        newer = runs[count - 1];                                               \
        for (r = count - 2; r >= 0; r--) {                                     \
            KEY *keys = out_keys;                                              \
            int64_t *cum = out_cum;                                            \
            if (r) {                                                           \
                keys = (KEY *)(scratch + (size_t)(r % 2) * room);              \
                cum = (int64_t *)(keys + total);                               \
            }                                                                  \
            m = merge2_##T(runs[r], newer, keys, cum, r == 0);                 \
            newer.keys = keys;                                                 \
            newer.size = m;                                                    \
            newer.cum = cum;                                                   \
        }                                                                      \
        free(scratch);                                                         \
        return m;                                                              \
    }

RUNS(f64, double, FLOAT_IS_NAN)
RUNS(i64, int64_t, NEVER_NAN)

/*
 * One search: S names the (run key, bound) pair -- f64 (double, double),
 * i64 (int64, int64) or mixed (int64 keys, double bounds).  Each needle of
 * the spans [spans[2 u], spans[2 u + 1]) gets its [lo, hi) in the run once,
 * written to lo_at / hi_at.  Its lo search starts at the previous needle's
 * lo; its hi search at the previous hi or this needle's lo, whichever is
 * further right, since a high bound not below the low one answers there or
 * past it.  Sorted needles a few keys apart thus cost a short walk each, and
 * an inequality's infinite high bound one compare at the previous hi.
 */
#define SEARCH(S, KEY, BOUND, IS_NAN)                                          \
    GALLOP(lower_##S, KEY, BOUND, BEFORE_LEFT)                                 \
    GALLOP(upper_##S, KEY, BOUND, BEFORE_RIGHT)                                \
                                                                               \
    static void search_##S(const void *lows, const void *highs,                \
                           const int64_t *spans, int64_t count,                \
                           struct run run, int64_t tail, int64_t *lo_at,       \
                           int64_t *hi_at)                                     \
    {                                                                          \
        const KEY *keys = (const KEY *)run.keys;                               \
        int64_t lo = 0, hi = 0, u, j;                                          \
        for (u = 0; u < count; u++)                                            \
            for (j = spans[2 * u]; j < spans[2 * u + 1]; j++) {                \
                BOUND low = ((const BOUND *)lows)[j];                          \
                BOUND high = ((const BOUND *)highs)[j];                        \
                lo = IS_NAN(low) ? tail : lower_##S(keys, tail, low, lo);      \
                hi = IS_NAN(high) ? run.size                                   \
                                  : upper_##S(keys, tail, high,                \
                                              hi > lo ? hi : lo);              \
                lo_at[j] = lo;                                                 \
                hi_at[j] = hi;                                                 \
            }                                                                  \
    }

SEARCH(f64, double, double, FLOAT_IS_NAN)
SEARCH(i64, int64_t, int64_t, NEVER_NAN)
SEARCH(mixed, int64_t, double, FLOAT_IS_NAN)

/*
 * numpy's searchsorted of each needle into ascending keys, one side for the
 * call: the plan build's searches (bucket_index, Stream-Sample's d2equi
 * windows, job 3's prefix search, the with-replacement draw).  The keys'
 * NaN tail is located once; a NaN needle answers at it on the left side
 * and past the keys on the right, as numpy's NaN-last order does, and
 * every other needle is searched in the keys before it.
 *
 * One pass over the needles picks the path for the whole call.  Needles
 * that never descend (d2equi windows of sorted distinct keys, routed sorted
 * keys) are each found by GALLOP from the previous answer: a few
 * predictable compares per needle.  Any other call (a draw's uniforms, a
 * pair column of the output sample) bisects each needle without a branch
 * (Khuong & Morin, "Array layouts for comparison-based searching", 2017):
 * the step is arithmetic on the compare, so a scattered needle costs no
 * mispredict per level, where numpy's search pays one.  Both paths are
 * exact for needles in any order; the pass only picks the faster.  A
 * choice per needle was measured slower on scattered needles (the choice
 * mispredicts in turn).  For any keys, ascending or not, each path reads
 * only keys[0, size).
 */
/*
 * Needles bisected side by side.  A bisection's steps depend only on the
 * number of keys, so LANES needles step together, and their loads, each
 * waiting on the last compare of its own lane, overlap.  3,000 scattered
 * needles into 3,000 keys on a 2-core Xeon: 87 us one at a time, 65 us
 * four at a time, 42 us eight, 46 us sixteen (numpy's searchsorted: 250).
 */
#define LANES 8
#define FIND(T, KEY, IS_NAN)                                                   \
                                                                               \
    /* Each needle's first i in [0, size) whose keys[i] is not BEFORE it, or   \
     * size (a NaN needle: nan_answer), LANES needles at a time: each base     \
     * moves by its compare times half while size halves.  The last block     \
     * repeats its last needle. */                                             \
    static void bisect_##T(const KEY *keys, int64_t size, const KEY *needles,  \
                           int64_t count, int right, int64_t nan_answer,       \
                           int64_t *out)                                       \
    {                                                                          \
        int64_t i, j, n, half, base[LANES];                                    \
        KEY v[LANES];                                                          \
        for (i = 0; i < count; i += LANES) {                                   \
            for (j = 0; j < LANES; j++) {                                      \
                base[j] = 0;                                                   \
                v[j] = needles[i + j < count ? i + j : count - 1];             \
            }                                                                  \
            for (n = size; n > 1; n -= half) {                                 \
                half = n / 2;                                                  \
                if (right)                                                     \
                    for (j = 0; j < LANES; j++)                                \
                        base[j] += BEFORE_RIGHT(keys[base[j] + half], v[j]) * half; \
                else                                                           \
                    for (j = 0; j < LANES; j++)                                \
                        base[j] += BEFORE_LEFT(keys[base[j] + half], v[j]) * half; \
            }                                                                  \
            for (j = 0; j < LANES && i + j < count; j++)                       \
                out[i + j] = IS_NAN(v[j]) ? nan_answer                         \
                             : base[j] + (size && (right ? BEFORE_RIGHT(keys[base[j]], v[j]) \
                                                         : BEFORE_LEFT(keys[base[j]], v[j]))); \
        }                                                                      \
    }                                                                          \
                                                                               \
    static void find_##T(const KEY *keys, int64_t size, const KEY *needles,    \
                         int64_t count, int right, int64_t *out)               \
    {                                                                          \
        int64_t tail = nan_tail_##T(keys, size), at = 0, i = 1;                \
        int64_t nan_answer = right ? size : tail;                              \
        while (i < count && !(needles[i] < needles[i - 1]))                    \
            i++;                                                               \
        if (i < count) {                                                       \
            bisect_##T(keys, tail, needles, count, right, nan_answer, out);    \
            return;                                                            \
        }                                                                      \
        for (i = 0; i < count; i++)                                            \
            out[i] = IS_NAN(needles[i])  ? nan_answer                          \
                     : right ? (at = upper_##T(keys, tail, needles[i], at))    \
                             : (at = lower_##T(keys, tail, needles[i], at));   \
    }

FIND(f64, double, FLOAT_IS_NAN)
FIND(i64, int64_t, NEVER_NAN)

/*
 * A fold, as the module parses it: the merges, then the halves.  Machine
 * m's needles are [starts[m], stops[m]) of a half's lows / highs.  A
 * group's readers read its runs and, unless merge is -1, the run that merge
 * made, each through its slice: where it starts and stops is a slice
 * bound, an index of the cut keys, their number for 0 or their number + 1
 * for the run's length (cut_keys NULL: every reader reads the runs whole).
 */
struct merge {
    int dtype;
    const struct run *runs; /* oldest first */
    int64_t count;
    void *keys;   /* room for every key of the runs */
    int64_t *cum; /* and one more */
    int64_t entries;
};

struct group {
    int dtype;
    const int64_t *readers;
    int64_t count;
    const double *cut_keys;
    int64_t cuts;
    const int64_t *first, *last;
    int64_t merge;
    const struct run *runs;
    int64_t runs_count;
};

struct half {
    int dtype;
    const void *lows, *highs;
    int64_t needles;
    const int64_t *starts, *stops;
    const struct group *groups;
    int64_t count;
};

/* A reader's slice bound: cut `at` of the run, or 0, or its length. */
static int64_t slice_bound(struct run run, int dtype, int64_t tail,
                           const struct group *group, int64_t at)
{
    if (at == group->cuts)
        return 0;
    if (at > group->cuts)
        return run.size;
    return dtype == F64 ? cut_f64((const double *)run.keys, tail, group->cut_keys[at])
                        : cut_i64((const int64_t *)run.keys, tail, group->cut_keys[at]);
}

/*
 * Count one run of a group: each needle its readers hold searched once
 * (spans: the union of their shares), then every reader's needles clipped
 * to its slice of the run and summed into its total.
 */
static void count_run(const struct half *half, const struct group *group,
                      struct run run, const int64_t *spans, int64_t count,
                      int64_t *lo_at, int64_t *hi_at, int64_t *out)
{
    int64_t tail, i, j;
    if (group->dtype == F64) {
        tail = nan_tail_f64((const double *)run.keys, run.size);
        search_f64(half->lows, half->highs, spans, count, run, tail, lo_at, hi_at);
    } else {
        tail = run.size; /* int64 keys have no NaN */
        if (half->dtype == I64)
            search_i64(half->lows, half->highs, spans, count, run, tail, lo_at, hi_at);
        else
            search_mixed(half->lows, half->highs, spans, count, run, tail, lo_at, hi_at);
    }
    for (i = 0; i < group->count; i++) {
        int64_t m = group->readers[i], first = 0, last = run.size;
        uint64_t sum = 0;
        if (group->cut_keys) {
            first = slice_bound(run, group->dtype, tail, group, group->first[i]);
            last = slice_bound(run, group->dtype, tail, group, group->last[i]);
        }
        for (j = half->starts[m]; j < half->stops[m]; j++) {
            int64_t a = lo_at[j] < first ? first : lo_at[j];
            int64_t b = hi_at[j] > last ? last : hi_at[j];
            if (b > a)
                sum += SPAN(run.cum, a, b);
        }
        out[m] = (int64_t)((uint64_t)out[m] + sum);
    }
}

/* The union of a group's readers' shares as disjoint ascending spans, two
 * words each; returns how many. */
static int64_t shares_of(const struct half *half, const struct group *group,
                         int64_t *spans)
{
    int64_t i, k, count = 0;
    for (i = 0; i < group->count; i++) {
        int64_t m = group->readers[i], start = half->starts[m], stop = half->stops[m];
        if (start >= stop)
            continue;
        /* Insert by start (readers come nearly sorted: few moves). */
        for (k = count; k > 0 && spans[2 * k - 2] > start; k--) {
            spans[2 * k] = spans[2 * k - 2];
            spans[2 * k + 1] = spans[2 * k - 1];
        }
        spans[2 * k] = start;
        spans[2 * k + 1] = stop;
        count++;
    }
    /* Merge the overlapping and touching ones. */
    for (i = k = 0; i < count; i++) {
        if (k && spans[2 * i] <= spans[2 * k - 1]) {
            if (spans[2 * i + 1] > spans[2 * k - 1])
                spans[2 * k - 1] = spans[2 * i + 1];
        } else {
            spans[2 * k] = spans[2 * i];
            spans[2 * k + 1] = spans[2 * i + 1];
            k++;
        }
    }
    return k;
}

/*
 * A stream batch's state work and count in one call, over a parsed fold
 * whose indices are all in range.  First every merge: its runs merged into
 * its keys and cum (merge_<t>), the entries written stored in its entries;
 * then every half: each group's runs -- and the run its merge made --
 * searched for the needles its readers hold, once per needle and run, each
 * answer clipped to every reader's slice and the counts added to
 * out[reader].  `needles` is the most needles of a half, `readers` the
 * most readers of a group.  Returns 0, or -1 if scratch memory could not
 * be had.
 */
static int fold(struct merge *merges, int64_t merge_count, const struct half *halves,
                int64_t half_count, int64_t needles, int64_t readers, int64_t *out)
{
    int64_t i, h, g, r;
    int64_t *scratch, *spans, *lo_at, *hi_at;
    for (i = 0; i < merge_count; i++) {
        struct merge *merge = merges + i;
        merge->entries = merge->dtype == F64
            ? merge_f64(merge->runs, merge->count, (double *)merge->keys, merge->cum)
            : merge_i64(merge->runs, merge->count, (int64_t *)merge->keys, merge->cum);
        if (merge->entries < 0)
            return -1;
    }
    if (!half_count)
        return 0;
    scratch = malloc(((size_t)2 * needles + 2 * (size_t)readers + 1) * sizeof *scratch);
    if (!scratch)
        return -1;
    lo_at = scratch;
    hi_at = lo_at + needles;
    spans = hi_at + needles;
    for (h = 0; h < half_count; h++) {
        const struct half *half = halves + h;
        for (g = 0; g < half->count; g++) {
            const struct group *group = half->groups + g;
            int64_t count = shares_of(half, group, spans);
            if (!count)
                continue;
            for (r = 0; r < group->runs_count; r++)
                count_run(half, group, group->runs[r], spans, count, lo_at, hi_at, out);
            if (group->merge >= 0) {
                const struct merge *merge = merges + group->merge;
                struct run run;
                run.keys = merge->keys;
                run.size = merge->entries;
                run.cum = merge->cum;
                count_run(half, group, run, spans, count, lo_at, hi_at, out);
            }
        }
    }
    free(scratch);
    return 0;
}

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
static void band_inverse(const double *keys, int64_t size, double beta, double *lows,
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
 * Stream-Sample's with-replacement draw expose.  So every step mirrors
 * CPython's heapq: heappush sifts the new entry down from the end;
 * heapreplace puts it at the root, promotes the smaller child all the way
 * down to a leaf and sifts the entry back up from there (_siftup, then
 * _siftdown).  Entries compare as the tuples do: by priority, ties by
 * counter.  Counters are unique, so the payload is never compared, and
 * priorities are never NaN (offer's binding refuses one): on ordered
 * doubles exactly one of <, == and > holds, so heapq's "the right child
 * unless the left sorts before it" is the right child when its priority is
 * smaller, or equal with the smaller counter.  _siftup's descent picks the
 * child by adding that 0 or 1 to the left child's index, with no branch to
 * mispredict on random priorities (the guard for a lone left child is
 * false at most once, at the last level).
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
        if (child + 1 < end) {
            double left = priorities[child], right = priorities[child + 1];
            child += (right < left)
                     | ((right == left) & (counters[child + 1] < counters[child]));
        }
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
static int64_t offer(double *priorities, int64_t *counters, double *keys,
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
static int64_t group_sums(const int64_t *ptr, const int64_t *index,
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
static int64_t sweep_rows(const double *freq, const double *cand,
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

static int64_t closure(const int64_t *rows, const int64_t *lo, const int64_t *hi,
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
static int64_t tile(const int64_t *offsets, const int64_t *children,
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

/*
 * The candidate rules spans reads, each in two halves over a cell of key
 * ranges [lo, hi] x [col_lo, col_hi]: LEFT (the cell lies left of every
 * pair its row joins) reads col_hi, RIGHT (it lies right of them) col_lo,
 * each as the condition's numpy rule rounds it.  A band: the rounded
 * difference is more than beta (inf - inf is NaN, so never).  An
 * inequality excludes one side only, where its comparison fails.
 */
enum rule { BAND, LESS, LESS_EQUAL, GREATER, GREATER_EQUAL, RULES };
#define NEVER(lo, hi, c, beta) 0
#define BAND_LEFT(lo, hi, c, beta) ((lo) - (c) > (beta))
#define BAND_RIGHT(lo, hi, c, beta) ((c) - (hi) > (beta))
#define LESS_LEFT(lo, hi, c, beta) (!((lo) < (c)))
#define LESS_EQUAL_LEFT(lo, hi, c, beta) (!((lo) <= (c)))
#define GREATER_RIGHT(lo, hi, c, beta) (!((c) < (hi)))
#define GREATER_EQUAL_RIGHT(lo, hi, c, beta) (!((c) <= (hi)))

/*
 * Each grid row's candidate columns [first, stop), stop >= first, for
 * edge arrays that ascend.  Rounding is monotone, so on ascending columns
 * LEFT holds on a prefix of a row's columns and RIGHT on a suffix: first
 * is where LEFT stops holding and stop where RIGHT starts, each found by
 * bisection.  Every edge read lies in [0, cols), whatever the edges.
 */
#define SPANS(NAME, LEFT, RIGHT)                                               \
    static void spans_##NAME(const double *row_lo, const double *row_hi,      \
                             int64_t rows, const double *col_lo,              \
                             const double *col_hi, int64_t cols, double beta, \
                             int64_t *first, int64_t *stop)                   \
    {                                                                          \
        int64_t i, lo, hi, mid;                                                \
        /* An inequality's rule reads only some of them. */                   \
        (void)row_lo, (void)row_hi, (void)col_lo, (void)col_hi, (void)beta;    \
        for (i = 0; i < rows; i++) {                                           \
            for (lo = 0, hi = cols; lo < hi;) {                                \
                mid = lo + (hi - lo) / 2;                                      \
                if (LEFT(row_lo[i], row_hi[i], col_hi[mid], beta))             \
                    lo = mid + 1;                                              \
                else                                                           \
                    hi = mid;                                                  \
            }                                                                  \
            first[i] = lo;                                                     \
            for (lo = first[i], hi = cols; lo < hi;) {                         \
                mid = lo + (hi - lo) / 2;                                      \
                if (RIGHT(row_lo[i], row_hi[i], col_lo[mid], beta))            \
                    hi = mid;                                                  \
                else                                                           \
                    lo = mid + 1;                                              \
            }                                                                  \
            stop[i] = lo;                                                      \
        }                                                                      \
    }

SPANS(band, BAND_LEFT, BAND_RIGHT)
SPANS(less, LESS_LEFT, NEVER)
SPANS(less_equal, LESS_EQUAL_LEFT, NEVER)
SPANS(greater, NEVER, GREATER_RIGHT)
SPANS(greater_equal, NEVER, GREATER_EQUAL_RIGHT)

/* ---------------------------------------------------------------------- */
/* The module: each entry point checks its arguments, then runs its loop
 * with the GIL released.  Every array argument goes through take(); every
 * refusal names its entry point first: "<entry>: ...". */

/* An array's dtype, for a message's %S. */
#define DTYPE(array) ((PyObject *)PyArray_DESCR(array))
#define SIZE(array) ((Py_ssize_t)PyArray_SIZE(array))
/* The dtypes take() accepts, as a mask of key dtypes. */
#define F64_ONLY (1 << F64)
#define I64_ONLY (1 << I64)
#define ANY_KEY (F64_ONLY | I64_ONLY)

static const char *key_name(int dtype)
{
    return dtype == F64 ? "float64" : "int64";
}

/* An array's key dtype: F64, I64 or NO_KEY (any other, or byte-swapped). */
static int key_dtype(PyArrayObject *array)
{
    int type = PyArray_TYPE(array);
    if (!PyArray_ISNOTSWAPPED(array))
        return NO_KEY;
    if (type == NPY_DOUBLE)
        return F64;
    if (type == NPY_LONGLONG || (type == NPY_LONG && NPY_SIZEOF_LONG == 8))
        return I64;
    return NO_KEY;
}

/*
 * Entry point `entry`'s array argument `name`: obj itself (borrowed) when
 * a loop may read it through a pointer -- an ndarray of one of the key
 * dtypes in `dtypes` in native byte order, C-contiguous and aligned, and
 * writable when `written`.  Otherwise NULL with a TypeError (the object,
 * the dtype) or a ValueError (the layout) that reads "<entry>: <name> is
 * <found>, not <expected>".
 */
static PyArrayObject *take(const char *entry, const char *name, PyObject *obj, int dtypes,
                           int written)
{
    PyArrayObject *array = (PyArrayObject *)obj;
    const char *layout;
    int dtype;
    if (!PyArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s: %s is a %.200s, not a numpy array", entry, name,
                     Py_TYPE(obj)->tp_name);
        return NULL;
    }
    dtype = key_dtype(array);
    if (dtype == NO_KEY || !(dtypes & 1 << dtype)) {
        PyErr_Format(PyExc_TypeError, "%s: %s is %S, not %s", entry, name, DTYPE(array),
                     dtypes == ANY_KEY    ? "float64 or int64"
                     : dtypes == F64_ONLY ? "float64"
                                          : "int64");
        return NULL;
    }
    layout = !PyArray_IS_C_CONTIGUOUS(array) ? "strided, not C-contiguous"
           : !PyArray_ISALIGNED(array) ? "unaligned, not aligned"
           : written && !PyArray_ISWRITEABLE(array) ? "read-only, not writable"
           : NULL;
    if (layout) {
        PyErr_Format(PyExc_ValueError, "%s: %s is %s", entry, name, layout);
        return NULL;
    }
    return array;
}

/* An array's shape as Python prints the tuple: "(6, 3)", "(4,)", "()". */
static const char *shape_text(PyArrayObject *array, char *text, size_t room)
{
    int i, ndim = PyArray_NDIM(array);
    size_t at = 1;
    text[0] = '(';
    text[1] = '\0';
    for (i = 0; i < ndim && at < room; i++)
        at += (size_t)snprintf(text + at, room - at, i ? ", %zd" : "%zd",
                               (Py_ssize_t)PyArray_DIM(array, i));
    if (at < room)
        snprintf(text + at, room - at, ndim == 1 ? ",)" : ")");
    return text;
}

static int same_shape(PyArrayObject *a, PyArrayObject *b)
{
    int i;
    if (PyArray_NDIM(a) != PyArray_NDIM(b))
        return 0;
    for (i = 0; i < PyArray_NDIM(a); i++)
        if (PyArray_DIM(a, i) != PyArray_DIM(b, i))
            return 0;
    return 1;
}

/* A new C-ordered array, or NULL with an error set. */
static PyArrayObject *new_array(int ndim, npy_intp *shape, int type)
{
    return (PyArrayObject *)PyArray_SimpleNew(ndim, shape, type);
}

/* Shrink an array in place to `size` entries along its first axis (a
 * realloc, no copy).  0, or -1 with an error set. */
static int shrink(PyArrayObject *array, npy_intp size)
{
    npy_intp shape[2];
    PyArray_Dims dims;
    PyObject *done;
    shape[0] = size;
    shape[1] = PyArray_NDIM(array) > 1 ? PyArray_DIM(array, 1) : 0;
    dims.ptr = shape;
    dims.len = PyArray_NDIM(array);
    done = PyArray_Resize(array, &dims, 0, NPY_CORDER);
    Py_XDECREF(done);
    return done ? 0 : -1;
}

/*
 * fold's parse.  Each level of the tree -- the merges, the halves, a half's
 * groups, a cascade's or a group's runs -- is allocated zeroed at its
 * sequence's length when the walk meets it, so every struct is filled in
 * where the loop reads it, and parse_free's one walk frees them all.
 * `held` holds every object the loop reads through, so no other thread
 * frees a buffer while the GIL is released.
 */
struct parse {
    PyObject *held;
    Py_ssize_t machines;
    struct merge *merges;
    struct half *halves;
    int64_t merge_count, half_count;
    int64_t needles, readers; /* the most of any half, of any group */
};

/* A zeroed level of `count` structs of `width` bytes, or NULL with a
 * MemoryError. */
static void *level_of(Py_ssize_t count, size_t width)
{
    void *level = PyMem_Calloc(count ? (size_t)count : 1, width);
    if (!level)
        PyErr_NoMemory();
    return level;
}

/* obj's items as a held list or tuple, or NULL with a TypeError naming it. */
static PyObject *items_of(struct parse *parse, PyObject *obj, const char *name)
{
    PyObject *items = PySequence_Fast(obj, "");
    int failed;
    if (!items) {
        if (PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "fold: %s is a %.200s, not a sequence", name,
                         Py_TYPE(obj)->tp_name);
        }
        return NULL;
    }
    failed = PyList_Append(parse->held, items);
    Py_DECREF(items);
    return failed ? NULL : items;
}

/* take()'s array for fold, held until the fold is done. */
static PyArrayObject *held(struct parse *parse, const char *name, PyObject *obj, int dtypes)
{
    PyArrayObject *array = take("fold", name, obj, dtypes, 0);
    return array && !PyList_Append(parse->held, obj) ? array : NULL;
}

/* obj's n items into parts (borrowed from a held sequence).  0, or -1 with
 * an error naming `what`. */
static int unpack(struct parse *parse, PyObject *obj, Py_ssize_t n, const char *what,
                  PyObject **parts)
{
    PyObject *items = items_of(parse, obj, what);
    Py_ssize_t i;
    if (!items)
        return -1;
    if (PySequence_Fast_GET_SIZE(items) != n) {
        PyErr_Format(PyExc_ValueError, "fold: %s is %zd items, not %zd", what,
                     PySequence_Fast_GET_SIZE(items), n);
        return -1;
    }
    for (i = 0; i < n; i++)
        parts[i] = PySequence_Fast_GET_ITEM(items, i);
    return 0;
}

/*
 * The (keys, cum) runs of `obj`, into a level of their own (*runs, their
 * number in *count): the first run's keys of one of `dtypes`, every other
 * run's of its dtype (in *dtype; left as it is when there is no run).
 * `none`, unless NULL, refuses a sequence of no runs.  0, or -1 with an
 * error set.
 */
static int parse_runs(struct parse *parse, PyObject *obj, int dtypes, const char *none,
                      int *dtype, const struct run **runs, int64_t *count)
{
    PyObject *items = items_of(parse, obj, "runs");
    struct run *level;
    Py_ssize_t i, n;
    if (!items)
        return -1;
    n = PySequence_Fast_GET_SIZE(items);
    if (!n && none) {
        PyErr_Format(PyExc_ValueError, "fold: %s", none);
        return -1;
    }
    if (!(level = level_of(n, sizeof *level)))
        return -1;
    *runs = level;
    *count = n;
    for (i = 0; i < n; i++) {
        PyObject *pair[2];
        PyArrayObject *keys, *cum = NULL;
        if (unpack(parse, PySequence_Fast_GET_ITEM(items, i), 2, "a run", pair)
            || !(keys = held(parse, "keys", pair[0], dtypes))
            || (pair[1] != Py_None && !(cum = held(parse, "cum", pair[1], I64_ONLY))))
            return -1;
        if (cum && SIZE(cum) != SIZE(keys) + 1) {
            PyErr_Format(PyExc_ValueError, "fold: cum is %zd %S, not %zd int64", SIZE(cum),
                         DTYPE(cum), SIZE(keys) + 1);
            return -1;
        }
        dtypes = 1 << (*dtype = key_dtype(keys));
        level[i].keys = PyArray_DATA(keys);
        level[i].size = SIZE(keys);
        level[i].cum = cum ? (const int64_t *)PyArray_DATA(cum) : NULL;
    }
    return 0;
}

/*
 * One group of `half`: its dtype the bounds' (or int64 under float64
 * bounds), every reader a machine whose share lies inside the half's
 * needles, every slice bound an index of the cuts.
 */
static int parse_group(struct parse *parse, PyObject *obj, const struct half *half,
                       struct group *group)
{
    static const char *rule_names[3] = {"cut_keys", "first", "last"};
    PyObject *parts[4]; /* runs, readers, cut, merge */
    PyArrayObject *readers, *cut[3];
    int dtypes = half->dtype == F64 ? ANY_KEY : I64_ONLY;
    Py_ssize_t i;
    if (unpack(parse, obj, 4, "a group", parts))
        return -1;
    group->merge = -1;
    if (parts[3] != Py_None) {
        Py_ssize_t merge;
        if (!PyIndex_Check(parts[3])) {
            PyErr_Format(PyExc_TypeError, "fold: merge is a %.200s, not an int",
                         Py_TYPE(parts[3])->tp_name);
            return -1;
        }
        if ((merge = PyNumber_AsSsize_t(parts[3], NULL)) == -1 && PyErr_Occurred())
            return -1;
        if (merge < 0 || merge >= parse->merge_count) {
            PyErr_Format(PyExc_ValueError, "fold: merge %zd is not one of the %zd cascades",
                         merge, (Py_ssize_t)parse->merge_count);
            return -1;
        }
        group->merge = merge;
        group->dtype = parse->merges[merge].dtype;
        if (!(dtypes & 1 << group->dtype)) {
            PyErr_Format(PyExc_TypeError, "fold: a run's keys are %s, not the bounds' %s",
                         key_name(group->dtype), key_name(half->dtype));
            return -1;
        }
        dtypes = 1 << group->dtype;
    }
    if (!(readers = held(parse, "readers", parts[1], I64_ONLY)))
        return -1;
    group->readers = PyArray_DATA(readers);
    group->count = SIZE(readers);
    if (parts[2] != Py_None) {
        PyObject *rule[3];
        if (unpack(parse, parts[2], 3, "a slice rule", rule))
            return -1;
        for (i = 0; i < 3; i++)
            if (!(cut[i] = held(parse, rule_names[i], rule[i], i ? I64_ONLY : F64_ONLY)))
                return -1;
        if (SIZE(cut[1]) < group->count || SIZE(cut[2]) < group->count) {
            PyErr_Format(PyExc_ValueError, "fold: a slice rule needs %zd firsts and lasts",
                         (Py_ssize_t)group->count);
            return -1;
        }
        group->cut_keys = PyArray_DATA(cut[0]);
        group->cuts = SIZE(cut[0]);
        group->first = PyArray_DATA(cut[1]);
        group->last = PyArray_DATA(cut[2]);
    }
    if (parse_runs(parse, parts[0], dtypes, group->merge < 0 ? "a group searches no run" : NULL,
                   &group->dtype, &group->runs, &group->runs_count))
        return -1;
    for (i = 0; i < group->count; i++) {
        int64_t m = group->readers[i];
        if ((uint64_t)m >= (uint64_t)parse->machines) {
            PyErr_SetString(PyExc_ValueError, "fold: a group's reader is not one of the machines");
            return -1;
        }
        if ((uint64_t)half->starts[m] > (uint64_t)half->needles
            || (uint64_t)half->stops[m] > (uint64_t)half->needles) {
            PyErr_SetString(PyExc_ValueError, "fold: a machine's share lies outside the needles");
            return -1;
        }
        if (group->cut_keys
            && ((uint64_t)group->first[i] > (uint64_t)group->cuts + 1
                || (uint64_t)group->last[i] > (uint64_t)group->cuts + 1)) {
            PyErr_SetString(PyExc_ValueError, "fold: a reader's slice bound indexes no cut");
            return -1;
        }
    }
    if (group->count > parse->readers)
        parse->readers = group->count;
    return 0;
}

/* One half: (lows, highs, starts, stops, groups). */
static int parse_half(struct parse *parse, PyObject *obj, struct half *half)
{
    PyObject *parts[5], *groups;
    PyArrayObject *array[4]; /* lows, highs, starts, stops */
    struct group *level;
    Py_ssize_t i;
    if (unpack(parse, obj, 5, "a half", parts)
        || !(array[0] = held(parse, "lows", parts[0], ANY_KEY)))
        return -1;
    half->dtype = key_dtype(array[0]);
    if (!(array[1] = held(parse, "highs", parts[1], 1 << half->dtype))
        || !(array[2] = held(parse, "starts", parts[2], I64_ONLY))
        || !(array[3] = held(parse, "stops", parts[3], I64_ONLY)))
        return -1;
    if (SIZE(array[1]) != SIZE(array[0])) {
        PyErr_Format(PyExc_ValueError, "fold: %zd %S lows but %zd %S highs", SIZE(array[0]),
                     DTYPE(array[0]), SIZE(array[1]), DTYPE(array[1]));
        return -1;
    }
    if (SIZE(array[2]) != parse->machines || SIZE(array[3]) != parse->machines) {
        PyErr_Format(PyExc_ValueError, "fold: %zd starts and %zd stops for %zd machines",
                     SIZE(array[2]), SIZE(array[3]), parse->machines);
        return -1;
    }
    half->lows = PyArray_DATA(array[0]);
    half->highs = PyArray_DATA(array[1]);
    half->needles = SIZE(array[0]);
    half->starts = PyArray_DATA(array[2]);
    half->stops = PyArray_DATA(array[3]);
    if (half->needles > parse->needles)
        parse->needles = half->needles;
    if (!(groups = items_of(parse, parts[4], "groups"))
        || !(level = level_of(PySequence_Fast_GET_SIZE(groups), sizeof *level)))
        return -1;
    half->groups = level;
    half->count = PySequence_Fast_GET_SIZE(groups);
    for (i = 0; i < half->count; i++)
        if (parse_group(parse, PySequence_Fast_GET_ITEM(groups, i), half, level + i))
            return -1;
    return 0;
}

/* Each merge's output arrays, room for every key of its runs: the results
 * list of (keys, cum) pairs, the loop pointed at them.  NULL with an error
 * set. */
static PyObject *fold_results(struct parse *parse)
{
    PyObject *results = PyList_New(parse->merge_count);
    Py_ssize_t i, j;
    if (!results)
        return NULL;
    for (i = 0; i < parse->merge_count; i++) {
        struct merge *merge = parse->merges + i;
        npy_intp total = 0, room;
        PyArrayObject *keys, *cum;
        for (j = 0; j < merge->count; j++)
            total += merge->runs[j].size;
        room = total + 1;
        keys = new_array(1, &total, merge->dtype == F64 ? NPY_DOUBLE : NPY_INT64);
        cum = keys ? new_array(1, &room, NPY_INT64) : NULL;
        if (!cum) {
            Py_XDECREF(keys);
            Py_DECREF(results);
            return NULL;
        }
        PyList_SET_ITEM(results, i, Py_BuildValue("NN", keys, cum));
        if (!PyList_GET_ITEM(results, i)) {
            Py_DECREF(results);
            return NULL;
        }
        merge->keys = PyArray_DATA(keys);
        merge->cum = PyArray_DATA(cum);
    }
    return results;
}

/* Free every level the parse allocated and drop what it held. */
static void parse_free(struct parse *parse)
{
    int64_t i, j;
    for (i = 0; i < parse->merge_count; i++)
        PyMem_Free((void *)parse->merges[i].runs);
    for (i = 0; i < parse->half_count; i++) {
        for (j = 0; j < parse->halves[i].count; j++)
            PyMem_Free((void *)parse->halves[i].groups[j].runs);
        PyMem_Free((void *)parse->halves[i].groups);
    }
    PyMem_Free(parse->merges);
    PyMem_Free(parse->halves);
    Py_XDECREF(parse->held);
}

PyDoc_STRVAR(fold_doc,
"fold(merges, halves, out)\n--\n\n"
"A stream batch's merges and count in one kernel call; the merged runs.\n\n"
"``merges`` lists run cascades, each the ``(keys, cum)`` runs of one\n"
"group, oldest first, that fold into one counted run: ascending keys and\n"
"their cumulative counts (``None``: every key counts once).  The kernel\n"
"merges each as a right fold of two-way merges, the newest pair first,\n"
"keeping the key that comes last in (run, position) order for every\n"
"stretch of equal keys (all NaNs one) and dropping the zero counts at\n"
"the last step only -- the stable-sort merge kept in\n"
"``tests/reference_state.py``, byte for byte.  It returns, per cascade,\n"
"the merged ``(keys, cum)``, or ``None`` when every count cancelled.\n\n"
"``halves`` lists the count's halves, each ``(lows, highs, starts,\n"
"stops, groups)``: the joinable bounds of a side's routed keys, machine\n"
"``m``'s share of them ``[starts[m], stops[m])``, and the groups they\n"
"search, each ``(runs, readers, cut, merge)`` -- its ``(keys, cum)``\n"
"runs, the machines reading it, the slice rule they read every run\n"
"through (a :class:`~repro.partitioning.grid_routed.MachineSlices`\n"
"whose ``first[i]`` / ``last[i]`` say where reader ``i``'s slice starts\n"
"and stops, or ``None``: each reads the runs whole) and the index of a\n"
"cascade whose merged run it searches too (or ``None``).  After the\n"
"merges, the kernel searches each needle its readers hold once in each\n"
"run (numpy's ``searchsorted``, side \"left\" for the low bound and\n"
"\"right\" for the high one), clips the answer to every reader's slice\n"
"and adds the counts into ``out[reader]`` -- one C call however many\n"
"cascades, groups, runs and machines there are, with nothing gathered or\n"
"materialised per needle; ``tests/reference_counting.py`` holds the\n"
"per-task numpy form it equals.\n\n"
"Keys are float64 or int64, one dtype per cascade and per group, and\n"
"the bounds float64 or int64: a group's keys in the bounds' dtype, or\n"
"int64 keys searched with float64 bounds (each compared as the float64\n"
"it casts to, as ``searchsorted`` casts it).  Cut keys are float64;\n"
"``starts``, ``stops``, ``out``, ``cum``, readers and slice bounds are\n"
"int64, ``starts`` / ``stops`` one entry per machine of ``out``, ``cum``\n"
"one longer than its run and ``first`` / ``last`` at least one entry per\n"
"reader; every array C-contiguous and aligned, ``out`` writable.\n"
"Otherwise, or when a reader is no machine, a share lies outside the\n"
"needles or a slice bound indexes no cut, this raises by name having\n"
"merged nothing and written nothing into ``out``.");

static PyObject *py_fold(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"merges", "halves", "out", NULL};
    PyObject *merges_obj, *halves_obj, *out_obj, *items, *results = NULL;
    PyArrayObject *out;
    struct parse parse = {NULL, 0, NULL, NULL, 0, 0, 0, 0};
    Py_ssize_t i;
    int status;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:fold", keywords,
                                     &merges_obj, &halves_obj, &out_obj)
        || !(out = take("fold", "out", out_obj, I64_ONLY, 1)) || !(parse.held = PyList_New(0)))
        return NULL;
    parse.machines = SIZE(out);
    if (!(items = items_of(&parse, merges_obj, "merges"))
        || !(parse.merges = level_of(PySequence_Fast_GET_SIZE(items), sizeof *parse.merges)))
        goto done;
    parse.merge_count = PySequence_Fast_GET_SIZE(items);
    for (i = 0; i < parse.merge_count; i++) {
        struct merge *merge = parse.merges + i;
        if (parse_runs(&parse, PySequence_Fast_GET_ITEM(items, i), ANY_KEY,
                       "a cascade merges no run", &merge->dtype, &merge->runs, &merge->count))
            goto done;
    }
    if (!(items = items_of(&parse, halves_obj, "halves"))
        || !(parse.halves = level_of(PySequence_Fast_GET_SIZE(items), sizeof *parse.halves)))
        goto done;
    parse.half_count = PySequence_Fast_GET_SIZE(items);
    for (i = 0; i < parse.half_count; i++)
        if (parse_half(&parse, PySequence_Fast_GET_ITEM(items, i), parse.halves + i))
            goto done;
    if (!(results = fold_results(&parse)))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    status = fold(parse.merges, parse.merge_count, parse.halves, parse.half_count, parse.needles,
                  parse.readers, PyArray_DATA(out));
    Py_END_ALLOW_THREADS
    if (status) {
        PyErr_SetString(PyExc_MemoryError, "the kernel's fold could not allocate its scratch");
        Py_CLEAR(results);
        goto done;
    }
    for (i = 0; i < parse.merge_count; i++) {
        int64_t entries = parse.merges[i].entries;
        PyObject *pair = PyList_GET_ITEM(results, i);
        if (!entries) {
            Py_INCREF(Py_None);
            PyList_SET_ITEM(results, i, Py_None);
            Py_DECREF(pair);
        } else if (shrink((PyArrayObject *)PyTuple_GET_ITEM(pair, 0), entries)
                   || shrink((PyArrayObject *)PyTuple_GET_ITEM(pair, 1), entries + 1)) {
            Py_CLEAR(results);
            goto done;
        }
    }
done:
    parse_free(&parse);
    return results;
}

PyDoc_STRVAR(band_inverse_doc,
"band_inverse(keys, beta)\n--\n\n"
"A band's exact inverse bounds ``(L, U)``: the R1 keys each R2 key in ``keys`` joins.\n\n"
"The band test from the R1 side is ``fl(k1 - beta) <= k2 <= fl(k1 +\n"
"beta)``; from the R2 side it is ``L(k2) <= k1 <= U(k2)``, ``L(k)`` the\n"
"smallest ``x`` with ``fl(x + beta) >= k`` and ``U(k)`` the largest with\n"
"``fl(x - beta) <= k``.  Each is a few one-ulp steps from ``fl(k -+\n"
"beta)``, or a bisection over the doubles' ordinals where the key's ulp\n"
"is far finer than the sum's; no step overflows (the step above the\n"
"largest double is ``inf``) and nothing warns.  Both are float64 in the\n"
"keys' shape.  ``keys`` are float64, C-contiguous and not NaN; otherwise\n"
"this raises by name.  ``tests/reference_conditions.py`` keeps the numpy\n"
"form they equal bit for bit.");

static PyObject *py_band_inverse(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"keys", "beta", NULL};
    PyObject *keys_obj;
    PyArrayObject *keys, *lows, *highs;
    double beta;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Od:band_inverse", keywords,
                                     &keys_obj, &beta)
        || !(keys = take("band_inverse", "keys", keys_obj, F64_ONLY, 0))
        || !(lows = new_array(PyArray_NDIM(keys), PyArray_DIMS(keys), NPY_DOUBLE)))
        return NULL;
    if (!(highs = new_array(PyArray_NDIM(keys), PyArray_DIMS(keys), NPY_DOUBLE))) {
        Py_DECREF(lows);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    band_inverse(PyArray_DATA(keys), SIZE(keys), beta, PyArray_DATA(lows), PyArray_DATA(highs));
    Py_END_ALLOW_THREADS
    return Py_BuildValue("NN", lows, highs);
}

PyDoc_STRVAR(offer_doc,
"offer(heap, size, capacity, counter, priorities, keys)\n--\n\n"
"A reservoir's heap loop over a batch of entries; the next counter.\n\n"
"The loop of :meth:`~repro.streaming.incremental.DecayedReservoir.add_batch`\n"
"(payload: keys) and of :class:`~repro.sampling.reservoir.WeightedReservoir`'s\n"
"offers (payload: pool positions).  ``heap`` is the reservoir's\n"
"``(priorities, counters, keys)`` arrays, whose first ``size`` entries\n"
"are the heap, ``counter`` its next unused counter, and ``priorities`` /\n"
"``keys`` the batch's entries and payloads in offer order.  The kernel\n"
"writes the heap array ``heapq`` would leave behind the batch-start\n"
"filter (``tests/reference_sampling.py``); the heap then\n"
"holds ``min(capacity, size + len(keys))`` entries.  Priorities and keys\n"
"are float64, counters int64, and the heap's arrays have room for that\n"
"many entries; ``0 <= size <= capacity`` and ``0 <= counter``.  No\n"
"priority is NaN: neither ``heapq``'s tuple comparison nor the kernel's\n"
"orders one, so a NaN is refused by its position before anything is\n"
"written.  No caller makes one: ``add_batch`` drops NaN keys before it\n"
"draws, and ``weighted_samples_wor`` offers only ``weights > 0``.\n"
"Otherwise this raises by name and writes nothing.");

static PyObject *py_offer(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"heap", "size", "capacity", "counter", "priorities", "keys", NULL};
    static const char *names[5] = {"heap priorities", "heap counters", "heap keys",
                                   "priorities", "keys"};
    PyObject *objs[5];
    PyArrayObject *array[5]; /* the heap's three, then the batch's two */
    Py_ssize_t size, capacity, counter, room, n, i;
    const double *batch;
    int64_t next;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "(OOO)nnnOO:offer", keywords,
                                     &objs[0], &objs[1], &objs[2], &size, &capacity,
                                     &counter, &objs[3], &objs[4]))
        return NULL;
    for (i = 0; i < 5; i++)
        if (!(array[i] = take("offer", names[i], objs[i], i == 1 ? I64_ONLY : F64_ONLY, i < 3)))
            return NULL;
    if (SIZE(array[3]) != SIZE(array[4])) {
        PyErr_Format(PyExc_ValueError, "offer: %zd priorities but %zd keys", SIZE(array[3]),
                     SIZE(array[4]));
        return NULL;
    }
    room = size + SIZE(array[4]) < capacity ? size + SIZE(array[4]) : capacity;
    if (SIZE(array[0]) < room || SIZE(array[1]) < room || SIZE(array[2]) < room) {
        PyErr_Format(PyExc_ValueError, "offer: the heap's arrays have no room for %zd entries",
                     room);
        return NULL;
    }
    if (capacity <= 0 || size < 0 || size > capacity || counter < 0) {
        PyErr_Format(PyExc_ValueError,
                     "offer: size %zd, capacity %zd, counter %zd: a heap needs 0 <= size <= "
                     "capacity, 0 < capacity and 0 <= counter",
                     size, capacity, counter);
        return NULL;
    }
    batch = PyArray_DATA(array[3]);
    n = SIZE(array[3]);
    for (i = 0; i < n; i++)
        if (isnan(batch[i])) {
            PyErr_Format(PyExc_ValueError,
                         "offer: priorities[%zd] is NaN, not a priority a heap can order", i);
            return NULL;
        }
    Py_BEGIN_ALLOW_THREADS
    next = offer(PyArray_DATA(array[0]), PyArray_DATA(array[1]), PyArray_DATA(array[2]), size,
                 capacity, counter, PyArray_DATA(array[3]), PyArray_DATA(array[4]),
                 SIZE(array[4]));
    Py_END_ALLOW_THREADS
    return PyLong_FromLongLong(next);
}

PyDoc_STRVAR(group_sums_doc,
"group_sums(ptr, index, value, bounds)\n--\n\n"
"A sparse matrix's row sums by column group, equal to the dense ``np.add.reduceat``.\n\n"
"Row ``m`` holds the entries ``ptr[m]:ptr[m + 1]`` of ``index`` (their\n"
"columns, ascending) and ``value`` (non-negative); ``bounds`` runs from 0\n"
"up through each group's first column to the column count.  Returns the\n"
"rows x groups float64 array, C-ordered, whose ``[m, g]`` is\n"
"``np.add.reduceat(dense, bounds[:-1], axis=1)[m, g]`` bit for bit:\n"
"numpy's pairwise sum walked over the nonzero entries only (adding 0.0\n"
"is exact).  The same call with the entries by column gives the\n"
"transposed aggregate ``np.add.reduceat(dense, bounds[:-1], axis=0).T``.\n"
"``ptr``, ``index`` and ``bounds`` are int64, ``value`` float64,\n"
"``index`` and ``value`` one length, with at least one group; a ``ptr``\n"
"that does not run from 0 up to that length, a row's columns out of\n"
"order or range, or bounds that do not rise from 0 raise by name.");

static PyObject *py_group_sums(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"ptr", "index", "value", "bounds", NULL};
    static const char *names[5] = {"out", "ptr", "index", "value", "bounds"};
    PyObject *objs[4];
    PyArrayObject *array[5]; /* out, then the four inputs */
    char shapes[3][160];
    npy_intp shape[2];
    int64_t status;
    int i;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:group_sums", keywords,
                                     &objs[0], &objs[1], &objs[2], &objs[3]))
        return NULL;
    for (i = 1; i < 5; i++)
        if (!(array[i] = take("group_sums", names[i], objs[i - 1],
                              i == 3 ? F64_ONLY : I64_ONLY, 0)))
            return NULL;
    if (PyArray_NDIM(array[1]) != 1 || SIZE(array[1]) < 1 || !same_shape(array[2], array[3])
        || PyArray_NDIM(array[2]) != 1) {
        PyErr_Format(PyExc_ValueError, "group_sums: ptr %s, index %s and value %s are not one CSR",
                     shape_text(array[1], shapes[0], sizeof shapes[0]),
                     shape_text(array[2], shapes[1], sizeof shapes[1]),
                     shape_text(array[3], shapes[2], sizeof shapes[2]));
        return NULL;
    }
    if (PyArray_NDIM(array[4]) != 1 || SIZE(array[4]) < 2) {
        PyErr_Format(PyExc_ValueError, "group_sums: bounds %s hold no group",
                     shape_text(array[4], shapes[0], sizeof shapes[0]));
        return NULL;
    }
    shape[0] = SIZE(array[1]) - 1;
    shape[1] = SIZE(array[4]) - 1;
    if (!(array[0] = new_array(2, shape, NPY_DOUBLE)))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    status = group_sums(PyArray_DATA(array[1]), PyArray_DATA(array[2]), PyArray_DATA(array[3]),
                        shape[0], SIZE(array[2]), PyArray_DATA(array[4]), shape[1],
                        PyArray_DATA(array[0]));
    Py_END_ALLOW_THREADS
    if (status) {
        Py_DECREF(array[0]);
        PyErr_SetString(PyExc_ValueError,
                        "group_sums: ptr does not run from 0 to the entries, a row's index is "
                        "out of order or range, or the bounds do not rise from 0");
        return NULL;
    }
    return (PyObject *)array[0];
}

PyDoc_STRVAR(sweep_rows_doc,
"sweep_rows(freq, cand, row_input, col_input, w_i, w_o, threshold, max_groups)\n--\n\n"
"One greedy sweep of coarsening's per-axis threshold search.\n\n"
"``freq`` / ``cand`` are the rows' frequencies and candidate counts by\n"
"column group (rows x groups), ``row_input`` / ``col_input`` the rows'\n"
"and the groups' input, ``w_i`` / ``w_o`` the cost model's coefficients.\n"
"Returns the boundary array -- 0, each group's first row, the row count\n"
"-- or ``None`` when more than ``max_groups`` groups are needed.  Every\n"
"array is float64 of matching shape and C order (an F-ordered aggregate\n"
"raises, never read with the wrong strides: the caller makes its arrays\n"
"C-contiguous once per axis), and ``max_groups`` at least 1; otherwise\n"
"this raises by name.  Candidate counts must be whole and non-negative,\n"
"as coarsening's column aggregates make them: the kernel sums them from\n"
"each group's first row.  ``tests/reference_planner.py`` holds the numpy\n"
"sweep and the row-by-row loop it equals boundary for boundary.");

static PyObject *py_sweep_rows(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"freq", "cand", "row_input", "col_input", "w_i", "w_o",
                               "threshold", "max_groups", NULL};
    static const char *names[5] = {"out", "freq", "cand", "row_input", "col_input"};
    PyObject *objs[4];
    PyArrayObject *array[5]; /* out, then the four inputs */
    char shapes[3][160];
    double w_i, w_o, threshold;
    Py_ssize_t max_groups;
    npy_intp room;
    int64_t written;
    int i;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOdddn:sweep_rows", keywords,
                                     &objs[0], &objs[1], &objs[2], &objs[3], &w_i, &w_o,
                                     &threshold, &max_groups))
        return NULL;
    for (i = 1; i < 5; i++)
        if (!(array[i] = take("sweep_rows", names[i], objs[i - 1], F64_ONLY, 0)))
            return NULL;
    if (PyArray_NDIM(array[1]) != 2 || !same_shape(array[2], array[1])) {
        PyErr_Format(PyExc_ValueError, "sweep_rows: freq %s and cand %s are not one matrix",
                     shape_text(array[1], shapes[0], sizeof shapes[0]),
                     shape_text(array[2], shapes[1], sizeof shapes[1]));
        return NULL;
    }
    if (PyArray_NDIM(array[3]) != 1 || PyArray_DIM(array[3], 0) != PyArray_DIM(array[1], 0)
        || PyArray_NDIM(array[4]) != 1 || PyArray_DIM(array[4], 0) != PyArray_DIM(array[1], 1)) {
        PyErr_Format(PyExc_ValueError,
                     "sweep_rows: row_input %s and col_input %s do not fit a %s matrix",
                     shape_text(array[3], shapes[0], sizeof shapes[0]),
                     shape_text(array[4], shapes[1], sizeof shapes[1]),
                     shape_text(array[1], shapes[2], sizeof shapes[2]));
        return NULL;
    }
    if (max_groups < 1) {
        PyErr_Format(PyExc_ValueError,
                     "sweep_rows: max_groups is %zd: a sweep needs at least one group", max_groups);
        return NULL;
    }
    room = max_groups + 1;
    if (!(array[0] = new_array(1, &room, NPY_INT64)))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    written = sweep_rows(PyArray_DATA(array[1]), PyArray_DATA(array[2]), PyArray_DATA(array[3]),
                         PyArray_DATA(array[4]), PyArray_DIM(array[1], 0),
                         PyArray_DIM(array[1], 1), w_i, w_o, threshold, max_groups,
                         PyArray_DATA(array[0]));
    Py_END_ALLOW_THREADS
    if (written <= 0) {
        Py_DECREF(array[0]);
        if (written < 0)
            return PyErr_NoMemory();
        Py_RETURN_NONE;
    }
    if (shrink(array[0], written)) {
        Py_DECREF(array[0]);
        return NULL;
    }
    return (PyObject *)array[0];
}

/* A copy of an array with `rows` entries along its first axis, the first
 * `kept` of them the array's; the array's reference is dropped.  NULL
 * with an error set (the reference dropped too). */
static PyArrayObject *grown(PyArrayObject *array, npy_intp rows, npy_intp kept)
{
    npy_intp shape[2];
    PyArrayObject *bigger;
    shape[0] = rows;
    shape[1] = PyArray_NDIM(array) > 1 ? PyArray_DIM(array, 1) : 0;
    bigger = new_array(PyArray_NDIM(array), shape, NPY_INT64);
    if (bigger)
        memcpy(PyArray_DATA(bigger), PyArray_DATA(array),
               (size_t)kept * (size_t)PyArray_STRIDE(array, 0));
    Py_DECREF(array);
    return bigger;
}

PyDoc_STRVAR(closure_doc,
"closure(rows, lo, hi, below, above, first, last, mirrored, split)\n--\n\n"
"The minimal candidate rectangles MonotonicBSP can reach, with their child pairs.\n\n"
"The first seven arguments are :class:`~repro.core.tiling_tables.TilingTables`'\n"
"lookups, in its own (ascending-span) columns: the candidate rows by\n"
"position with their spans (``rows``, ``lo``, ``hi``), per grid row the\n"
"first candidate position at or below it and the last at or above it\n"
"(``below``, ``above``), per column the first position whose span ends\n"
"at or after it and the last whose span starts at or before it\n"
"(``first``, ``last``); ``mirrored`` when the grid's spans descend.\n"
"``split(keys)`` is called once per round with the rectangles met in\n"
"the round before (the root, first) and says, one bool each, which of\n"
"them need children; the kernel gives them their children in the next.\n"
"``keys`` is a view of a buffer the next round may move: ``split`` keeps\n"
"nothing of it.\n\n"
"Returns ``(keys, offsets, children)``: ``keys[i]`` is rectangle ``i``'s\n"
"``(row_lo, row_hi, col_lo, col_hi)`` in the tables' columns, the root\n"
"first, and ``children[offsets[i]:offsets[i + 1]]`` its halves, pair by\n"
"pair in the order the DP tries splits (none for a rectangle ``split``\n"
"refused).  No candidate row gives no rectangle.  Every lookup is int64\n"
"and indexes what it looks up, and the grid has 1 to 65,536 rows and\n"
"columns (a rectangle's id is keyed on its corners, 16 bits each);\n"
"otherwise this raises by name.");

static PyObject *py_closure(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"rows", "lo", "hi", "below", "above", "first", "last",
                               "mirrored", "split", NULL};
    static const char *names[7] = {"rows", "lo", "hi", "below", "above", "first", "last"};
    PyObject *objs[7], *split, *said, *result = NULL;
    PyArrayObject *lookup[7], *keys = NULL, *offsets = NULL, *children = NULL, *flags = NULL;
    npy_intp shape[2] = {2048, 4}, room = 2049, child_room = 65536;
    int64_t count = 0, start = 0, entries = 0, sizes[2], status;
    Py_ssize_t num_rows, num_cols;
    char text[160];
    int mirrored, i;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOpO:closure", keywords,
                                     &objs[0], &objs[1], &objs[2], &objs[3], &objs[4],
                                     &objs[5], &objs[6], &mirrored, &split))
        return NULL;
    for (i = 0; i < 7; i++)
        if (!(lookup[i] = take("closure", names[i], objs[i], I64_ONLY, 0)))
            return NULL;
    if (SIZE(lookup[0]) != SIZE(lookup[1]) || SIZE(lookup[0]) != SIZE(lookup[2])) {
        PyErr_Format(PyExc_ValueError, "closure: %zd rows but %zd lo and %zd hi", SIZE(lookup[0]),
                     SIZE(lookup[1]), SIZE(lookup[2]));
        return NULL;
    }
    if (SIZE(lookup[3]) != SIZE(lookup[4]) || SIZE(lookup[5]) != SIZE(lookup[6])) {
        PyErr_Format(PyExc_ValueError,
                     "closure: below / above have %zd / %zd rows and first / last %zd / %zd "
                     "columns",
                     SIZE(lookup[3]), SIZE(lookup[4]), SIZE(lookup[5]), SIZE(lookup[6]));
        return NULL;
    }
    num_rows = SIZE(lookup[3]);
    num_cols = SIZE(lookup[5]);
    if (!(0 < num_rows && num_rows <= 65536 && 0 < num_cols && num_cols <= 65536)) {
        PyErr_Format(PyExc_ValueError,
                     "closure: a %zd x %zd grid: the closure takes 1 to 65,536 rows and columns",
                     num_rows, num_cols);
        return NULL;
    }
    /* Room for a 24 x 24 band grid's 1,128 rectangles and 34K children; a
     * round that runs out of either is run again in twice the room. */
    if (!(keys = new_array(2, shape, NPY_INT64)) || !(offsets = new_array(1, &room, NPY_INT64))
        || !(children = new_array(1, &child_room, NPY_INT64)))
        goto done;
    ((int64_t *)PyArray_DATA(offsets))[0] = 0;
    for (;;) {
        Py_BEGIN_ALLOW_THREADS
        status = closure(PyArray_DATA(lookup[0]), PyArray_DATA(lookup[1]),
                         PyArray_DATA(lookup[2]), SIZE(lookup[0]), PyArray_DATA(lookup[3]),
                         PyArray_DATA(lookup[4]), num_rows, PyArray_DATA(lookup[5]),
                         PyArray_DATA(lookup[6]), num_cols, mirrored, PyArray_DATA(keys), count,
                         PyArray_DIM(keys, 0), flags ? PyArray_DATA(flags) : NULL, start,
                         PyArray_DATA(offsets), PyArray_DATA(children), entries,
                         SIZE(children), sizes);
        Py_END_ALLOW_THREADS
        if (status == 1) {
            npy_intp rects = 2 * PyArray_DIM(keys, 0);
            if (!(keys = grown(keys, rects, count))
                || !(offsets = grown(offsets, rects + 1, start + 1)))
                goto done;
            continue;
        }
        if (status == 2) {
            if (!(children = grown(children, 2 * SIZE(children), entries)))
                goto done;
            continue;
        }
        if (status == -1) {
            PyErr_SetString(PyExc_MemoryError,
                            "the kernel's closure could not allocate its id table");
            goto done;
        }
        if (status) {
            PyErr_SetString(PyExc_ValueError, "closure: a lookup points outside the table it "
                                              "indexes: these are not a monotone grid's tables");
            goto done;
        }
        start = count;
        count = sizes[0];
        entries = sizes[1];
        if (start == count)
            break;
        {
            PyObject *met = PySequence_GetSlice((PyObject *)keys, start, count);
            said = met ? PyObject_CallFunctionObjArgs(split, met, NULL) : NULL;
            Py_XDECREF(met);
        }
        Py_CLEAR(flags);
        if (!said)
            goto done;
        flags = (PyArrayObject *)PyArray_FromAny(said, PyArray_DescrFromType(NPY_BOOL), 0, 0,
                                                 NPY_ARRAY_CARRAY_RO | NPY_ARRAY_FORCECAST, NULL);
        Py_DECREF(said);
        if (!flags)
            goto done;
        if (PyArray_NDIM(flags) > 1 || SIZE(flags) != count - start) {
            PyErr_Format(PyExc_ValueError, "closure: split said %s for %zd rectangles",
                         shape_text(flags, text, sizeof text), (Py_ssize_t)(count - start));
            goto done;
        }
    }
    /* Give back the room no entry took: every array ends where its entries do. */
    if (!shrink(keys, count) && !shrink(offsets, count + 1) && !shrink(children, entries))
        result = Py_BuildValue("OOO", keys, offsets, children);
done:
    Py_XDECREF(keys);
    Py_XDECREF(offsets);
    Py_XDECREF(children);
    Py_XDECREF(flags);
    return result;
}

PyDoc_STRVAR(tile_doc,
"tile(offsets, children, leaf_thresholds, root, delta)\n--\n\n"
"MonotonicBSP's dynamic program at threshold ``delta`` over a :func:`closure`.\n\n"
"``offsets`` / ``children`` are the closure's child table,\n"
"``leaf_thresholds[x]`` the smallest threshold at which rectangle ``x``\n"
"is one region (its weight; ``-inf`` for a single cell) and ``root`` the\n"
"rectangle to cover.  Returns ``(counts, splits)``: ``counts[x]`` is the\n"
"fewest regions covering ``x`` (0: the search never met it), and for a\n"
"rectangle that splits (``counts[x] > 1``) ``children[splits[x]]`` and\n"
"``children[splits[x] + 1]`` are the halves of its best split (``splits``\n"
"is 0 elsewhere).  Offsets and children are int64 and index what they\n"
"index, thresholds float64, ``offsets`` one longer than them, ``root`` a\n"
"rectangle and ``delta`` not NaN (no rectangle is one region at a NaN\n"
"threshold, not even a single cell); otherwise this raises by name.");

static PyObject *py_tile(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"offsets", "children", "leaf_thresholds", "root", "delta", NULL};
    static const char *names[5] = {"counts", "splits", "offsets", "children", "leaf_thresholds"};
    PyObject *objs[3];
    PyArrayObject *array[5]; /* counts, splits, then the three inputs */
    Py_ssize_t root, size;
    npy_intp shape;
    double delta;
    int64_t status;
    int i;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOnd:tile", keywords,
                                     &objs[0], &objs[1], &objs[2], &root, &delta))
        return NULL;
    for (i = 2; i < 5; i++)
        if (!(array[i] = take("tile", names[i], objs[i - 2], i == 4 ? F64_ONLY : I64_ONLY, 0)))
            return NULL;
    size = SIZE(array[4]);
    if (SIZE(array[2]) != size + 1) {
        PyErr_Format(PyExc_ValueError, "tile: %zd offsets for %zd rectangles", SIZE(array[2]),
                     size);
        return NULL;
    }
    if (!(0 <= root && root < size)) {
        PyErr_Format(PyExc_ValueError, "tile: root %zd is not one of the %zd rectangles", root,
                     size);
        return NULL;
    }
    if (delta != delta) {
        PyErr_SetString(PyExc_ValueError,
                        "tile: delta is nan: a tiling's threshold must be comparable");
        return NULL;
    }
    shape = size;
    if (!(array[0] = new_array(1, &shape, NPY_INT64)))
        return NULL;
    if (!(array[1] = new_array(1, &shape, NPY_INT64))) {
        Py_DECREF(array[0]);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    status = tile(PyArray_DATA(array[2]), PyArray_DATA(array[3]), PyArray_DATA(array[4]), size,
                  SIZE(array[3]), root, delta, PyArray_DATA(array[0]), PyArray_DATA(array[1]));
    Py_END_ALLOW_THREADS
    if (status) {
        Py_DECREF(array[0]);
        Py_DECREF(array[1]);
        if (status == -1)
            PyErr_SetString(PyExc_MemoryError, "the kernel's tiling could not allocate its stack");
        else
            PyErr_SetString(PyExc_ValueError, "tile: an offset or a child lies outside what it "
                                              "indexes, or a rectangle above delta has no split");
        return NULL;
    }
    return Py_BuildValue("NN", array[0], array[1]);
}

PyDoc_STRVAR(search_doc,
"search(keys, needles, right)\n--\n\n"
"``np.searchsorted(keys, needles, \"right\" if right else \"left\")``, as int64.\n\n"
"The plan build's searches: :func:`~repro.sampling.equidepth.bucket_index`\n"
"(Stream-Sample's workers, the sample matrix's output pairs, grid\n"
"routing), Stream-Sample's d2equi windows and job 3's prefix search, and\n"
"the with-replacement draw of :func:`~repro.sampling.reservoir.wor_to_wr`.\n"
"``keys`` ascend in numpy's order (NaN last, ``-0.0 == 0.0``) and are\n"
"one-dimensional; ``needles`` have their dtype, float64 or int64, and\n"
"any shape, which the answers take.  Needles that never descend are\n"
"each walked to from the previous answer; any other call bisects every\n"
"needle without a branch.  Either way every answer is numpy's, and keys\n"
"that do not ascend are read only within their bounds.  Anything else\n"
"raises by name.");

static PyObject *py_search(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"keys", "needles", "right", NULL};
    PyObject *keys_obj, *needles_obj;
    PyArrayObject *keys, *needles, *out;
    int right, dtype;
    char shape[64];
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOp:search", keywords, &keys_obj,
                                     &needles_obj, &right)
        || !(keys = take("search", "keys", keys_obj, ANY_KEY, 0))
        || !(needles = take("search", "needles", needles_obj, ANY_KEY, 0)))
        return NULL;
    dtype = key_dtype(keys);
    if (key_dtype(needles) != dtype) {
        PyErr_Format(PyExc_TypeError, "search: needles is %S, not %s as the keys are",
                     DTYPE(needles), key_name(dtype));
        return NULL;
    }
    if (PyArray_NDIM(keys) != 1) {
        PyErr_Format(PyExc_ValueError, "search: keys has shape %s, not one axis",
                     shape_text(keys, shape, sizeof shape));
        return NULL;
    }
    if (!(out = new_array(PyArray_NDIM(needles), PyArray_DIMS(needles), NPY_INT64)))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    if (dtype == F64)
        find_f64(PyArray_DATA(keys), SIZE(keys), PyArray_DATA(needles), SIZE(needles), right,
                 PyArray_DATA(out));
    else
        find_i64(PyArray_DATA(keys), SIZE(keys), PyArray_DATA(needles), SIZE(needles), right,
                 PyArray_DATA(out));
    Py_END_ALLOW_THREADS
    return (PyObject *)out;
}

PyDoc_STRVAR(spans_doc,
"spans(row_lo, row_hi, col_lo, col_hi, rule, beta)\n--\n\n"
"Each grid row's candidate columns ``(first, stop)``, int64, ``stop >= first``.\n\n"
":meth:`~repro.joins.conditions.JoinCondition.candidate_spans`: rows are\n"
"R1 key ranges ``[row_lo[i], row_hi[i]]``, columns R2 key ranges, every\n"
"edge array float64 and ascending, each pair of one size.  ``rule`` is\n"
"the condition's: ``\"band\"`` excludes a cell when ``fl(row_lo - col_hi)``\n"
"or ``fl(col_lo - row_hi)`` is more than ``beta`` (the band family: band,\n"
"equi, composite and the transposed band), ``\"<\"`` / ``\"<=\"`` when\n"
"``row_lo`` is not below / not at most ``col_hi``, ``\">\"`` / ``\">=\"``\n"
"when ``col_lo`` is not below / not at most ``row_hi``; ``beta`` is read\n"
"by the band alone.  Each end is found by bisection on the rule as numpy\n"
"rounds it, so every span is the run of the dense mask's candidate cells\n"
"(``tests/test_spans_oracle.py`` holds it to the numpy search it\n"
"replaced).  Anything else raises by name.");

/*
 * The rule `name` spells, or RULES for none.  Compared here, not by
 * strcmp: a libc function the library did not import adds a PLT slot
 * before .text, which moves every loop 16 bytes, count_run's off the
 * 32-byte boundary it had (stream_steady read 0.978x tuples_per_s, 0/4
 * pairs on a 2-core Xeon, until this loop replaced strcmp).
 */
static int rule_of(const char *name)
{
    static const char *rules[RULES] = {"band", "<", "<=", ">", ">="};
    int rule, i;
    for (rule = 0; rule < RULES; rule++) {
        for (i = 0; name[i] && name[i] == rules[rule][i]; i++)
            ;
        if (name[i] == rules[rule][i])
            break;
    }
    return rule;
}

static PyObject *py_spans(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"row_lo", "row_hi", "col_lo", "col_hi", "rule", "beta", NULL};
    static const char *names[4] = {"row_lo", "row_hi", "col_lo", "col_hi"};
    PyObject *objs[4];
    PyArrayObject *array[4], *first, *stop;
    const double *edge[4];
    const char *rule_name;
    npy_intp rows;
    int64_t cols;
    double beta;
    int i, rule;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOsd:spans", keywords, &objs[0],
                                     &objs[1], &objs[2], &objs[3], &rule_name, &beta))
        return NULL;
    for (i = 0; i < 4; i++) {
        if (!(array[i] = take("spans", names[i], objs[i], F64_ONLY, 0)))
            return NULL;
        edge[i] = PyArray_DATA(array[i]);
    }
    for (i = 0; i < 4; i += 2)
        if (SIZE(array[i]) != SIZE(array[i + 1])) {
            PyErr_Format(PyExc_ValueError, "spans: %s has %zd edges and %s %zd, not as many",
                         names[i], SIZE(array[i]), names[i + 1], SIZE(array[i + 1]));
            return NULL;
        }
    if ((rule = rule_of(rule_name)) == RULES) {
        PyErr_Format(PyExc_ValueError, "spans: rule is '%s', not band, <, <=, > or >=",
                     rule_name);
        return NULL;
    }
    rows = SIZE(array[0]);
    cols = SIZE(array[2]);
    if (!(first = new_array(1, &rows, NPY_INT64)))
        return NULL;
    if (!(stop = new_array(1, &rows, NPY_INT64))) {
        Py_DECREF(first);
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
#define CALL(NAME)                                                             \
    spans_##NAME(edge[0], edge[1], rows, edge[2], edge[3], cols, beta,        \
                 PyArray_DATA(first), PyArray_DATA(stop))
    switch (rule) {
    case BAND: CALL(band); break;
    case LESS: CALL(less); break;
    case LESS_EQUAL: CALL(less_equal); break;
    case GREATER: CALL(greater); break;
    default: CALL(greater_equal);
    }
#undef CALL
    Py_END_ALLOW_THREADS
    return Py_BuildValue("NN", first, stop);
}

/* An entry point taking positional and keyword arguments. */
#define ENTRY(name) (PyCFunction)(void (*)(void))py_##name, METH_VARARGS | METH_KEYWORDS, name##_doc

static PyMethodDef methods[] = {
    {"fold", ENTRY(fold)},
    {"band_inverse", ENTRY(band_inverse)},
    {"offer", ENTRY(offer)},
    {"group_sums", ENTRY(group_sums)},
    {"sweep_rows", ENTRY(sweep_rows)},
    {"closure", ENTRY(closure)},
    {"tile", ENTRY(tile)},
    {"search", ENTRY(search)},
    {"spans", ENTRY(spans)},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "repro.joins._native",
    "The compiled kernel's entry points; repro.joins.native builds, loads and documents it.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__native(void)
{
    import_array();
    return PyModule_Create(&module);
}
