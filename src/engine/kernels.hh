/**
 * @file
 * Vectorized scan kernels: batched, branch-free predicate evaluation
 * over column stripes, producing dense selection vectors.
 *
 * A kernel consumes up to kBatchRows 8-byte slots read from a table's
 * record storage at a fixed stride (the record stride in slots; 1 for a
 * genuinely contiguous stripe) and writes the in-batch indices of the
 * matching slots into a SelVec — no per-row branching on the match and
 * no per-row push_back.  Each predicate op ships two forms:
 *
 *  - a portable scalar form whose inner loop is branch-free (the match
 *    bit is added to the output cursor, the candidate index is stored
 *    unconditionally), and
 *  - an AVX2 form (4 slots per step: gather/load, vector compare,
 *    movemask, LUT compaction), compiled per-function with
 *    target("avx2") so the rest of the tree keeps the default ISA.
 *
 * Which form kernel() returns is decided once per process: the AVX2
 * form when the CPU reports AVX2 (cpuid via __builtin_cpu_supports)
 * and the DVP_FORCE_SCALAR environment override is not set.  Both
 * forms implement *identical* semantics — the differential tests in
 * tests/test_kernels.cc compare them slot-for-slot against each other
 * and against the executor's original row-at-a-time loop.
 *
 * NULL and type handling live inside the compare, not around it:
 *  - the NULL sentinel (INT64_MIN) never matches Eq even when the
 *    literal equals the sentinel bit pattern, and never matches Between
 *    even when the range abuts INT64_MIN;
 *  - Between matches only numeric slots: string-tagged slots (bits
 *    63..62 == 01) are excluded exactly as Condition::matches /
 *    storage::isNumericSlot exclude them.
 *
 * The op set is exactly what the SQL surface emits (fromCondition):
 * equality (including = ANY and string literals), BETWEEN and IS [NOT]
 * NULL.  Slots hold integers, so a one-sided comparison is a BETWEEN
 * with one end at INT64_MIN or INT64_MAX; should SQL ever accept
 * <, <=, > or >=, the parser rewrites them rather than adding ops.
 *
 * zoneCanMatch() is the storage-side counterpart: a conservative
 * per-block test over a Table's ZoneEntry (min/max/null counts, see
 * storage/table.hh) that lets scans skip whole blocks before touching
 * record data.  It may return true for a block with no matches, never
 * false for a block with one.
 */

#ifndef DVP_ENGINE_KERNELS_HH
#define DVP_ENGINE_KERNELS_HH

#include <cstdint>

#include "engine/query.hh"
#include "storage/table.hh"
#include "storage/value.hh"

namespace dvp::engine::kernels
{

/** Kernel batch size; one zone-map block (storage/table.hh). */
constexpr size_t kBatchRows = storage::kZoneRows;

/** Predicate ops.  Semantics per slot s (lo/hi are the literals):
 *
 *   Eq          !null(s) && s == lo   (lo may be a dictionary-encoded
 *                                      string: the compare is the same)
 *   Between     numeric(s) && lo <= s && s <= hi
 *   IsNull      null(s)
 *   NotNull     !null(s)
 */
enum class PredOp : uint8_t
{
    Eq,
    Between,
    IsNull,
    NotNull
};
constexpr size_t kPredOps = 4;

/** Stable lowercase name of @p op (metric labels, bench output). */
const char *predName(PredOp op);

/**
 * Dense selection vector: in-batch indices of the matching slots, in
 * ascending order.  Preallocated by the owner (one per executor lane);
 * kernels overwrite it wholesale.  The 4-slot overhang lets the AVX2
 * compaction store a full vector at the tail without bounds checks.
 */
struct SelVec
{
    uint32_t n = 0;
    alignas(64) uint32_t idx[kBatchRows + 4];
};

/** A predicate with bound literals (execution-time, not plan-time). */
struct Pred
{
    PredOp op = PredOp::NotNull;
    storage::Slot lo = 0;
    storage::Slot hi = 0;
};

/**
 * Translate a query Condition into a kernel Pred.  Eq and AnyEq map to
 * Eq whether the literal is a number or a dictionary-encoded string.
 * @pre c.op is Eq, AnyEq, Between, IsNull, or NotNull.
 */
Pred fromCondition(const Condition &c);

/** Reference single-slot semantics; kernels must agree with this. */
bool matchOne(const Pred &p, storage::Slot s);

/**
 * A batch kernel: evaluate the op over @p n slots at @p col (stride
 * @p stride slots between consecutive elements; n <= kBatchRows) and
 * write the matching in-batch indices into @p sel.
 */
using KernelFn = void (*)(const storage::Slot *col, size_t stride,
                          size_t n, storage::Slot lo, storage::Slot hi,
                          SelVec &sel);

/** The portable branch-free scalar form of @p op. */
KernelFn scalarKernel(PredOp op);

/**
 * The AVX2 form of @p op, or nullptr when unavailable (non-x86 build
 * or a CPU without AVX2).  Callable regardless of DVP_FORCE_SCALAR —
 * the override only steers kernel() — so differential tests can always
 * compare both forms on AVX2 hardware.
 */
KernelFn simdKernel(PredOp op);

/** The dispatched form: AVX2 when active, scalar otherwise. */
KernelFn kernel(PredOp op);

/** True when kernel() dispatches to the AVX2 forms. */
bool simdActive();

/** "avx2" or "scalar" — the active dispatch form, for reports. */
const char *activeForm();

/**
 * Count one kernel invocation (one batch) in the obs registry:
 * dvp_kernel_invocations_total{kernel="<op>",form="<form>"}.
 * Counter handles are resolved once per (op, form); the hot-path cost
 * is a single relaxed atomic add per batch.
 */
void countInvocation(PredOp op, bool simd);

/**
 * Conservative block-skip test: false only when *no* slot in a block
 * summarized by @p z can satisfy @p p.  Eq and Between compare against
 * the raw-order min/max (strings sort above numerics, so the test
 * stays conservative for the numeric-only Between); IsNull/NotNull
 * prune on the zone's null/nonnull counts (an all-null block can only
 * satisfy IsNull, a fully dense one never does).
 */
bool zoneCanMatch(const Pred &p, const storage::ZoneEntry &z);

/** How evalColBlock answered a predicate (counters and tests). */
enum class CompressedPath : uint8_t
{
    RleRuns,       ///< run-wise matchOne over the RLE runs
    PackTranslate, ///< code-domain compare on the packed codes
    RawKernel,     ///< dispatched kernel over the raw payload
    Decompress     ///< materialize into scratch, then the kernel
};
constexpr size_t kCompressedPaths = 4;

/** Stable lowercase name of @p path (metric labels). */
const char *compressedPathName(CompressedPath path);

/**
 * Evaluate @p p over rows [@p i0, @p i1) of one sealed column block,
 * writing matching indices *relative to i0* into @p sel (the same
 * contract as a KernelFn run over the sub-range), without
 * materializing the block when the encoding permits:
 *
 *  - Rle: runs overlapping the range are tested once each with
 *    matchOne and emitted as index spans — NULL runs answer
 *    IsNull/NotNull for thousands of rows with one compare;
 *  - Pack: every op reduces to one code-domain interval [clo, chi]
 *    (the code mapping is monotone; code 0 is NULL), so Eq becomes a
 *    single translated code compare and Between uses transformed
 *    bounds.  Between takes this path only when the zone proves the
 *    block holds no string-tagged slots (@p z.max below the string
 *    tag) — otherwise the code interval could admit strings the
 *    predicate must exclude;
 *  - Raw: the dispatched kernel runs directly over the stored slots;
 *  - anything else decompresses into @p scratch (>= cb.rows slots,
 *    preallocated per executor lane) and runs the dispatched kernel.
 *
 * Every path agrees with matchOne slot-for-slot; the returned path
 * feeds the dvp_compressed_eval_total counters.
 */
CompressedPath evalColBlock(const storage::ColBlock &cb, size_t i0,
                            size_t i1, const Pred &p,
                            const storage::ZoneEntry &z,
                            storage::Slot *scratch, SelVec &sel);

/**
 * Count one evalColBlock answer per path in the obs registry:
 * dvp_compressed_eval_total{path="<path>"}.  Same handle discipline as
 * countInvocation.
 */
void countCompressedEval(CompressedPath path);

} // namespace dvp::engine::kernels

#endif // DVP_ENGINE_KERNELS_HH
