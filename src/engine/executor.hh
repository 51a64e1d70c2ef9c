/**
 * @file
 * The query executor for partitioned (row / column / hybrid / DVP /
 * Hyrise) databases.
 *
 * Execution strategy (paper §IV "Indexing, Scanning, Insert"):
 *  - projections merge-scan the involved partition tables simultaneously
 *    by their sorted oid columns (no joins needed);
 *  - selections scan the condition column inside its owning partition
 *    and retrieve the selected attributes through the sorted-oid
 *    primary-key index, partition-major: each partition walks the
 *    sorted match list once with one forward cursor;
 *  - rows whose projected attributes are all NULL are not emitted, so
 *    result sets are identical across layouts (sparse omission);
 *  - aggregation runs the selection part first, then folds groups;
 *  - the self-join builds a flat hash table over the matching left
 *    records, probes it with a scan of the right join column, and
 *    materializes both records of every pair the same way retrieval
 *    does.
 *
 * Morsel-driven parallelism: with threads > 1 the scan phases split
 * into fixed-size morsels (oid ranges of the driving table for merge
 * scans, row ranges for column scans and the join probe), and record
 * retrieval splits the match list into even per-lane chunks; all run
 * on the shared work-stealing pool, each worker lane on a forked
 * tracer.  Partials concatenate in morsel order (so rows come back in
 * exactly the serial order) and the XOR cell checksum merges
 * order-independently, making results bit-identical at every thread
 * count.  The simulation overload stays
 * pinned to the serial path regardless of the thread knob: the paper's
 * cache/TLB figures (Figs. 6-7) model one core observing one exact
 * access sequence, which no parallel interleaving reproduces.
 */

#ifndef DVP_ENGINE_EXECUTOR_HH
#define DVP_ENGINE_EXECUTOR_HH

#include "engine/database.hh"
#include "engine/plan.hh"
#include "engine/query.hh"
#include "engine/query_stats.hh"
#include "engine/tracer.hh"

namespace dvp::engine
{

/**
 * Executes queries against one Database.
 *
 * Execution is a bind -> execute pipeline: run(q) binds a private
 * PhysicalPlan with bindPlan() (a catalog walk, no table reads) and
 * then walks the bound operators, which perform no catalog or
 * attribute-index lookups.
 */
class Executor
{
  public:
    /**
     * Driving-table rows per morsel.  ~2048 rows x a handful of 8-byte
     * slots keeps a morsel well inside L2 while leaving dozens of
     * morsels to steal at bench scale (100k docs -> ~49 per scan).
     */
    static constexpr size_t kDefaultMorselRows = 2048;

    explicit Executor(Database &db, size_t threads = 1)
        : db(&db), threads_(threads == 0 ? 1 : threads)
    {
    }

    /** Max worker lanes (including the caller) a query may occupy. */
    size_t threads() const { return threads_; }
    void setThreads(size_t t) { threads_ = t == 0 ? 1 : t; }

    /** Morsel granularity override (tests use small tables). */
    void setMorselRows(size_t rows)
    {
        morsel_rows = rows == 0 ? kDefaultMorselRows : rows;
    }
    size_t morselRows() const { return morsel_rows; }

    /**
     * Toggle the vectorized predicate scan (engine/kernels.hh) with
     * zone-map block skipping.  On by default; off falls back to the
     * original row-at-a-time loop, which tests and benches use as the
     * oracle/baseline.  Either way results are bit-identical; the knob
     * only applies to the timing path — the simulation overload always
     * runs the scalar row loop (see the file comment).
     */
    void setVectorized(bool on) { vectorized_ = on; }
    bool vectorized() const { return vectorized_; }

    /**
     * Query the cut data.docs[0, @p n) of an engine snapshot (DESIGN.md
     * §16): the rows past the database's docCount() — the delta — are
     * read from the row store and merged into every scan.  Delta oids
     * sort strictly after every base oid, so merged results are
     * exactly what a fold of those rows into the partitions would
     * produce, in the same order.  The default (the database's own
     * docCount()) merges nothing.  The simulation overload refuses a
     * non-empty delta: the paper's traced figures model the sealed
     * partitions only.
     */
    void setVisibleDocs(size_t n)
    {
        delta_rows_ = n > db->docCount() ? n - db->docCount() : 0;
    }

    /**
     * Execute on the timing path (no simulation overhead).  @p stats,
     * when non-null, receives per-query execution statistics filled
     * from the same merged lane counters that feed the dvp_* metrics
     * (see query_stats.hh), so EXPLAIN ANALYZE numbers reconcile
     * exactly with the exported counter deltas.
     */
    ResultSet run(const Query &q, QueryStats *stats = nullptr);

    /**
     * Execute while feeding every table access into @p mh.  Always
     * runs the serial path (see file comment) so simulated counters
     * are exact and independent of the thread knob.
     */
    ResultSet run(const Query &q, perf::MemoryHierarchy &mh);

  private:
    /** Bind @p q under the catalog read lock. */
    PhysicalPlan bound(const Query &q);

    Database *db;
    size_t threads_;
    size_t morsel_rows = kDefaultMorselRows;
    bool vectorized_ = true;
    size_t delta_rows_ = 0; ///< rows of the cut past db->docCount()
};

} // namespace dvp::engine

#endif // DVP_ENGINE_EXECUTOR_HH
