#include "adaptive/adaptive_engine.hh"

#include "json/flatten.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace dvp::adaptive
{

AdaptiveEngine::AdaptiveEngine(engine::DataSet &data,
                               const std::vector<engine::Query> &initial,
                               Params params)
    : data(&data), prm(params),
      threads_(params.threads == 0 ? 1 : params.threads),
      morsel_rows_(params.morselRows),
      detector(params.window, params.changeThreshold)
{
    core::Partitioner partitioner(data, initial, prm.search);
    core::SearchResult res = partitioner.run();
    adapt_stats.lastPartitionerSeconds = res.seconds;
    adapt_stats.lastLayoutTables = res.layout.partitionCount();
    Timer build;
    db = std::make_shared<engine::Database>(data, res.layout, "DVP",
                                            /*allow_pad=*/true, SIZE_MAX,
                                            prm.compress);

    AuditRecord rec;
    rec.trigger = "initial";
    rec.initialCost = res.initialCost;
    rec.finalCost = res.finalCost;
    rec.iterations = res.iterations;
    rec.moves = res.moves;
    rec.tables = res.layout.partitionCount();
    rec.layoutFingerprint = res.layout.fingerprint();
    rec.partitionerNs = static_cast<uint64_t>(res.seconds * 1e9);
    rec.buildNs = static_cast<uint64_t>(build.seconds() * 1e9);
    pushAudit(std::move(rec));
}

AdaptiveEngine::AdaptiveEngine(RestoreTag, engine::DataSet &data,
                               Restore r, Params params)
    : data(&data), prm(params),
      threads_(params.threads == 0 ? 1 : params.threads),
      morsel_rows_(params.morselRows),
      detector(params.window, params.changeThreshold)
{
    // No partitioner run: the committed layout is rebuilt verbatim.
    // docs[0, baseDocs) only reference attributes the logged layout
    // covers (the swap that committed it grew singleton partitions
    // for every catalog attribute), so the bulk build loses no cells;
    // later documents are the delta exactly as before the crash.
    Timer build;
    db = std::make_shared<engine::Database>(data, r.layout, "DVP",
                                            /*allow_pad=*/true,
                                            r.baseDocs, prm.compress);
    db->adoptEpoch(r.epoch);
    adapt_stats.lastLayoutTables = r.layout.partitionCount();

    AuditRecord rec;
    rec.trigger = "recovery";
    rec.tables = r.layout.partitionCount();
    rec.layoutFingerprint = db->layoutFingerprint();
    rec.buildNs = static_cast<uint64_t>(build.seconds() * 1e9);
    pushAudit(std::move(rec));
}

std::unique_ptr<AdaptiveEngine>
AdaptiveEngine::restore(engine::DataSet &data, Restore r, Params params)
{
    invariant(r.baseDocs <= data.docs.size(),
              "restore: baseDocs exceeds recovered documents");
    return std::unique_ptr<AdaptiveEngine>(new AdaptiveEngine(
        RestoreTag{}, data, std::move(r), params));
}

void
AdaptiveEngine::setDurability(durability::Manager *dur)
{
    dur_ = dur;
    if (dur_)
        dur_->setCutProvider([this] { return checkpointCut(); });
}

durability::CheckpointCut
AdaptiveEngine::checkpointCut()
{
    std::lock_guard<std::mutex> lock(db_mutex);
    auto dlock = data->readLock(); // lock order: db_mutex, then mu
    durability::CheckpointCut cut;
    // Ingest (doc append + WAL append) happens entirely under
    // db_mutex, so the document count and the WAL position agree
    // exactly: every logged record <= walLsn is in docs[0, docCount),
    // nothing newer is.  No document is copied.
    cut.catalog = data->catalog;
    cut.dict = data->dict;
    cut.docs = &data->docs;
    cut.docCount = data->docs.size();
    cut.layout = db->layout();
    cut.epoch = db->epoch();
    cut.baseDocs = db->docCount();
    cut.walLsn = dur_ ? dur_->wal()->appendedLsn() : 0;
    return cut;
}

void
AdaptiveEngine::pushAudit(AuditRecord rec)
{
    std::lock_guard<std::mutex> lock(audit_mutex);
    rec.seq = ++audit_seq;
    audit_ring.push_back(std::move(rec));
    if (audit_ring.size() > kAuditCapacity)
        audit_ring.pop_front();
}

std::vector<AuditRecord>
AdaptiveEngine::auditTrail() const
{
    std::lock_guard<std::mutex> lock(audit_mutex);
    return {audit_ring.begin(), audit_ring.end()};
}

AdaptiveEngine::~AdaptiveEngine()
{
    quiesce();
}

std::shared_ptr<engine::Database>
AdaptiveEngine::snapshot() const
{
    std::lock_guard<std::mutex> lock(db_mutex);
    return db;
}

Snapshot
AdaptiveEngine::snapshotFull() const
{
    // Appends and swaps both happen under db_mutex, so (base, docs
    // size) read here is a consistent cut: every row of the prefix is
    // fully published and the base holds exactly its first
    // base->docCount() rows.  Rows appended after this snapshot exist
    // in the store but stay invisible to the query.
    std::lock_guard<std::mutex> lock(db_mutex);
    Snapshot snap;
    snap.base = db;
    snap.docs = data->docs.size();
    snap.epoch = db->epoch();
    return snap;
}

void
AdaptiveEngine::quiesce()
{
    std::lock_guard<std::mutex> lock(worker_mu);
    if (worker.joinable()) {
        DVP_TRACE_SPAN(quiesce_span, "quiesce", "join repartition");
        worker.join();
    }
}

engine::ResultSet
AdaptiveEngine::execute(const engine::Query &q, engine::QueryStats *stats)
{
    // One snapshot per query, not per morsel: the executor's lanes all
    // scan the same tables, and the shared_ptr keeps the base alive
    // even if a background repartition swaps the engine's pointer
    // mid-query.  The visible document count pins the cut, so
    // concurrent ingest never perturbs a running query's result.
    Snapshot snap = snapshotFull();
    if (repartitioning.load(std::memory_order_relaxed)) {
        ++adapt_stats.queriesDuringRepartition;
        DVP_COUNTER_INC("dvp_queries_during_repartition_total");
    }
    Timer timer;
    engine::Executor exec(*snap.base, threads());
    exec.setMorselRows(morselRows());
    exec.setVisibleDocs(snap.docs);
    engine::ResultSet rs = exec.run(q, stats);
    double seconds = timer.seconds();

    uint64_t scanned = snap.docs;
    bool changed = false;
    {
        std::lock_guard<std::mutex> lock(stats_mutex);
        wstats.record(q, seconds, rs.rowCount(), scanned);
        if (prm.adapt && detector.observe(q)) {
            ++adapt_stats.changesDetected;
            changed = true;
        }
    }
    if (changed) {
        DVP_COUNTER_INC("dvp_changes_detected_total");
        DVP_TRACE_SPAN(change_span, "change_detected", q.name.c_str());
        maybeRepartition(q.name);
    }
    return rs;
}

int64_t
AdaptiveEngine::ingest(const json::JsonValue &doc)
{
    return ingestFlatBatch({json::flatten(doc)}).lastOid;
}

IngestAck
AdaptiveEngine::ingestBatch(const std::vector<json::JsonValue> &docs)
{
    // Pre-flatten outside every lock and delegate: encode(flatten(d))
    // is exactly what addObject runs, and the flat form is what the
    // WAL logs, so both ingest surfaces produce identical log records
    // and identical replay.
    std::vector<std::vector<json::FlatAttr>> flats;
    flats.reserve(docs.size());
    for (const json::JsonValue &doc : docs)
        flats.push_back(json::flatten(doc));
    return ingestFlatBatch(flats);
}

IngestAck
AdaptiveEngine::ingestFlatBatch(
    const std::vector<std::vector<json::FlatAttr>> &docs)
{
    IngestAck ack;
    size_t first = 0;
    size_t pending = 0;
    uint64_t pending_bytes = 0;
    // Encode the WAL body outside the lock (it only reads the
    // caller's documents); the append itself must happen under
    // db_mutex so the log order equals the apply order.
    std::string wal_body;
    const bool log = dur_ != nullptr && !docs.empty();
    if (log)
        wal_body = durability::Manager::encodeIngestBody(docs);
    uint64_t lsn = 0;
    {
        std::lock_guard<std::mutex> lock(db_mutex);
        first = data->docs.size();
        for (const auto &flat : docs)
            ack.lastOid = data->addFlat(flat);
        ack.count = docs.size();
        ack.totalDocs = data->docs.size();
        ack.epoch = db->epoch();
        pending = ack.totalDocs - db->docCount();
        pending_bytes = data->docs.bytes(db->docCount(), ack.totalDocs);
        if (log)
            lsn = dur_->logIngest(wal_body);
    }
    if (log) {
        // Log-before-ack: group-commit the record (and maybe trigger
        // a checkpoint) before the caller sees the acknowledgement.
        std::string err = dur_->commit(lsn);
        if (!err.empty())
            ack.walError = std::move(err);
    }
    if (docs.empty())
        return ack;
    DVP_COUNTER_ADD("dvp_inserts_total", docs.size());
    DVP_GAUGE_SET("dvp_delta_rows", static_cast<int64_t>(pending));
    DVP_GAUGE_SET("dvp_delta_bytes", static_cast<int64_t>(pending_bytes));

    // Feed the change detector's data-drift windows.  The appended
    // rows never move, so reading them back without the lock is
    // race-free even if a fold swaps the base meanwhile.
    bool changed = false;
    if (prm.adapt) {
        std::lock_guard<std::mutex> lock(stats_mutex);
        for (size_t i = first; i < ack.totalDocs; ++i)
            if (detector.observeIngest(data->docs[i]))
                changed = true;
    }
    if (changed) {
        ++adapt_stats.changesDetected;
        DVP_COUNTER_INC("dvp_changes_detected_total");
        DVP_TRACE_SPAN(change_span, "change_detected", "ingest");
        maybeRepartition("ingest-drift");
    } else if (prm.deltaFoldRows > 0 && pending >= prm.deltaFoldRows) {
        maybeRepartition("delta-fold");
    }
    return ack;
}

void
AdaptiveEngine::maybeRepartition(const std::string &trigger)
{
    if (repartitioning.exchange(true))
        return; // one repartition in flight is enough

    // With adaptation off the layout is pinned: a repartition may only
    // be a pure fold, so no workload is collected and the partitioner
    // is skipped (repartitionNow keeps the current layout).
    std::vector<engine::Query> workload;
    if (prm.adapt) {
        std::lock_guard<std::mutex> lock(stats_mutex);
        workload = wstats.representatives();
    }
    if (workload.empty() && snapshotFull().deltaRows() == 0) {
        repartitioning.store(false);
        return;
    }

    if (!prm.background) {
        repartitionNow(std::move(workload), trigger);
        return;
    }
    std::lock_guard<std::mutex> lock(worker_mu);
    if (worker.joinable()) { // reap the previous worker
        DVP_TRACE_SPAN(quiesce_span, "quiesce", "join repartition");
        worker.join();
    }
    worker = std::thread(
        [this, w = std::move(workload), t = trigger]() mutable {
            repartitionNow(std::move(w), std::move(t));
        });
}

void
AdaptiveEngine::repartitionNow(std::vector<engine::Query> workload,
                               std::string trigger)
{
    DVP_TRACE_SPAN(repartition_span, "repartition", nullptr);
    Timer total;

    // All shared state the rebuild needs is cut up front: the cost
    // model copies the catalog statistics, and the documents are the
    // prefix docs[0, cut_docs), which ingest never touches again.  The
    // expensive work below (search + bulk table build) then runs on
    // stable data without the lock.  The prefix already contains the
    // delta, so building from it IS the fold — delta rows land in the
    // fresh partitions.
    layout::Layout current_layout;
    std::unique_ptr<core::Partitioner> partitioner;
    size_t cut_docs = 0;
    size_t old_base_docs = 0;
    size_t catalog_width = 0;
    {
        std::lock_guard<std::mutex> lock(db_mutex);
        auto dlock = data->readLock(); // lock order: db_mutex, then mu
        current_layout = db->layout();
        cut_docs = data->docs.size();
        old_base_docs = db->docCount();
        catalog_width = data->catalog.attrCount();
        // The partitioner's cost model copies the catalog statistics,
        // so construct it under the lock too.  A pure fold (no
        // workload) keeps the incumbent layout and skips the search.
        if (!workload.empty())
            partitioner = std::make_unique<core::Partitioner>(
                *data, std::move(workload), prm.search);
    }

    core::SearchResult res;
    if (partitioner != nullptr) {
        DVP_TRACE_SPAN(part_span, "partitioner", "refine layout");
        res = partitioner->refine(current_layout);
    } else {
        res.layout = current_layout;
    }
    adapt_stats.lastPartitionerSeconds = res.seconds;

    // Materialize attributes the layout has never seen — discovered by
    // ingest after the incumbent layout was chosen — as singleton
    // partitions, so folded documents keep every cell.  (Catalog growth
    // happens under db_mutex, so attrs < catalog_width are stable.)
    {
        std::vector<std::vector<storage::AttrId>> parts(
            res.layout.partitions().begin(),
            res.layout.partitions().end());
        bool grew = false;
        for (storage::AttrId a = 0; a < catalog_width; ++a)
            if (res.layout.partitionOf(a) == layout::kNoPart) {
                parts.push_back({a});
                grew = true;
            }
        if (grew)
            res.layout = layout::Layout(std::move(parts));
    }

    // Bulk-build the new tables from the cut.
    Timer build_timer;
    auto fresh = [&] {
        DVP_TRACE_SPAN(build_span, "build", "bulk-build tables");
        return std::make_shared<engine::Database>(
            *data, res.layout, "DVP", /*allow_pad=*/true, cut_docs,
            prm.compress);
    }();
    double build_seconds = build_timer.seconds();

    // Catch up with documents ingested during the build, then switch
    // through an atomic pointer swap (readers hold shared_ptrs, so a
    // query in flight keeps its tables alive).  A document carrying an
    // attribute the new layout has no partition for (born during the
    // build) must not lose cells to the fold — it and everything after
    // it stay past the new base, in the delta.
    Timer swap_timer;
    uint64_t caught_up = 0;
    uint64_t folded = 0;
    size_t new_delta_rows = 0;
    size_t new_delta_bytes = 0;
    uint64_t swap_lsn = 0;
    {
        DVP_TRACE_SPAN(swap_span, "swap", "catch-up + pointer swap");
        std::lock_guard<std::mutex> lock(db_mutex);
        auto dlock = data->readLock(); // lock order: db_mutex, then mu
        const size_t n = data->docs.size();
        for (size_t i = fresh->docCount(); i < n; ++i) {
            const storage::Document &doc = data->docs[i];
            if (!doc.attrs.empty() &&
                doc.attrs.back().first >= catalog_width)
                break;
            fresh->insert(doc);
            ++caught_up;
        }
        new_delta_rows = n - fresh->docCount();
        new_delta_bytes = data->docs.bytes(fresh->docCount(), n);
        folded = fresh->docCount() - old_base_docs;
        db = std::move(fresh);
        adapt_stats.lastLayoutTables = res.layout.partitionCount();
        ++adapt_stats.repartitions;
        // Log the committed swap inside the same critical section so
        // its WAL position is ordered exactly like the swap itself
        // relative to ingest records.
        if (dur_)
            swap_lsn = dur_->logSwap(db->layout(), db->epoch(),
                                     db->docCount());
    }
    if (dur_) {
        std::string err = dur_->commit(swap_lsn);
        if (!err.empty())
            warn("wal: layout swap record not durable: %s",
                 err.c_str());
    }
    double swap_seconds = swap_timer.seconds();
    DVP_GAUGE_SET("dvp_delta_rows",
                  static_cast<int64_t>(new_delta_rows));
    DVP_GAUGE_SET("dvp_delta_bytes",
                  static_cast<int64_t>(new_delta_bytes));
    if (folded > 0) {
        DVP_COUNTER_INC("dvp_delta_folds_total");
        DVP_HISTOGRAM_OBSERVE(
            "dvp_delta_fold_ns",
            static_cast<uint64_t>((build_seconds + swap_seconds) * 1e9));
    }

    AuditRecord rec;
    rec.trigger = std::move(trigger);
    rec.initialCost = res.initialCost;
    rec.finalCost = res.finalCost;
    rec.iterations = res.iterations;
    rec.moves = res.moves;
    rec.tables = res.layout.partitionCount();
    rec.layoutFingerprint = res.layout.fingerprint();
    rec.partitionerNs = static_cast<uint64_t>(res.seconds * 1e9);
    rec.buildNs = static_cast<uint64_t>(build_seconds * 1e9);
    rec.swapNs = static_cast<uint64_t>(swap_seconds * 1e9);
    rec.docsCaughtUp = caught_up;
    rec.deltaFolded = folded;
    pushAudit(std::move(rec));
    {
        std::lock_guard<std::mutex> lock(stats_mutex);
        wstats.reset();
        detector.reset();
    }
    double seconds = total.seconds();
    adapt_stats.lastRepartitionSeconds = seconds;
    debug("repartition: %zu tables in %.3f s",
          res.layout.partitionCount(), seconds);
    DVP_COUNTER_INC("dvp_repartitions_total");
    DVP_HISTOGRAM_OBSERVE("dvp_repartition_ns",
                          static_cast<uint64_t>(seconds * 1e9));
    DVP_GAUGE_SET("dvp_layout_tables",
                  static_cast<int64_t>(res.layout.partitionCount()));
    repartitioning.store(false);
}

} // namespace dvp::adaptive
