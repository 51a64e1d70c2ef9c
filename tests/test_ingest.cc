/**
 * @file
 * Tests for live ingest (DESIGN.md §16): the DataSet document store,
 * epoch-versioned snapshot isolation, delta-merged scans, the
 * LSM-style fold that drains the delta at a repartition, the data-
 * drift side of the change detector, the SQL INSERT surface, and the
 * wire-protocol write path with its allowInsert gate.
 *
 * The load-bearing invariant throughout: a query's result is a
 * function of its snapshot cut alone.  Digests must come out
 * bit-identical whether the visible documents sit in the delta tail,
 * were folded into fresh partitions, or anything in between — at
 * every thread count, plain and compressed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/adaptive_engine.hh"
#include "client/client.hh"
#include "engine/executor.hh"
#include "json/parser.hh"
#include "nobench/generator.hh"
#include "perf/memory_hierarchy.hh"
#include "server/server.hh"
#include "sql/run.hh"
#include "stats/change_detector.hh"
#include "storage/doc_store.hh"

namespace dvp
{
namespace
{

using adaptive::AdaptiveEngine;
using adaptive::Params;

// ---------------------------------------------------------------------
// DocStore: the DataSet's one row store.
// ---------------------------------------------------------------------

storage::Document
intDoc(int64_t oid, std::vector<std::pair<storage::AttrId, storage::Slot>>
                        attrs)
{
    storage::Document d;
    d.oid = oid;
    d.attrs = std::move(attrs);
    return d;
}

TEST(DocStore, AppendReadBackAcrossChunks)
{
    storage::DocStore docs;
    EXPECT_EQ(docs.size(), 0u);
    EXPECT_EQ(docs.bytes(0, docs.size()), 0u);

    // Cross two chunk boundaries (chunk c holds kChunkRows << c rows)
    // so the directory's release-published chunks are exercised, not
    // just the first.
    const size_t n = storage::DocStore::kChunkRows * 3 + 37;
    for (size_t i = 0; i < n; ++i) {
        docs.push_back(intDoc(static_cast<int64_t>(i),
                              {{1, static_cast<storage::Slot>(i)},
                               {3, 7}}));
        EXPECT_EQ(docs.back().oid, static_cast<int64_t>(i));
    }
    ASSERT_EQ(docs.size(), n);
    EXPECT_GT(docs.bytes(0, docs.size()), 0u);
    for (size_t i = 0; i < n; i += 97) {
        const storage::Document &d = docs[i];
        EXPECT_EQ(d.oid, static_cast<int64_t>(i));
        EXPECT_EQ(d.slotOf(1), static_cast<storage::Slot>(i));
        EXPECT_EQ(d.slotOf(3), 7);
        EXPECT_TRUE(storage::isNull(d.slotOf(2)));
    }
}

TEST(DocStore, ReadersSeeFixedPrefixDuringConcurrentAppends)
{
    storage::DocStore docs;
    std::atomic<bool> done{false};
    std::thread writer([&] {
        for (int64_t i = 0; i < 20000; ++i)
            docs.push_back(intDoc(i, {{1, i}}));
        done.store(true, std::memory_order_release);
    });
    // Lock-free readers: load size() once, then every row below that
    // prefix must already be fully published.
    while (!done.load(std::memory_order_acquire)) {
        size_t n = docs.size();
        for (size_t i = 0; i < n; i += 251) {
            const storage::Document &d = docs[i];
            ASSERT_EQ(d.oid, static_cast<int64_t>(i));
            ASSERT_EQ(d.slotOf(1), static_cast<storage::Slot>(i));
        }
    }
    writer.join();
    EXPECT_EQ(docs.size(), 20000u);
}

// ---------------------------------------------------------------------
// ChangeDetector: ingest-driven data drift.
// ---------------------------------------------------------------------

TEST(ChangeDetectorIngest, StableAttributeMixStaysQuiet)
{
    stats::ChangeDetector det(16, 0.5);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(det.observeIngest(intDoc(i, {{1, 1}, {2, 2}})));
    EXPECT_GE(det.dataWindowsCompleted(), 5u);
}

TEST(ChangeDetectorIngest, SparsenessShiftFires)
{
    stats::ChangeDetector det(16, 0.5);
    for (int i = 0; i < 32; ++i)
        EXPECT_FALSE(det.observeIngest(intDoc(i, {{1, 1}, {2, 2}})));
    bool fired = false;
    for (int i = 0; i < 32; ++i)
        fired |= det.observeIngest(intDoc(32 + i, {{8, 1}, {9, 2}}));
    EXPECT_TRUE(fired);
}

TEST(ChangeDetectorIngest, QueryAndDataWindowsAreIndependent)
{
    stats::ChangeDetector det(8, 0.5);
    engine::Query q;
    q.kind = engine::QueryKind::Project;
    q.projected = {1, 2};
    for (int i = 0; i < 16; ++i) {
        det.observe(q);
        det.observeIngest(intDoc(i, {{1, 1}}));
    }
    EXPECT_EQ(det.windowsCompleted(), 2u);
    EXPECT_EQ(det.dataWindowsCompleted(), 2u);
}

// ---------------------------------------------------------------------
// Engine fixture: one NoBench data set shared by every ingest test.
// ---------------------------------------------------------------------

/** JSON document carrying two ingest-only integer attributes.  The
 * values are deterministic functions of @p k, so the digest of a scan
 * over them is a pure function of how many are visible. */
json::JsonValue
ingestDoc(int64_t k)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"ingq\": %lld, \"ingv\": %lld}",
                  static_cast<long long>(k),
                  static_cast<long long>(k * 7 + 3));
    json::ParseResult r = json::parse(buf);
    EXPECT_TRUE(r.ok) << r.error;
    return r.value;
}

/** The scan used throughout: every ingested doc matches, none of the
 * NoBench base docs do. */
const char *kIngestScan =
    "SELECT ingq, ingv FROM t WHERE ingq BETWEEN 0 AND 100000000";

class IngestWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        uint64_t docs = 800;
        if (const char *env = std::getenv("DVP_TEST_DOCS"))
            docs = std::strtoull(env, nullptr, 10);
        cfg.numDocs = docs;
        cfg.seed = 4242;
    }

    /** A fresh engine over a freshly generated NoBench data set. */
    struct World
    {
        engine::DataSet data;
        std::unique_ptr<AdaptiveEngine> engine;

        explicit World(Params prm = defaultParams())
            : data(nobench::generateDataSet(IngestWorld::cfg))
        {
            engine = std::make_unique<AdaptiveEngine>(
                data, std::vector<engine::Query>{}, prm);
        }
    };

    static Params
    defaultParams()
    {
        Params prm;
        prm.adapt = false;       // folds only, never a layout change
        prm.background = false;  // deterministic inline folds
        prm.deltaFoldRows = 0;   // tests opt into the size trigger
        return prm;
    }

    /**
     * Reference digests: a serial, never-folding engine ingests docs
     * one at a time; expected[k] is the (digest, checksum, rows) of
     * kIngestScan with k ingested docs visible (1-based; index 0
     * unused).  Every configuration under test must reproduce these
     * exactly at the same cut.
     */
    struct Expected
    {
        uint64_t digest = 0;
        uint64_t checksum = 0;
        size_t rows = 0;
    };

    static std::vector<Expected>
    referenceDigests(size_t k_max)
    {
        World ref;
        std::vector<Expected> expected(k_max + 1);
        for (size_t k = 1; k <= k_max; ++k) {
            ref.engine->ingest(ingestDoc(static_cast<int64_t>(k)));
            sql::RunResult r =
                sql::runStatement(*ref.engine, kIngestScan);
            EXPECT_TRUE(r.ok) << r.error;
            EXPECT_EQ(r.rows.rowCount(), k);
            expected[k] = {r.rows.digest(), r.rows.checksum,
                           r.rows.rowCount()};
        }
        return expected;
    }

    static nobench::Config cfg;
};

nobench::Config IngestWorld::cfg;

// ---------------------------------------------------------------------
// Snapshot isolation.
// ---------------------------------------------------------------------

TEST_F(IngestWorld, SnapshotPinsItsDeltaPrefix)
{
    World w;
    for (int64_t k = 1; k <= 5; ++k)
        w.engine->ingest(ingestDoc(k));

    // The cut: base partitions + 5 delta rows.
    adaptive::Snapshot snap = w.engine->snapshotFull();
    EXPECT_EQ(snap.deltaRows(), 5u);
    EXPECT_EQ(snap.epoch, snap.base->epoch());

    for (int64_t k = 6; k <= 10; ++k)
        w.engine->ingest(ingestDoc(k));
    EXPECT_EQ(w.engine->snapshotFull().deltaRows(), 10u);

    // A query through the held snapshot keeps seeing exactly the cut,
    // no matter how much the writer appended since.
    engine::Query q;
    q.name = "ingest-scan";
    q.kind = engine::QueryKind::Select;
    q.selectAll = false;
    q.cond.op = engine::CondOp::Between;
    q.cond.attr = w.data.catalog.find("ingq");
    ASSERT_NE(q.cond.attr, storage::kNoAttr);
    q.cond.lo = 0;
    q.cond.hi = 100000000;
    q.projected = {q.cond.attr, w.data.catalog.find("ingv")};

    engine::Executor held(*snap.base);
    held.setVisibleDocs(snap.docs);
    engine::ResultSet rs_held = held.run(q);
    EXPECT_EQ(rs_held.rowCount(), 5u);

    // The engine's own execute() runs against the current cut.
    engine::ResultSet rs_now = w.engine->execute(q);
    EXPECT_EQ(rs_now.rowCount(), 10u);

    // And an executor over the full current prefix agrees with it bit
    // for bit.
    adaptive::Snapshot now = w.engine->snapshotFull();
    engine::Executor cur(*now.base);
    cur.setVisibleDocs(now.docs);
    engine::ResultSet rs_cur = cur.run(q);
    EXPECT_EQ(rs_cur.digest(), rs_now.digest());
    EXPECT_EQ(rs_cur.checksum, rs_now.checksum);
}

TEST_F(IngestWorld, IngestAcksCarryCountAndEpoch)
{
    World w;
    size_t base_docs = w.data.docs.size();
    adaptive::IngestAck one =
        w.engine->ingestBatch({ingestDoc(1)});
    EXPECT_EQ(one.count, 1u);
    EXPECT_EQ(one.totalDocs, base_docs + 1);
    EXPECT_EQ(one.lastOid, static_cast<int64_t>(base_docs));

    adaptive::IngestAck batch =
        w.engine->ingestBatch({ingestDoc(2), ingestDoc(3)});
    EXPECT_EQ(batch.count, 2u);
    EXPECT_EQ(batch.totalDocs, base_docs + 3);
    EXPECT_EQ(batch.lastOid, static_cast<int64_t>(base_docs + 2));
    EXPECT_EQ(batch.epoch, w.engine->snapshot()->epoch());
}

// ---------------------------------------------------------------------
// Fold-state independence: pre-fold, mid-fold, post-fold digests.
// ---------------------------------------------------------------------

TEST_F(IngestWorld, DigestsIdenticalAcrossFoldStatesThreadsCompression)
{
    constexpr size_t kDocs = 48;
    std::vector<Expected> expected = referenceDigests(kDocs);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
        for (bool compress : {false, true}) {
            Params prm = defaultParams();
            prm.threads = threads;
            prm.compress = compress;
            prm.deltaFoldRows = 16; // folds fire inline mid-run
            World w(prm);

            for (size_t k = 1; k <= kDocs; ++k) {
                w.engine->ingest(ingestDoc(static_cast<int64_t>(k)));
                sql::RunResult r =
                    sql::runStatement(*w.engine, kIngestScan);
                ASSERT_TRUE(r.ok) << r.error;
                EXPECT_EQ(r.rows.rowCount(), expected[k].rows)
                    << "threads=" << threads
                    << " compress=" << compress << " k=" << k;
                EXPECT_EQ(r.rows.digest(), expected[k].digest)
                    << "threads=" << threads
                    << " compress=" << compress << " k=" << k;
                EXPECT_EQ(r.rows.checksum, expected[k].checksum)
                    << "threads=" << threads
                    << " compress=" << compress << " k=" << k;
            }

            // The size trigger really fired: the delta was drained at
            // least twice and the audit trail says why.
            EXPECT_LT(w.engine->snapshotFull().deltaRows(), kDocs);
            EXPECT_GE(w.engine->adaptation().repartitions.load(), 2u);
            uint64_t folded = 0;
            bool fold_trigger = false;
            for (const adaptive::AuditRecord &rec :
                 w.engine->auditTrail()) {
                folded += rec.deltaFolded;
                fold_trigger |= rec.trigger == "delta-fold";
            }
            EXPECT_GE(folded, prm.deltaFoldRows);
            EXPECT_TRUE(fold_trigger);

            // Every document survived the folds.
            sql::RunResult fin =
                sql::runStatement(*w.engine, kIngestScan);
            ASSERT_TRUE(fin.ok);
            EXPECT_EQ(fin.rows.rowCount(), kDocs);
        }
    }
}

// ---------------------------------------------------------------------
// Randomized concurrency: writers never block readers, and every
// reader result matches the reference digest for the cut it observed.
// ---------------------------------------------------------------------

TEST_F(IngestWorld, ConcurrentInsertsAndQueriesStayConsistent)
{
    constexpr size_t kDocs = 40;
    std::vector<Expected> expected = referenceDigests(kDocs);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
        Params prm = defaultParams();
        prm.threads = threads;
        prm.background = true; // folds race the readers for real
        prm.deltaFoldRows = 12;
        World w(prm);

        // Seed one doc so the scan's attributes exist for parsing,
        // then share one parsed query across all reader threads.
        w.engine->ingest(ingestDoc(1));
        engine::Query q;
        q.name = "ingest-scan";
        q.kind = engine::QueryKind::Select;
        q.cond.op = engine::CondOp::Between;
        q.cond.attr = w.data.catalog.find("ingq");
        ASSERT_NE(q.cond.attr, storage::kNoAttr);
        q.cond.lo = 0;
        q.cond.hi = 100000000;
        q.projected = {q.cond.attr, w.data.catalog.find("ingv")};

        std::atomic<bool> writer_done{false};
        std::atomic<int> failures{0};
        std::thread writer([&] {
            for (size_t k = 2; k <= kDocs; ++k)
                w.engine->ingest(ingestDoc(static_cast<int64_t>(k)));
            writer_done.store(true, std::memory_order_release);
        });

        constexpr int kReaders = 3;
        std::vector<std::thread> readers;
        for (int t = 0; t < kReaders; ++t) {
            readers.emplace_back([&] {
                bool saw_final = false;
                while (!saw_final) {
                    bool last =
                        writer_done.load(std::memory_order_acquire);
                    engine::ResultSet rs = w.engine->execute(q);
                    size_t k = rs.rowCount();
                    if (k < 1 || k > kDocs ||
                        rs.digest() != expected[k].digest ||
                        rs.checksum != expected[k].checksum) {
                        ++failures;
                        return;
                    }
                    if (last && k == kDocs)
                        saw_final = true;
                }
            });
        }
        writer.join();
        for (std::thread &t : readers)
            t.join();
        EXPECT_EQ(failures.load(), 0)
            << "threads=" << threads
            << ": a reader observed a cut whose digest does not match "
               "the serial reference";
        w.engine->quiesce();
    }
}

// ---------------------------------------------------------------------
// Simulated traces exclude the delta by invariant.
// ---------------------------------------------------------------------

TEST_F(IngestWorld, SimulatedTracesRefuseANonEmptyDelta)
{
    World w;
    w.engine->ingest(ingestDoc(1));
    adaptive::Snapshot snap = w.engine->snapshotFull();
    ASSERT_EQ(snap.deltaRows(), 1u);

    engine::Query q;
    q.name = "sim";
    q.kind = engine::QueryKind::Project;
    q.projected = {w.data.catalog.find("ingq")};

    // With an empty delta the traced path is untouched: same digest as
    // the timing path, so the paper figures stay byte-identical.
    engine::Executor plain(*snap.base);
    perf::MemoryHierarchy mh;
    engine::ResultSet traced = plain.run(q, mh);
    engine::ResultSet timed = plain.run(q);
    EXPECT_EQ(traced.digest(), timed.digest());

    // A non-empty delta must refuse the simulation overload outright
    // rather than silently tracing a superset of the sealed tables.
#if GTEST_HAS_DEATH_TEST
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    engine::Executor withDelta(*snap.base);
    withDelta.setVisibleDocs(snap.docs);
    perf::MemoryHierarchy mh2;
    EXPECT_DEATH(withDelta.run(q, mh2), "empty delta");
#endif
}

// ---------------------------------------------------------------------
// Wire protocol: INSERT round-trip and the allowInsert gate.
// ---------------------------------------------------------------------

TEST_F(IngestWorld, WireInsertRoundTrip)
{
    World w;
    server::Config scfg;
    scfg.allowInsert = true;
    server::Server srv(*w.engine, scfg);
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "ingest-test"), "");
    size_t base_docs = w.data.docs.size();

    client::Result ins = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": 1, \"ingv\": 10}')");
    ASSERT_TRUE(ins.ok) << ins.error;
    EXPECT_TRUE(ins.isMessage);
    EXPECT_NE(ins.message.find("INSERT 1"), std::string::npos);
    EXPECT_NE(ins.message.find(std::to_string(base_docs + 1)),
              std::string::npos);

    // Batch form: several tuples, one ack.
    client::Result batch = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": 2, \"ingv\": 17}'), "
        "('{\"ingq\": 3, \"ingv\": 24}')");
    ASSERT_TRUE(batch.ok) << batch.error;
    EXPECT_NE(batch.message.find("INSERT 2"), std::string::npos);

    // The next read on the same connection sees all three documents,
    // and the frame digest matches an in-process run.
    client::Result sel = c.query(kIngestScan);
    ASSERT_TRUE(sel.ok) << sel.error;
    EXPECT_EQ(sel.rows.size(), 3u);
    sql::RunResult local = sql::runStatement(*w.engine, kIngestScan);
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(sel.digest, local.rows.digest());
    EXPECT_EQ(sel.checksum, local.rows.checksum);

    // STATS reports the delta-inclusive doc count and the gauges.
    client::Stats st = c.stats();
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.get("docs"), base_docs + 3);
    EXPECT_EQ(st.get("delta_rows"), 3u);
    EXPECT_GT(st.get("delta_bytes"), 0u);

    // Malformed JSON in the tuple is a typed parse error, and the
    // connection survives it.
    client::Result bad = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": ')");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorCode, net::ErrorCode::Parse);
    client::Result again = c.query(kIngestScan);
    EXPECT_TRUE(again.ok) << again.error;

    c.close();
    srv.stop();
}

TEST_F(IngestWorld, WireInsertGatedWithoutAllowInsert)
{
    World w;
    server::Server srv(*w.engine, {}); // allowInsert defaults to off
    ASSERT_EQ(srv.start(), "");

    client::Client c;
    ASSERT_EQ(c.connect("127.0.0.1", srv.port(), "ingest-gate"), "");

    client::Result ins = c.query(
        "INSERT INTO nobench VALUES ('{\"ingq\": 1}')");
    EXPECT_FALSE(ins.ok);
    EXPECT_EQ(ins.errorCode, net::ErrorCode::ReadOnly);
    EXPECT_EQ(w.engine->snapshotFull().deltaRows(), 0u);

    // The rejection is per-statement: the session stays usable.
    client::Result sel = c.query("SELECT str1, num FROM t");
    EXPECT_TRUE(sel.ok) << sel.error;

    c.close();
    srv.stop();
}

} // namespace
} // namespace dvp
