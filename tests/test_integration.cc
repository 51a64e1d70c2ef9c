/**
 * @file
 * Cross-system integration tests: all six engines of the paper's
 * evaluation (row, column, DVP, Hyrise, Argo1, Argo3) over one NoBench
 * data set — result equality everywhere, Table IV relational facts,
 * and end-to-end perf-simulation sanity.
 */

#include <gtest/gtest.h>

#include "adaptive/adaptive_engine.hh"
#include "argo/argo_executor.hh"
#include "argo/argo_store.hh"
#include "dvp/partitioner.hh"
#include "engine/database.hh"
#include "json/parser.hh"
#include "engine/executor.hh"
#include "hyrise/hyrise_layouter.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "perf/memory_hierarchy.hh"

namespace dvp
{
namespace
{

using engine::Query;
using engine::ResultSet;
using layout::Layout;

/** One shared world with all six engines. */
struct World
{
    nobench::Config cfg;
    engine::DataSet data;
    std::vector<Query> queries;

    std::unique_ptr<engine::Database> row;
    std::unique_ptr<engine::Database> col;
    std::unique_ptr<engine::Database> dvp;
    std::unique_ptr<engine::Database> hyrise;
    std::unique_ptr<argo::ArgoStore> argo1;
    std::unique_ptr<argo::ArgoStore> argo3;

    World()
    {
        cfg.numDocs = 1200;
        cfg.seed = 2718;
        data = nobench::generateDataSet(cfg);

        nobench::QuerySet qs(data, cfg);
        Rng rng(161803);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            queries.push_back(qs.instantiate(t, rng));

        std::vector<Query> reps = nobench::representatives(
            qs, nobench::Mix::uniform(), rng);

        auto attrs = data.catalog.allAttrs();
        row = std::make_unique<engine::Database>(
            data, Layout::rowBased(attrs), "row");
        col = std::make_unique<engine::Database>(
            data, Layout::columnBased(attrs), "col");

        core::Partitioner partitioner(data, reps);
        dvp = std::make_unique<engine::Database>(
            data, partitioner.run().layout, "DVP");

        hyrise::HyriseLayouter hl(data.catalog, reps,
                                  data.docs.size());
        auto hres = hl.run();
        hyrise = std::make_unique<engine::Database>(
            data, *hres.layout, "Hyrise");

        argo1 = std::make_unique<argo::ArgoStore>(
            data, argo::Variant::Argo1);
        argo3 = std::make_unique<argo::ArgoStore>(
            data, argo::Variant::Argo3);
    }
};

World &
world()
{
    static World w;
    return w;
}

class SixEngines : public ::testing::TestWithParam<int>
{
};

TEST_P(SixEngines, AllEnginesAgree)
{
    World &w = world();
    const Query &q = w.queries[GetParam()];

    engine::Executor row_exec(*w.row);
    ResultSet ref = row_exec.run(q);

    engine::Executor col_exec(*w.col);
    EXPECT_TRUE(col_exec.run(q).equals(ref)) << "column";
    engine::Executor dvp_exec(*w.dvp);
    EXPECT_TRUE(dvp_exec.run(q).equals(ref)) << "DVP";
    engine::Executor hy_exec(*w.hyrise);
    EXPECT_TRUE(hy_exec.run(q).equals(ref)) << "Hyrise";
    argo::ArgoExecutor a1_exec(*w.argo1);
    EXPECT_TRUE(a1_exec.run(q).equals(ref)) << "Argo1";
    argo::ArgoExecutor a3_exec(*w.argo3);
    EXPECT_TRUE(a3_exec.run(q).equals(ref)) << "Argo3";
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, SixEngines,
    ::testing::Range(0, static_cast<int>(nobench::kNumTemplates)),
    [](const auto &info) {
        return "Q" + std::to_string(info.param + 1);
    });

TEST(TableIV, RelationalFactsHold)
{
    World &w = world();

    // Table counts: row 1, column 1019, Hyrise ~11, DVP ~109.
    EXPECT_EQ(w.row->tableCount(), 1u);
    EXPECT_EQ(w.col->tableCount(), 1019u);
    EXPECT_GE(w.hyrise->tableCount(), 8u);
    EXPECT_LE(w.hyrise->tableCount(), 14u);
    EXPECT_GE(w.dvp->tableCount(), 90u);
    EXPECT_LE(w.dvp->tableCount(), 130u);
    EXPECT_EQ(w.argo1->tableCount(), 1u);
    EXPECT_EQ(w.argo3->tableCount(), 3u);

    // NULL ordering: row ~ Hyrise >> DVP; column and Argo3 store none.
    EXPECT_GT(w.row->nullBytes(), 100 * w.dvp->nullBytes() + 1);
    EXPECT_GT(w.hyrise->nullBytes(), 10 * w.dvp->nullBytes());
    EXPECT_EQ(w.col->nullCells(), 0u);
    EXPECT_EQ(w.argo3->nullCells(), 0u);
    EXPECT_GT(w.argo1->nullCells(), 0u);

    // Size ordering (paper Table IV): DVP smallest, row/Hyrise
    // largest, column compact.
    EXPECT_LT(w.dvp->storageBytes(), w.col->storageBytes());
    EXPECT_LT(w.col->storageBytes(), w.row->storageBytes() / 5);
    EXPECT_LT(w.dvp->storageBytes(), w.argo3->storageBytes());
    EXPECT_LT(w.dvp->storageBytes(), w.hyrise->storageBytes() / 10);

    // Argo1 nulls are exactly 40% of its cells.
    const argo::ArgoTable &t = w.argo1->table(0);
    EXPECT_EQ(w.argo1->nullCells() * 10, t.rows() * t.width() * 4);
}

TEST(PerfSimulation, DvpBeatsRowOnProjectionMisses)
{
    World &w = world();
    perf::MemoryHierarchy mh_row, mh_dvp;
    engine::Executor row_exec(*w.row);
    engine::Executor dvp_exec(*w.dvp);
    const Query &q1 = w.queries[nobench::kQ1];
    row_exec.run(q1, mh_row);
    dvp_exec.run(q1, mh_dvp);
    // Q1 projects two co-located attributes: the row layout drags the
    // whole 1020-slot record through the cache (the DVP partition may
    // legitimately carry a couple of join-affine attributes, so the
    // gap at this small scale is ~2-3x; the bench reproduces the full
    // paper-scale gap).
    EXPECT_LT(mh_dvp.counters().l1Misses * 2,
              mh_row.counters().l1Misses);
}

TEST(PerfSimulation, ColumnWorstTlbOnSelectStar)
{
    World &w = world();
    perf::MemoryHierarchy mh_col, mh_dvp, mh_row;
    engine::Executor col_exec(*w.col);
    engine::Executor dvp_exec(*w.dvp);
    engine::Executor row_exec(*w.row);
    // Q5 selects exactly one record via SELECT *: the column layout
    // must visit all 1019 tables to rebuild it (paper Fig. 7).
    const Query &q5 = w.queries[nobench::kQ5];
    col_exec.run(q5, mh_col);
    dvp_exec.run(q5, mh_dvp);
    row_exec.run(q5, mh_row);
    EXPECT_GT(mh_col.counters().tlbMisses,
              2 * mh_dvp.counters().tlbMisses);
    EXPECT_GT(mh_col.counters().tlbMisses,
              5 * mh_row.counters().tlbMisses);
}

TEST(EndToEnd, BulkInsertReachesAllSixEngines)
{
    // Fresh, small world so inserts do not disturb the shared one.
    nobench::Config cfg;
    cfg.numDocs = 200;
    cfg.seed = 13;
    engine::DataSet data = nobench::generateDataSet(cfg);
    auto attrs = data.catalog.allAttrs();
    engine::Database row(data, Layout::rowBased(attrs), "row");
    argo::ArgoStore a3(data, argo::Variant::Argo3);

    Rng rng(14);
    nobench::appendDocs(cfg, data, rng, 10);
    std::vector<storage::Document> payload;
    for (size_t i = data.docs.size() - 10; i < data.docs.size(); ++i)
        payload.push_back(data.docs[i]);
    nobench::QuerySet qs(data, cfg);
    Query q12 = qs.insertQuery(&payload);

    engine::Executor row_exec(row);
    row_exec.run(q12);
    argo::ArgoExecutor a3_exec(a3);
    a3_exec.run(q12);

    Query probe;
    probe.kind = engine::QueryKind::Select;
    probe.projected = {data.catalog.find("num")};
    probe.cond.op = engine::CondOp::Eq;
    probe.cond.attr = data.catalog.find("id");
    probe.cond.lo = 205;
    ResultSet a = row_exec.run(probe);
    ResultSet b = a3_exec.run(probe);
    ASSERT_EQ(a.rowCount(), 1u);
    EXPECT_TRUE(a.equals(b));
}

TEST(EndToEnd, JsonTextPipeline)
{
    // Full pipeline: JSON text -> parse -> DataSet -> engines agree.
    nobench::Config cfg;
    cfg.numDocs = 120;
    cfg.seed = 21;
    std::string text = nobench::generateJsonLines(cfg, cfg.numDocs);
    std::string err;
    auto docs = json::parseLines(text, &err);
    ASSERT_EQ(docs.size(), cfg.numDocs) << err;

    engine::DataSet data;
    nobench::registerCatalog(data.catalog);
    for (const auto &doc : docs)
        data.addObject(doc);

    auto attrs = data.catalog.allAttrs();
    engine::Database row(data, Layout::rowBased(attrs), "row");
    engine::Database col(data, Layout::columnBased(attrs), "col");
    nobench::QuerySet qs(data, cfg);
    Rng rng(22);
    for (int t = 0; t < nobench::kNumTemplates; ++t) {
        Query q = qs.instantiate(t, rng);
        engine::Executor re(row), ce(col);
        EXPECT_TRUE(re.run(q).equals(ce.run(q))) << q.name;
    }
}

} // namespace
} // namespace dvp
