/**
 * @file
 * Tests for the physical-plan layer (src/engine/plan*): binding,
 * executor integration (repeated execution bit-identical across
 * layouts and thread counts), and adaptive swaps.
 */

#include <gtest/gtest.h>

#include "adaptive/adaptive_engine.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/plan.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "obs/metrics.hh"

namespace dvp::engine
{
namespace
{

/** Shared NoBench world with one database per layout family. */
class PlanWorld : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        cfg.numDocs = 800;
        cfg.seed = 6021;
        data = new DataSet(nobench::generateDataSet(cfg));
        qs = new nobench::QuerySet(*data, cfg);
        auto attrs = data->catalog.allAttrs();
        row = new Database(*data, layout::Layout::rowBased(attrs),
                           "row");
        column = new Database(*data,
                              layout::Layout::columnBased(attrs),
                              "column");
        fixed = new Database(
            *data, layout::Layout::fixedSize(attrs, 12), "fixedSize");
    }
    static void
    TearDownTestSuite()
    {
        delete fixed;
        delete column;
        delete row;
        delete qs;
        delete data;
        fixed = column = row = nullptr;
        qs = nullptr;
        data = nullptr;
    }

    /** One fixed-literal instance of each executable template. */
    static std::vector<Query>
    templates()
    {
        Rng rng(17);
        std::vector<Query> qv;
        for (int i = 0; i < nobench::kNumTemplates; ++i)
            qv.push_back(qs->instantiate(i, rng));
        return qv;
    }

    static nobench::Config cfg;
    static DataSet *data;
    static nobench::QuerySet *qs;
    static Database *row, *column, *fixed;
};

nobench::Config PlanWorld::cfg;
DataSet *PlanWorld::data = nullptr;
nobench::QuerySet *PlanWorld::qs = nullptr;
Database *PlanWorld::row = nullptr;
Database *PlanWorld::column = nullptr;
Database *PlanWorld::fixed = nullptr;

// ---------------------------------------------------------------------
// Binding.
// ---------------------------------------------------------------------

TEST_F(PlanWorld, BindStampsEveryPlan)
{
    for (const Query &q : templates()) {
        SCOPED_TRACE(q.name);
        PhysicalPlan p = bindPlan(*fixed, q);
        EXPECT_EQ(p.kind, q.kind);
        EXPECT_EQ(p.templateName, q.name);
        EXPECT_EQ(p.epoch, fixed->epoch());
        EXPECT_EQ(p.layoutFingerprint, fixed->layoutFingerprint());
        EXPECT_EQ(p.catalogWidth, data->catalog.attrCount());
    }
}

TEST_F(PlanWorld, BindResolvesAgainstTheLayout)
{
    Rng rng(3);
    Query q6 = qs->instantiate(nobench::kQ6, rng);

    PhysicalPlan pc = bindPlan(*column, q6);
    ASSERT_EQ(pc.filter.mode, FilterMode::ColumnPredicate);
    EXPECT_GE(pc.filter.table, 0);
    EXPECT_EQ(pc.filter.col, 0); // column store: one attr per table

    // Same template, different layout: different physical locations.
    PhysicalPlan pr = bindPlan(*row, q6);
    ASSERT_EQ(pr.filter.mode, FilterMode::ColumnPredicate);
    EXPECT_EQ(pr.filter.table, 0); // row store: everything in table 0

    // A condition on a column no layout materializes binds to Empty.
    Query ghost = q6;
    ghost.cond.attr = storage::kNoAttr;
    EXPECT_EQ(bindPlan(*fixed, ghost).filter.mode, FilterMode::Empty);
}

TEST_F(PlanWorld, RepeatedExecutionBitIdenticalAcrossLayoutsAndThreads)
{
    std::vector<Query> qv = templates();
    // Reference: serial execution on the row layout.
    std::vector<uint64_t> ref;
    {
        Executor serial(*row);
        for (const Query &q : qv)
            ref.push_back(serial.run(q).digest());
    }

    for (Database *db : {row, column, fixed}) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
            Executor exec(*db, threads);
            exec.setMorselRows(64);
            for (size_t i = 0; i < qv.size(); ++i) {
                SCOPED_TRACE(qv[i].name + " threads=" +
                             std::to_string(threads));
                uint64_t first = exec.run(qv[i]).digest();
                uint64_t again = exec.run(qv[i]).digest();
                EXPECT_EQ(first, ref[i]);
                EXPECT_EQ(again, ref[i]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Adaptive swaps.
// ---------------------------------------------------------------------

TEST(PlanAdaptive, SwapRetainsKnobsAndStaysCorrect)
{
    nobench::Config cfg;
    cfg.numDocs = 800;
    cfg.seed = 99;
    DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    Rng wrng(1);
    auto initial =
        nobench::representatives(qs, nobench::Mix::uniform(), wrng);

    adaptive::Params prm;
    prm.background = false;
    prm.window = 40;
    prm.changeThreshold = 0.4;
    prm.threads = 2;
    prm.morselRows = 64;
    adaptive::AdaptiveEngine eng(data, initial, prm);
    EXPECT_EQ(eng.threads(), 2u);
    EXPECT_EQ(eng.morselRows(), 64u);

    Rng rng(7);
    // Steady phase: the initial workload repeats, so no swap.
    for (int i = 0; i < 80; ++i)
        eng.execute(qs.instantiate(i % nobench::kNumTemplates, rng));
    EXPECT_EQ(eng.adaptation().repartitions, 0u);

    uint64_t epoch_before = eng.snapshot()->epoch();
    uint64_t morsels_before =
        obs::Registry::global().counter("dvp_morsels_total").value();

    // Shifted phase: the synchronous repartition swaps the database.
    for (int i = 0; i < 120; ++i)
        eng.execute(
            qs.instantiateShifted(i % nobench::kNumTemplates, rng));
    ASSERT_GE(eng.adaptation().repartitions, 1u);
    EXPECT_GT(eng.snapshot()->epoch(), epoch_before);

    // The execution knobs survive the swap: still 2 worker lanes and
    // the configured morsel size, i.e. post-swap queries keep running
    // the parallel path.
    EXPECT_EQ(eng.threads(), 2u);
    EXPECT_EQ(eng.morselRows(), 64u);
    EXPECT_GT(obs::Registry::global()
                  .counter("dvp_morsels_total")
                  .value(),
              morsels_before);

    // And post-swap results are still correct and repeatable.
    Query probe = qs.instantiateShifted(nobench::kQ6, rng);
    ResultSet first = eng.execute(probe);
    ResultSet again = eng.execute(probe);
    Database ref_db(data,
                    layout::Layout::rowBased(data.catalog.allAttrs()),
                    "row");
    Executor ref(ref_db);
    EXPECT_TRUE(first.equals(ref.run(probe)));
    EXPECT_EQ(again.digest(), first.digest());
}

} // namespace
} // namespace dvp::engine
