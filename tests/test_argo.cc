/**
 * @file
 * Tests for the Argo mapping layers (src/argo): store shapes (Table I
 * and II of the paper), executor semantics, and result equality with
 * the partitioned engine.
 */

#include <gtest/gtest.h>

#include "argo/argo_executor.hh"
#include "argo/argo_store.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "json/parser.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "perf/memory_hierarchy.hh"

namespace dvp::argo
{
namespace
{

using engine::Query;
using engine::ResultSet;
using storage::isNull;

class ArgoTiny : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *docs[] = {
            R"({"name":"John","manager":true,"salary":100,
                "institution":"IBM"})",
            R"({"name":"Mary","salary":200})",
        };
        for (const char *text : docs) {
            auto parsed = json::parse(text);
            ASSERT_TRUE(parsed.ok) << parsed.error;
            data.addObject(parsed.value);
        }
    }
    engine::DataSet data;
};

TEST_F(ArgoTiny, Argo1SingleTableWithTwoNullsPerRecord)
{
    ArgoStore store(data, Variant::Argo1);
    ASSERT_EQ(store.tableCount(), 1u);
    const ArgoTable &t = store.table(0);
    // 4 + 2 flattened attributes = 6 records.
    EXPECT_EQ(t.rows(), 6u);
    EXPECT_EQ(t.width(), 5u);
    // Exactly one of the three value columns is set per record: 2
    // NULLs per record (the paper's "40% of the values are null").
    EXPECT_EQ(store.nullCells(), 12u);
    EXPECT_EQ(store.nullCells() * 100 / (t.rows() * t.width()), 40u);
}

TEST_F(ArgoTiny, Argo3ThreeTablesNoNulls)
{
    ArgoStore store(data, Variant::Argo3);
    ASSERT_EQ(store.tableCount(), 3u);
    EXPECT_EQ(store.nullCells(), 0u);
    // Strings: name x2, institution x1 = 3 records in the str table.
    EXPECT_EQ(store.table(0).rows(), 3u);
    // Numerics + booleans: salary x2, manager x1.
    EXPECT_EQ(store.table(1).rows(), 3u);
    EXPECT_EQ(store.table(2).rows(), 0u);
}

TEST_F(ArgoTiny, OidOrderAndLowerBound)
{
    ArgoStore store(data, Variant::Argo1);
    const ArgoTable &t = store.table(0);
    for (size_t r = 1; r < t.rows(); ++r)
        EXPECT_LE(t.oid(r - 1), t.oid(r));
    EXPECT_EQ(t.lowerBound(0), 0u);
    EXPECT_EQ(t.lowerBound(1), 4u); // doc0 has 4 records
    EXPECT_EQ(t.lowerBound(2), 6u);
}

TEST_F(ArgoTiny, StorageAccounting)
{
    ArgoStore a1(data, Variant::Argo1);
    ArgoStore a3(data, Variant::Argo3);
    EXPECT_EQ(a1.storageBytes(), 6u * 5 * 8);
    EXPECT_EQ(a3.storageBytes(), 6u * 3 * 8);
    EXPECT_GT(a1.buildSeconds(), 0.0);
}

TEST_F(ArgoTiny, ProjectionFindsValues)
{
    ArgoStore store(data, Variant::Argo3);
    ArgoExecutor exec(store);
    Query q;
    q.kind = engine::QueryKind::Project;
    q.projected = {data.catalog.find("salary"),
                   data.catalog.find("institution")};
    ResultSet rs = exec.run(q);
    ASSERT_EQ(rs.rowCount(), 2u);
    EXPECT_EQ(rs.row(0)[0], 100);
    EXPECT_EQ(rs.row(1)[0], 200);
    EXPECT_TRUE(isNull(rs.row(1)[1])); // Mary has no institution
}

TEST_F(ArgoTiny, InsertGrowsTables)
{
    ArgoStore store(data, Variant::Argo1);
    auto parsed = json::parse(R"({"name":"Sam","salary":300})");
    ASSERT_TRUE(parsed.ok);
    data.addObject(parsed.value);
    std::vector<storage::Document> payload{data.docs.back()};
    ArgoExecutor exec(store);
    Query q12;
    q12.kind = engine::QueryKind::Insert;
    q12.insertDocs = &payload;
    exec.run(q12);
    EXPECT_EQ(store.table(0).rows(), 8u);
}

// ---------------------------------------------------------------------
// Equality with the partitioned engine on the NoBench workload.
// ---------------------------------------------------------------------

struct ArgoWorld
{
    nobench::Config cfg;
    engine::DataSet data;
    std::vector<Query> queries;
    std::vector<ResultSet> reference;

    ArgoWorld()
    {
        cfg.numDocs = 600;
        cfg.seed = 424242;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(11);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            queries.push_back(qs.instantiate(t, rng));

        engine::Database row(
            data, layout::Layout::rowBased(data.catalog.allAttrs()),
            "row");
        engine::Executor exec(row);
        for (const auto &q : queries)
            reference.push_back(exec.run(q));
    }
};

ArgoWorld &
world()
{
    static ArgoWorld w;
    return w;
}

class ArgoEquivalence
    : public ::testing::TestWithParam<std::tuple<Variant, int>>
{
};

TEST_P(ArgoEquivalence, MatchesPartitionedEngine)
{
    auto [variant, qidx] = GetParam();
    ArgoWorld &w = world();
    ArgoStore store(w.data, variant);
    ArgoExecutor exec(store);
    ResultSet rs = exec.run(w.queries[qidx]);
    const ResultSet &ref = w.reference[qidx];
    EXPECT_EQ(rs.rowCount(), ref.rowCount());
    EXPECT_TRUE(rs.equals(ref));
    EXPECT_EQ(rs.digest(), ref.digest());
}

INSTANTIATE_TEST_SUITE_P(
    BothVariantsAllQueries, ArgoEquivalence,
    ::testing::Combine(
        ::testing::Values(Variant::Argo1, Variant::Argo3),
        ::testing::Range(0, static_cast<int>(nobench::kNumTemplates))),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == Variant::Argo1
                               ? "Argo1"
                               : "Argo3") +
               "_Q" + std::to_string(std::get<1>(info.param) + 1);
    });

TEST(ArgoTraced, CountersAccumulateAndResultsMatch)
{
    ArgoWorld &w = world();
    ArgoStore store(w.data, Variant::Argo1);
    ArgoExecutor exec(store);
    perf::MemoryHierarchy mh;
    ResultSet rs = exec.run(w.queries[nobench::kQ6], mh);
    EXPECT_TRUE(rs.equals(w.reference[nobench::kQ6]));
    EXPECT_GT(mh.counters().accesses, 0u);
}

TEST(ArgoScale, RecordCountMatchesFlattenedAttrs)
{
    ArgoWorld &w = world();
    size_t expected = 0;
    for (const auto &doc : w.data.docs)
        expected += doc.attrs.size();
    ArgoStore a1(w.data, Variant::Argo1);
    EXPECT_EQ(a1.table(0).rows(), expected);
    ArgoStore a3(w.data, Variant::Argo3);
    EXPECT_EQ(a3.table(0).rows() + a3.table(1).rows() +
                  a3.table(2).rows(),
              expected);
}

TEST(ArgoScale, ArgoTablesAreTallerThanPartitionedOnes)
{
    // The paper: Argo tables have 20x-24x more records than object
    // count, which is why projections are slow.
    ArgoWorld &w = world();
    ArgoStore a1(w.data, Variant::Argo1);
    double ratio = static_cast<double>(a1.table(0).rows()) /
                   static_cast<double>(w.data.docs.size());
    EXPECT_GT(ratio, 19.0);
    EXPECT_LT(ratio, 29.0);
}

} // namespace
} // namespace dvp::argo
