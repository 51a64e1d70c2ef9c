/**
 * @file
 * Morsel-driven parallel execution tests.
 *
 * The contract under test (DESIGN.md "Threading model"): for every
 * NoBench query kind and every thread count, the parallel executor
 * returns the serial result bit-for-bit (same rows in the same order,
 * same oids, same checksum), and the traced overload's simulated
 * counters are independent of the thread knob because traced runs are
 * pinned to the serial path.  A final suite exercises the adaptive
 * engine with concurrent callers and a background repartition (the
 * TSan configuration of scripts/ci.sh makes that a race hunt).
 *
 * Scale comes from DVP_TEST_DOCS (default 4000) so the ThreadSanitizer
 * build can dial it down without editing the test.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "adaptive/adaptive_engine.hh"
#include "dvp/partitioner.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "engine/query.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"
#include "perf/memory_hierarchy.hh"
#include "util/thread_pool.hh"

namespace dvp
{
namespace
{

using engine::Database;
using engine::DataSet;
using engine::Executor;
using engine::Query;
using engine::ResultSet;
using layout::Layout;

size_t
testDocs()
{
    if (const char *env = std::getenv("DVP_TEST_DOCS"))
        return std::strtoull(env, nullptr, 10);
    return 4000;
}

/** Shared world: data, queries, serial references on row and DVP. */
struct ParallelWorld
{
    nobench::Config cfg;
    DataSet data;
    std::vector<Query> queries;
    std::unique_ptr<Database> row;
    std::unique_ptr<Database> dvp;
    std::vector<ResultSet> row_ref; ///< serial reference per template
    std::vector<ResultSet> dvp_ref;

    ParallelWorld()
    {
        cfg.numDocs = testDocs();
        cfg.seed = 7331;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(99);
        for (int t = 0; t < nobench::kNumTemplates; ++t)
            queries.push_back(qs.instantiate(t, rng));

        row = std::make_unique<Database>(
            data, Layout::rowBased(data.catalog.allAttrs()), "row");

        std::vector<Query> reps = nobench::representatives(
            qs, nobench::Mix::uniform(), rng);
        core::Partitioner partitioner(data, reps);
        dvp = std::make_unique<Database>(data, partitioner.run().layout,
                                         "DVP");

        Executor row_exec(*row);
        Executor dvp_exec(*dvp);
        for (const Query &q : queries) {
            row_ref.push_back(row_exec.run(q));
            dvp_ref.push_back(dvp_exec.run(q));
        }
    }
};

ParallelWorld &
world()
{
    static ParallelWorld w;
    return w;
}

void
expectSame(const ResultSet &got, const ResultSet &ref)
{
    EXPECT_EQ(got.rowCount(), ref.rowCount());
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.oids, ref.oids);
    EXPECT_EQ(got.width(), ref.width());
    EXPECT_EQ(got.cells(), ref.cells()); // bit-identical, not just equivalent
    EXPECT_EQ(got.digest(), ref.digest());
}

class MorselExecution : public ::testing::TestWithParam<int>
{
};

TEST_P(MorselExecution, RowLayoutMatchesSerialAtEveryThreadCount)
{
    ParallelWorld &w = world();
    const Query &q = w.queries[GetParam()];
    for (size_t threads : {1u, 2u, 4u, 8u}) {
        Executor exec(*w.row, threads);
        // Small morsels force many batches even at test scale.
        exec.setMorselRows(64);
        expectSame(exec.run(q), w.row_ref[GetParam()]);
    }
}

TEST_P(MorselExecution, DvpLayoutMatchesSerialAtEveryThreadCount)
{
    ParallelWorld &w = world();
    const Query &q = w.queries[GetParam()];
    for (size_t threads : {2u, 4u, 8u}) {
        Executor exec(*w.dvp, threads);
        exec.setMorselRows(64);
        expectSame(exec.run(q), w.dvp_ref[GetParam()]);
    }
}

TEST_P(MorselExecution, TracedCountersIndependentOfThreadKnob)
{
    // The simulation overload is pinned to the serial path, so an
    // executor configured with 8 threads must produce exactly the
    // 1-thread counters (DESIGN.md: simulated figures model one core).
    ParallelWorld &w = world();
    const Query &q = w.queries[GetParam()];

    perf::MemoryHierarchy mh_serial;
    Executor serial(*w.dvp, 1);
    ResultSet rs_serial = serial.run(q, mh_serial);

    perf::MemoryHierarchy mh_threaded;
    Executor threaded(*w.dvp, 8);
    threaded.setMorselRows(64);
    ResultSet rs_threaded = threaded.run(q, mh_threaded);

    expectSame(rs_threaded, rs_serial);
    auto a = mh_serial.counters();
    auto b = mh_threaded.counters();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, MorselExecution,
    ::testing::Range(0, static_cast<int>(nobench::kNumTemplates)),
    [](const auto &info) {
        return "Q" + std::to_string(info.param + 1);
    });

TEST(MorselExecution, DefaultMorselSizeAlsoMatches)
{
    // The other tests shrink morsels to stress the merge; make sure
    // the production granularity agrees too.
    ParallelWorld &w = world();
    for (size_t qi = 0; qi < w.queries.size(); ++qi) {
        Executor exec(*w.dvp, 4);
        expectSame(exec.run(w.queries[qi]), w.dvp_ref[qi]);
    }
}

TEST(MorselExecution, ThreadCountAboveLaneCountClamps)
{
    ParallelWorld &w = world();
    Executor exec(*w.row, 1024); // far beyond the pool's lane count
    exec.setMorselRows(64);
    expectSame(exec.run(w.queries[nobench::kQ1]),
               w.row_ref[nobench::kQ1]);
}

TEST(AdaptiveParallel, ConcurrentExecuteWithBackgroundRepartition)
{
    // Several caller threads issuing morsel-parallel queries while the
    // engine detects a workload change and swaps the database on a
    // background thread.  Correctness bar: every result matches the
    // serial reference for whatever layout the query ran on — which
    // the layout-invariance property reduces to "matches the row
    // reference".  Under TSan this doubles as the data-race test for
    // the snapshot/swap and stats paths.
    nobench::Config cfg;
    cfg.numDocs = std::min<size_t>(testDocs(), 1500);
    cfg.seed = 4242;
    DataSet data = nobench::generateDataSet(cfg);
    nobench::QuerySet qs(data, cfg);
    Rng rng(17);

    std::vector<Query> initial;
    for (int t = 0; t < 3; ++t)
        initial.push_back(qs.instantiate(t, rng));

    adaptive::Params prm;
    prm.window = 40;
    prm.changeThreshold = 0.3;
    prm.background = true;
    prm.threads = 4;
    adaptive::AdaptiveEngine eng(data, initial, prm);

    Database row(data, Layout::rowBased(data.catalog.allAttrs()),
                 "row");
    Executor row_exec(row);

    // Reference results for a shifted workload (drives the detector).
    std::vector<Query> shifted;
    for (int t = 0; t < nobench::kNumTemplates; ++t)
        shifted.push_back(qs.instantiateShifted(t, rng));
    std::vector<ResultSet> refs;
    for (const Query &q : shifted)
        refs.push_back(row_exec.run(q));

    // One full detector window of the initial workload first, in a
    // known order: the callers' shifted queries then fill the next
    // window and trip the detector whatever their interleaving.  (Two
    // windows drawn from the shifted mix alone differ only by sampling
    // noise, which crossed the threshold in some interleavings only.)
    for (size_t i = 0; i < prm.window; ++i)
        eng.execute(initial[i % initial.size()]);

    constexpr int kCallers = 3;
    constexpr int kRounds = 30;
    std::vector<std::thread> callers;
    std::vector<int> failures(kCallers, 0);
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            Rng crng(100 + c);
            for (int r = 0; r < kRounds; ++r) {
                size_t qi = crng.below(shifted.size());
                ResultSet rs = eng.execute(shifted[qi]);
                if (!rs.equals(refs[qi]))
                    ++failures[c];
            }
        });
    }
    for (auto &t : callers)
        t.join();
    eng.quiesce();

    for (int c = 0; c < kCallers; ++c)
        EXPECT_EQ(failures[c], 0) << "caller " << c;

    // The shifted workload must have tripped at least one detection;
    // repartitions may still be in flight counts but detections are
    // recorded synchronously.
    EXPECT_GE(eng.adaptation().changesDetected, 1u);
}

} // namespace
} // namespace dvp
