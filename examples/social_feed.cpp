/**
 * @file
 * Social-feed analytics: the paper's motivating scenario (continuous
 * analytics over Facebook/Twitter-style JSON events).
 *
 * Generates a stream of post/like/share events with sparse campaign
 * tags, builds DVP / row / column layouts over the same data, and runs
 * a skewed dashboard workload on each, reporting the latency per
 * layout — a miniature of the paper's Figure 5 on a non-NoBench
 * schema.
 *
 * Usage: social_feed [num_events]          (default 20000)
 *        (--metrics/--trace PATH dump counters and spans at exit)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "dvp/partitioner.hh"
#include "engine/database.hh"
#include "obs/export.hh"
#include "engine/executor.hh"
#include "json/value.hh"
#include "util/random.hh"
#include "util/timer.hh"

using namespace dvp;

namespace
{

/** One synthetic feed event. */
json::JsonValue
makeEvent(Rng &rng, int64_t id)
{
    using json::JsonValue;
    JsonValue e = JsonValue::makeObject();
    e.set("id", JsonValue(id));
    e.set("user", JsonValue("user_" + std::to_string(rng.below(500))));
    const char *kinds[] = {"post", "like", "share", "comment"};
    e.set("kind", JsonValue(kinds[rng.below(4)]));
    e.set("ts", JsonValue(rng.range(1, 1'000'000)));
    e.set("likes", JsonValue(rng.range(0, 5000)));

    JsonValue geo = JsonValue::makeObject();
    geo.set("country", JsonValue("c" + std::to_string(rng.below(30))));
    geo.set("lang", JsonValue("l" + std::to_string(rng.below(10))));
    e.set("geo", std::move(geo));

    // Sparse campaign attributes: only ~2% of events carry them.
    if (rng.chance(0.02)) {
        e.set("campaign.id",
              JsonValue(static_cast<int64_t>(rng.below(40))));
        e.set("campaign.bid", JsonValue(rng.range(1, 100)));
        e.set("campaign.slot",
              JsonValue("s" + std::to_string(rng.below(8))));
    }
    // Hashtags: variable-length array.
    JsonValue tags = JsonValue::makeArray();
    auto ntags = rng.below(4);
    for (uint64_t t = 0; t < ntags; ++t)
        tags.push(JsonValue("#" + std::to_string(rng.below(200))));
    e.set("tags", std::move(tags));
    return e;
}

double
replay(engine::Database &db, const std::vector<engine::Query> &log)
{
    engine::Executor exec(db);
    for (const auto &q : log)
        exec.run(q); // warm-up pass
    Timer t;
    for (const auto &q : log)
        exec.run(q);
    return t.milliseconds();
}

} // namespace

int
main(int argc, char **argv)
{
    obs::DumpScope obs_dump = obs::scanArgs(argc, argv);
    size_t events = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                             : 20000;
    Rng rng(2026);

    engine::DataSet data;
    for (size_t i = 0; i < events; ++i)
        data.addObject(makeEvent(rng, static_cast<int64_t>(i)));
    std::printf("feed: %zu events, %zu attributes\n", data.docs.size(),
                data.catalog.attrCount());

    auto attr = [&](const char *n) { return data.catalog.find(n); };
    auto str = [&](const std::string &s) {
        return storage::encodeString(data.dict.lookup(s));
    };

    // The dashboard workload: hot trending query, warm campaign scan,
    // cold full-record lookups.
    engine::Query trending;
    trending.name = "trending";
    trending.kind = engine::QueryKind::Project;
    trending.projected = {attr("kind"), attr("likes")};
    trending.frequency = 0.6;
    trending.selectivity = 1.0;

    engine::Query campaigns;
    campaigns.name = "campaigns";
    campaigns.kind = engine::QueryKind::Select;
    campaigns.projected = {attr("campaign.id"), attr("campaign.bid"),
                           attr("likes")};
    campaigns.cond.op = engine::CondOp::Between;
    campaigns.cond.attr = attr("campaign.bid");
    campaigns.cond.lo = 50;
    campaigns.cond.hi = 100;
    campaigns.frequency = 0.3;
    campaigns.selectivity = 0.01;

    engine::Query lookup;
    lookup.name = "lookup";
    lookup.kind = engine::QueryKind::Select;
    lookup.selectAll = true;
    lookup.cond.op = engine::CondOp::Eq;
    lookup.cond.attr = attr("user");
    lookup.cond.lo = str("user_42");
    lookup.frequency = 0.1;
    lookup.selectivity = 1.0 / 500;

    std::vector<engine::Query> workload{trending, campaigns, lookup};

    // Sampled 300-query log matching the frequencies.
    std::vector<engine::Query> log;
    Rng lrng(7);
    for (int i = 0; i < 300; ++i) {
        double u = lrng.uniform();
        log.push_back(u < 0.6 ? trending
                              : (u < 0.9 ? campaigns : lookup));
    }

    // Build the three layouts over identical data.
    auto attrs = data.catalog.allAttrs();
    core::Partitioner partitioner(data, workload);
    core::SearchResult res = partitioner.run();
    engine::Database dvp_db(data, res.layout, "DVP");
    engine::Database row_db(data, layout::Layout::rowBased(attrs),
                            "row");
    engine::Database col_db(data, layout::Layout::columnBased(attrs),
                            "col");

    std::printf("\nDVP layout: %zu partitions (%.1f ms to compute)\n",
                res.layout.partitionCount(), res.seconds * 1e3);
    std::printf("%-8s %10s %12s\n", "layout", "tables", "300-q log");
    std::printf("%-8s %10zu %9.1f ms\n", "DVP", dvp_db.tableCount(),
                replay(dvp_db, log));
    std::printf("%-8s %10zu %9.1f ms\n", "row", row_db.tableCount(),
                replay(row_db, log));
    std::printf("%-8s %10zu %9.1f ms\n", "col", col_db.tableCount(),
                replay(col_db, log));

    std::printf("\nmemory: DVP %zu KB, row %zu KB, col %zu KB\n",
                dvp_db.storageBytes() / 1024,
                row_db.storageBytes() / 1024,
                col_db.storageBytes() / 1024);

    // Show one decoded campaign row.
    engine::Executor exec(dvp_db);
    engine::ResultSet rs = exec.run(campaigns);
    std::printf("\n%zu campaign events with bid >= 50; first few:\n",
                static_cast<size_t>(rs.rowCount()));
    for (size_t r = 0; r < rs.rowCount() && r < 3; ++r)
        std::printf("  campaign %lld bid %lld likes %lld\n",
                    static_cast<long long>(rs.row(r)[0]),
                    static_cast<long long>(rs.row(r)[1]),
                    static_cast<long long>(rs.row(r)[2]));
    return 0;
}
