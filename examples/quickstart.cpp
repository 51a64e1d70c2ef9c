/**
 * @file
 * Quickstart: the smallest end-to-end tour of the public API.
 *
 *  1. Parse JSON documents into a DataSet.
 *  2. Describe the workload as queries with frequencies.
 *  3. Run the DVP partitioner and materialize a Database.
 *  4. Execute projections and selections; read decoded results.
 *
 * Build & run:   ./build/examples/quickstart
 * Add `--metrics metrics.prom --trace trace.ndjson` to dump engine
 * counters and query spans at exit.
 */

#include <cstdio>

#include "dvp/partitioner.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "json/parser.hh"
#include "obs/export.hh"

using namespace dvp;

int
main(int argc, char **argv)
{
    obs::DumpScope obs_dump = obs::scanArgs(argc, argv);
    // -- 1. Ingest schema-less JSON -----------------------------------
    const char *documents[] = {
        R"({"user":"ada",  "age":36, "city":"london",
            "badges":["pioneer","math"], "profile":{"karma":99}})",
        R"({"user":"grace","age":45, "city":"arlington",
            "profile":{"karma":120}})",
        R"({"user":"alan", "age":41, "city":"london",
            "badges":["logic"], "vip":true})",
        R"({"user":"edsger","age":72, "city":"austin",
            "profile":{"karma":64}})",
    };

    engine::DataSet data;
    for (const char *text : documents) {
        json::ParseResult parsed = json::parse(text);
        if (!parsed.ok) {
            std::fprintf(stderr, "bad document: %s\n",
                         parsed.error.c_str());
            return 1;
        }
        data.addObject(parsed.value);
    }
    std::printf("ingested %zu documents, %zu flattened attributes\n",
                data.docs.size(), data.catalog.attrCount());

    // -- 2. Describe the workload -------------------------------------
    auto attr = [&](const char *name) { return data.catalog.find(name); };

    engine::Query by_city; // frequent: SELECT user, age WHERE city = ?
    by_city.name = "by_city";
    by_city.kind = engine::QueryKind::Select;
    by_city.projected = {attr("user"), attr("age")};
    by_city.cond.op = engine::CondOp::Eq;
    by_city.cond.attr = attr("city");
    by_city.cond.lo = storage::encodeString(data.dict.lookup("london"));
    by_city.frequency = 0.8;
    by_city.selectivity = 0.5;

    engine::Query karma; // rare: SELECT user, profile.karma
    karma.name = "karma";
    karma.kind = engine::QueryKind::Project;
    karma.projected = {attr("user"), attr("profile.karma")};
    karma.frequency = 0.2;
    karma.selectivity = 1.0;

    // -- 3. Partition and materialize ----------------------------------
    core::Partitioner partitioner(data, {by_city, karma});
    core::SearchResult result = partitioner.run();
    std::printf("DVP chose %zu partitions (cost %.4f -> %.4f) in %.1f ms\n",
                result.layout.partitionCount(), result.initialCost,
                result.finalCost, result.seconds * 1e3);

    engine::Database db(data, result.layout, "quickstart");
    std::printf("materialized %zu tables, %zu bytes, %llu NULL cells\n",
                db.tableCount(), db.storageBytes(),
                static_cast<unsigned long long>(db.nullCells()));

    // -- 4. Query -------------------------------------------------------
    engine::Executor exec(db);
    engine::ResultSet rs = exec.run(by_city);
    std::printf("\nusers in london:\n");
    for (size_t r = 0; r < rs.rowCount(); ++r) {
        auto row = rs.row(r);
        std::printf("  %-8s age %lld\n",
                    data.dict.text(storage::decodeString(row[0])).c_str(),
                    static_cast<long long>(row[1]));
    }

    rs = exec.run(karma);
    std::printf("\nkarma board:\n");
    for (size_t r = 0; r < rs.rowCount(); ++r) {
        auto row = rs.row(r);
        std::printf("  %-8s %s\n",
                    data.dict.text(storage::decodeString(row[0])).c_str(),
                    storage::isNull(row[1])
                        ? "(no profile)"
                        : std::to_string(row[1]).c_str());
    }
    return 0;
}
