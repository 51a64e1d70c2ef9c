#include "sql/explain.hh"

#include <cinttypes>
#include <cstdio>

#include "engine/plan.hh"

namespace dvp::sql
{

std::string
explain(const engine::Database &db, const engine::Query &q)
{
    return engine::bindPlan(db, q).describe(db);
}

namespace
{

std::string
fmtLine(const char *name, uint64_t v, const char *unit = "")
{
    char line[96];
    std::snprintf(line, sizeof(line), "  %-18s %12" PRIu64 "%s\n", name,
                  v, unit);
    return line;
}

} // namespace

std::string
explainAnalyze(const engine::Database &db, const engine::Query &q,
               const engine::QueryStats &stats,
               const engine::ResultSet &rows)
{
    char line[160];
    std::string out;

    std::snprintf(line, sizeof(line),
                  "plan: epoch %" PRIu64 ", layout %016" PRIx64 "\n",
                  stats.planEpoch, stats.layoutFingerprint);
    out += line;
    out += engine::bindPlan(db, q).describe(db);

    out += "execution:\n";
    out += fmtLine("total", stats.execNs, " ns");
    out += fmtLine("  plan/bind", stats.planNs, " ns");
    if (stats.projectNs != 0)
        out += fmtLine("  project", stats.projectNs, " ns");
    if (stats.filterNs != 0)
        out += fmtLine("  filter", stats.filterNs, " ns");
    if (stats.retrieveNs != 0)
        out += fmtLine("  retrieve", stats.retrieveNs, " ns");
    if (stats.joinNs != 0) {
        out += fmtLine("  join", stats.joinNs, " ns");
        out += fmtLine("    build", stats.joinBuildNs, " ns");
        out += fmtLine("    probe", stats.joinProbeNs, " ns");
        out += fmtLine("    materialize", stats.joinMaterializeNs, " ns");
    }
    out += fmtLine("rows scanned", stats.rowsScanned);
    out += fmtLine("partition touches", stats.partitionTouches);
    out += fmtLine("blocks scanned", stats.blocksScanned);
    out += fmtLine("blocks skipped", stats.blocksSkipped);
    out += fmtLine("matches", stats.matches);
    out += fmtLine("rows out", stats.rowsOut);
    if (stats.compressedEvalTotal() != 0) {
        std::snprintf(line, sizeof(line),
                      "  compressed eval    rle %" PRIu64 ", pack %"
                      PRIu64 ", raw %" PRIu64 ", decompress %" PRIu64
                      "\n",
                      stats.compressedEval[0], stats.compressedEval[1],
                      stats.compressedEval[2], stats.compressedEval[3]);
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "  morsels            %12" PRIu64 " (threads %zu)\n",
                  stats.morsels, stats.threads);
    out += line;
    std::snprintf(line, sizeof(line),
                  "result: %" PRIu64 " rows, checksum %016" PRIx64 "\n",
                  rows.rowCount(), rows.checksum);
    out += line;
    return out;
}

} // namespace dvp::sql
