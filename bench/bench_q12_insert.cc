/**
 * @file
 * Experiment E11 — Table III's Q12 (`LOAD DATA LOCAL INFILE ...`):
 * bulk-insert throughput into every engine, plus the single-document
 * ingest path (the adaptive engine's trickle insert).
 *
 * The paper folds this cost into Table IV's build time; this bench
 * isolates it: per-engine documents/second for a bulk batch appended
 * to an already-populated store, and the row-vs-column trade-off the
 * paper describes in §VI-A (column inserts touch ~24 tables per
 * document, DVP 7-8, row and Argo one).
 */

#include "harness.hh"

namespace dvp::bench
{
namespace
{

int
run(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv, /*default_docs=*/20000);
    EngineSet engines(opt);

    // Generate the insert batch (Q12's file contents), pre-encoded
    // exactly as the executor receives it.
    size_t batch = std::max<size_t>(1000, opt.docs / 10);
    Rng rng(opt.seed + 20);
    nobench::appendDocs(engines.config(), engines.data(), rng, batch);
    const storage::DocStore &docs = engines.data().docs;
    std::vector<storage::Document> payload;
    for (size_t i = docs.size() - batch; i < docs.size(); ++i)
        payload.push_back(docs[i]);
    engine::Query q12 = engines.querySet().insertQuery(&payload);

    TablePrinter t({"Engine", "batch [ms]", "docs/s",
                    "tables touched/doc"});
    JsonLog json(opt, "q12_insert");
    for (EngineKind kind : allEngines()) {
        Timer timer;
        engines.run(kind, q12);
        double ms = timer.milliseconds();

        // Tables a document actually lands in (sparse omission).
        double touched;
        if (const auto *db = engines.database(kind)) {
            uint64_t rows = 0;
            for (size_t i = 0; i < db->tableCount(); ++i)
                rows += db->table(i).rows();
            touched = static_cast<double>(rows) /
                      static_cast<double>(db->docCount());
        } else {
            touched = 1.0; // Argo: every record goes to 1 (or 1 of 3)
        }
        t.addRow({engineName(kind), fmt(ms, 1),
                  fmtCount(static_cast<uint64_t>(
                      batch / (ms / 1e3))),
                  fmt(touched, 1)});
        json.value(engineName(kind), "Q12", "batch_ms", ms, "ms");
        json.value(engineName(kind), "Q12", "docs_per_second",
                   batch / (ms / 1e3), "docs/s");
        inform("  %-12s %.1f ms for %zu docs", engineName(kind), ms,
               batch);
    }
    emit(t, "E11 (Q12): bulk insert of " + std::to_string(batch) +
                " documents into pre-populated engines (docs=" +
                std::to_string(opt.docs) + ")",
         opt.csv);

    TablePrinter s({"Shape check", "value", "paper (§VI-A)"});
    const auto *dvp = engines.database(EngineKind::Dvp);
    uint64_t dvp_rows = 0;
    for (size_t i = 0; i < dvp->tableCount(); ++i)
        dvp_rows += dvp->table(i).rows();
    const auto *col = engines.database(EngineKind::Column);
    uint64_t col_rows = 0;
    for (size_t i = 0; i < col->tableCount(); ++i)
        col_rows += col->table(i).rows();
    s.addRow({"DVP tables touched per doc",
              fmt(static_cast<double>(dvp_rows) / dvp->docCount(), 1),
              "7-8"});
    s.addRow({"col tables touched per doc",
              fmt(static_cast<double>(col_rows) / col->docCount(), 1),
              "~24"});
    emit(s, "E11 shape checks", opt.csv);
    return 0;
}

} // namespace
} // namespace dvp::bench

int
main(int argc, char **argv)
{
    return dvp::bench::run(argc, argv);
}
