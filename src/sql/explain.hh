/**
 * @file
 * EXPLAIN rendering: the bound physical plan for a parsed query, and
 * EXPLAIN ANALYZE's measured execution section.
 */

#ifndef DVP_SQL_EXPLAIN_HH
#define DVP_SQL_EXPLAIN_HH

#include <string>

#include "engine/database.hh"
#include "engine/query.hh"
#include "engine/query_stats.hh"

namespace dvp::sql
{

/**
 * Human-readable EXPLAIN body for @p q against @p db: the plan an
 * execution would bind, as PhysicalPlan::describe() renders it.
 */
std::string explain(const engine::Database &db, const engine::Query &q);

/**
 * EXPLAIN ANALYZE body: the bound plan (as explain()) followed by an
 * execution section rendered from @p stats — per-operator wall times,
 * rows scanned/matched/returned, zone-map block counts, the
 * compressed-eval path mix, morsel/thread counts, and the epoch and
 * layout the query ran on.
 * @p rows is the digest-verified result the numbers describe; its row
 * count and checksum are printed so the section reconciles against the
 * result the client received.  The caller executes the query first
 * (through AdaptiveEngine::execute(q, &stats)) and passes the outcome.
 */
std::string explainAnalyze(const engine::Database &db,
                           const engine::Query &q,
                           const engine::QueryStats &stats,
                           const engine::ResultSet &rows);

} // namespace dvp::sql

#endif // DVP_SQL_EXPLAIN_HH
