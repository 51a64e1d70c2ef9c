/**
 * @file
 * The shared operator surface: one templated walk that drives every
 * layout backend — the partitioned engine (row / column / hybrid /
 * Hyrise / DVP) and the Argo1/Argo3 key-value stores.
 *
 * A Backend supplies the layout-specific kernels:
 *
 *   ResultSet project(const Query &);            // Project
 *   Matches   matches(const Query &);            // WHERE clause scan
 *   ResultSet retrieve(const Query &, Matches);  // materialize matches
 *   ResultSet join(const Query &);               // self-join
 *   void      insertDoc(const storage::Document &);
 *
 * where `Matches` is whatever match representation the backend's scan
 * produces (sorted oids for the partitioned engine — computed by the
 * batched SelVec kernels of engine/kernels.hh on the timing path —
 * decision-site records for Argo).  The kind switch, the
 * aggregate's selection-first
 * orchestration and group fold (paper §VI-B), and the bulk-insert loop
 * live here exactly once; they used to be duplicated verbatim between
 * src/engine/executor.cc and src/argo/argo_executor.cc.
 */

#ifndef DVP_ENGINE_OPERATORS_HH
#define DVP_ENGINE_OPERATORS_HH

#include <algorithm>
#include <unordered_map>

#include "engine/query.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace dvp::engine::ops
{

/**
 * The Select sub-query an Aggregate executes first (paper Q10, §VI-B:
 * "the engine first executes the selection part of the query, and then
 * it does the aggregation over the retrieved result").  A COUNT(*)
 * retrieves at least the grouping column.  The sub-query keeps the
 * aggregate's groupBy, which is how a backend tells an aggregate's
 * SELECT * retrieval from a plain one: it reads every cell of each
 * match but keeps only the grouping cell in the row.
 */
inline Query
aggregateSubQuery(const Query &q)
{
    Query sub = q;
    sub.kind = QueryKind::Select;
    if (!sub.selectAll &&
        std::find(sub.projected.begin(), sub.projected.end(),
                  sub.groupBy) == sub.projected.end())
        sub.projected.push_back(sub.groupBy);
    return sub;
}

/** Column of the grouping attribute within the sub-query's rows. */
inline size_t
aggregateGroupColumn(const Query &sub)
{
    if (sub.selectAll)
        return 0; // rows hold only the grouping cell
    for (size_t i = 0; i < sub.projected.size(); ++i)
        if (sub.projected[i] == sub.groupBy)
            return i;
    return SIZE_MAX;
}

template <class Backend>
ResultSet
select(Backend &b, const Query &q)
{
    auto matches = b.matches(q);
    return b.retrieve(q, matches);
}

template <class Backend>
ResultSet
aggregate(Backend &b, const Query &q)
{
    invariant(q.groupBy != storage::kNoAttr,
              "aggregate query needs a GROUP BY column");
    Query sub = aggregateSubQuery(q);
    ResultSet selected = select(b, sub);

    DVP_TRACE_SPAN(fold_span, "merge", "aggregate fold");
    ResultSet rs(2);
    rs.checksum = selected.checksum;
    size_t group_col = aggregateGroupColumn(sub);
    std::unordered_map<storage::Slot, uint64_t> counts;
    for (size_t r = 0; r < selected.rowCount(); ++r) {
        // A grouping column the layout never materialized reads as
        // NULL here, folding every row into the NULL group.
        storage::Slot key = storage::kNullSlot;
        if (group_col < selected.width())
            key = selected.row(r)[group_col];
        ++counts[key];
    }
    rs.reserveRows(counts.size());
    for (const auto &[key, count] : counts)
        rs.addRow({key, static_cast<storage::Slot>(count)});
    return rs;
}

template <class Backend>
ResultSet
insert(Backend &b, const Query &q)
{
    invariant(q.insertDocs != nullptr, "insert query without a payload");
    for (const auto &doc : *q.insertDocs)
        b.insertDoc(doc);
    return ResultSet{};
}

/** Execute @p q against @p b: the one kind switch for all layouts. */
template <class Backend>
ResultSet
runQuery(Backend &b, const Query &q)
{
    switch (q.kind) {
      case QueryKind::Project:
        return b.project(q);
      case QueryKind::Select:
        return select(b, q);
      case QueryKind::Aggregate:
        return aggregate(b, q);
      case QueryKind::Join:
        return b.join(q);
      case QueryKind::Insert:
        return insert(b, q);
    }
    panic("unknown query kind");
}

} // namespace dvp::engine::ops

#endif // DVP_ENGINE_OPERATORS_HH
