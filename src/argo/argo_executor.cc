#include "argo/argo_executor.hh"

#include <algorithm>
#include <climits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "engine/operators.hh"
#include "util/logging.hh"

namespace dvp::argo
{

using engine::CondOp;
using engine::Query;
using engine::QueryKind;
using engine::ResultSet;
using storage::AttrId;
using storage::isNull;
using storage::kNullSlot;
using storage::Slot;

namespace
{

/**
 * The Argo execution backend.  Its public surface (project / matches /
 * retrieve / join / insertDoc) is the ops::runQuery Backend concept
 * shared with the partitioned engine, so the kind switch, aggregate
 * orchestration, and insert loop live in engine/operators.hh once.
 */
template <class Tracer>
class Exec
{
  public:
    Exec(ArgoStore &store, Tracer tr) : store(store), tr(tr) {}

  private:
    ArgoStore &store;
    Tracer tr;

    bool argo1() const { return store.variant() == Variant::Argo1; }

    /** Read oid + key of a record (the scan's inspection step). */
    std::pair<int64_t, AttrId>
    readHead(const ArgoTable &t, size_t row)
    {
        const Slot *rec = t.record(row);
        tr.touch(rec, 16);
        return {rec[0], static_cast<AttrId>(rec[1])};
    }

    /** Read a record's value (whichever typed column holds it). */
    Slot
    readValue(const ArgoTable &t, size_t row)
    {
        const Slot *rec = t.record(row);
        if (!argo1()) {
            tr.touch(rec + ArgoCols::kVal, 8);
            return rec[ArgoCols::kVal];
        }
        // Argo1: inspect the three typed columns.
        tr.touch(rec + ArgoCols::kStr, 24);
        if (!isNull(rec[ArgoCols::kStr]))
            return rec[ArgoCols::kStr];
        if (!isNull(rec[ArgoCols::kNum]))
            return rec[ArgoCols::kNum];
        return rec[ArgoCols::kBool];
    }

    /** Tables a predicate's scan must visit. */
    std::vector<const ArgoTable *>
    condTables(const engine::Condition &c)
    {
        if (argo1())
            return {&store.table(0)};
        // Argo3: route by the predicate value's type.  BETWEEN is
        // numeric; Eq/AnyEq follow the literal's type.
        bool str = c.op != CondOp::Between &&
                   storage::isStringSlot(c.lo);
        return {&store.table(str ? 0 : 1)};
    }

    /** All tables of the store. */
    std::vector<const ArgoTable *>
    allTables()
    {
        std::vector<const ArgoTable *> ts;
        for (size_t i = 0; i < store.tableCount(); ++i)
            ts.push_back(&store.table(i));
        return ts;
    }

    /**
     * Scan one object's records in @p t starting at @p start; stop as
     * soon as the predicate is decidable.  Returns {decided-true,
     * decision row}; the caller uses the primary-key index to jump
     * past the remainder of the object (the paper's index skip).
     */
    std::pair<bool, size_t>
    scanGroupForCond(const ArgoTable &t, size_t start, int64_t oid,
                     const engine::Condition &c,
                     const std::unordered_set<AttrId> &cond_keys)
    {
        size_t r = start;
        while (r < t.rows()) {
            auto [o, key] = readHead(t, r);
            if (o != oid)
                break;
            if (cond_keys.count(key)) {
                Slot v = readValue(t, r);
                if (c.matches(v))
                    return {true, r};
                // Eq/Between predicates are decided by their single
                // attribute; AnyEq keeps scanning other array slots.
                if (c.op != CondOp::AnyEq)
                    return {false, r};
            }
            ++r;
        }
        return {false, r};
    }

    /**
     * Reconstruct object @p oid from @p t given the row @p pos where
     * its condition was decided: per the paper, "it may be necessary
     * to scan backward all the way until the beginning of the current
     * object id" and then forward to its end.  The backward leg is
     * what breaks the page-stream prefetchability of Argo's otherwise
     * contiguous tables (paper VI-C2).
     */
    void
    retrieveBackwardForward(const ArgoTable &t, int64_t oid, size_t pos,
                            std::span<Slot> row, ResultSet &rs)
    {
        size_t start = pos;
        while (start > 0 && readHead(t, start - 1).first == oid)
            --start;
        for (size_t r = start; r < t.rows(); ++r) {
            auto [o, key] = readHead(t, r);
            if (o != oid)
                break;
            Slot v = readValue(t, r);
            if (isNull(v))
                continue;
            if (key < row.size())
                row[key] = v;
            rs.checksum ^= engine::resultCellDigest(key, v);
        }
    }

    /**
     * Read every record of object @p oid in table @p t into @p row
     * (indexed by AttrId; attributes past its end are not stored),
     * always folding values into the checksum.
     */
    void
    retrieveObject(const ArgoTable &t, int64_t oid, std::span<Slot> row,
                   ResultSet &rs)
    {
        size_t r = t.lowerBound(oid);
        for (; r < t.rows(); ++r) {
            auto [o, key] = readHead(t, r);
            if (o != oid)
                break;
            Slot v = readValue(t, r);
            if (isNull(v))
                continue;
            if (key < row.size())
                row[key] = v;
            rs.checksum ^= engine::resultCellDigest(key, v);
        }
    }

  public:
    ResultSet
    project(const Query &q)
    {
        const auto &catalog = store.data().catalog;
        std::vector<AttrId> attrs = q.selectionPart(catalog);
        std::unordered_map<AttrId, size_t> out_col;
        for (size_t i = 0; i < attrs.size(); ++i)
            out_col.emplace(attrs[i], i);

        // Argo has no per-attribute storage: scan every table's key
        // column end to end.
        std::map<int64_t, std::vector<Slot>> partial;
        for (const ArgoTable *t : allTables()) {
            for (size_t r = 0; r < t->rows(); ++r) {
                auto [oid, key] = readHead(*t, r);
                auto it = out_col.find(key);
                if (it == out_col.end())
                    continue;
                Slot v = readValue(*t, r);
                if (isNull(v))
                    continue;
                auto &row = partial[oid];
                if (row.empty())
                    row.assign(attrs.size(), kNullSlot);
                row[it->second] = v;
            }
        }

        ResultSet rs(attrs.size());
        rs.reserveRows(partial.size());
        for (auto &[oid, row] : partial) {
            for (size_t i = 0; i < row.size(); ++i)
                if (!isNull(row[i]))
                    rs.checksum ^=
                        engine::resultCellDigest(attrs[i], row[i]);
            rs.oids.push_back(oid);
            rs.addRow(row);
        }
        return rs;
    }

    /** One WHERE-clause match: the object and its decision site. */
    struct Match
    {
        int64_t oid;
        const ArgoTable *table; ///< table whose scan decided the match
        size_t pos;             ///< decision row within that table
    };

    /** Matches of the WHERE clause, in increasing oid order. */
    std::vector<Match>
    matches(const Query &q)
    {
        std::vector<Match> matches;
        const engine::Condition &c = q.cond;

        if (c.op == CondOp::None) {
            // Every stored object qualifies.
            std::unordered_set<int64_t> seen;
            for (const ArgoTable *t : allTables())
                for (size_t r = 0; r < t->rows(); ++r)
                    seen.insert(readHead(*t, r).first);
            std::vector<int64_t> oids(seen.begin(), seen.end());
            std::sort(oids.begin(), oids.end());
            matches.reserve(oids.size());
            for (int64_t oid : oids)
                matches.push_back({oid, nullptr, 0});
            return matches;
        }

        std::unordered_set<AttrId> cond_keys;
        if (c.op == CondOp::AnyEq)
            cond_keys.insert(c.anyAttrs.begin(), c.anyAttrs.end());
        else
            cond_keys.insert(c.attr);

        for (const ArgoTable *t : condTables(c)) {
            size_t r = 0;
            while (r < t->rows()) {
                int64_t oid = readHead(*t, r).first;
                auto [hit, pos] =
                    scanGroupForCond(*t, r, oid, c, cond_keys);
                if (hit)
                    matches.push_back({oid, t, pos});
                // Jump to the next object via the primary-key index
                // without touching the object's remaining records.
                r = t->lowerBound(oid + 1);
            }
        }
        if (store.variant() == Variant::Argo3) {
            std::sort(matches.begin(), matches.end(),
                      [](const Match &a, const Match &b) {
                          return a.oid < b.oid;
                      });
            matches.erase(
                std::unique(matches.begin(), matches.end(),
                            [](const Match &a, const Match &b) {
                                return a.oid == b.oid;
                            }),
                matches.end());
        }
        return matches;
    }

    /** Materialize the already-matched objects. */
    ResultSet
    retrieve(const Query &q, const std::vector<Match> &matches)
    {
        const auto &catalog = store.data().catalog;
        // An aggregate's SELECT * (groupBy set) keeps only the grouping
        // cell; every record is still read and checksummed.
        const bool group_only =
            q.selectAll && q.groupBy != storage::kNoAttr;
        ResultSet rs(group_only     ? 1
                     : q.selectAll ? catalog.attrCount()
                                   : q.projected.size());
        // Reserves cost no traced accesses, so the simulated counters
        // are unchanged.
        rs.oids.reserve(matches.size());
        rs.reserveRows(matches.size());

        if (q.selectAll) {
            std::vector<Slot> full(group_only ? catalog.attrCount() : 0);
            for (const Match &m : matches) {
                std::span<Slot> row(rs.addRows(1), rs.width());
                std::span<Slot> into = row;
                if (group_only) {
                    std::fill(full.begin(), full.end(), kNullSlot);
                    into = full;
                }
                for (const ArgoTable *t : allTables()) {
                    if (t == m.table) {
                        // Paper retrieval: backward to the object's
                        // first record, then forward through it.
                        retrieveBackwardForward(*t, m.oid, m.pos, into,
                                                rs);
                    } else {
                        retrieveObject(*t, m.oid, into, rs);
                    }
                }
                if (group_only && q.groupBy < full.size())
                    row[0] = full[q.groupBy];
                rs.oids.push_back(m.oid);
            }
            return rs;
        }

        // Explicit projection list: full-row retrieval is still how
        // Argo reads (it has no per-attribute storage), but only the
        // projected values are emitted.
        std::unordered_map<AttrId, size_t> out_col;
        for (size_t i = 0; i < q.projected.size(); ++i)
            out_col.emplace(q.projected[i], i);
        std::vector<Slot> full(catalog.attrCount(), kNullSlot);
        for (const Match &m : matches) {
            std::fill(full.begin(), full.end(), kNullSlot);
            ResultSet scratch; // checksum only over projected cells
            for (const ArgoTable *t : allTables()) {
                if (t == m.table)
                    retrieveBackwardForward(*t, m.oid, m.pos, full,
                                            scratch);
                else
                    retrieveObject(*t, m.oid, full, scratch);
            }
            Slot *row = rs.addRows(1);
            for (const auto &[attr, out] : out_col) {
                if (attr < full.size() && !isNull(full[attr])) {
                    row[out] = full[attr];
                    rs.checksum ^=
                        engine::resultCellDigest(attr, full[attr]);
                }
            }
            rs.oids.push_back(m.oid);
        }
        return rs;
    }

    ResultSet
    join(const Query &q)
    {
        std::vector<Match> left = matches(q);

        // Build: left oids keyed by the left join attribute's value.
        std::unordered_multimap<Slot, int64_t> build;
        for (const Match &m : left) {
            int64_t oid = m.oid;
            for (const ArgoTable *t : allTables()) {
                size_t r = t->lowerBound(oid);
                bool found = false;
                for (; r < t->rows(); ++r) {
                    auto [o, key] = readHead(*t, r);
                    if (o != oid)
                        break;
                    if (key == q.joinLeftAttr) {
                        Slot v = readValue(*t, r);
                        if (!isNull(v))
                            build.emplace(v, oid);
                        found = true;
                        break;
                    }
                }
                if (found)
                    break;
            }
        }

        ResultSet rs(2);
        if (build.empty())
            return rs;

        // Probe: scan for right join-attribute records.
        std::vector<std::pair<int64_t, int64_t>> pairs;
        std::vector<const ArgoTable *> probe_tables =
            argo1() ? allTables()
                    : std::vector<const ArgoTable *>{&store.table(0)};
        for (const ArgoTable *t : probe_tables) {
            for (size_t r = 0; r < t->rows(); ++r) {
                auto [roid, key] = readHead(*t, r);
                if (key != q.joinRightAttr)
                    continue;
                Slot v = readValue(*t, r);
                if (isNull(v))
                    continue;
                auto [lo, hi] = build.equal_range(v);
                for (auto it = lo; it != hi; ++it)
                    pairs.emplace_back(it->second, roid);
            }
        }

        // SELECT *: materialize both sides of every pair.
        for (auto [loid, roid] : pairs) {
            for (int64_t oid : {loid, roid})
                for (const ArgoTable *t : allTables())
                    retrieveObject(*t, oid, {}, rs);
            rs.addRow({loid, roid});
        }
        return rs;
    }

    void
    insertDoc(const storage::Document &doc)
    {
        store.insert(doc);
    }
};

} // namespace

ResultSet
ArgoExecutor::run(const Query &q)
{
    Exec<engine::NullTracer> exec(*store, engine::NullTracer{});
    return engine::ops::runQuery(exec, q);
}

ResultSet
ArgoExecutor::run(const Query &q, perf::MemoryHierarchy &mh)
{
    Exec<engine::SimTracer> exec(*store, engine::SimTracer{&mh, nullptr});
    return engine::ops::runQuery(exec, q);
}

} // namespace dvp::argo
