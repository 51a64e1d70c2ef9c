/**
 * @file
 * Ground-truth tests: a deliberately naive reference executor computes
 * every NoBench query straight from the encoded documents (no tables,
 * no layouts, no cursors), and the real engine must match it.  This
 * breaks the symmetry of the cross-engine equality tests, which could
 * in principle all share one consistent bug.  A second suite runs the
 * record-retrieval cases (SELECT * aggregate, self-join materialize)
 * over a sealed base plus an INSERT delta on every layout, plain and
 * compressed, at every lane shape, against the same reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dvp/partitioner.hh"
#include "engine/database.hh"
#include "engine/executor.hh"
#include "hyrise/hyrise_layouter.hh"
#include "json/parser.hh"
#include "nobench/generator.hh"
#include "nobench/queries.hh"
#include "nobench/workload.hh"

namespace dvp::engine
{
namespace
{

using storage::AttrId;
using storage::Document;
using storage::isNull;
using storage::kNullSlot;
using storage::Slot;

/** Reference semantics computed directly over documents. */
class Reference
{
  public:
    explicit Reference(const DataSet &data) : data(&data) {}

    ResultSet
    run(const Query &q) const
    {
        switch (q.kind) {
          case QueryKind::Project:
            return project(q);
          case QueryKind::Select:
            return select(q);
          case QueryKind::Aggregate:
            return aggregate(q);
          case QueryKind::Join:
            return join(q);
          default:
            ADD_FAILURE() << "reference does not model inserts";
            return ResultSet();
        }
    }

  private:
    bool
    matches(const Document &doc, const Condition &c) const
    {
        switch (c.op) {
          case CondOp::None:
            return true;
          case CondOp::Eq:
          case CondOp::Between:
            return c.matches(doc.slotOf(c.attr));
          case CondOp::AnyEq:
            for (AttrId a : c.anyAttrs)
                if (c.matches(doc.slotOf(a)))
                    return true;
            return false;
          case CondOp::IsNull: {
            // The engine answers IS NULL as presence-minus-NotNull, so
            // only documents stored somewhere (>= 1 non-null cell) can
            // match; absent-from-storage objects never surface.
            bool present = false;
            for (const auto &[a, s] : doc.attrs)
                if (!isNull(s)) {
                    present = true;
                    break;
                }
            return present && isNull(doc.slotOf(c.attr));
          }
          case CondOp::NotNull:
            return !isNull(doc.slotOf(c.attr));
        }
        return false;
    }

    std::vector<Slot>
    materialize(const Document &doc, const Query &q) const
    {
        if (q.selectAll) {
            std::vector<Slot> row(data->catalog.attrCount(), kNullSlot);
            for (const auto &[attr, slot] : doc.attrs)
                if (attr < row.size())
                    row[attr] = slot;
            return row;
        }
        std::vector<Slot> row(q.projected.size(), kNullSlot);
        for (size_t i = 0; i < q.projected.size(); ++i)
            row[i] = doc.slotOf(q.projected[i]);
        return row;
    }

    /** Row width of materialize(). */
    size_t
    width(const Query &q) const
    {
        return q.selectAll ? data->catalog.attrCount() : q.projected.size();
    }

    ResultSet
    project(const Query &q) const
    {
        ResultSet rs(width(q));
        for (const auto &doc : data->docs) {
            std::vector<Slot> row = materialize(doc, q);
            bool any = std::any_of(row.begin(), row.end(),
                                   [](Slot s) { return !isNull(s); });
            if (any) {
                rs.oids.push_back(doc.oid);
                rs.addRow(row);
            }
        }
        return rs;
    }

    ResultSet
    select(const Query &q) const
    {
        ResultSet rs(width(q));
        for (const auto &doc : data->docs) {
            if (!matches(doc, q.cond))
                continue;
            rs.oids.push_back(doc.oid);
            rs.addRow(materialize(doc, q));
        }
        return rs;
    }

    ResultSet
    aggregate(const Query &q) const
    {
        std::map<Slot, int64_t> counts;
        for (const auto &doc : data->docs)
            if (matches(doc, q.cond))
                ++counts[doc.slotOf(q.groupBy)];
        ResultSet rs(2);
        for (const auto &[key, count] : counts)
            rs.addRow({key, count});
        return rs;
    }

    ResultSet
    join(const Query &q) const
    {
        ResultSet rs(2);
        for (const auto &left : data->docs) {
            if (!matches(left, q.cond))
                continue;
            Slot key = left.slotOf(q.joinLeftAttr);
            if (isNull(key))
                continue;
            for (const auto &right : data->docs)
                if (right.slotOf(q.joinRightAttr) == key)
                    rs.addRow({left.oid, right.oid});
        }
        return rs;
    }

    const DataSet *data;
};

struct GtWorld
{
    nobench::Config cfg;
    DataSet data;
    std::unique_ptr<nobench::QuerySet> qs;
    std::unique_ptr<Database> db;

    GtWorld()
    {
        cfg.numDocs = 700;
        cfg.seed = 90210;
        data = nobench::generateDataSet(cfg);
        qs = std::make_unique<nobench::QuerySet>(data, cfg);
        db = std::make_unique<Database>(
            data, layout::Layout::fixedSize(data.catalog.allAttrs(), 16),
            "gt");
    }
};

GtWorld &
world()
{
    static GtWorld w;
    return w;
}

class GroundTruth
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(GroundTruth, EngineMatchesNaiveSemantics)
{
    auto [tmpl, seed] = GetParam();
    GtWorld &w = world();
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
    Query q = w.qs->instantiate(tmpl, rng);

    Reference ref(w.data);
    ResultSet expected = ref.run(q);

    Executor exec(*w.db);
    ResultSet got = exec.run(q);

    EXPECT_EQ(got.rowCount(), expected.rowCount()) << q.name;
    EXPECT_TRUE(got.equals(expected)) << q.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplatesThreeSeeds, GroundTruth,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(nobench::kNumTemplates)),
        ::testing::Values(1, 2, 3)),
    [](const auto &info) {
        return "Q" + std::to_string(std::get<0>(info.param) + 1) +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(GroundTruthShifted, ShiftedTemplatesMatchToo)
{
    GtWorld &w = world();
    Reference ref(w.data);
    Executor exec(*w.db);
    Rng rng(31337);
    for (int t = 0; t < nobench::kNumTemplates; ++t) {
        Query q = w.qs->instantiateShifted(t, rng);
        EXPECT_TRUE(exec.run(q).equals(ref.run(q))) << q.name;
    }
}

// ---------------------------------------------------------------------
// Record retrieval over base + delta on every layout and lane shape.
// ---------------------------------------------------------------------

/** XOR of the cell digests of every non-null cell of @p doc. */
uint64_t
recordDigest(const Document &doc)
{
    uint64_t sum = 0;
    for (const auto &[a, s] : doc.attrs)
        if (!isNull(s))
            sum ^= resultCellDigest(a, s);
    return sum;
}

/**
 * Partitions of @p db that store @p oid; a delta oid (past the sealed
 * base) counts once, for its row-store document.
 */
uint64_t
holders(const Database &db, int64_t oid)
{
    if (oid >= static_cast<int64_t>(db.docCount()))
        return 1;
    uint64_t n = 0;
    for (size_t t = 0; t < db.tableCount(); ++t)
        n += db.table(t).rowOf(oid) != storage::kNoRow;
    return n;
}

const char *const kLayouts[] = {"row", "column", "hybrid16", "Hyrise",
                                "DVP"};

/**
 * NoBench documents sealed into every layout (plain and compressed)
 * plus a delta of crafted documents past them.  The delta gives the
 * self-join one base right oid paired with an odd number (>= 3) of
 * left oids and one with an even number (>= 2), each drawn from both
 * base and delta rows, plus delta right rows paired with base and
 * delta lefts; it also adds Q10 matches past the base.
 */
struct DeltaWorld
{
    /** Past one kZoneRows block, so the compressed twins seal data. */
    static constexpr size_t kBase = 2300;

    int64_t oddRight = -1;  ///< base right oid with odd multiplicity
    int64_t evenRight = -1; ///< base right oid with even multiplicity

    nobench::Config cfg;
    DataSet data;
    Query q10; ///< COUNT(*) ... GROUP BY over a 5 % num range
    Query q11; ///< self-join over a 25 % num range
    /** Per kLayouts entry: the plain database, then the compressed. */
    std::vector<std::unique_ptr<Database>> dbs;

    DeltaWorld()
    {
        cfg.numDocs = kBase;
        cfg.seed = 5150;
        data = nobench::generateDataSet(cfg);
        nobench::QuerySet qs(data, cfg);
        Rng rng(8);
        q10 = qs.instantiate(nobench::kQ10, rng);
        q10.cond.lo = cfg.numRange / 10;
        q10.cond.hi = q10.cond.lo + cfg.numRange / 20 - 1;
        q11 = qs.instantiate(nobench::kQ11, rng);
        q11.cond.lo = 0;
        q11.cond.hi = cfg.numRange / 4 - 1;

        // Delta lefts sit inside both ranges, so Q10 sees them too.
        auto addLeft = [&](const std::string &key) {
            int64_t num = q10.cond.lo + static_cast<int64_t>(
                                            data.docs.size() % 97);
            add("{\"num\": " + std::to_string(num) +
                ", \"thousandth\": " + std::to_string(num % 1000) +
                ", \"nested_obj\": {\"str\": \"" + key + "\"}}");
        };
        auto addRight = [&](const std::string &key) {
            add("{\"str1\": \"" + key + "\", \"num\": " +
                std::to_string(cfg.numRange - 1) + "}");
        };
        // The first two base rights that base lefts already pair with.
        std::map<Slot, size_t> base_lefts;
        for (size_t i = 0; i < kBase; ++i) {
            const Document &d = data.docs[i];
            if (q11.cond.matches(d.slotOf(q11.cond.attr)))
                ++base_lefts[d.slotOf(q11.joinLeftAttr)];
        }
        for (size_t i = 0; i < kBase && evenRight < 0; ++i) {
            if (base_lefts.count(data.docs[i].slotOf(q11.joinRightAttr)))
                (oddRight < 0 ? oddRight : evenRight) =
                    static_cast<int64_t>(i);
        }
        invariant(evenRight >= 0, "no base join pairs to extend");
        for (int64_t right : {oddRight, evenRight}) {
            const std::string key = "str1_" + std::to_string(right);
            size_t base = base_lefts[data.docs[static_cast<size_t>(right)]
                                         .slotOf(q11.joinRightAttr)];
            bool odd = right == oddRight;
            size_t extra = (base % 2 == 0) == odd ? 1 : 2;
            if (base + extra < (odd ? 3u : 2u))
                extra += 2;
            for (size_t i = 0; i < extra; ++i)
                addLeft(key);
        }
        // A delta right sharing the odd right's key: base and delta
        // lefts pair with it.  And a delta-only key: three delta lefts
        // pair with one delta right.
        addRight("str1_" + std::to_string(oddRight));
        for (int i = 0; i < 3; ++i)
            addLeft("gt_delta_key");
        addRight("gt_delta_key");

        Rng lrng(9);
        std::vector<Query> reps = nobench::representatives(
            qs, nobench::Mix::uniform(), lrng);
        auto attrs = data.catalog.allAttrs();
        core::Partitioner partitioner(data, reps);
        layout::Layout dvp = partitioner.run().layout;
        hyrise::HyriseLayouter hl(data.catalog, reps, kBase);
        layout::Layout hy = *hl.run().layout;
        for (const char *name : kLayouts) {
            for (bool compress : {false, true}) {
                std::string n = name;
                layout::Layout l =
                    n == "row"      ? layout::Layout::rowBased(attrs)
                    : n == "column" ? layout::Layout::columnBased(attrs)
                    : n == "hybrid16"
                        ? layout::Layout::fixedSize(attrs, 16)
                    : n == "Hyrise" ? hy
                                    : dvp;
                dbs.push_back(std::make_unique<Database>(
                    data, std::move(l), n, /*allow_pad=*/true, kBase,
                    compress));
            }
        }
    }

    Database &
    db(int layout, bool compressed)
    {
        return *dbs[static_cast<size_t>(layout) * 2 + (compressed ? 1 : 0)];
    }

    /** The checksum a correct engine must report for @p q. */
    uint64_t
    checksum(const Query &q, const ResultSet &ref) const
    {
        uint64_t sum = 0;
        if (q.kind == QueryKind::Join) {
            for (size_t r = 0; r < ref.rowCount(); ++r)
                sum ^= recordDigest(data.docs[ref.row(r)[0]]) ^
                       recordDigest(data.docs[ref.row(r)[1]]);
            return sum;
        }
        for (const auto &doc : data.docs)
            if (q.cond.matches(doc.slotOf(q.cond.attr)))
                sum ^= recordDigest(doc);
        return sum;
    }

    /**
     * The partition_touches a correct engine reports for @p q on
     * @p db: every record read, counted per partition holding it —
     * for the join, each base left match found in the build column's
     * partition plus both records of every pair.
     */
    uint64_t
    touches(const Query &q, const ResultSet &ref, const Database &db) const
    {
        uint64_t n = 0;
        if (q.kind == QueryKind::Join) {
            const storage::Table &build = db.table(
                static_cast<size_t>(db.locate(q.joinLeftAttr).table));
            for (size_t i = 0; i < kBase; ++i)
                if (q.cond.matches(data.docs[i].slotOf(q.cond.attr)) &&
                    build.rowOf(static_cast<int64_t>(i)) !=
                        storage::kNoRow)
                    ++n;
            for (size_t r = 0; r < ref.rowCount(); ++r)
                n += holders(db, ref.row(r)[0]) +
                     holders(db, ref.row(r)[1]);
            return n;
        }
        for (const auto &doc : data.docs)
            if (q.cond.matches(doc.slotOf(q.cond.attr)))
                n += holders(db, doc.oid);
        return n;
    }

  private:
    void
    add(const std::string &text)
    {
        json::ParseResult r = json::parse(text);
        invariant(r.ok, "bad delta document");
        data.addObject(r.value);
    }
};

DeltaWorld &
deltaWorld()
{
    static DeltaWorld w;
    return w;
}

/** The reference's join pairs in (right oid, left oid) order. */
std::vector<Slot>
pairsByRight(const ResultSet &ref)
{
    std::vector<std::pair<Slot, Slot>> p;
    for (size_t r = 0; r < ref.rowCount(); ++r)
        p.emplace_back(ref.row(r)[1], ref.row(r)[0]);
    std::sort(p.begin(), p.end());
    std::vector<Slot> cells;
    for (auto [roid, loid] : p) {
        cells.push_back(loid);
        cells.push_back(roid);
    }
    return cells;
}

TEST(GroundTruthRetrievalData, DeltaShapesTheCases)
{
    // The crafted data must exercise what the suite below claims to.
    DeltaWorld &w = deltaWorld();
    const auto base = static_cast<Slot>(DeltaWorld::kBase);
    Reference ref(w.data);
    ResultSet join = ref.run(w.q11);
    auto lefts = [&](Slot right, bool delta) {
        size_t n = 0;
        for (size_t r = 0; r < join.rowCount(); ++r)
            if (join.row(r)[1] == right && (join.row(r)[0] >= base) == delta)
                ++n;
        return n;
    };
    for (Slot right : {w.oddRight, w.evenRight}) {
        EXPECT_GT(lefts(right, false), 0u) << right;
        EXPECT_GT(lefts(right, true), 0u) << right;
    }
    size_t odd = lefts(w.oddRight, false) + lefts(w.oddRight, true);
    size_t even = lefts(w.evenRight, false) + lefts(w.evenRight, true);
    EXPECT_EQ(odd % 2, 1u);
    EXPECT_GE(odd, 3u);
    EXPECT_EQ(even % 2, 0u);
    EXPECT_GE(even, 2u);
    size_t delta_right_base_left = 0, delta_both = 0;
    for (size_t r = 0; r < join.rowCount(); ++r) {
        if (join.row(r)[1] < base)
            continue;
        (join.row(r)[0] < base ? delta_right_base_left : delta_both)++;
    }
    EXPECT_GT(delta_right_base_left, 0u);
    EXPECT_GT(delta_both, 0u);

    // Q10 retrieves from base and delta rows alike.
    size_t q10_base = 0, q10_delta = 0;
    for (const auto &doc : w.data.docs)
        if (w.q10.cond.matches(doc.slotOf(w.q10.cond.attr)))
            (doc.oid < base ? q10_base : q10_delta)++;
    EXPECT_GT(q10_base, 50u);
    EXPECT_GT(q10_delta, 0u);
    for (const auto &db : w.dbs)
        EXPECT_EQ(db->docCount(), DeltaWorld::kBase);
}

class GroundTruthRetrieval
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{
};

TEST_P(GroundTruthRetrieval, EveryLaneShapeMatchesReference)
{
    auto [which, layout, compressed] = GetParam();
    DeltaWorld &w = deltaWorld();
    const Query &q = which == 0 ? w.q10 : w.q11;
    Reference ref(w.data);
    ResultSet expected = ref.run(q);
    const uint64_t checksum = w.checksum(q, expected);
    Database &db = w.db(layout, compressed);
    const uint64_t touches = w.touches(q, expected, db);

    for (size_t threads : {1u, 2u, 4u, 8u}) {
        for (size_t morsel : {size_t{0}, size_t{16}}) {
            SCOPED_TRACE("threads " + std::to_string(threads) +
                         ", morsel rows " + std::to_string(morsel));
            Executor exec(db, threads);
            exec.setMorselRows(morsel); // 0 = the default
            exec.setVisibleDocs(w.data.docs.size());
            QueryStats s;
            ResultSet got = exec.run(q, &s);
            EXPECT_TRUE(got.equals(expected));
            EXPECT_EQ(got.checksum, checksum);
            if (q.kind == QueryKind::Join) { // (probe row, build oid)
                EXPECT_EQ(got.cells(), pairsByRight(expected));
            }
            EXPECT_EQ(s.partitionTouches, touches);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    CasesLayoutsCompression, GroundTruthRetrieval,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Range(0, 5),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == 0 ? "Q10_5pct"
                                                        : "SelfJoin") +
               "_" + kLayouts[std::get<1>(info.param)] +
               (std::get<2>(info.param) ? "_compressed" : "_plain");
    });

} // namespace
} // namespace dvp::engine
