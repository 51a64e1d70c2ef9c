/**
 * @file
 * Query representation.
 *
 * The engine executes a small relational algebra sufficient for the
 * NoBench query set (Table III): projections, selections with equality /
 * range / array-membership predicates, COUNT-GROUP-BY aggregation, inner
 * self-joins, and bulk inserts.  A Query also carries the workload
 * statistics the DVP cost model consumes: frequency f(q) and estimated
 * selectivity sel(q), plus its selection-part and condition-part
 * attribute sets.
 */

#ifndef DVP_ENGINE_QUERY_HH
#define DVP_ENGINE_QUERY_HH

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "storage/catalog.hh"
#include "storage/encoder.hh"
#include "storage/value.hh"

namespace dvp::engine
{

using storage::AttrId;
using storage::Slot;

/** Query classes of the NoBench workload. */
enum class QueryKind
{
    Project,   ///< scan-all projection (Q1-Q4)
    Select,    ///< predicate selection (Q5-Q9)
    Aggregate, ///< COUNT(*) ... GROUP BY (Q10)
    Join,      ///< inner self-join (Q11)
    Insert     ///< bulk load (Q12)
};

/** Predicate operators. */
enum class CondOp
{
    None,    ///< no WHERE clause
    Eq,      ///< attr = value
    Between, ///< attr BETWEEN lo AND hi (numeric slots only)
    AnyEq,   ///< value = ANY array-attr (matches any of several columns)
    IsNull,  ///< attr IS NULL (missing or stored-NULL cell)
    NotNull  ///< attr IS NOT NULL
};

/** A WHERE clause over one attribute (or one flattened array). */
struct Condition
{
    CondOp op = CondOp::None;
    AttrId attr = storage::kNoAttr; ///< condition column (Eq/Between)
    std::vector<AttrId> anyAttrs;   ///< flattened array columns (AnyEq)
    Slot lo = 0;                    ///< Eq value, or Between lower bound
    Slot hi = 0;                    ///< Between upper bound (inclusive)

    /**
     * True when a slot satisfies the predicate.  For IsNull this is
     * the *slot* semantics (an object omitted from the attribute's
     * partition has a NULL slot logically — doc.slotOf returns the
     * sentinel — but no stored cell, which is why the planner answers
     * IsNull as presence-minus-NotNull rather than one column scan).
     */
    bool
    matches(Slot s) const
    {
        switch (op) {
          case CondOp::None:
            return true;
          case CondOp::Eq:
          case CondOp::AnyEq:
            return !storage::isNull(s) && s == lo;
          case CondOp::Between:
            return storage::isNumericSlot(s) && s >= lo && s <= hi;
          case CondOp::IsNull:
            return storage::isNull(s);
          case CondOp::NotNull:
            return !storage::isNull(s);
        }
        return false;
    }
};

/** One query instance/template. */
struct Query
{
    std::string name;     ///< "Q1" ... "Q12"
    QueryKind kind = QueryKind::Project;

    bool selectAll = false;          ///< SELECT *
    std::vector<AttrId> projected;   ///< explicit projection list

    Condition cond;

    AttrId groupBy = storage::kNoAttr; ///< Aggregate: GROUP BY column

    AttrId joinLeftAttr = storage::kNoAttr;  ///< Join: left ON column
    AttrId joinRightAttr = storage::kNoAttr; ///< Join: right ON column

    /** Insert payload (borrowed; alive for the query's execution). */
    const std::vector<storage::Document> *insertDocs = nullptr;

    /** Workload statistics consumed by the DVP cost model. */
    double frequency = 1.0;     ///< f(q)
    double selectivity = 1.0;   ///< sel(q): selected-record fraction

    /**
     * Attributes of the selection part (Equation 1's
     * selection_part(q)); expands SELECT * against @p catalog.
     */
    std::vector<AttrId> selectionPart(const storage::Catalog &catalog)
        const;

    /** Attributes of the condition part (condition + join columns). */
    std::vector<AttrId> conditionPart() const;

    /** Union of selection and condition parts (deduplicated). */
    std::vector<AttrId> accessedAttrs(const storage::Catalog &catalog)
        const;
};

/**
 * Result set of a query execution, independent of layout so results can
 * be compared across engines.
 *
 * Rows live in one flat, row-major slot buffer: row i is the width()
 * cells starting at slot i * width(), so a whole result is one
 * allocation however many rows it has.  For Project/Select: one row per
 * selected object, cells in the query's projection order (selectAll:
 * catalog AttrId order).  For Aggregate: one row per group [group key,
 * count].  For Join: rows of [left oid, right oid].  For Insert: empty.
 */
struct ResultSet
{
    /** Empty result whose rows will hold @p width cells each. */
    explicit ResultSet(size_t width = 0) : width_(width) {}

    std::vector<int64_t> oids;       ///< selected oid per row (scans)

    /**
     * Order-independent XOR/multiply digest of every non-null cell the
     * query physically retrieved (including cells not emitted into
     * rows, e.g. full-record retrievals of the join).  Used by tests to
     * assert that different layouts read the same logical data, and to
     * keep retrieval loops observable to the optimizer.
     */
    uint64_t checksum = 0;

    uint64_t rowCount() const { return rows_; }

    /** Cells per row. */
    size_t width() const { return width_; }

    /** Every cell, row-major (rowCount() * width() slots). */
    const std::vector<Slot> &cells() const { return slots_; }

    std::span<const Slot>
    row(size_t i) const
    {
        return {slots_.data() + i * width_, width_};
    }

    /** Append @p n all-NULL rows; returns their cells for filling in. */
    Slot *
    addRows(size_t n)
    {
        slots_.resize(slots_.size() + n * width_, storage::kNullSlot);
        rows_ += n;
        return slots_.data() + slots_.size() - n * width_;
    }

    /** Append a copy of @p cells. @pre cells.size() == width() */
    void addRow(std::span<const Slot> cells);

    void
    addRow(std::initializer_list<Slot> cells)
    {
        addRow(std::span<const Slot>(cells.begin(), cells.size()));
    }

    void reserveRows(size_t n) { slots_.reserve(n * width_); }

    /**
     * Append @p other's rows and oids and fold in its checksum: the
     * merge of ordered partial results.  @pre same width (or @p other
     * has no rows).
     */
    void append(const ResultSet &other);

    /** Canonical ordering + equality for cross-layout comparison. */
    bool equals(const ResultSet &other) const;

    /**
     * Order-independent multiset digest of the rows (oids excluded):
     * each row hashes its cells in order, the row hashes add mod 2^64
     * (so duplicate rows count), and the row count is mixed in.  One
     * pass, no copy and no sort: equal for the same logical result in
     * any row order.
     */
    uint64_t digest() const;

  private:
    size_t width_;
    size_t rows_ = 0;
    std::vector<Slot> slots_; ///< row-major, width_ cells per row
};

/**
 * Order-independent digest of one retrieved cell; every engine
 * (partitioned and Argo) XORs these into ResultSet::checksum so tests
 * can assert that different layouts physically read the same data.
 */
uint64_t resultCellDigest(AttrId attr, Slot s);

} // namespace dvp::engine

#endif // DVP_ENGINE_QUERY_HH
