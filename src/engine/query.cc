#include "engine/query.hh"

#include <algorithm>
#include <ranges>

#include "util/logging.hh"

namespace dvp::engine
{

std::vector<AttrId>
Query::selectionPart(const storage::Catalog &catalog) const
{
    if (selectAll)
        return catalog.allAttrs();
    return projected;
}

std::vector<AttrId>
Query::conditionPart() const
{
    std::vector<AttrId> out;
    if (cond.op == CondOp::Eq || cond.op == CondOp::Between ||
        cond.op == CondOp::IsNull || cond.op == CondOp::NotNull)
        out.push_back(cond.attr);
    for (AttrId a : cond.anyAttrs)
        out.push_back(a);
    if (joinLeftAttr != storage::kNoAttr)
        out.push_back(joinLeftAttr);
    if (joinRightAttr != storage::kNoAttr)
        out.push_back(joinRightAttr);
    if (groupBy != storage::kNoAttr)
        out.push_back(groupBy);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<AttrId>
Query::accessedAttrs(const storage::Catalog &catalog) const
{
    std::vector<AttrId> out = selectionPart(catalog);
    std::vector<AttrId> cp = conditionPart();
    out.insert(out.end(), cp.begin(), cp.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

uint64_t
resultCellDigest(AttrId attr, Slot s)
{
    uint64_t v = static_cast<uint64_t>(s) ^
                 (static_cast<uint64_t>(attr) * 0x9e3779b97f4a7c15ULL);
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    return v;
}

namespace
{

/** murmur3's 64-bit finalizer: a strong bijective mix. */
uint64_t
mix64(uint64_t v)
{
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    v *= 0xc4ceb9fe1a85ec53ULL;
    v ^= v >> 33;
    return v;
}

/** Rows sorted lexicographically (views into @p rs). */
std::vector<std::span<const Slot>>
canonical(const ResultSet &rs)
{
    std::vector<std::span<const Slot>> rows;
    rows.reserve(rs.rowCount());
    for (size_t i = 0; i < rs.rowCount(); ++i)
        rows.push_back(rs.row(i));
    std::sort(rows.begin(), rows.end(), [](auto a, auto b) {
        return std::lexicographical_compare(a.begin(), a.end(),
                                            b.begin(), b.end());
    });
    return rows;
}

} // namespace

void
ResultSet::addRow(std::span<const Slot> cells)
{
    invariant(cells.size() == width_, "row width mismatch");
    slots_.insert(slots_.end(), cells.begin(), cells.end());
    ++rows_;
}

void
ResultSet::append(const ResultSet &other)
{
    invariant(other.rows_ == 0 || other.width_ == width_,
              "appending rows of a different width");
    checksum ^= other.checksum;
    oids.insert(oids.end(), other.oids.begin(), other.oids.end());
    slots_.insert(slots_.end(), other.slots_.begin(), other.slots_.end());
    rows_ += other.rows_;
}

bool
ResultSet::equals(const ResultSet &other) const
{
    if (rows_ != other.rows_)
        return false;
    if (rows_ == 0)
        return true;
    if (width_ != other.width_)
        return false;
    return std::ranges::equal(canonical(*this), canonical(other),
                              [](auto a, auto b) {
                                  return std::ranges::equal(a, b);
                              });
}

uint64_t
ResultSet::digest() const
{
    uint64_t sum = 0;
    const Slot *cell = slots_.data();
    for (size_t r = 0; r < rows_; ++r) {
        // Chained, so the hash depends on cell order within the row.
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (size_t c = 0; c < width_; ++c, ++cell)
            h = mix64(h ^ static_cast<uint64_t>(*cell)) +
                0x2545f4914f6cdd1dULL;
        sum += mix64(h);
    }
    return mix64(sum ^ mix64(rows_ + 0x632be59bd9b4e019ULL));
}

} // namespace dvp::engine
