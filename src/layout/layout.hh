/**
 * @file
 * The layout model: a Layout is a partitioning of the attribute set into
 * ordered groups, each of which becomes one physical Table.  Row-based
 * and column-based layouts are the two degenerate cases (§II-C).
 */

#ifndef DVP_LAYOUT_LAYOUT_HH
#define DVP_LAYOUT_LAYOUT_HH

#include <string>
#include <vector>

#include "storage/catalog.hh"

namespace dvp::layout
{

using storage::AttrId;

/** Index of a partition within a Layout. */
using PartIdx = uint32_t;
constexpr PartIdx kNoPart = UINT32_MAX;

/** A vertical partitioning of a set of attributes. */
class Layout
{
  public:
    Layout() = default;

    /** Build from explicit partitions; validates coverage. */
    explicit Layout(std::vector<std::vector<AttrId>> partitions);

    /** All attributes in one partition (row-based layout). */
    static Layout rowBased(const std::vector<AttrId> &attrs);

    /** One partition per attribute (column-based layout). */
    static Layout columnBased(const std::vector<AttrId> &attrs);

    /**
     * Uniform hybrid layout: consecutive groups of @p group_size
     * attributes (last group may be smaller).  Used by the Figure 3
     * partition-size sweep.
     */
    static Layout fixedSize(const std::vector<AttrId> &attrs,
                            size_t group_size);

    size_t partitionCount() const { return parts.size(); }

    /** Total number of attributes across partitions. */
    size_t attrCount() const { return nattrs; }

    const std::vector<std::vector<AttrId>> &partitions() const
    {
        return parts;
    }

    const std::vector<AttrId> &partition(PartIdx p) const;

    /** Partition holding @p attr; kNoPart when the layout ignores it. */
    PartIdx partitionOf(AttrId attr) const;

    /** All attributes, in partition order. */
    std::vector<AttrId> allAttrs() const;

    /**
     * Move @p attr to partition @p target (which may equal
     * partitionCount() to open a fresh partition).  Empty source
     * partitions are erased, so partition indices may shift; returns
     * the index of the target partition after the move.
     */
    PartIdx moveAttr(AttrId attr, PartIdx target);

    /** Structural equality up to partition and attribute order. */
    bool equivalentTo(const Layout &other) const;

    /**
     * Order-insensitive 64-bit hash of the partition sets: equivalent
     * layouts (equivalentTo) hash identically, and non-equivalent ones
     * collide only with ordinary 64-bit-hash probability.  Bound
     * physical plans and EXPLAIN ANALYZE record it next to the
     * database epoch.
     */
    uint64_t fingerprint() const;

    /** Human-readable dump ("{a,b}{c}" with attribute ids). */
    std::string describe() const;

    /**
     * Check the core invariant: partitions are disjoint, non-empty, and
     * cover exactly the attributes they claim.  Panics on violation.
     */
    void validate() const;

  private:
    void rebuildIndex();

    std::vector<std::vector<AttrId>> parts;
    std::vector<PartIdx> attrToPart; ///< dense AttrId -> partition
    size_t nattrs = 0;
};

} // namespace dvp::layout

#endif // DVP_LAYOUT_LAYOUT_HH
