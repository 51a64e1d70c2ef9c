/**
 * @file
 * Unit tests for src/layout: constructors, migration, invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "layout/layout.hh"
#include "util/random.hh"

namespace dvp::layout
{
namespace
{

std::vector<AttrId>
attrs(size_t n)
{
    std::vector<AttrId> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<AttrId>(i);
    return v;
}

TEST(Layout, RowBased)
{
    Layout l = Layout::rowBased(attrs(5));
    EXPECT_EQ(l.partitionCount(), 1u);
    EXPECT_EQ(l.attrCount(), 5u);
    for (AttrId a = 0; a < 5; ++a)
        EXPECT_EQ(l.partitionOf(a), 0u);
}

TEST(Layout, ColumnBased)
{
    Layout l = Layout::columnBased(attrs(5));
    EXPECT_EQ(l.partitionCount(), 5u);
    for (AttrId a = 0; a < 5; ++a)
        EXPECT_EQ(l.partition(l.partitionOf(a)).size(), 1u);
}

TEST(Layout, FixedSizeGroups)
{
    Layout l = Layout::fixedSize(attrs(10), 4);
    ASSERT_EQ(l.partitionCount(), 3u);
    EXPECT_EQ(l.partition(0).size(), 4u);
    EXPECT_EQ(l.partition(1).size(), 4u);
    EXPECT_EQ(l.partition(2).size(), 2u);
    EXPECT_EQ(l.attrCount(), 10u);
}

TEST(Layout, PartitionOfUnknownAttr)
{
    Layout l = Layout::rowBased(attrs(3));
    EXPECT_EQ(l.partitionOf(99), kNoPart);
}

TEST(Layout, MoveAttrBetweenPartitions)
{
    Layout l({{0, 1}, {2, 3}});
    l.moveAttr(1, 1);
    EXPECT_EQ(l.partitionOf(1), l.partitionOf(2));
    EXPECT_EQ(l.partitionCount(), 2u);
    EXPECT_EQ(l.attrCount(), 4u);
    l.validate();
}

TEST(Layout, MoveAttrToFreshPartition)
{
    Layout l({{0, 1, 2}});
    PartIdx p = l.moveAttr(2, 1); // index 1 == partitionCount() here
    EXPECT_EQ(l.partitionCount(), 2u);
    EXPECT_EQ(l.partitionOf(2), p);
    EXPECT_NE(l.partitionOf(2), l.partitionOf(0));
    l.validate();
}

TEST(Layout, MoveLastAttrErasesSourcePartition)
{
    Layout l({{0}, {1, 2}});
    l.moveAttr(0, 1);
    EXPECT_EQ(l.partitionCount(), 1u);
    EXPECT_EQ(l.attrCount(), 3u);
    l.validate();
}

TEST(Layout, MoveAttrNoOp)
{
    Layout l({{0, 1}, {2}});
    PartIdx before = l.partitionOf(0);
    EXPECT_EQ(l.moveAttr(0, before), before);
    EXPECT_EQ(l.partitionCount(), 2u);
}

TEST(Layout, EquivalenceIgnoresOrder)
{
    Layout a({{0, 1}, {2}});
    Layout b({{2}, {1, 0}});
    Layout c({{0}, {1, 2}});
    EXPECT_TRUE(a.equivalentTo(b));
    EXPECT_FALSE(a.equivalentTo(c));
}

TEST(Layout, AllAttrsCoversEverything)
{
    Layout l({{3, 1}, {0}, {2}});
    auto all = l.allAttrs();
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, (std::vector<AttrId>{0, 1, 2, 3}));
}

TEST(Layout, DescribeIsStable)
{
    Layout l({{0, 1}, {2}});
    EXPECT_EQ(l.describe(), "{0,1}{2}");
}

TEST(LayoutDeath, DuplicateAttributeRejected)
{
    EXPECT_DEATH(Layout({{0, 1}, {1}}), "two partitions");
}

TEST(LayoutDeath, EmptyPartitionRejected)
{
    EXPECT_DEATH(Layout({{0}, {}}), "empty partition");
}

// ---------------------------------------------------------------------
// fingerprint(): the order-insensitive layout hash a plan records.
// ---------------------------------------------------------------------

/** Random partitioning of n attributes into at most k parts. */
Layout
randomLayout(Rng &rng, size_t n, size_t k)
{
    std::vector<std::vector<AttrId>> parts(1 + rng.below(k));
    for (size_t a = 0; a < n; ++a)
        parts[rng.below(parts.size())].push_back(
            static_cast<AttrId>(a));
    parts.erase(std::remove_if(parts.begin(), parts.end(),
                               [](const auto &p) { return p.empty(); }),
                parts.end());
    return Layout(std::move(parts));
}

/** The same partition sets, in scrambled partition and attr order. */
Layout
scrambled(const Layout &l, Rng &rng)
{
    std::vector<std::vector<AttrId>> parts = l.partitions();
    for (auto &p : parts)
        rng.shuffle(p);
    rng.shuffle(parts);
    return Layout(std::move(parts));
}

TEST(LayoutFingerprint, OrderInsensitive)
{
    Layout l({{0, 1, 2}, {3}, {4, 5}});
    Layout reordered({{5, 4}, {2, 0, 1}, {3}});
    ASSERT_TRUE(l.equivalentTo(reordered));
    EXPECT_EQ(l.fingerprint(), reordered.fingerprint());
}

TEST(LayoutFingerprint, DistinguishesGrouping)
{
    // Same attributes, different grouping: sum-based hashes are an
    // easy way to get this wrong ({0,1}{2} vs {0}{1,2}).
    Layout a({{0, 1}, {2}});
    Layout b({{0}, {1, 2}});
    ASSERT_FALSE(a.equivalentTo(b));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_NE(Layout::rowBased(attrs(6)).fingerprint(),
              Layout::columnBased(attrs(6)).fingerprint());
}

TEST(LayoutFingerprint, RandomizedEquivalenceIff)
{
    // Property: equivalentTo(a, b) <=> fingerprint(a) == fingerprint(b)
    // over random layouts, their scrambled copies, and random
    // single-move mutations.
    Rng rng(20260805);
    for (int round = 0; round < 200; ++round) {
        size_t n = 2 + rng.below(40);
        Layout l = randomLayout(rng, n, 8);

        // Scrambling partition/attr order never changes the print.
        Layout same = scrambled(l, rng);
        ASSERT_TRUE(l.equivalentTo(same));
        EXPECT_EQ(l.fingerprint(), same.fingerprint());

        // Moving one attribute somewhere else always changes it.
        Layout moved = l;
        auto a = static_cast<AttrId>(rng.below(n));
        auto target = static_cast<PartIdx>(
            rng.below(moved.partitionCount() + 1));
        if (target == moved.partitionOf(a))
            continue;
        if (target == moved.partitionCount() &&
            moved.partition(moved.partitionOf(a)).size() == 1)
            continue; // singleton to fresh partition: no-op
        moved.moveAttr(a, target);
        ASSERT_FALSE(l.equivalentTo(moved));
        EXPECT_NE(l.fingerprint(), moved.fingerprint());
        EXPECT_EQ(moved.fingerprint(), scrambled(moved, rng)
                                           .fingerprint());
    }
}

TEST(Layout, RandomMoveSequenceKeepsInvariant)
{
    // Property: any sequence of moveAttr calls preserves the exact-
    // coverage invariant (each attribute in exactly one partition).
    Rng rng(77);
    Layout l = Layout::fixedSize(attrs(20), 5);
    for (int step = 0; step < 300; ++step) {
        auto a = static_cast<AttrId>(rng.below(20));
        auto target = static_cast<PartIdx>(
            rng.below(l.partitionCount() + 1));
        if (target == l.partitionCount() &&
            l.partition(l.partitionOf(a)).size() == 1)
            continue; // singleton to fresh partition is a no-op move
        l.moveAttr(a, target);
        l.validate();
        EXPECT_EQ(l.attrCount(), 20u);
    }
}

} // namespace
} // namespace dvp::layout
