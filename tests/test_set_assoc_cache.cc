/** @file Unit tests for the generic set-associative SRAM cache. */

#include <gtest/gtest.h>

#include "cache/set_assoc_cache.hh"

namespace fpc {
namespace {

SetAssocCache::Config
smallConfig(unsigned assoc = 2, unsigned size = 1024)
{
    SetAssocCache::Config cfg;
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    cfg.blockBytes = 64;
    return cfg;
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(smallConfig(), "t");
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, SubBlockOffsetsShareLine)
{
    SetAssocCache c(smallConfig(), "t");
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x1038, false).hit);
}

TEST(SetAssocCache, LruEviction)
{
    // 1KB, 2-way, 64B: 8 sets. Same set: addresses 0x0, 0x200...
    SetAssocCache c(smallConfig(2), "t");
    c.access(0x0000, false);
    c.access(0x0200, false);
    c.access(0x0000, false); // refresh LRU of first line
    CacheAccessResult r = c.access(0x0400, false);
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.victimValid);
    EXPECT_EQ(r.victimAddr, 0x0200u); // least recently used
    EXPECT_TRUE(c.access(0x0000, false).hit);
}

TEST(SetAssocCache, DirtyVictimFlagged)
{
    // 1KB direct-mapped, 64B blocks: 16 sets, stride 0x400.
    SetAssocCache c(smallConfig(1), "t");
    c.access(0x0000, true); // write -> dirty
    CacheAccessResult r = c.access(0x0400, false);
    ASSERT_TRUE(r.victimValid);
    EXPECT_TRUE(r.victimDirty);
    EXPECT_EQ(r.victimAddr, 0x0000u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssocCache, CleanVictimNotFlagged)
{
    SetAssocCache c(smallConfig(1), "t");
    c.access(0x0000, false);
    CacheAccessResult r = c.access(0x0400, false);
    ASSERT_TRUE(r.victimValid);
    EXPECT_FALSE(r.victimDirty);
}

TEST(SetAssocCache, WriteHitDirtiesLine)
{
    SetAssocCache c(smallConfig(1), "t");
    c.access(0x0000, false);
    c.access(0x0000, true);
    CacheAccessResult r = c.access(0x0400, false);
    ASSERT_TRUE(r.victimValid);
    EXPECT_TRUE(r.victimDirty);
}

TEST(SetAssocCache, ProbeDoesNotAllocateOrTouch)
{
    SetAssocCache c(smallConfig(2), "t");
    EXPECT_FALSE(c.probe(0x1000));
    c.access(0x0000, false); // LRU order: 0x0000
    c.access(0x0200, false);
    EXPECT_TRUE(c.probe(0x0000));
    // Probe must not refresh recency: 0x0000 is still the victim.
    CacheAccessResult r = c.access(0x0400, false);
    ASSERT_TRUE(r.victimValid);
    EXPECT_EQ(r.victimAddr, 0x0000u);
}

TEST(SetAssocCache, Invalidate)
{
    SetAssocCache c(smallConfig(), "t");
    c.access(0x1000, true);
    bool dirty = false;
    EXPECT_TRUE(c.invalidate(0x1000, dirty));
    EXPECT_TRUE(dirty);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000, dirty));
}

TEST(SetAssocCache, RejectsBadGeometry)
{
    SetAssocCache::Config cfg;
    cfg.sizeBytes = 1000; // not a power of two
    EXPECT_DEATH(
        { SetAssocCache c(cfg, "t"); }, "power");
}

TEST(SetAssocCache, MissRatio)
{
    SetAssocCache c(smallConfig(), "t");
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x0, false);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.25);
}

/** Capacity sweep: a working set within capacity never misses
 *  after the first pass (LRU with power-of-two sets). */
class CacheCapacity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheCapacity, ResidentWorkingSetHasNoSteadyMisses)
{
    const unsigned assoc = GetParam();
    SetAssocCache::Config cfg = smallConfig(assoc, 4096);
    SetAssocCache c(cfg, "t");
    const unsigned lines = 4096 / 64;
    for (unsigned pass = 0; pass < 3; ++pass) {
        for (unsigned i = 0; i < lines; ++i)
            c.access(static_cast<Addr>(i) * 64, false);
    }
    EXPECT_EQ(c.misses(), lines);
    EXPECT_EQ(c.hits(), 2u * lines);
}

INSTANTIATE_TEST_SUITE_P(Assocs, CacheCapacity,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(SetAssocCache, RandomReplacementStaysInSet)
{
    SetAssocCache::Config cfg = smallConfig(2);
    cfg.repl = ReplPolicy::Random;
    SetAssocCache c(cfg, "t");
    // Thrash one set; victims must always come from that set.
    for (unsigned i = 0; i < 100; ++i) {
        CacheAccessResult r =
            c.access(static_cast<Addr>(i) * 0x200, false);
        if (r.victimValid) {
            EXPECT_EQ(r.victimAddr % 0x200, 0u);
        }
    }
}

} // namespace
} // namespace fpc
