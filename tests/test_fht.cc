/** @file Unit tests for the Footprint History Table. */

#include <gtest/gtest.h>

#include "dramcache/fht.hh"

namespace fpc {
namespace {

FootprintHistoryTable::Config
tinyConfig(PredictorIndex idx = PredictorIndex::PcOffset,
           FhtTrain train = FhtTrain::Replace)
{
    FootprintHistoryTable::Config cfg;
    cfg.entries = 64;
    cfg.assoc = 4;
    cfg.index = idx;
    cfg.train = train;
    return cfg;
}

TEST(Fht, MissAllocatesWithTriggerBlock)
{
    FootprintHistoryTable fht(tinyConfig());
    auto r = fht.lookupOrAllocate(0x400, 5);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.trained);
    EXPECT_EQ(r.footprint.count(), 1u);
    EXPECT_TRUE(r.footprint.test(5));
    EXPECT_TRUE(r.ref.valid);
}

TEST(Fht, HitAfterAllocation)
{
    FootprintHistoryTable fht(tinyConfig());
    fht.lookupOrAllocate(0x400, 5);
    auto r = fht.lookupOrAllocate(0x400, 5);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.trained); // no feedback yet
    EXPECT_EQ(fht.hits(), 1u);
    EXPECT_EQ(fht.misses(), 1u);
}

TEST(Fht, TrainingReplacesFootprint)
{
    FootprintHistoryTable fht(tinyConfig());
    auto r = fht.lookupOrAllocate(0x400, 5);
    BlockBitmap demanded = BlockBitmap::firstN(8);
    fht.update(r.ref, demanded);
    auto r2 = fht.lookupOrAllocate(0x400, 5);
    EXPECT_TRUE(r2.hit);
    EXPECT_TRUE(r2.trained);
    EXPECT_EQ(r2.footprint, demanded);
}

TEST(Fht, ReplacePolicyKeepsMostRecent)
{
    FootprintHistoryTable fht(tinyConfig());
    auto r = fht.lookupOrAllocate(0x400, 5);
    fht.update(r.ref, BlockBitmap::firstN(8));
    r = fht.lookupOrAllocate(0x400, 5);
    fht.update(r.ref, BlockBitmap::single(30));
    auto r2 = fht.lookupOrAllocate(0x400, 5);
    EXPECT_EQ(r2.footprint.count(), 1u);
    EXPECT_TRUE(r2.footprint.test(30));
}

TEST(Fht, UnionPolicyAccumulates)
{
    FootprintHistoryTable fht(
        tinyConfig(PredictorIndex::PcOffset, FhtTrain::Union));
    auto r = fht.lookupOrAllocate(0x400, 5);
    fht.update(r.ref, BlockBitmap::firstN(4));
    r = fht.lookupOrAllocate(0x400, 5);
    fht.update(r.ref, BlockBitmap::single(30));
    auto r2 = fht.lookupOrAllocate(0x400, 5);
    // {0,1,2,3} U {30} U the initial trigger {5} = 6 blocks.
    EXPECT_EQ(r2.footprint.count(), 6u);
}

TEST(Fht, PcOffsetDistinguishesOffsets)
{
    FootprintHistoryTable fht(tinyConfig());
    auto a = fht.lookupOrAllocate(0x400, 1);
    fht.update(a.ref, BlockBitmap::firstN(2));
    // Same PC, different offset: a distinct key (alignment case).
    auto b = fht.lookupOrAllocate(0x400, 9);
    EXPECT_FALSE(b.hit);
}

TEST(Fht, PcOnlyConflatesOffsets)
{
    FootprintHistoryTable fht(tinyConfig(PredictorIndex::PcOnly));
    fht.lookupOrAllocate(0x400, 1);
    auto b = fht.lookupOrAllocate(0x400, 9);
    EXPECT_TRUE(b.hit); // offset ignored
}

TEST(Fht, OffsetOnlyConflatesPcs)
{
    FootprintHistoryTable fht(
        tinyConfig(PredictorIndex::OffsetOnly));
    fht.lookupOrAllocate(0x400, 1);
    auto b = fht.lookupOrAllocate(0x999, 1);
    EXPECT_TRUE(b.hit); // PC ignored
}

TEST(Fht, StaleGenerationDropsFeedback)
{
    // Fill one set until the first entry is evicted, then deliver
    // feedback through the stale ref: it must be dropped (§4.2).
    FootprintHistoryTable::Config cfg = tinyConfig();
    FootprintHistoryTable fht(cfg);
    auto first = fht.lookupOrAllocate(0x1000, 0);
    // Thrash with many distinct keys to force eviction.
    for (unsigned i = 1; i < 2000; ++i)
        fht.lookupOrAllocate(0x1000 + i * 64, i % 32);
    ASSERT_GT(fht.evictions(), 0u);
    const std::uint64_t stale_before = fht.staleUpdates();
    fht.update(first.ref, BlockBitmap::firstN(32));
    // Either the entry survived (unlikely with 2000 keys over 64
    // entries) or the update was detected stale.
    auto again = fht.peek(0x1000, 0);
    if (!again.hit) {
        EXPECT_EQ(fht.staleUpdates(), stale_before + 1);
    }
}

TEST(Fht, InvalidRefIgnored)
{
    FootprintHistoryTable fht(tinyConfig());
    FhtRef invalid;
    fht.update(invalid, BlockBitmap::firstN(4)); // no crash
    EXPECT_EQ(fht.staleUpdates(), 0u);
}

TEST(Fht, EmptyFeedbackIgnored)
{
    FootprintHistoryTable fht(tinyConfig());
    auto r = fht.lookupOrAllocate(0x400, 5);
    fht.update(r.ref, BlockBitmap{});
    auto r2 = fht.peek(0x400, 5);
    EXPECT_TRUE(r2.hit);
    EXPECT_FALSE(r2.trained); // empty feedback does not train
    EXPECT_EQ(r2.footprint.count(), 1u);
}

TEST(Fht, PeekDoesNotAllocate)
{
    FootprintHistoryTable fht(tinyConfig());
    EXPECT_FALSE(fht.peek(0x1, 1).hit);
    EXPECT_EQ(fht.misses(), 0u);
    EXPECT_FALSE(fht.lookupOrAllocate(0x1, 1).hit);
    EXPECT_TRUE(fht.peek(0x1, 1).hit);
}

TEST(Fht, StorageMatchesPaper)
{
    // §6.4: 16K entries = 144KB. Allow modest modeling slack.
    FootprintHistoryTable::Config cfg;
    cfg.entries = 16 * 1024;
    cfg.assoc = 8;
    FootprintHistoryTable fht(cfg);
    const double kb =
        static_cast<double>(fht.storageBits(32)) / (8.0 * 1024);
    EXPECT_GT(kb, 100.0);
    EXPECT_LT(kb, 200.0);
}

/** LRU within a set: re-touched keys survive thrash. */
TEST(Fht, LruKeepsHotKeys)
{
    FootprintHistoryTable fht(tinyConfig());
    fht.lookupOrAllocate(0xAAAA0000, 0);
    for (unsigned i = 0; i < 500; ++i) {
        fht.lookupOrAllocate(0xAAAA0000, 0);     // keep hot
        fht.lookupOrAllocate(0x1000 + i * 64, 3); // churn
    }
    EXPECT_TRUE(fht.peek(0xAAAA0000, 0).hit);
}

} // namespace
} // namespace fpc
