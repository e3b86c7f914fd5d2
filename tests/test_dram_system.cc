/** @file Unit tests for the multi-channel DRAM system. */

#include <gtest/gtest.h>

#include <set>

#include "dram/system.hh"

namespace fpc {
namespace {

TEST(DramSystem, PodFactories)
{
    DramSystem off(DramSystem::Config::offchipPod());
    EXPECT_EQ(off.numChannels(), 1u);
    EXPECT_DOUBLE_EQ(off.peakBandwidthGBps(), 12.8);

    DramSystem stk(DramSystem::Config::stackedPod());
    EXPECT_EQ(stk.numChannels(), 4u);
    EXPECT_DOUBLE_EQ(stk.peakBandwidthGBps(), 4 * 51.2);
}

TEST(DramSystem, InterleaveSpreadsChannels)
{
    DramSystem stk(DramSystem::Config::stackedPod()); // 2KB ilv
    // Four consecutive 2KB chunks land on four channels.
    for (unsigned i = 0; i < 4; ++i)
        stk.access(0, static_cast<Addr>(i) * 2048, false, 1);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(stk.channel(c).blocksRead(), 1u);
}

TEST(DramSystem, PageBurstStaysOnOneChannel)
{
    DramSystem stk(DramSystem::Config::stackedPod());
    // A 2KB-aligned 32-block burst is one channel's row.
    stk.access(0, 4096, false, 32);
    unsigned channels_used = 0;
    for (unsigned c = 0; c < 4; ++c)
        channels_used += stk.channel(c).blocksRead() > 0 ? 1 : 0;
    EXPECT_EQ(channels_used, 1u);
    EXPECT_EQ(stk.totalBlocksRead(), 32u);
    // Within one row: exactly one activation.
    EXPECT_EQ(stk.totalActivates(), 1u);
}

TEST(DramSystem, BlockInterleaveSplitsBurst)
{
    DramSystem::Config cfg = DramSystem::Config::stackedPod();
    cfg.interleaveBytes = kBlockBytes;
    DramSystem stk(cfg);
    stk.access(0, 0, false, 8);
    // 8 consecutive blocks round-robin over 4 channels: 2 each.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(stk.channel(c).blocksRead(), 2u);
}

TEST(DramSystem, AggregatesSumChannels)
{
    DramSystem stk(DramSystem::Config::stackedPod());
    stk.access(0, 0, false, 1);
    stk.access(0, 2048, true, 2);
    EXPECT_EQ(stk.totalBlocksRead(), 1u);
    EXPECT_EQ(stk.totalBlocksWritten(), 2u);
    EXPECT_EQ(stk.totalBytes(), 3u * kBlockBytes);
    EXPECT_EQ(stk.totalActivates(), 2u);
}

TEST(DramSystem, ChannelLocalAddressPreservesRowLocality)
{
    // Two 2KB pages that are `numChannels` apart map to the same
    // channel and to adjacent channel-local rows.
    DramSystem stk(DramSystem::Config::stackedPod());
    stk.access(0, 0, false, 1);
    stk.access(1000, 4ULL * 2048, false, 1);
    EXPECT_EQ(stk.channel(0).blocksRead(), 2u);
    // Different rows on the same channel: two activations.
    EXPECT_EQ(stk.channel(0).activates(), 2u);
}

TEST(DramSystem, ParallelChannelsOverlap)
{
    DramSystem stk(DramSystem::Config::stackedPod());
    // Two page reads on different channels at the same time should
    // finish at (nearly) the same cycle: real parallelism.
    DramAccessResult a = stk.access(0, 0, false, 32);
    DramAccessResult b = stk.access(0, 2048, false, 32);
    EXPECT_LT(b.done, a.done + a.done / 4);
}

TEST(DramSystem, SameChannelSerializesOnBus)
{
    DramSystem stk(DramSystem::Config::stackedPod());
    DramAccessResult a = stk.access(0, 0, false, 32);
    DramAccessResult b = stk.access(0, 8192, false, 32);
    // Same channel (8192 = 4 * 2048): the second waits for bus.
    EXPECT_GE(b.done, a.done);
}

TEST(DramSystem, CompoundAccessRoutes)
{
    DramSystem::Config cfg = DramSystem::Config::stackedPod();
    cfg.interleaveBytes = kBlockBytes;
    DramSystem stk(cfg);
    DramAccessResult r = stk.compoundAccess(0, 2048, false);
    EXPECT_GT(r.firstBlockReady, 0u);
    // Tags + data: one read burst each plus... tag read + data.
    EXPECT_EQ(stk.totalBlocksRead(), 2u);
}

} // namespace
} // namespace fpc
