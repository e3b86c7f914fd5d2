/** @file Unit tests for the DRAM channel timing model. */

#include <gtest/gtest.h>

#include "dram/channel.hh"

namespace fpc {
namespace {

DramChannel
makeChannel(PagePolicy policy = PagePolicy::Open)
{
    DramTimingParams t = DramTimingParams::ddr3_1600_offchip();
    t.policy = policy;
    return DramChannel(t, "ch");
}

TEST(DramChannel, ColdReadLatency)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    DramAccessResult r = ch.access(100, 0x0, false, 1);
    // ACT at 100, CAS at 100+tRCD, data at +tCAS, ready +tBurst.
    EXPECT_EQ(r.firstBlockReady,
              100 + t.tRCD + t.tCAS + t.tBurst);
    EXPECT_FALSE(r.rowHit);
}

TEST(DramChannel, RowHitFasterThanRowMiss)
{
    DramChannel ch = makeChannel();
    Cycle t0 = 0;
    DramAccessResult miss = ch.access(t0, 0x0, false, 1);
    // Same row, later access: no ACT needed.
    DramAccessResult hit = ch.access(miss.done + 1000, 0x40,
                                     false, 1);
    EXPECT_TRUE(hit.rowHit);
    EXPECT_LT(hit.firstBlockReady - (miss.done + 1000),
              miss.firstBlockReady - t0);
}

TEST(DramChannel, RowConflictSlowerThanColdMiss)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    ch.access(0, 0x0, false, 1); // opens row 0 of bank 0
    // Conflicting row in the same bank (banks stride rowBytes).
    Addr conflict = static_cast<Addr>(t.rowBytes) * t.numBanks;
    Cycle start = 10000;
    DramAccessResult r = ch.access(start, conflict, false, 1);
    EXPECT_FALSE(r.rowHit);
    EXPECT_GT(r.firstBlockReady - start,
              t.tRCD + t.tCAS + t.tBurst); // paid precharge
    EXPECT_EQ(ch.rowConflicts(), 1u);
}

TEST(DramChannel, ClosedPagePolicyNeverRowHits)
{
    DramChannel ch = makeChannel(PagePolicy::Closed);
    ch.access(0, 0x0, false, 1);
    DramAccessResult r = ch.access(5000, 0x40, false, 1);
    EXPECT_FALSE(r.rowHit);
    EXPECT_EQ(ch.rowHits(), 0u);
    EXPECT_EQ(ch.activates(), 2u);
}

TEST(DramChannel, MultiBlockBurstOccupiesBus)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    DramAccessResult r = ch.access(0, 0x0, false, 8);
    EXPECT_EQ(r.done - r.firstBlockReady,
              7 * t.tBurst); // streaming at bus rate
    EXPECT_EQ(ch.blocksRead(), 8u);
    EXPECT_EQ(ch.busBusyCycles(), 8 * t.tBurst);
}

TEST(DramChannel, BurstCrossingRowBoundaryActivatesTwice)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    const unsigned row_blocks = t.rowBytes / kBlockBytes;
    // Start one block before the end of the row.
    Addr start = static_cast<Addr>(row_blocks - 1) * kBlockBytes;
    ch.access(0, start, false, 2);
    EXPECT_EQ(ch.activates(), 2u);
}

TEST(DramChannel, CompletionMonotonicUnderLoad)
{
    DramChannel ch = makeChannel();
    Cycle last_start = 0;
    for (unsigned i = 0; i < 200; ++i) {
        Cycle when = i * 3; // arrival faster than service
        DramAccessResult r = ch.access(
            when, static_cast<Addr>(i) * 64 * 131, false, 1);
        EXPECT_GE(r.firstBlockReady, when);
        EXPECT_GE(r.done, r.firstBlockReady);
        last_start = when;
    }
    (void)last_start;
}

TEST(DramChannel, BacklogDrainsWhenIdle)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    // Saturate briefly.
    for (unsigned i = 0; i < 64; ++i)
        ch.access(0, static_cast<Addr>(i) * t.rowBytes, false, 1);
    // After a long idle period a fresh access sees cold latency
    // again: no permanent ratchet.
    Cycle late = 10'000'000;
    DramAccessResult r =
        ch.access(late, 1000 * t.rowBytes, false, 1);
    EXPECT_LE(r.firstBlockReady - late,
              t.tRP + t.tRCD + t.tCAS + t.tBurst + t.tFAW);
}

TEST(DramChannel, WritesDoNotStallLaterReadsExcessively)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    // Queue many writes to one conflicted bank.
    for (unsigned i = 0; i < 32; ++i)
        ch.access(i, static_cast<Addr>(i) * t.rowBytes *
                         t.numBanks,
                  true, 1);
    // A read to a different bank right after must not inherit the
    // whole write backlog (write-buffer semantics).
    DramAccessResult r = ch.access(40, t.rowBytes, false, 1);
    EXPECT_LT(r.firstBlockReady - 40, 10ULL * t.tRC);
}

TEST(DramChannel, EnergyDerivesFromActivateAndBlockCounts)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    ch.access(0, 0x0, false, 2);    // ACT, 2 read bursts
    ch.access(1000, 0x80, true, 1); // row hit, 1 write burst
    // Same bank, another row: precharge + ACT, 1 read burst.
    ch.access(2000, static_cast<Addr>(t.rowBytes) * t.numBanks,
              false, 1);
    EXPECT_EQ(ch.activates(), 2u);
    EXPECT_EQ(ch.bytesTransferred(), 4u * kBlockBytes);

    // Reads and writes cost the same per block, so the energy is
    // a function of the two counts alone.
    const DramEnergyParams e = DramEnergyParams::offchipDdr3();
    EXPECT_DOUBLE_EQ(e.actPreEnergyNj(ch.activates()),
                     2 * e.actPreNj);
    EXPECT_DOUBLE_EQ(e.burstEnergyNj(ch.bytesTransferred()),
                     4 * e.blockNj);
    EXPECT_DOUBLE_EQ(
        e.energyNj(ch.activates(), ch.bytesTransferred()),
        2 * 2.0 + 4 * 1.1);
}

TEST(DramChannel, CompoundAccessSlowerThanPlainHit)
{
    DramChannel ch = makeChannel();
    // Loh-Hill compound: ACT + tag CAS + check + data CAS.
    DramAccessResult plain = ch.access(0, 0x0, false, 1);
    DramChannel ch2 = makeChannel();
    DramAccessResult comp = ch2.compoundAccess(0, 0x0, false);
    EXPECT_GT(comp.firstBlockReady, plain.firstBlockReady);
}

TEST(DramChannel, BytesTransferred)
{
    DramChannel ch = makeChannel();
    ch.access(0, 0x0, false, 4);
    ch.access(0, 0x0, true, 2);
    EXPECT_EQ(ch.bytesTransferred(), 6u * kBlockBytes);
}

/** tFAW: the fifth activate in a window must be delayed. */
TEST(DramChannel, FawLimitsActivateBursts)
{
    DramChannel ch = makeChannel();
    const auto &t = ch.timing();
    // Five activates to five different banks at the same instant.
    Cycle last_ready = 0;
    for (unsigned b = 0; b < 5; ++b) {
        DramAccessResult r = ch.access(
            0, static_cast<Addr>(b) * t.rowBytes, false, 1);
        last_ready = r.firstBlockReady;
    }
    // The fifth cannot be ready before tFAW has elapsed.
    EXPECT_GE(last_ready, t.tFAW);
}

} // namespace
} // namespace fpc
