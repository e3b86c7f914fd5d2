/** @file Unit tests for DRAM timing parameter derivation. */

#include <gtest/gtest.h>

#include "dram/timing.hh"

namespace fpc {
namespace {

TEST(DramTiming, OffchipDdr3Conversion)
{
    DramTimingParams p = DramTimingParams::ddr3_1600_offchip();
    // 11 bus cycles at 800MHz = 41.25 -> 42 CPU cycles at 3GHz.
    EXPECT_EQ(p.tCAS, 42u);
    EXPECT_EQ(p.tRCD, 42u);
    EXPECT_EQ(p.tRP, 42u);
    EXPECT_EQ(p.tRAS, 105u);
    EXPECT_EQ(p.tRC, 147u);
    // 64B over 8B DDR bus: 4 bus cycles = 15 CPU cycles.
    EXPECT_EQ(p.tBurst, 15u);
    EXPECT_DOUBLE_EQ(p.peakBandwidthGBps(), 12.8);
}

TEST(DramTiming, StackedDdr3Conversion)
{
    DramTimingParams p = DramTimingParams::ddr3_3200_stacked();
    // 11 bus cycles at 1.6GHz = 20.6 -> 21 CPU cycles.
    EXPECT_EQ(p.tCAS, 21u);
    EXPECT_EQ(p.tRC, 74u);
    // 64B over 16B DDR bus: 2 bus cycles -> 4 CPU cycles.
    EXPECT_EQ(p.tBurst, 4u);
    EXPECT_DOUBLE_EQ(p.peakBandwidthGBps(), 51.2);
}

TEST(DramTiming, HalvedLatencyKeepsBandwidth)
{
    DramTimingParams p = DramTimingParams::ddr3_3200_stacked();
    DramTimingParams h = p.halvedLatency();
    EXPECT_EQ(h.tCAS, (p.tCAS + 1) / 2);
    EXPECT_EQ(h.tRC, (p.tRC + 1) / 2);
    EXPECT_EQ(h.tBurst, p.tBurst); // bandwidth unchanged
    EXPECT_DOUBLE_EQ(h.peakBandwidthGBps(), p.peakBandwidthGBps());
}

TEST(DramTiming, TimingOrderInvariants)
{
    for (auto p : {DramTimingParams::ddr3_1600_offchip(),
                   DramTimingParams::ddr3_3200_stacked()}) {
        // JEDEC structural relations.
        EXPECT_GE(p.tRC, p.tRAS);
        EXPECT_GE(p.tRAS, p.tRCD);
        EXPECT_GE(p.tFAW, p.tRRD);
        EXPECT_GT(p.tBurst, 0u);
    }
}

TEST(DramTiming, CustomBuild)
{
    DramBusTimings bus;
    bus.tCAS = 10;
    DramTimingParams p = DramTimingParams::build(
        bus, 2000, 1000, 8, 16, 4096, PagePolicy::Closed);
    EXPECT_EQ(p.tCAS, 20u);
    EXPECT_EQ(p.numBanks, 16u);
    EXPECT_EQ(p.rowBytes, 4096u);
    EXPECT_EQ(p.policy, PagePolicy::Closed);
}

TEST(DramEnergy, StackedCheaperThanOffchip)
{
    DramEnergyParams off = DramEnergyParams::offchipDdr3();
    DramEnergyParams stk = DramEnergyParams::stackedDram();
    EXPECT_LT(stk.blockNj, off.blockNj);
    EXPECT_LT(stk.actPreNj, off.actPreNj);
}

} // namespace
} // namespace fpc
