/** @file Unit tests for the pod timing simulator. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dramcache/simple_memories.hh"
#include "sim/pod_system.hh"

namespace fpc {
namespace {

std::vector<TraceRecord>
streamingTrace(unsigned n, unsigned gap = 4)
{
    std::vector<TraceRecord> v;
    for (unsigned i = 0; i < n; ++i) {
        TraceRecord r;
        r.computeGap = gap;
        r.req.paddr = static_cast<Addr>(i) * 64 * 37;
        r.req.pc = 0x400000;
        r.req.op = MemOp::Read;
        v.push_back(r);
    }
    return v;
}

PodConfig
tinyPod(unsigned cores)
{
    PodConfig cfg;
    cfg.numCores = cores;
    cfg.hierarchy = CacheHierarchy::Config::scaleOutPod(cores);
    return cfg;
}

TEST(PodSystem, CountsInstructionsAndRecords)
{
    VectorTraceSource trace(streamingTrace(100, 4), 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(0, 100);
    EXPECT_EQ(m.traceRecords, 100u);
    EXPECT_EQ(m.instructions, 100u * 5); // gap 4 + 1 memory op
    EXPECT_GT(m.cycles, 0u);
}

TEST(PodSystem, StopsAtTraceEnd)
{
    VectorTraceSource trace(streamingTrace(10), 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(0, 1000000);
    EXPECT_EQ(m.traceRecords, 10u);
}

TEST(PodSystem, WarmupExcludedFromMetrics)
{
    VectorTraceSource trace(streamingTrace(200), 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(100, 100);
    EXPECT_EQ(m.traceRecords, 100u);
    EXPECT_EQ(m.instructions, 100u * 5);
}

TEST(PodSystem, L1HitsAreFast)
{
    // All accesses to one block: after the first, everything hits
    // in L1 and cycles stay near compute time.
    std::vector<TraceRecord> recs;
    for (unsigned i = 0; i < 1000; ++i) {
        TraceRecord r;
        r.computeGap = 2;
        r.req.paddr = 0x1000;
        r.req.op = MemOp::Read;
        recs.push_back(r);
    }
    VectorTraceSource trace(recs, 1);
    DramSystem off(DramSystem::Config::offchipPod());
    NoCacheMemory mem(off);
    PodSystem pod(tinyPod(1), trace, mem, nullptr, off);
    RunMetrics m = pod.run(0, 1000);
    EXPECT_EQ(m.llcMisses, 1u);
    // ~3 cycles/record upper bound plus the one miss.
    EXPECT_LT(m.cycles, 1000u * 6 + 500);
}

TEST(PodSystem, MoreCoresMoreThroughput)
{
    auto run_with = [](unsigned cores) {
        VectorTraceSource trace(streamingTrace(4000, 8), cores);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodSystem pod(tinyPod(cores), trace, mem, nullptr, off);
        return pod.run(0, 4000).ipc();
    };
    EXPECT_GT(run_with(4), 1.5 * run_with(1));
}

TEST(PodSystem, MlpHidesLatency)
{
    auto run_with = [](unsigned mlp) {
        VectorTraceSource trace(streamingTrace(4000, 8), 1);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodConfig cfg = tinyPod(1);
        cfg.mlpPerCore = mlp;
        PodSystem pod(cfg, trace, mem, nullptr, off);
        return pod.run(0, 4000).ipc();
    };
    EXPECT_GT(run_with(4), 1.3 * run_with(1));
}

TEST(PodSystem, StoresDoNotBlock)
{
    auto run_ops = [](MemOp op) {
        std::vector<TraceRecord> recs = streamingTrace(2000, 2);
        for (auto &r : recs)
            r.req.op = op;
        VectorTraceSource trace(recs, 1);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodConfig cfg = tinyPod(1);
        cfg.mlpPerCore = 1; // blocking loads
        PodSystem pod(cfg, trace, mem, nullptr, off);
        return pod.run(0, 2000).cycles;
    };
    EXPECT_LT(run_ops(MemOp::Write), run_ops(MemOp::Read));
}

TEST(PodSystem, DeterministicAcrossRuns)
{
    auto run_once = []() {
        VectorTraceSource trace(streamingTrace(3000), 4);
        DramSystem off(DramSystem::Config::offchipPod());
        NoCacheMemory mem(off);
        PodSystem pod(tinyPod(4), trace, mem, nullptr, off);
        return pod.run(500, 2000);
    };
    RunMetrics a = run_once();
    RunMetrics b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.offchipBytes, b.offchipBytes);
}

TEST(PodSystem, MetricsDerivations)
{
    RunMetrics m;
    m.instructions = 1000;
    m.cycles = 500;
    m.demandAccesses = 100;
    m.demandHits = 80;
    m.offchipBytes = 64000;
    m.offchipActs = 5;
    EXPECT_DOUBLE_EQ(m.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(m.missRatio(), 0.2);
    // 5 activates x 2.0nJ + 1000 blocks x 1.1nJ over 1000 instrs.
    EXPECT_DOUBLE_EQ(m.offchipEnergyPerInstr(), 1.11);
    m.stackedActs = 10;
    m.stackedBytes = 20 * kBlockBytes;
    // 10 x 1.1nJ activate/precharge + 20 x 0.35nJ bursts.
    EXPECT_DOUBLE_EQ(m.stackedActPreNj(), 11.0);
    EXPECT_DOUBLE_EQ(m.stackedBurstNj(), 7.0);
    EXPECT_DOUBLE_EQ(m.stackedEnergyPerInstr(), 0.018);
    EXPECT_GT(m.offchipBandwidthGBps(), 0.0);
}

} // namespace
} // namespace fpc
