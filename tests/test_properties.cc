/** @file Parameterized property sweeps across configurations. */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "dramcache/footprint_cache.hh"
#include "sim/experiment.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

/* ------------------------------------------------------------ */
/* Footprint cache invariants across page size and capacity.    */
/* ------------------------------------------------------------ */

class FootprintSweep
    : public ::testing::TestWithParam<std::tuple<unsigned,
                                                 std::uint64_t>>
{
  protected:
    void
    SetUp() override
    {
        auto [page_bytes, capacity_kb] = GetParam();
        stacked_ = std::make_unique<DramSystem>(
            DramSystem::Config::stackedPod());
        offchip_ = std::make_unique<DramSystem>(
            DramSystem::Config::offchipPod());
        FootprintCache::Config cfg;
        cfg.tags.capacityBytes = capacity_kb * 1024ULL;
        cfg.tags.pageBytes = page_bytes;
        cfg.tags.assoc = 4;
        cfg.fht.entries = 512;
        cfg.fht.assoc = 4;
        cache_ = std::make_unique<FootprintCache>(cfg, *stacked_,
                                                  *offchip_);
    }

    std::unique_ptr<DramSystem> stacked_;
    std::unique_ptr<DramSystem> offchip_;
    std::unique_ptr<FootprintCache> cache_;
};

TEST_P(FootprintSweep, AccountingIdentitiesHold)
{
    auto [page_bytes, capacity_kb] = GetParam();
    // Drive a pseudo-random access stream with page locality.
    std::uint64_t x = 99;
    Cycle now = 0;
    for (int i = 0; i < 30000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        MemRequest r;
        Addr page = (x >> 8) % 4096;
        unsigned block =
            static_cast<unsigned>((x >> 40) %
                                  (page_bytes / kBlockBytes));
        r.paddr = page * page_bytes + block * kBlockBytes;
        r.pc = 0x400000 + ((x >> 20) % 64) * 4;
        r.op = ((x >> 60) % 4 == 0) ? MemOp::Write : MemOp::Read;
        now += 50;
        if (r.op == MemOp::Write && (x & 1)) {
            cache_->writeback(now, r.paddr);
        } else {
            cache_->access(now, r);
        }
    }
    cache_->finalizeResidency();

    // Demand accesses = hits + triggering misses + block misses
    // within resident pages (bypasses are triggering misses).
    EXPECT_EQ(cache_->demandAccesses(),
              cache_->demandHits() + cache_->triggeringMisses() +
                  cache_->underpredictionMisses());
    EXPECT_LE(cache_->singletonBypasses(),
              cache_->triggeringMisses());
    // Hit ratio within [0,1].
    EXPECT_GE(cache_->missRatio(), 0.0);
    EXPECT_LE(cache_->missRatio(), 1.0);
    // Off-chip reads equal fetched blocks.
    EXPECT_EQ(offchip_->totalBlocksRead(), cache_->blocksFetched());
}

INSTANTIATE_TEST_SUITE_P(
    PageAndCapacity, FootprintSweep,
    ::testing::Combine(::testing::Values(1024u, 2048u, 4096u),
                       ::testing::Values(64ULL, 256ULL, 1024ULL)));

/* ------------------------------------------------------------ */
/* Predictor-mode ordering (§3.1 design-space argument).        */
/* ------------------------------------------------------------ */

class PredictorModeSweep
    : public ::testing::TestWithParam<PredictorIndex>
{
};

TEST_P(PredictorModeSweep, RunsAndStaysConsistent)
{
    WorkloadSpec spec = makeWorkload(WorkloadKind::WebFrontend);
    SyntheticTraceSource trace(spec);
    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 64;
    cfg.predictorIndex = GetParam();
    Experiment exp(cfg, trace);
    RunMetrics m = exp.run(200'000, 100'000);
    EXPECT_GT(m.ipc(), 0.0);
    FootprintCache *fc = exp.footprintCache();
    fc->finalizeResidency();
    EXPECT_GT(fc->demandAccesses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PredictorModeSweep,
                         ::testing::Values(
                             PredictorIndex::PcOffset,
                             PredictorIndex::PcOnly,
                             PredictorIndex::OffsetOnly));

/* ------------------------------------------------------------ */
/* Sub-blocked vs predictor vs full page: fetch volume order.   */
/* ------------------------------------------------------------ */

class FetchPolicySweep
    : public ::testing::TestWithParam<WorkloadKind>
{
  protected:
    std::uint64_t
    fetchedBlocks(FetchPolicy policy)
    {
        WorkloadSpec spec = makeWorkload(GetParam());
        SyntheticTraceSource trace(spec);
        DramSystem stacked(DramSystem::Config::stackedPod());
        DramSystem offchip(DramSystem::Config::offchipPod());
        FootprintCache::Config cfg;
        cfg.tags.capacityBytes = 8ULL << 20;
        cfg.fetch = policy;
        cfg.singletonOptimization = false;
        FootprintCache cache(cfg, stacked, offchip);
        TraceRecord r;
        Cycle now = 0;
        for (int i = 0; i < 150'000; ++i) {
            trace.next(0, r);
            now += 20;
            if (r.req.op == MemOp::Read)
                cache.access(now, r.req);
        }
        return cache.blocksFetched();
    }
};

TEST_P(FetchPolicySweep, DemandBelowPredictorBelowFullPage)
{
    const std::uint64_t demand =
        fetchedBlocks(FetchPolicy::DemandOnly);
    const std::uint64_t pred =
        fetchedBlocks(FetchPolicy::Predictor);
    const std::uint64_t full =
        fetchedBlocks(FetchPolicy::FullPage);
    // §3.1: sub-blocked fetches the least (max underprediction),
    // full page the most (max overprediction); the predictor sits
    // in between.
    EXPECT_LE(demand, pred);
    EXPECT_LT(pred, full);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FetchPolicySweep,
    ::testing::Values(WorkloadKind::WebSearch,
                      WorkloadKind::DataServing,
                      WorkloadKind::MapReduce,
                      WorkloadKind::WebFrontend));

/* ------------------------------------------------------------ */
/* DRAM channel: monotonicity and conservation sweeps.          */
/* ------------------------------------------------------------ */

class DramPolicySweep : public ::testing::TestWithParam<PagePolicy>
{
};

TEST_P(DramPolicySweep, ConservationAndMonotonicity)
{
    DramTimingParams t = DramTimingParams::ddr3_3200_stacked();
    t.policy = GetParam();
    DramChannel ch(t, "ch");
    std::uint64_t x = 5;
    std::uint64_t blocks = 0;
    for (int i = 0; i < 5000; ++i) {
        x = x * 2862933555777941757ULL + 3037000493ULL;
        Cycle when = static_cast<Cycle>(i) * 7;
        unsigned n = 1 + (x >> 50) % 4;
        DramAccessResult r = ch.access(
            when, (x >> 9) % (1 << 22) * 64, (x & 1) != 0, n);
        blocks += n;
        EXPECT_GE(r.firstBlockReady, when);
        EXPECT_GE(r.done, r.firstBlockReady);
    }
    EXPECT_EQ(ch.blocksRead() + ch.blocksWritten(), blocks);
    EXPECT_EQ(ch.bytesTransferred(), blocks * kBlockBytes);
    if (GetParam() == PagePolicy::Closed) {
        EXPECT_EQ(ch.rowHits(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, DramPolicySweep,
                         ::testing::Values(PagePolicy::Open,
                                           PagePolicy::Closed));

/* ------------------------------------------------------------ */
/* FHT size sweep: capacity effects on retention (Figure 9).    */
/* ------------------------------------------------------------ */

class FhtSizeSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FhtSizeSweep, LargerTablesRetainMoreKeys)
{
    FootprintHistoryTable::Config cfg;
    cfg.entries = GetParam();
    cfg.assoc = 8;
    FootprintHistoryTable fht(cfg);
    const unsigned keys = 4096;
    for (unsigned i = 0; i < keys; ++i)
        fht.lookupOrAllocate(0x1000 + i * 4, i % 32);
    unsigned retained = 0;
    for (unsigned i = 0; i < keys; ++i)
        retained += fht.peek(0x1000 + i * 4, i % 32).hit ? 1 : 0;
    // Retention is bounded by capacity and grows with it; hash
    // collisions allow a small shortfall even above capacity.
    EXPECT_LE(retained, cfg.entries);
    if (cfg.entries >= keys) {
        EXPECT_GE(retained, keys * 8 / 10);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FhtSizeSweep,
                         ::testing::Values(256u, 1024u, 4096u,
                                           16384u));

} // namespace
} // namespace fpc
