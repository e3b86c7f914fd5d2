/**
 * @file
 * Materialized-trace subsystem tests: arena round trips, replay
 * vs fresh-generation bit-identity over full streams (batch and
 * single-record APIs, all cores), the skip contract, TraceCache
 * build-once/plan/evict/release semantics, warmup-artifact
 * equivalence with the in-band functional warmup, and the shared
 * HierarchyPass against the standalone artifact builders and a
 * record-by-record reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mem/materialized_trace.hh"
#include "mem/trace_cache.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"
#include "workload/generator.hh"

namespace fpc {
namespace {

bool
recordsEqual(const TraceRecord &a, const TraceRecord &b)
{
    return a.req.paddr == b.req.paddr && a.req.pc == b.req.pc &&
           a.req.op == b.req.op &&
           a.computeGap == b.computeGap;
}

std::vector<TraceRecord>
syntheticRecords(std::uint64_t n, std::uint64_t seed = 7)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, seed));
    std::vector<TraceRecord> out(n);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_TRUE(src.next(0, out[i]));
    return out;
}

std::shared_ptr<const MaterializedTrace>
materialize(std::uint64_t n, std::uint64_t seed = 7)
{
    auto arena = std::make_shared<MaterializedTrace>();
    materializeTrace(makeWorkload(WorkloadKind::WebSearch, 2048,
                                  seed),
                     n, *arena);
    return arena;
}

/** Small cache entry with a controllable size. */
struct FakeEntry : TraceCacheEntry
{
    explicit FakeEntry(std::uint64_t bytes, int tag = 0)
        : bytes_(bytes), tag_(tag)
    {
    }
    std::uint64_t cacheBytes() const override { return bytes_; }
    std::uint64_t bytes_;
    int tag_;
};

TEST(MaterializedTrace, AppendFillRoundTrip)
{
    // Odd-sized appends and reads crossing chunk boundaries.
    const std::size_t n = 3 * 4096 + 117;
    const std::vector<TraceRecord> ref = syntheticRecords(n);
    MaterializedTrace arena;
    std::size_t pos = 0;
    const std::size_t spans[] = {1, 1000, 37, 4096, 555};
    std::size_t si = 0;
    while (pos < n) {
        const std::size_t take =
            std::min(spans[si++ % 5], n - pos);
        arena.append(ref.data() + pos, take);
        pos += take;
    }
    ASSERT_EQ(arena.size(), n);
    EXPECT_EQ(arena.cacheBytes(),
              n * MaterializedTrace::kBytesPerRecord);

    std::vector<TraceRecord> got(n);
    pos = 0;
    const std::size_t reads[] = {977, 1, 4096, 33, 2048};
    si = 0;
    while (pos < n) {
        const std::size_t take =
            std::min(reads[si++ % 5], n - pos);
        arena.fill(pos, got.data() + pos, take);
        pos += take;
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(recordsEqual(ref[i], got[i])) << i;
}

TEST(MaterializedTrace, PlannedBuildAllocatesExactly)
{
    // materializeTrace plans the arena: the tail chunk holds the
    // remainder, so every allocated column byte is a record and
    // the budget charge is what is resident.
    const std::uint64_t chunk = MaterializedTrace::kChunkRecords;
    for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{5'000},
                            chunk, chunk + 4'321}) {
        auto arena = materialize(n);
        ASSERT_EQ(arena->size(), n);
        EXPECT_EQ(arena->allocatedBytes(),
                  n * MaterializedTrace::kBytesPerRecord)
            << n;
        EXPECT_EQ(arena->cacheBytes(), arena->allocatedBytes()) << n;
    }
}

TEST(MaterializedTrace, PlannedChunksMatchUnplannedAcrossBoundary)
{
    const std::uint64_t chunk = MaterializedTrace::kChunkRecords;
    const std::uint64_t n = chunk + 4'321;
    const std::vector<TraceRecord> ref = syntheticRecords(n);
    MaterializedTrace unplanned;
    for (std::uint64_t pos = 0; pos < n; pos += 4096) {
        unplanned.append(ref.data() + pos,
                         std::min<std::uint64_t>(4096, n - pos));
    }
    auto planned = materialize(n);
    ASSERT_EQ(planned->numChunks(), 2u);
    ASSERT_EQ(unplanned.numChunks(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        const MaterializedTrace::ChunkView a = planned->chunk(c);
        const MaterializedTrace::ChunkView b = unplanned.chunk(c);
        ASSERT_EQ(a.records, c == 0 ? chunk : 4'321u);
        ASSERT_EQ(a.records, b.records);
        EXPECT_TRUE(std::equal(a.paddr, a.paddr + a.records, b.paddr));
        EXPECT_TRUE(std::equal(a.pc, a.pc + a.records, b.pc));
        EXPECT_TRUE(std::equal(a.gap, a.gap + a.records, b.gap));
        EXPECT_TRUE(std::equal(a.op, a.op + a.records, b.op));
    }
    // fill() straddling the boundary reassembles the same records.
    std::vector<TraceRecord> got(300);
    planned->fill(chunk - 150, got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(recordsEqual(got[i], ref[chunk - 150 + i])) << i;
}

TEST(MaterializedTrace, AppendPastThePlanGrowsTheTailChunk)
{
    const std::vector<TraceRecord> ref = syntheticRecords(5'000);
    MaterializedTrace arena;
    arena.plan(1'000);
    arena.append(ref.data(), 1'000);
    EXPECT_EQ(arena.allocatedBytes(),
              1'000 * MaterializedTrace::kBytesPerRecord);
    arena.append(ref.data() + 1'000, 4'000);
    ASSERT_EQ(arena.size(), 5'000u);
    EXPECT_EQ(arena.numChunks(), 1u);
    EXPECT_EQ(arena.allocatedBytes(),
              MaterializedTrace::kChunkRecords *
                  MaterializedTrace::kBytesPerRecord);
    std::vector<TraceRecord> got(5'000);
    arena.fill(0, got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(recordsEqual(got[i], ref[i])) << i;
}

TEST(ReplayTraceSource, NextMatchesFreshSource)
{
    const std::uint64_t n = 50'000;
    auto arena = materialize(n);
    ReplayTraceSource replay(arena);
    SyntheticTraceSource fresh(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));

    TraceRecord a, b;
    for (std::uint64_t i = 0; i < n; ++i) {
        // The stream is core-agnostic: records go to whichever
        // core asks, exactly like the generator.
        const unsigned core = static_cast<unsigned>(i % 16);
        ASSERT_TRUE(replay.next(core, a));
        ASSERT_TRUE(fresh.next(core, b));
        ASSERT_TRUE(recordsEqual(a, b)) << i;
    }
    EXPECT_FALSE(replay.next(0, a)); // arena is finite
    EXPECT_EQ(replay.consumed(), n);
}

TEST(ReplayTraceSource, BatchMatchesFreshSource)
{
    const std::uint64_t n = 50'000;
    auto arena = materialize(n);
    ReplayTraceSource replay(arena);
    SyntheticTraceSource fresh(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));

    // Consume the replay in odd-sized partial skips and compare
    // against the fresh stream record by record.
    std::uint64_t seen = 0;
    const std::size_t takes[] = {1, 700, 13, 4096, 2047};
    std::size_t ti = 0;
    while (seen < n) {
        TraceRecord *span = nullptr;
        const std::size_t avail = replay.acquire(3, span);
        ASSERT_GT(avail, 0u);
        const std::size_t take = std::min(
            {takes[ti++ % 5], avail,
             static_cast<std::size_t>(n - seen)});
        for (std::size_t i = 0; i < take; ++i) {
            TraceRecord want;
            ASSERT_TRUE(fresh.next(0, want));
            ASSERT_TRUE(recordsEqual(span[i], want))
                << seen + i;
        }
        replay.skip(take);
        seen += take;
    }
    TraceRecord rec;
    EXPECT_FALSE(replay.next(0, rec));
}

TEST(ReplayTraceSource, MixedNextAndBatchStaysInSync)
{
    const std::uint64_t n = 20'000;
    auto arena = materialize(n);
    ReplayTraceSource replay(arena);
    SyntheticTraceSource fresh(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));

    std::uint64_t seen = 0;
    bool use_batch = false;
    while (seen < n) {
        if (use_batch) {
            TraceRecord *span = nullptr;
            const std::size_t avail = replay.acquire(0, span);
            ASSERT_GT(avail, 0u);
            const std::size_t take = std::min<std::size_t>(
                {avail, 321,
                 static_cast<std::size_t>(n - seen)});
            for (std::size_t i = 0; i < take; ++i) {
                TraceRecord want;
                ASSERT_TRUE(fresh.next(0, want));
                ASSERT_TRUE(recordsEqual(span[i], want));
            }
            replay.skip(take);
            seen += take;
        } else {
            TraceRecord a, want;
            ASSERT_TRUE(replay.next(0, a));
            ASSERT_TRUE(fresh.next(0, want));
            ASSERT_TRUE(recordsEqual(a, want));
            ++seen;
        }
        use_batch = !use_batch;
    }
}

TEST(ReplayTraceSource, SeekMatchesConsumption)
{
    const std::uint64_t n = 10'000;
    const std::uint64_t cut = 6'321;
    auto arena = materialize(n);

    ReplayTraceSource consumed(arena);
    TraceRecord rec;
    for (std::uint64_t i = 0; i < cut; ++i)
        ASSERT_TRUE(consumed.next(0, rec));

    ReplayTraceSource seeked(arena);
    seeked.seekTo(cut);
    EXPECT_EQ(seeked.consumed(), cut);
    for (std::uint64_t i = cut; i < n; ++i) {
        TraceRecord a, b;
        ASSERT_TRUE(consumed.next(0, a));
        ASSERT_TRUE(seeked.next(0, b));
        ASSERT_TRUE(recordsEqual(a, b)) << i;
    }
}

TEST(ReplayTraceSource, ResetRestartsTheStream)
{
    auto arena = materialize(5'000);
    ReplayTraceSource replay(arena);
    TraceRecord first, rec;
    ASSERT_TRUE(replay.next(0, first));
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(replay.next(0, rec));
    replay.reset();
    ASSERT_TRUE(replay.next(0, rec));
    EXPECT_TRUE(recordsEqual(first, rec));
}

TEST(TraceSkipContract, ReplayOverSkipDies)
{
    auto arena = materialize(5'000);
    ReplayTraceSource replay(arena);
    TraceRecord *span = nullptr;
    const std::size_t avail = replay.acquire(0, span);
    ASSERT_GT(avail, 0u);
    EXPECT_DEATH({ replay.skip(avail + 1); }, "assertion");
}

TEST(TraceSkipContract, ReplaySkipAfterNextDies)
{
    // next() invalidates the acquired span; a stale skip would
    // silently desync every core reading the stream.
    auto arena = materialize(5'000);
    ReplayTraceSource replay(arena);
    TraceRecord *span = nullptr;
    TraceRecord rec;
    ASSERT_GT(replay.acquire(0, span), 0u);
    ASSERT_TRUE(replay.next(0, rec));
    EXPECT_DEATH({ replay.skip(1); }, "assertion");
}

TEST(TraceSkipContract, SyntheticOverSkipDies)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));
    TraceRecord *span = nullptr;
    const std::size_t avail = src.acquire(0, span);
    ASSERT_GT(avail, 0u);
    EXPECT_DEATH({ src.skip(avail + 1); }, "assertion");
}

TEST(TraceSkipContract, SyntheticConsumedCountsNextAndSkip)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));
    EXPECT_EQ(src.consumed(), 0u);
    TraceRecord rec;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(src.next(0, rec));
    EXPECT_EQ(src.consumed(), 3u);
    TraceRecord *span = nullptr;
    ASSERT_GE(src.acquire(0, span), 5u);
    src.skip(5);
    EXPECT_EQ(src.consumed(), 8u);
    src.reset();
    EXPECT_EQ(src.consumed(), 0u);
}

TEST(TraceSkipContract, SyntheticSkipAfterNextDies)
{
    SyntheticTraceSource src(
        makeWorkload(WorkloadKind::WebSearch, 2048, 7));
    TraceRecord *span = nullptr;
    TraceRecord rec;
    ASSERT_GT(src.acquire(0, span), 0u);
    ASSERT_TRUE(src.next(0, rec));
    EXPECT_DEATH({ src.skip(1); }, "assertion");
}

TEST(TraceCache, BuildsOnceAndShares)
{
    TraceCache cache(std::uint64_t{1} << 30);
    int builds = 0;
    auto build = [&](std::uint64_t) -> TraceCache::EntryPtr {
        ++builds;
        return std::make_shared<FakeEntry>(100);
    };
    auto a = cache.acquire("k", 0, build);
    auto b = cache.acquire("k", 0, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TraceCache, PlanGrowsTheBuild)
{
    TraceCache cache(std::uint64_t{1} << 30);
    cache.plan("k", 500);
    cache.plan("k", 1200);
    std::uint64_t built_units = 0;
    cache.acquire("k", 10,
                  [&](std::uint64_t units) -> TraceCache::EntryPtr {
                      built_units = units;
                      return std::make_shared<FakeEntry>(1);
                  });
    // One build covers the largest planned demand, so every
    // point sharing the identity replays the same entry.
    EXPECT_EQ(built_units, 1200u);
}

TEST(TraceCache, TooSmallEntryIsRebuilt)
{
    TraceCache cache(std::uint64_t{1} << 30);
    int builds = 0;
    auto build = [&](std::uint64_t units) -> TraceCache::EntryPtr {
        ++builds;
        auto e = std::make_shared<FakeEntry>(1);
        e->bytes_ = units; // remember the size we were asked for
        return e;
    };
    cache.acquire("k", 100, build);
    auto big = cache.acquire("k", 200, build);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(
        std::static_pointer_cast<const FakeEntry>(big)->bytes_,
        200u);
}

TEST(TraceCache, ArenaRebuiltAtLargerSizeIsExact)
{
    TraceCache cache(std::uint64_t{1} << 30);
    auto build = [](std::uint64_t records) -> TraceCache::EntryPtr {
        return materialize(records);
    };
    const std::uint64_t big = MaterializedTrace::kChunkRecords + 10;
    auto small = std::static_pointer_cast<const MaterializedTrace>(
        cache.acquire("trace/k", 3'000, build));
    auto large = std::static_pointer_cast<const MaterializedTrace>(
        cache.acquire("trace/k", big, build));
    EXPECT_EQ(cache.stats().misses, 2u);
    ASSERT_EQ(small->size(), 3'000u);
    ASSERT_EQ(large->size(), big);
    EXPECT_EQ(large->allocatedBytes(), large->cacheBytes());
    // The rebuilt arena extends the same stream.
    std::vector<TraceRecord> a(3'000), b(3'000);
    small->fill(0, a.data(), a.size());
    large->fill(0, b.data(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(recordsEqual(a[i], b[i])) << i;
}

TEST(TraceCache, EvictsLruWithinBudgetAndRegenerates)
{
    // Budget fits one 100-byte entry; unplanned keys are only
    // dropped by the budget sweep, oldest first.
    TraceCache cache(150);
    auto build100 = [](std::uint64_t) -> TraceCache::EntryPtr {
        return std::make_shared<FakeEntry>(100);
    };
    { auto a = cache.acquire("a", 0, build100); }
    EXPECT_EQ(cache.currentBytes(), 100u);
    { auto b = cache.acquire("b", 0, build100); }
    // Inserting b exceeded the budget: a (LRU, unpinned) left.
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.currentBytes(), 100u);
    { auto a = cache.acquire("a", 0, build100); }
    EXPECT_EQ(cache.stats().regenerations, 1u);
}

TEST(TraceCache, PinnedEntriesAreNeverEvicted)
{
    TraceCache cache(150);
    auto build100 = [](std::uint64_t) -> TraceCache::EntryPtr {
        return std::make_shared<FakeEntry>(100);
    };
    auto a = cache.acquire("a", 0, build100); // held: pinned
    auto b = cache.acquire("b", 0, build100);
    // Over budget but everything is pinned: correctness first.
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.currentBytes(), 200u);
}

TEST(TraceCache, EagerReleaseAfterLastPlannedUse)
{
    TraceCache cache(std::uint64_t{1} << 30);
    cache.plan("k", 0);
    cache.plan("k", 0);
    auto build = [](std::uint64_t) -> TraceCache::EntryPtr {
        return std::make_shared<FakeEntry>(100);
    };
    auto a = cache.acquire("k", 0, build);
    EXPECT_EQ(cache.currentBytes(), 100u);
    auto b = cache.acquire("k", 0, build);
    // Second (last planned) use: the slot is dropped so resident
    // bytes track in-flight identities; consumers keep the entry
    // alive through their own references.
    EXPECT_EQ(cache.currentBytes(), 0u);
    EXPECT_EQ(cache.stats().released, 1u);
    EXPECT_EQ(a.get(), b.get());
}

TEST(TraceCache, ConcurrentAcquiresBuildExactlyOnce)
{
    TraceCache cache(std::uint64_t{1} << 30);
    std::atomic<int> builds{0};
    auto build = [&](std::uint64_t) -> TraceCache::EntryPtr {
        builds.fetch_add(1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        return std::make_shared<FakeEntry>(100);
    };
    std::vector<TraceCache::EntryPtr> got(8);
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([&, t] {
            got[t] = cache.acquire("k", 0, build);
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(builds.load(), 1);
    for (int t = 1; t < 8; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
}

TEST(TraceCache, BuilderFailurePropagatesAndRetries)
{
    TraceCache cache(std::uint64_t{1} << 30);
    EXPECT_THROW(cache.acquire("k", 0,
                               [](std::uint64_t)
                                   -> TraceCache::EntryPtr {
                                   throw std::runtime_error(
                                       "boom");
                               }),
                 std::runtime_error);
    // The failed slot must not wedge the key.
    auto ok = cache.acquire(
        "k", 0, [](std::uint64_t) -> TraceCache::EntryPtr {
            return std::make_shared<FakeEntry>(1);
        });
    EXPECT_NE(ok, nullptr);
}

TEST(TraceCache, BuildWaitsAreNotBuildSeconds)
{
    // A builder that reports blocking on another builder's work
    // counts a wait, and the blocked time leaves buildSeconds.
    TraceCache::noteBuildWait(1.0); // outside a builder: no-op
    TraceCache cache(std::uint64_t{1} << 30);
    const auto t0 = std::chrono::steady_clock::now();
    cache.acquire("warmup/k", 0,
                  [](std::uint64_t) -> TraceCache::EntryPtr {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(20));
                      TraceCache::noteBuildWait(0.02);
                      return std::make_shared<FakeEntry>(1);
                  });
    const double outside = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.waits, 1u);
    EXPECT_LE(stats.buildSeconds, outside - 0.02 + 1e-9);
    EXPECT_EQ(stats.buildSecondsByKind.at("warmup"),
              stats.buildSeconds);
}

TEST(WarmupArtifact, ApplyMatchesInBandWarmup)
{
    // The artifact path (hierarchy snapshot + op-stream replay)
    // must leave a pod bit-identical to running the warmup
    // in-band — measured metrics included.
    const std::uint64_t warm = 120'000;
    const std::uint64_t measure = 40'000;
    auto arena = materialize(warm + measure, 99);

    Experiment::Config cfg;
    cfg.design = "footprint";
    cfg.capacityMb = 64;

    ReplayTraceSource inband_trace(arena);
    Experiment inband(cfg, inband_trace);
    inband.run(warm, 0);
    RunMetrics m1 = inband.run(0, measure);

    auto artifact = PodSystem::buildWarmupArtifact(
        *arena, cfg.pod.hierarchy, warm);
    EXPECT_EQ(artifact->records, warm);
    EXPECT_GT(artifact->paddr.size(), 0u);
    EXPECT_GT(artifact->cacheBytes(), 0u);

    ReplayTraceSource replay_trace(arena);
    Experiment replayed(cfg, replay_trace);
    replayed.pod().applyWarmup(*artifact);
    replay_trace.seekTo(warm);
    RunMetrics m2 = replayed.run(0, measure);

    EXPECT_EQ(m1.instructions, m2.instructions);
    EXPECT_EQ(m1.cycles, m2.cycles);
    EXPECT_EQ(m1.traceRecords, m2.traceRecords);
    EXPECT_EQ(m1.llcMisses, m2.llcMisses);
    EXPECT_EQ(m1.demandAccesses, m2.demandAccesses);
    EXPECT_EQ(m1.demandHits, m2.demandHits);
    EXPECT_EQ(m1.memLatencyCycles, m2.memLatencyCycles);
    EXPECT_EQ(m1.offchipBytes, m2.offchipBytes);
    EXPECT_EQ(m1.stackedBytes, m2.stackedBytes);
    EXPECT_EQ(m1.offchipActs, m2.offchipActs);
    EXPECT_EQ(m1.stackedActs, m2.stackedActs);
}

TEST(WarmupArtifact, SharedAcrossDesignsViaRunPoint)
{
    // Two designs sharing a trace and a warm window must produce
    // identical results through the cache (artifact shared) and
    // without it (everything regenerated per point).
    TraceCache cache(std::uint64_t{4} << 30);
    for (const char *design : {"footprint", "page"}) {
        ExperimentPoint p;
        p.experiment = "unit";
        p.workload = WorkloadKind::WebSearch;
        p.cfg.design = design;
        p.cfg.capacityMb = 64;
        p.scale = 0.02;
        p.label = standardLabel(p.workload, p.cfg);

        PointResult plain = runPoint(p);
        p.traceCache = &cache;
        PointResult cached = runPoint(p);

        EXPECT_EQ(plain.metrics.cycles, cached.metrics.cycles)
            << design;
        EXPECT_EQ(plain.metrics.instructions,
                  cached.metrics.instructions)
            << design;
        EXPECT_EQ(plain.metrics.demandHits,
                  cached.metrics.demandHits)
            << design;
        EXPECT_EQ(plain.covered, cached.covered) << design;
        EXPECT_TRUE(cached.timing.replayedTrace) << design;
        EXPECT_TRUE(cached.timing.replayedWarmup) << design;
        EXPECT_FALSE(plain.timing.replayedTrace) << design;
    }
    // One arena, one artifact: the second design hit both.
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
}


// ---------------------------------------------------------------
// Shared hierarchy pass

/** Windows straddling the arena's first chunk boundary, each
 * span reaching past the next window's warm cut. */
constexpr std::uint64_t kPassWarms[] = {1'000'000, 1'030'000,
                                        1'060'000, 1'150'000};

SampleSchedule
passSchedule()
{
    SampleSchedule sched;
    sched.intervals = 4;
    sched.period = 20'000;
    sched.gap = 15'000;
    sched.ramp = 2'500;
    sched.measure = 2'500;
    return sched;
}

std::uint64_t
passRecords()
{
    return kPassWarms[3] + passSchedule().spanRecords();
}

/** One arena shared by every pass test (built once). */
const MaterializedTrace &
passArena()
{
    static const std::shared_ptr<const MaterializedTrace> arena =
        materialize(passRecords(), 11);
    return *arena;
}

const CacheHierarchy::Config &
passConfig()
{
    static const CacheHierarchy::Config cfg =
        Experiment::Config{}.pod.hierarchy;
    return cfg;
}

void
expectCacheSnapshotsEqual(const SetAssocCache::Snapshot &a,
                          const SetAssocCache::Snapshot &b,
                          const std::string &what)
{
    EXPECT_EQ(a.keys, b.keys) << what;
    ASSERT_EQ(a.meta.size(), b.meta.size()) << what;
    for (std::size_t i = 0; i < a.meta.size(); ++i) {
        ASSERT_EQ(a.meta[i].lastUse, b.meta[i].lastUse) << what;
        ASSERT_EQ(a.meta[i].dirty, b.meta[i].dirty) << what;
    }
    EXPECT_EQ(a.tick, b.tick) << what;
    EXPECT_EQ(a.randState, b.randState) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

void
expectSnapshotsEqual(const CacheHierarchy::Snapshot &a,
                     const CacheHierarchy::Snapshot &b,
                     const std::string &what)
{
    ASSERT_EQ(a.l1d.size(), b.l1d.size()) << what;
    for (std::size_t i = 0; i < a.l1d.size(); ++i)
        expectCacheSnapshotsEqual(a.l1d[i], b.l1d[i],
                                  what + " l1d" + std::to_string(i));
    expectCacheSnapshotsEqual(a.l2, b.l2, what + " l2");
    EXPECT_EQ(a.l1Presence, b.l1Presence) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.llcWritebacks, b.llcWritebacks) << what;
}

void
expectOpsEqual(const PostL2Ops &a, const PostL2Ops &b,
               const std::string &what)
{
    EXPECT_EQ(a.paddr, b.paddr) << what;
    EXPECT_EQ(a.pc, b.pc) << what;
    EXPECT_EQ(a.coreId, b.coreId) << what;
    EXPECT_EQ(a.kind, b.kind) << what;
}

void
expectWarmEqual(const WarmupArtifact &a, const WarmupArtifact &b,
                const std::string &what)
{
    expectOpsEqual(a, b, what);
    EXPECT_EQ(a.records, b.records) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.hierarchyBytes, b.hierarchyBytes) << what;
    expectSnapshotsEqual(a.hierarchy, b.hierarchy, what);
}

void
expectSpanEqual(const SampleSpanArtifact &a,
                const SampleSpanArtifact &b, const std::string &what)
{
    expectOpsEqual(a, b, what);
    EXPECT_EQ(a.schedule.intervals, b.schedule.intervals) << what;
    EXPECT_EQ(a.schedule.period, b.schedule.period) << what;
    EXPECT_EQ(a.schedule.gap, b.schedule.gap) << what;
    EXPECT_EQ(a.opGapEnd, b.opGapEnd) << what;
    EXPECT_EQ(a.opPeriodEnd, b.opPeriodEnd) << what;
    EXPECT_EQ(a.gapInstructions, b.gapInstructions) << what;
    EXPECT_EQ(a.hierarchyBytes, b.hierarchyBytes) << what;
    ASSERT_EQ(a.hierarchyAtTimedStart.size(),
              b.hierarchyAtTimedStart.size())
        << what;
    for (std::size_t i = 0; i < a.hierarchyAtTimedStart.size(); ++i)
        expectSnapshotsEqual(a.hierarchyAtTimedStart[i],
                             b.hierarchyAtTimedStart[i],
                             what + " period " + std::to_string(i));
}

/** Standalone builder output for every window (built once). */
struct StandaloneArtifacts
{
    std::vector<std::shared_ptr<const WarmupArtifact>> warm;
    std::vector<std::shared_ptr<const SampleSpanArtifact>> span;
};

const StandaloneArtifacts &
standalone()
{
    static const StandaloneArtifacts built = [] {
        StandaloneArtifacts out;
        for (std::uint64_t w : kPassWarms) {
            out.warm.push_back(PodSystem::buildWarmupArtifact(
                passArena(), passConfig(), w));
            out.span.push_back(PodSystem::buildSampleSpanArtifact(
                passArena(), passConfig(), *out.warm.back(), w,
                passSchedule()));
        }
        return out;
    }();
    return built;
}

/**
 * Request artifacts in @p order ("w<i>" / "s<i>") from one shared
 * pass and check each against the standalone builders.
 */
void
checkOrder(const std::vector<std::string> &order)
{
    HierarchyPass pass(passConfig());
    for (std::uint64_t w : kPassWarms) {
        pass.planWarmup(w);
        pass.planSpan(w, passSchedule());
    }
    for (const std::string &req : order) {
        const std::size_t i = static_cast<std::size_t>(req[1] - '0');
        const std::uint64_t w = kPassWarms[i];
        if (req[0] == 'w') {
            auto art = pass.cutWarmup(passArena(), w);
            ASSERT_NE(art, nullptr) << req;
            expectWarmEqual(*art, *standalone().warm[i], req);
            // Taken: a second cut is refused.
            EXPECT_EQ(pass.cutWarmup(passArena(), w), nullptr);
        } else {
            auto art = pass.cutSpan(passArena(), w, passSchedule());
            ASSERT_NE(art, nullptr) << req;
            expectSpanEqual(*art, *standalone().span[i], req);
            EXPECT_EQ(pass.cutSpan(passArena(), w, passSchedule()),
                      nullptr);
        }
    }
}

TEST(HierarchyPass, StandaloneBuildersMatchRecordByRecordReference)
{
    // Independent reference: the hierarchy run one record at a
    // time, core = (record / burst) % cores, recording the op
    // count, instructions and hierarchy state at every cut.
    const MaterializedTrace &trace = passArena();
    const CacheHierarchy::Config &cfg = passConfig();
    const SampleSchedule sched = passSchedule();
    std::set<std::uint64_t> cuts;
    for (std::uint64_t w : kPassWarms) {
        cuts.insert(w);
        for (unsigned p = 0; p <= sched.intervals; ++p) {
            cuts.insert(w + p * sched.period);
            cuts.insert(w + p * sched.period + sched.gap);
        }
    }
    struct At
    {
        std::uint64_t op, instructions;
        CacheHierarchy::Snapshot state;
    };
    std::map<std::uint64_t, At> at;
    PostL2Ops ops;
    CacheHierarchy h(cfg);
    std::uint64_t instructions = 0;
    for (std::uint64_t r = 0; r <= passRecords(); ++r) {
        if (cuts.count(r)) {
            At &a = at[r];
            a.op = ops.paddr.size();
            a.instructions = instructions;
            h.saveState(a.state);
        }
        if (r == passRecords())
            break;
        const MaterializedTrace::ChunkView c =
            trace.chunk(r / MaterializedTrace::kChunkRecords);
        const std::size_t i = r % MaterializedTrace::kChunkRecords;
        MemRequest req;
        req.paddr = c.paddr[i];
        req.pc = c.pc[i];
        req.op = static_cast<MemOp>(c.op[i]);
        req.coreId = static_cast<std::uint16_t>(
            (r / PodSystem::kDispatchBurst) % cfg.numCores);
        instructions += c.gap[i] + 1;
        const HierarchyOutcome out = h.access(req);
        if (!out.l1Hit && !out.l2Hit) {
            ops.paddr.push_back(req.paddr);
            ops.pc.push_back(req.pc);
            ops.coreId.push_back(req.coreId);
            ops.kind.push_back(req.op == MemOp::Write
                                   ? PostL2Ops::kWrite
                                   : PostL2Ops::kRead);
        }
        for (unsigned wb = 0; wb < out.numWritebacks; ++wb) {
            ops.paddr.push_back(out.writebackAddr[wb]);
            ops.pc.push_back(0);
            ops.coreId.push_back(req.coreId);
            ops.kind.push_back(PostL2Ops::kWriteback);
        }
    }
    const auto slice = [&](std::uint64_t b, std::uint64_t e) {
        PostL2Ops out;
        out.paddr.assign(ops.paddr.begin() + b, ops.paddr.begin() + e);
        out.pc.assign(ops.pc.begin() + b, ops.pc.begin() + e);
        out.coreId.assign(ops.coreId.begin() + b,
                          ops.coreId.begin() + e);
        out.kind.assign(ops.kind.begin() + b, ops.kind.begin() + e);
        return out;
    };

    for (std::size_t i = 0; i < std::size(kPassWarms); ++i) {
        const std::uint64_t w = kPassWarms[i];
        const std::string what = "window " + std::to_string(w);
        const WarmupArtifact &warm = *standalone().warm[i];
        expectOpsEqual(warm, slice(0, at[w].op), what);
        EXPECT_EQ(warm.records, w);
        EXPECT_EQ(warm.instructions, at[w].instructions) << what;
        expectSnapshotsEqual(warm.hierarchy, at[w].state, what);

        const SampleSpanArtifact &span = *standalone().span[i];
        const std::uint64_t base = at[w].op;
        expectOpsEqual(
            span, slice(base, at[w + sched.spanRecords()].op), what);
        ASSERT_EQ(span.opGapEnd.size(), sched.intervals) << what;
        for (unsigned p = 0; p < sched.intervals; ++p) {
            const std::uint64_t start = w + p * sched.period;
            const std::uint64_t gap_end = start + sched.gap;
            EXPECT_EQ(span.opGapEnd[p], at[gap_end].op - base);
            EXPECT_EQ(span.opPeriodEnd[p],
                      at[start + sched.period].op - base);
            EXPECT_EQ(span.gapInstructions[p],
                      at[gap_end].instructions -
                          at[start].instructions);
            expectSnapshotsEqual(span.hierarchyAtTimedStart[p],
                                 at[gap_end].state, what);
        }
    }
}

TEST(HierarchyPass, AscendingCutsMatchStandalone)
{
    // The sweep's order: each window, then its span. Window 0's
    // span [1.00M, 1.08M) crosses the warm cuts of windows 1 and
    // 2 and the arena's chunk boundary.
    ASSERT_GT(kPassWarms[0] + passSchedule().spanRecords(),
              kPassWarms[2]);
    ASSERT_GT(kPassWarms[2], MaterializedTrace::kChunkRecords);
    checkOrder({"w0", "s0", "w1", "s1", "w2", "s2", "w3", "s3"});
}

TEST(HierarchyPass, DescendingCutsMatchStandalone)
{
    // Everything below the first request is stashed on the way.
    checkOrder({"s3", "w3", "s2", "w2", "s1", "w1", "s0", "w0"});
}

TEST(HierarchyPass, InterleavedCutsMatchStandalone)
{
    checkOrder({"w1", "s0", "w3", "w0", "s2", "s3", "w2", "s1"});
}

TEST(HierarchyPass, RefusesUnplannedCuts)
{
    HierarchyPass pass(passConfig());
    pass.planWarmup(kPassWarms[1]);
    EXPECT_EQ(pass.cutWarmup(passArena(), kPassWarms[0]), nullptr);
    EXPECT_EQ(pass.cutSpan(passArena(), kPassWarms[1],
                           passSchedule()),
              nullptr);
    auto art = pass.cutWarmup(passArena(), kPassWarms[1]);
    ASSERT_NE(art, nullptr);
    expectWarmEqual(*art, *standalone().warm[1], "window 1");
    // Every planned cut taken: the pass has retired.
    EXPECT_EQ(pass.cutWarmup(passArena(), kPassWarms[1]), nullptr);
}

TEST(HierarchyPass, ConcurrentAcquiresCutEachArtifactOnce)
{
    // Four threads acquire every artifact through one TraceCache
    // in different orders; each key is built once, by whichever
    // thread wins it, from the one shared pass.
    TraceCache cache(std::uint64_t{4} << 30);
    HierarchyPass pass(passConfig());
    const SampleSchedule sched = passSchedule();
    constexpr int kThreads = 4;
    for (std::uint64_t w : kPassWarms) {
        pass.planWarmup(w);
        pass.planSpan(w, sched);
        cache.plan("warmup/" + std::to_string(w), w, kThreads);
        cache.plan("sample/" + std::to_string(w), w, kThreads);
    }
    std::atomic<int> refused{0};
    std::vector<std::vector<TraceCache::EntryPtr>> got(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (int k = 0; k < 8; ++k) {
                const int j = (k + 3 * t) % 8;
                const std::uint64_t w = kPassWarms[j / 2];
                const bool warm = j % 2 == 0;
                got[t].push_back(cache.acquire(
                    (warm ? "warmup/" : "sample/") +
                        std::to_string(w),
                    w, [&](std::uint64_t) -> TraceCache::EntryPtr {
                        TraceCache::EntryPtr e;
                        if (warm)
                            e = pass.cutWarmup(passArena(), w);
                        else
                            e = pass.cutSpan(passArena(), w, sched);
                        if (!e)
                            ++refused;
                        return e ? e
                                 : std::make_shared<FakeEntry>(1);
                    }));
            }
        });
    }
    for (auto &th : pool)
        th.join();
    ASSERT_EQ(refused.load(), 0);
    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 8u);
    double by_kind = 0.0;
    for (const auto &[kind, seconds] : stats.buildSecondsByKind) {
        EXPECT_TRUE(kind == "warmup" || kind == "sample") << kind;
        by_kind += seconds;
    }
    EXPECT_NEAR(by_kind, stats.buildSeconds, 1e-9);
    for (int t = 0; t < kThreads; ++t) {
        for (int k = 0; k < 8; ++k) {
            const int j = (k + 3 * t) % 8;
            const std::string what = "thread " + std::to_string(t) +
                                     " artifact " + std::to_string(j);
            if (j % 2 == 0)
                expectWarmEqual(
                    *std::static_pointer_cast<const WarmupArtifact>(
                        got[t][k]),
                    *standalone().warm[j / 2], what);
            else
                expectSpanEqual(
                    *std::static_pointer_cast<
                        const SampleSpanArtifact>(got[t][k]),
                    *standalone().span[j / 2], what);
        }
    }
}

} // namespace
} // namespace fpc
