/**
 * @file
 * Differential tests of the packed block-granular tag stores (the
 * block design's 12-byte ways, Alloy's 8-byte TADs) against a
 * deliberately naive reference: per set, a std::list of
 * {blockId, dirty} in LRU order. Both must agree access by access
 * on hit/miss, on the victim and on whether it left dirty, in
 * functional and in timed mode.
 */

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/block_cache.hh"
#include "tenant/tenant.hh"

namespace fpc {
namespace {

/** Naive LRU block store; a 1-way store is direct-mapped. */
class RefBlockStore
{
  public:
    struct Outcome
    {
        bool hit = false;
        bool evicted = false;
        Addr victim = 0;
        bool victimDirty = false;
    };

    RefBlockStore(std::uint64_t sets, unsigned ways)
        : sets_(sets), ways_(ways)
    {
    }

    /** A demand read, or an LLC writeback that allocates dirty. */
    Outcome
    access(Addr block_id, bool writeback)
    {
        Outcome out;
        std::list<Entry> &set = sets_[block_id % sets_.size()];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->blockId != block_id)
                continue;
            out.hit = true;
            it->dirty = it->dirty || writeback;
            set.splice(set.begin(), set, it);
            return out;
        }
        if (set.size() == ways_) {
            out.evicted = true;
            out.victim = set.back().blockId;
            out.victimDirty = set.back().dirty;
            set.pop_back();
        }
        set.push_front({block_id, writeback});
        return out;
    }

    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (const std::list<Entry> &set : sets_) {
            for (const Entry &e : set)
                fn(e.blockId);
        }
    }

  private:
    struct Entry
    {
        Addr blockId;
        bool dirty;
    };

    std::vector<std::list<Entry>> sets_;
    unsigned ways_;
};

struct Op
{
    Addr addr;
    bool writeback;
};

DramSystem::Config
stackedConfig()
{
    DramSystem::Config cfg = DramSystem::Config::stackedPod();
    cfg.timing.policy = PagePolicy::Closed;
    cfg.interleaveBytes = kBlockBytes;
    return cfg;
}

std::uint64_t
dirtyEvictionsOf(const BlockCache &c)
{
    return c.dirtyBlockEvictions();
}

std::uint64_t
dirtyEvictionsOf(const AlloyCache &c)
{
    return c.dirtyEvictions();
}

std::uint64_t
counterOf(const MemorySystem &c, const char *name)
{
    std::uint64_t v = 0;
    c.visitStatGroups([&](const StatGroup &g) {
        if (const Counter *ctr = g.findCounter(name))
            v = ctr->value();
    });
    return v;
}

/**
 * Replay @p ops on @p cache and @p ref side by side, checking
 * every access and counting the reference's evictions.
 */
template <typename Cache>
void
runDifferential(Cache &cache, DramSystem &offchip,
                RefBlockStore &ref, const std::vector<Op> &ops,
                const std::string &label, std::uint64_t &evictions)
{
    evictions = 0;
    Cycle now = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Addr addr = ops[i].addr;
        const RefBlockStore::Outcome want =
            ref.access(blockNumber(addr), ops[i].writeback);
        const std::uint64_t dirty_before = dirtyEvictionsOf(cache);
        const std::uint64_t wb_hits_before =
            counterOf(cache, "writeback_hits");
        const std::uint64_t off_writes_before =
            offchip.totalBlocksWritten();
        now += 200;
        bool hit;
        if (ops[i].writeback) {
            cache.writeback(now, addr);
            hit = counterOf(cache, "writeback_hits") != wb_hits_before;
        } else {
            MemRequest req;
            req.paddr = addr;
            hit = cache.access(now, req).cacheHit;
        }
        ASSERT_EQ(hit, want.hit) << label << " op " << i;
        ASSERT_EQ(dirtyEvictionsOf(cache) - dirty_before,
                  want.victimDirty ? 1u : 0u)
            << label << " op " << i;
        // Only a dirty victim writes off chip: read misses fetch,
        // writeback misses install without an off-chip access.
        const std::uint64_t off_writes =
            cache.mode() == SimMode::Timed && want.victimDirty ? 1
                                                               : 0;
        ASSERT_EQ(offchip.totalBlocksWritten() - off_writes_before,
                  off_writes)
            << label << " op " << i;
        if (want.evicted) {
            ++evictions;
            ASSERT_FALSE(cache.contains(want.victim * kBlockBytes))
                << label << " op " << i << ": victim still cached";
        }
        ASSERT_TRUE(cache.contains(addr)) << label << " op " << i;
    }
    ref.forEachBlock([&](Addr block_id) {
        EXPECT_TRUE(cache.contains(block_id * kBlockBytes))
            << label << ": block " << block_id << " lost";
    });
}

/** 64KB block cache: 32 sets x 30 ways, MissMap never evicts. */
constexpr std::uint64_t kBlockSets = 32;
constexpr unsigned kBlockWays = 30;

/** Alloy over 1000 direct-mapped TADs. */
constexpr std::uint64_t kAlloySets = 1000;

void
checkBlock(const std::vector<Op> &ops, const std::string &label,
           std::uint64_t min_evictions)
{
    for (SimMode mode : {SimMode::Functional, SimMode::Timed}) {
        DramSystem stacked(stackedConfig());
        DramSystem offchip(DramSystem::Config::offchipPod());
        BlockCache::Config cfg;
        cfg.capacityBytes = kBlockSets * 2048;
        cfg.missMap.entries = 1u << 16;
        cfg.missMap.assoc = 16;
        BlockCache cache(cfg, stacked, offchip);
        cache.setMode(mode);
        RefBlockStore ref(kBlockSets, kBlockWays);
        const std::string tag =
            label + (mode == SimMode::Timed ? "/timed" : "/func");
        std::uint64_t evictions = 0;
        runDifferential(cache, offchip, ref, ops, tag, evictions);
        // The MissMap must never have forced an eviction the
        // reference does not model.
        EXPECT_EQ(cache.missMapEvictions(), 0u) << tag;
        EXPECT_GE(evictions, min_evictions) << tag;
    }
}

void
checkAlloy(const std::vector<Op> &ops, const std::string &label,
           std::uint64_t min_evictions)
{
    for (SimMode mode : {SimMode::Functional, SimMode::Timed}) {
        DramSystem stacked(stackedConfig());
        DramSystem offchip(DramSystem::Config::offchipPod());
        AlloyCache::Config cfg;
        cfg.capacityBytes = kAlloySets * cfg.tadBytes;
        AlloyCache cache(cfg, stacked, offchip);
        ASSERT_EQ(cache.numSets(), kAlloySets);
        cache.setMode(mode);
        RefBlockStore ref(kAlloySets, 1);
        const std::string tag =
            label + (mode == SimMode::Timed ? "/timed" : "/func");
        std::uint64_t evictions = 0;
        runDifferential(cache, offchip, ref, ops, tag, evictions);
        EXPECT_GE(evictions, min_evictions) << tag;
    }
}

/**
 * Seeded random reads and writebacks over @p pool blocks, each
 * under a tenant drawn from @p tenants (its bits at
 * kTenantAddrShift).
 */
std::vector<Op>
randomOps(std::uint64_t seed, std::uint64_t pool, std::size_t n,
          const std::vector<std::uint32_t> &tenants = {0})
{
    Rng rng(seed);
    std::vector<Op> ops(n);
    for (Op &op : ops) {
        // Square the draw to skew reuse toward low block ids.
        const double u = rng.uniform();
        const auto block = static_cast<Addr>(u * u * pool);
        const std::uint32_t tenant =
            tenants.size() > 1 ? tenants[rng.below(tenants.size())]
                               : tenants[0];
        op.addr = tenantAddrBase(tenant) | (block * kBlockBytes) |
                  rng.below(kBlockBytes);
        op.writeback = rng.chance(0.3);
    }
    return ops;
}

/**
 * Block ids that share one set and their low 30 bits and differ
 * only above: a tag compare narrower than the full id would
 * merge them. The widest variants sit just below the largest
 * 58-bit id.
 */
std::vector<Op>
highBitAliases(std::uint64_t sets, std::size_t n, std::uint64_t seed)
{
    const Addr top = ~Addr{0} >> kBlockShift;
    const Addr stride = sets << 30;
    const Addr top_base = top - top % stride;
    Rng rng(seed);
    std::vector<Op> ops(n);
    for (Op &op : ops) {
        const Addr low = 5 + rng.below(40) * sets;
        const std::uint64_t m = rng.below(4);
        const Addr id = m == 3 ? top_base + low : low + m * stride;
        op.addr = id * kBlockBytes;
        op.writeback = rng.chance(0.3);
    }
    return ops;
}

/** More than a set's worth of blocks cycling through one set. */
std::vector<Op>
conflictStorm(std::uint64_t sets, unsigned blocks, std::size_t n,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Op> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Half sequential sweeps (every access past the set size
        // evicts the LRU block), half random picks.
        const std::uint64_t k =
            i % 2 ? i / 2 % blocks : rng.below(blocks);
        ops[i].addr = (5 + k * sets) * kBlockBytes;
        ops[i].writeback = rng.chance(0.25);
    }
    return ops;
}

TEST(ReferenceModels, BlockRandomStream)
{
    checkBlock(randomOps(1, 4 * kBlockSets * kBlockWays, 40'000),
               "random", 1000);
}

TEST(ReferenceModels, BlockConflictStorm)
{
    for (unsigned blocks : {31u, 32u, 45u, 90u})
        checkBlock(conflictStorm(kBlockSets, blocks, 6'000, blocks),
                   "storm" + std::to_string(blocks), 1000);
}

TEST(ReferenceModels, BlockDirtyWritebackAllocation)
{
    // Writebacks install dirty blocks into one set; reads of new
    // blocks then push every one of them out dirty.
    std::vector<Op> ops;
    for (unsigned k = 0; k < kBlockWays; ++k)
        ops.push_back({(9 + k * kBlockSets) * kBlockBytes, true});
    for (unsigned k = kBlockWays; k < 3 * kBlockWays; ++k)
        ops.push_back({(9 + k * kBlockSets) * kBlockBytes, false});
    checkBlock(ops, "wb-alloc", 2 * kBlockWays);
}

TEST(ReferenceModels, BlockTenantAndWidestIds)
{
    // Tenants share sets and low address bits, so only the tenant
    // bits tell their blocks apart; the largest block id has all
    // 58 bits set.
    checkBlock(randomOps(3, 2 * kBlockSets * kBlockWays, 20'000,
                         {0, 1, 7, 0xfffff}),
               "tenants", 1000);
    checkBlock(highBitAliases(kBlockSets, 10'000, 4), "aliases", 1000);
    const Addr top = ~Addr{0} >> kBlockShift;
    std::vector<Op> ops;
    Rng rng(3);
    for (unsigned i = 0; i < 4'000; ++i) {
        const Addr id = top - rng.below(40) * kBlockSets;
        ops.push_back({id * kBlockBytes, rng.chance(0.3)});
    }
    checkBlock(ops, "widest", 100);
}

TEST(ReferenceModels, AlloyRandomStream)
{
    checkAlloy(randomOps(2, 3 * kAlloySets, 40'000), "random",
               1000);
}

TEST(ReferenceModels, AlloyConflictStorm)
{
    checkAlloy(conflictStorm(kAlloySets, 31, 6'000, 4), "storm",
               1000);
}

TEST(ReferenceModels, AlloyTenantAndWidestIds)
{
    checkAlloy(randomOps(6, 2 * kAlloySets, 20'000,
                         {0, 1, 7, 0xfffff}),
               "tenants", 1000);
    checkAlloy(highBitAliases(kAlloySets, 10'000, 7), "aliases", 1000);
    const Addr top = ~Addr{0} >> kBlockShift;
    std::vector<Op> ops;
    Rng rng(5);
    for (unsigned i = 0; i < 4'000; ++i) {
        const Addr id = top - rng.below(8) * kAlloySets;
        ops.push_back({id * kBlockBytes, rng.chance(0.3)});
    }
    checkAlloy(ops, "widest", 100);
}

/** Block-design counters after @p ops with a small MissMap. */
std::vector<std::uint64_t>
missMapFlushCounters(SimMode mode, const std::vector<Op> &ops)
{
    DramSystem stacked(stackedConfig());
    DramSystem offchip(DramSystem::Config::offchipPod());
    BlockCache::Config cfg;
    cfg.capacityBytes = kBlockSets * 2048;
    cfg.missMap.entries = 64;
    cfg.missMap.assoc = 4;
    BlockCache cache(cfg, stacked, offchip);
    cache.setMode(mode);
    Cycle now = 0;
    for (const Op &op : ops) {
        now += 200;
        if (op.writeback) {
            cache.writeback(now, op.addr);
        } else {
            MemRequest req;
            req.paddr = op.addr;
            cache.access(now, req);
        }
    }
    return {cache.demandAccesses(),
            cache.demandHits(),
            counterOf(cache, "writeback_hits"),
            counterOf(cache, "writeback_misses"),
            cache.missMapEvictions(),
            cache.missMapFlushedBlocks(),
            cache.dirtyBlockEvictions(),
            stacked.totalBlocksRead(),
            stacked.totalBlocksWritten(),
            offchip.totalBlocksRead(),
            offchip.totalBlocksWritten()};
}

TEST(ReferenceModels, BlockMissMapFlushPinned)
{
    // A 64-entry MissMap over ~300 touched segments: segment
    // evictions force-flush blocks the LRU reference would keep,
    // so this behavior is pinned to counters captured before the
    // way state was packed. Order: demand accesses, demand hits,
    // writeback hits/misses, MissMap evictions, flushed blocks,
    // dirty evictions, stacked blocks read/written, off-chip
    // blocks read/written.
    const std::vector<Op> ops = randomOps(11, 20'000, 30'000);
    const std::vector<std::uint64_t> functional = {
        21021, 568, 246, 8733, 20441, 29079, 8846, 0, 0, 0, 0};
    const std::vector<std::uint64_t> timed = {
        21021, 568, 246, 8733, 20441, 29079, 8846, 10228, 58618, 20453,
        8846};
    EXPECT_EQ(missMapFlushCounters(SimMode::Functional, ops),
              functional);
    EXPECT_EQ(missMapFlushCounters(SimMode::Timed, ops), timed);
}

} // namespace
} // namespace fpc
