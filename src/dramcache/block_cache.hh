/**
 * @file
 * Block-based DRAM cache (§5.2), modeled after Loh & Hill's
 * compound-access-scheduling design with MissMap [24], with the
 * paper's optimizations: 30 data blocks + 2 tag blocks per 2KB
 * row (30-way sets, tags co-located with data in the same DRAM
 * row), and a MissMap that filters misses before any DRAM access.
 *
 * A hit costs one row activation plus a tag-read CAS, a one-cycle
 * tag check and a data CAS (the tag-update CAS is taken off the
 * critical path). Both DRAMs run close-page policy with 64B
 * channel interleaving (§5.2).
 */

#ifndef FPC_DRAMCACHE_BLOCK_CACHE_HH
#define FPC_DRAMCACHE_BLOCK_CACHE_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "dram/system.hh"
#include "dramcache/block_tag.hh"
#include "dramcache/interface.hh"
#include "dramcache/missmap.hh"
#include "tenant/partition.hh"

namespace fpc {

/** Loh-Hill style block-based DRAM cache. */
class BlockCache : public MemorySystem
{
  public:
    struct Config
    {
        /** Nominal capacity (rows × 2KB, tags included). */
        std::uint64_t capacityBytes = 256ULL << 20;

        /** DRAM row size; one set occupies one row. */
        unsigned rowBytes = 2048;

        /** Data blocks per row (paper: 30 of 32). */
        unsigned dataBlocksPerRow = 30;

        MissMap::Config missMap;

        /** MissMap lookup latency in cycles (Table 4). */
        Cycle missMapLatencyCycles = 9;

        /** Allocate blocks on LLC writebacks. */
        bool allocateOnWriteback = true;

        /** Multi-tenant partitioning (tenant.* design params);
         * units are blocks, the hash unit is the block number. */
        TenantPartitionParams tenants;

        std::string name = "block";
    };

    BlockCache(const Config &config, DramSystem &stacked,
               DramSystem &offchip);

    MemSystemResult access(Cycle now, const MemRequest &req) override;
    void writeback(Cycle now, Addr block_addr) override;

    void attachIntrospection(CacheIntrospection *intro) override;
    void finalizeIntrospection() override;
    void visitStatGroups(
        const std::function<void(const StatGroup &)> &fn)
        const override;

    void
    prefetchFor(Addr paddr) const override
    {
        missmap_.prefetchSet(blockAlign(paddr));
        __builtin_prefetch(
            &ways_[setOf(paddr) * config_.dataBlocksPerRow]);
    }

    std::string designName() const override { return config_.name; }

    std::uint64_t
    demandAccesses() const override
    {
        return demand_accesses_.value();
    }

    std::uint64_t
    demandHits() const override
    {
        return hits_.value();
    }

    std::uint64_t missMapEvictions() const
    {
        return mm_evictions_.value();
    }
    std::uint64_t missMapFlushedBlocks() const
    {
        return mm_flushed_.value();
    }
    std::uint64_t dirtyBlockEvictions() const
    {
        return dirty_evictions_.value();
    }
    /** Fills bypassed by the tenant quota policy. */
    std::uint64_t quotaBypasses() const
    {
        return quota_bypass_.value();
    }

    /** Data capacity excluding in-row tags. */
    std::uint64_t
    dataCapacityBytes() const
    {
        return num_sets_ * config_.dataBlocksPerRow * kBlockBytes;
    }

    /** Is @p block_addr's block cached? (No LRU update.) */
    bool
    contains(Addr block_addr) const
    {
        return findWay(block_addr) != kNoWay;
    }

    MissMap &missMap() { return missmap_; }
    const Config &config() const { return config_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /**
     * One way, packed to 12 bytes so a 30-way set spans six cache
     * lines: the block_tag word, split into 32-bit halves so the
     * struct needs only 4-byte alignment, plus a 32-bit LRU stamp.
     * The stamp wraps like SetAssocCache::LineMeta's after 4G
     * fills and hits in one cache; past that point replacement
     * quality degrades (wrapped entries look recent) but behavior
     * stays deterministic.
     */
    struct Way
    {
        std::uint32_t tagLo = 0;
        std::uint32_t tagHi = 0;
        std::uint32_t lastUse = 0;

        std::uint64_t
        tag() const
        {
            return std::uint64_t{tagHi} << 32 | tagLo;
        }

        void
        setTag(std::uint64_t word)
        {
            tagLo = static_cast<std::uint32_t>(word);
            tagHi = static_cast<std::uint32_t>(word >> 32);
        }
    };
    static_assert(sizeof(Way) == 12);

    std::uint64_t
    setOf(Addr block_addr) const
    {
        if (partition_.enabled)
            return partition_.setOf(blockNumber(block_addr));
        return blockNumber(block_addr) & set_mask_;
    }

    /** Stacked-DRAM address of set @p set's row. */
    Addr
    rowAddr(std::uint64_t set) const
    {
        return set << row_shift_;
    }

    /** findWay() result when the block is not cached. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** Index into ways_ of @p block_addr's way, or kNoWay. */
    std::size_t findWay(Addr block_addr) const;

    /**
     * Install @p block_addr into its set; evicts LRU if needed.
     * @return false when the tenant quota bypassed the fill.
     */
    bool fillBlock(Cycle when, Addr block_addr, bool dirty);

    /** Evict one way (victim handling + MissMap bit clear). */
    void evictWay(Cycle when, std::uint64_t set, Way &way);

    /** Flush every cached block of a displaced MissMap segment. */
    void flushSegment(Cycle when, const MissMap::Victim &victim);

    Config config_;
    DramSystem &stacked_;
    DramSystem &offchip_;
    MissMap missmap_;
    std::uint64_t num_sets_;
    /** num_sets_ - 1; sets are a power of two. */
    std::uint64_t set_mask_;
    /** floorLog2(rowBytes). */
    unsigned row_shift_;
    std::uint32_t tick_ = 0;
    std::vector<Way> ways_;
    /** Per-tenant set ranges (disabled outside setpart). */
    SetPartitionSpec partition_;
    /** Per-tenant block quota (tenant.policy=quota). */
    TenantQuota quota_;
    /** Introspection sink (null = off; see introspection.hh). */
    CacheIntrospection *intro_ = nullptr;

    StatGroup stats_;
    Counter demand_accesses_;
    Counter hits_;
    Counter misses_;
    Counter dirty_evictions_;
    Counter quota_bypass_;
    Counter mm_evictions_;
    Counter mm_flushed_;
    Counter wb_hits_;
    Counter wb_misses_;
};

} // namespace fpc

#endif // FPC_DRAMCACHE_BLOCK_CACHE_HH
