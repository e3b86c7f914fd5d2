#include "sim/pod_system.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/fault.hh"
#include "common/logging.hh"

namespace fpc {

namespace {

/** Collects "group.counter" names from a design's stat groups. */
class ProbeNameCollector final : public StatVisitor
{
  public:
    ProbeNameCollector(const std::string &group,
                       std::vector<std::string> &out)
        : prefix_(group + "."), out_(out)
    {
    }

    void
    counter(const std::string &name, const std::string &,
            std::uint64_t) override
    {
        out_.push_back(prefix_ + name);
    }

  private:
    std::string prefix_;
    std::vector<std::string> &out_;
};

/** Collects counter values in the same visit order. */
class ProbeValueCollector final : public StatVisitor
{
  public:
    explicit ProbeValueCollector(std::vector<std::uint64_t> &out)
        : out_(out)
    {
    }

    void
    counter(const std::string &, const std::string &,
            std::uint64_t value) override
    {
        out_.push_back(value);
    }

  private:
    std::vector<std::uint64_t> &out_;
};

} // namespace

PodSystem::PodSystem(const PodConfig &config, TraceSource &trace,
                     MemorySystem &memory, DramSystem *stacked,
                     DramSystem &offchip)
    : config_(config), trace_(trace), memory_(memory),
      stacked_(stacked), offchip_(offchip),
      hierarchy_(config.hierarchy)
{
    FPC_ASSERT(config_.numCores == config_.hierarchy.numCores);
    FPC_ASSERT(config_.coreIpc > 0.0);
    if (config_.numTenants > 0) {
        tenant_totals_.resize(config_.numTenants);
        // Off-chip addresses always carry their owner (real
        // physical addresses in every design), so byte-exact
        // per-tenant traffic attribution lives in the DRAM
        // system itself.
        offchip_.enableTenantAccounting(config_.numTenants);
    }
    if (config_.telemetry.histograms)
        probe_ = std::make_unique<TelemetryProbe>();
    // Introspection is an exact-mode instrument: under sampling
    // the measured window is a statistical composite and the
    // shadow directory would see a punctured stream.
    if (config_.telemetry.introspectionOn() &&
        !config_.sampling.enabled) {
        CacheIntrospection::Config ic;
        ic.missAttributionStride =
            config_.telemetry.missAttributionStride;
        ic.designProbes = config_.telemetry.designProbes;
        ic.heatmaps = config_.telemetry.heatmaps;
        ic.shadowCapacityBytes =
            config_.telemetry.shadowCapacityBytes;
        intro_ = std::make_unique<CacheIntrospection>(ic);
    }
}

void
PodSystem::armIntrospection()
{
    if (!intro_ || intro_armed_)
        return;
    memory_.attachIntrospection(intro_.get());
    probe_names_ = CacheIntrospection::counterNames();
    if (config_.telemetry.designProbes) {
        memory_.visitStatGroups([this](const StatGroup &g) {
            ProbeNameCollector v(g.name(), probe_names_);
            g.visit(v);
        });
    }
    intro_armed_ = true;
}

std::vector<std::uint64_t>
PodSystem::captureProbeValues() const
{
    std::vector<std::uint64_t> vals;
    if (!intro_armed_)
        return vals;
    vals.reserve(probe_names_.size());
    intro_->appendValues(vals);
    if (config_.telemetry.designProbes) {
        memory_.visitStatGroups([&vals](const StatGroup &g) {
            ProbeValueCollector v(vals);
            g.visit(v);
        });
    }
    return vals;
}

PodSystem::Snapshot
PodSystem::capture(Cycle now) const
{
    Snapshot s;
    s.instructions = total_instructions_;
    s.now = now;
    s.records = total_records_;
    s.llcMisses = hierarchy_.l2Misses();
    s.demandAccesses = memory_.demandAccesses();
    s.demandHits = memory_.demandHits();
    s.memLatency = total_mem_latency_;
    s.offchipBytes = offchip_.totalBytes();
    s.offchipActs = offchip_.totalActivates();
    s.offchipActPreNj = offchip_.totalActPreEnergyNj();
    s.offchipBurstNj = offchip_.totalBurstEnergyNj();
    if (stacked_) {
        s.stackedBytes = stacked_->totalBytes();
        s.stackedActs = stacked_->totalActivates();
        s.stackedActPreNj = stacked_->totalActPreEnergyNj();
        s.stackedBurstNj = stacked_->totalBurstEnergyNj();
    }
    if (!tenant_totals_.empty()) {
        s.tenants = tenant_totals_;
        for (unsigned t = 0; t < s.tenants.size(); ++t)
            s.tenants[t].offchipBytes = offchip_.tenantBytes(t);
    }
    if (intro_armed_)
        s.probeValues = captureProbeValues();
    return s;
}

void
PodSystem::runWarmup(std::uint64_t warmup_refs)
{
    memory_.setMode(config_.warmupMode);
    const bool timed = config_.warmupMode == SimMode::Timed;
    const unsigned cores = config_.numCores;
    const Cycle l1l2 =
        config_.l1HitLatency + config_.l2HitLatency;

    // Per-core clocks approximate issue times for the Timed
    // baseline (blocking in-order issue); Functional mode never
    // reads them. Dispatch is round-robin and therefore identical
    // in both modes, which is what makes the post-warmup state
    // bit-identical.
    std::vector<Cycle> clock(cores, 0);
    std::vector<bool> alive(cores, true);
    unsigned num_alive = cores;
    unsigned core = 0;

    // Dispatch hands each core a burst of kDispatchBurst
    // consecutive records rather than rotating every record: the
    // event-queue loop lets a core ride its L1 hits through the
    // consecutive same-block repeats of the stream, and per-record
    // rotation would scatter those repeats across cores and feed
    // the L2 nearly every record. The L2-miss stream the DRAM
    // cache trains on is essentially dispatch-invariant, so this
    // only restores the L1 locality the timing loop exhibits.
    std::uint64_t pulled = 0;

    // Deferred memory-operation FIFO. Records that hit in the
    // hierarchy never touch the memory system, so its demand
    // accesses and writebacks can be postponed across them as long
    // as their mutual order is preserved — the memory system then
    // observes exactly the sequence immediate processing would
    // produce, but each operation has had kMemQueue slots of
    // prefetch distance for its tag/tracking state.
    struct PendingMemOp
    {
        MemRequest req;
        std::uint32_t computeGap;
        bool isWriteback;
    };
    constexpr unsigned kMemQueue = 8; // power of two
    PendingMemOp memq[kMemQueue];
    unsigned mem_head = 0;
    unsigned mem_count = 0;

    auto noteDemand = [&](const MemRequest &req,
                          const MemSystemResult &res) {
        if (tenant_totals_.empty())
            return;
        TenantMetrics &tm = tenant_totals_[req.tenantId];
        ++tm.demandAccesses;
        tm.demandHits += res.cacheHit ? 1 : 0;
    };
    auto drainOne = [&]() {
        const PendingMemOp &op = memq[mem_head];
        mem_head = (mem_head + 1) & (kMemQueue - 1);
        --mem_count;
        const unsigned op_core = op.req.coreId;
        if (op.isWriteback) {
            memory_.writeback(clock[op_core], op.req.paddr);
        } else if (timed) {
            const Cycle compute = static_cast<Cycle>(
                static_cast<double>(op.computeGap) /
                config_.coreIpc);
            const Cycle issue = clock[op_core] + compute + l1l2;
            MemSystemResult res = memory_.access(issue, op.req);
            noteDemand(op.req, res);
            clock[op_core] =
                op.req.op == MemOp::Read ? res.doneAt : issue;
        } else {
            noteDemand(op.req, memory_.access(0, op.req));
        }
    };
    auto enqueue = [&](const PendingMemOp &op) {
        if (mem_count == kMemQueue)
            drainOne();
        memq[(mem_head + mem_count) & (kMemQueue - 1)] = op;
        ++mem_count;
        memory_.prefetchFor(op.req.paddr);
        if (mem_count > kMemQueue / 2) {
            memory_.prefetchFor2(
                memq[(mem_head + kMemQueue / 2) & (kMemQueue - 1)]
                    .req.paddr);
        }
    };

    auto process = [&](const TraceRecord &rec) {
        ++total_records_;
        total_instructions_ += rec.computeGap + 1;

        HierarchyOutcome out = hierarchy_.access(rec.req);
        if (!tenant_totals_.empty()) {
            TenantMetrics &tm = tenant_totals_[rec.req.tenantId];
            ++tm.traceRecords;
            tm.instructions += rec.computeGap + 1;
            tm.llcMisses += out.llcMiss() ? 1 : 0;
        }
        if (!out.l1Hit && !out.l2Hit) {
            PendingMemOp op;
            op.req = rec.req;
            op.computeGap = rec.computeGap;
            op.isWriteback = false;
            enqueue(op);
        }
        for (unsigned i = 0; i < out.numWritebacks; ++i) {
            PendingMemOp op;
            op.req.paddr = out.writebackAddr[i];
            op.req.coreId = rec.req.coreId;
            op.computeGap = 0;
            op.isWriteback = true;
            enqueue(op);
        }
    };

    TraceRecord rec;
    while (pulled < warmup_refs && num_alive > 0) {
        // Deadline watchdog: one predicted-null pointer test per
        // dispatch burst (~kDispatchBurst records), so a wedged
        // point unwinds within a burst of the flag going up.
        throwIfCancelled(config_.cancel);
        if (!alive[core]) {
            core = (core + 1 == cores) ? 0 : core + 1;
            continue;
        }

        // Zero-copy fast path: consume the source's ready batch in
        // place. Only the lightweight loop can do this — the
        // timing loop's record-to-core dispatch is decided one
        // record at a time by the event queue.
        TraceRecord *span = nullptr;
        std::size_t avail = trace_.acquire(core, span);
        if (avail > 0) {
            const std::uint64_t burst_left =
                kDispatchBurst - (pulled & (kDispatchBurst - 1));
            const std::uint64_t take = std::min<std::uint64_t>(
                {avail, burst_left, warmup_refs - pulled});
            for (std::uint64_t i = 0; i < take; ++i) {
                span[i].req.coreId =
                    static_cast<std::uint16_t>(core);
                process(span[i]);
            }
            trace_.skip(take);
            pulled += take;
            if ((pulled & (kDispatchBurst - 1)) == 0)
                core = (core + 1 == cores) ? 0 : core + 1;
            continue;
        }

        // Per-record fallback for sources without batch access.
        if (!trace_.next(core, rec)) {
            alive[core] = false;
            --num_alive;
            core = (core + 1 == cores) ? 0 : core + 1;
            continue;
        }
        rec.req.coreId = static_cast<std::uint16_t>(core);
        ++pulled;
        if ((pulled & (kDispatchBurst - 1)) == 0)
            core = (core + 1 == cores) ? 0 : core + 1;
        process(rec);
    }
    while (mem_count > 0)
        drainOne();

    // Phase boundary: the measurement loop restarts time at zero
    // from a drained memory system, so the measured window is
    // independent of how warmup was simulated.
    memory_.setMode(SimMode::Timed);
    if (stacked_)
        stacked_->resetTiming();
    offchip_.resetTiming();
}

HierarchyPass::HierarchyPass(const CacheHierarchy::Config &cfg)
    : cfg_(cfg), start_(0), pos_(0)
{
}

HierarchyPass::HierarchyPass(const CacheHierarchy::Config &cfg,
                             const WarmupArtifact &start)
    : cfg_(cfg), start_(start.records), pos_(start.records),
      instructions_(start.instructions)
{
    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_);
    hierarchy_->restoreState(start.hierarchy);
}

HierarchyPass::SpanId
HierarchyPass::spanId(std::uint64_t warm, const SampleSchedule &sched)
{
    return {warm, sched.intervals, sched.period, sched.gap,
            sched.ramp};
}

std::unique_lock<std::mutex>
HierarchyPass::lock()
{
    std::unique_lock<std::mutex> held(mutex_, std::try_to_lock);
    if (!held.owns_lock()) {
        const auto t0 = std::chrono::steady_clock::now();
        held.lock();
        TraceCache::noteBuildWait(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    return held;
}

void
HierarchyPass::planWarmup(std::uint64_t warm)
{
    std::unique_lock<std::mutex> held = lock();
    FPC_ASSERT(start_ == 0 && pos_ == start_);
    if (pendingWarm_.insert(warm).second)
        ++cuts_[warm].snapshotUses;
}

void
HierarchyPass::planSpan(std::uint64_t warm,
                        const SampleSchedule &sched)
{
    std::unique_lock<std::mutex> held = lock();
    FPC_ASSERT(pos_ == start_ && warm >= start_);
    if (!pendingSpans_.insert(spanId(warm, sched)).second)
        return;
    cuts_[warm];
    for (unsigned p = 0; p < sched.intervals; ++p) {
        const std::uint64_t period_start = warm + p * sched.period;
        ++cuts_[period_start + sched.gap].snapshotUses;
        cuts_[period_start + sched.period];
    }
}

void
HierarchyPass::run(const MaterializedTrace &trace, std::uint64_t stop)
{
    // Bit-compatible with PodSystem::runWarmup's functional path:
    // the same round-robin burst dispatch from record 0, and ops
    // appended in enqueue order — exactly the order the deferred
    // FIFO hands them to the memory system (FIFOs preserve order,
    // and in functional mode the cycle argument is always 0, so
    // *when* an op drains is irrelevant). Every chunk but the
    // last holds exactly kChunkRecords, so the cursor is pure
    // arithmetic on the record index.
    constexpr unsigned kBurst = PodSystem::kDispatchBurst;
    const unsigned cores = cfg_.numCores;
    unsigned core = static_cast<unsigned>((pos_ / kBurst) % cores);
    std::size_t ci = static_cast<std::size_t>(
        pos_ / MaterializedTrace::kChunkRecords);
    std::size_t off = static_cast<std::size_t>(
        pos_ % MaterializedTrace::kChunkRecords);
    CacheHierarchy &hierarchy = *hierarchy_;
    std::uint64_t instructions = instructions_;
    MemRequest req;
    while (pos_ < stop) {
        const MaterializedTrace::ChunkView c = trace.chunk(ci);
        const std::uint64_t burst_left =
            kBurst - (pos_ & (kBurst - 1));
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(
                {static_cast<std::uint64_t>(c.records - off),
                 burst_left, stop - pos_}));
        for (std::size_t i = 0; i < take; ++i) {
            req.paddr = c.paddr[off + i];
            req.pc = c.pc[off + i];
            req.op = static_cast<MemOp>(c.op[off + i]);
            req.coreId = static_cast<std::uint16_t>(core);
            instructions += c.gap[off + i] + 1;

            HierarchyOutcome out = hierarchy.access(req);
            if (!out.l1Hit && !out.l2Hit) {
                ops_.paddr.push_back(req.paddr);
                ops_.pc.push_back(req.pc);
                ops_.coreId.push_back(req.coreId);
                ops_.kind.push_back(req.op == MemOp::Write
                                        ? PostL2Ops::kWrite
                                        : PostL2Ops::kRead);
            }
            for (unsigned w = 0; w < out.numWritebacks; ++w) {
                ops_.paddr.push_back(out.writebackAddr[w]);
                ops_.pc.push_back(0);
                ops_.coreId.push_back(req.coreId);
                ops_.kind.push_back(PostL2Ops::kWriteback);
            }
        }
        pos_ += take;
        off += take;
        if (off == c.records) {
            off = 0;
            ++ci;
        }
        if ((pos_ & (kBurst - 1)) == 0)
            core = (core + 1 == cores) ? 0 : core + 1;
    }
    instructions_ = instructions;
}

void
HierarchyPass::advanceTo(const MaterializedTrace &trace,
                         std::uint64_t target)
{
    FPC_ASSERT(trace.size() >= target);
    if (!hierarchy_)
        hierarchy_ = std::make_unique<CacheHierarchy>(cfg_);
    try {
        for (;;) {
            auto at = cuts_.find(pos_);
            if (at != cuts_.end() && !at->second.reached) {
                Cut &cut = at->second;
                cut.op = opBase_ + ops_.paddr.size();
                cut.instructions = instructions_;
                cut.reached = true;
                if (cut.snapshotUses > 0) {
                    cut.snapshot =
                        std::make_unique<CacheHierarchy::Snapshot>();
                    hierarchy_->saveState(*cut.snapshot);
                }
            }
            if (pos_ >= target)
                return;
            auto next = cuts_.upper_bound(pos_);
            run(trace, next == cuts_.end()
                           ? target
                           : std::min(target, next->first));
        }
    } catch (...) {
        broken_ = true;
        throw;
    }
}

CacheHierarchy::Snapshot
HierarchyPass::takeSnapshot(Cut &cut)
{
    FPC_ASSERT(cut.snapshot && cut.snapshotUses > 0);
    if (--cut.snapshotUses > 0)
        return *cut.snapshot;
    CacheHierarchy::Snapshot out = std::move(*cut.snapshot);
    cut.snapshot.reset();
    return out;
}

void
HierarchyPass::retireIfDone()
{
    if (!pendingWarm_.empty() || !pendingSpans_.empty())
        return;
    hierarchy_.reset();
    prefix_.reset();
    ops_ = PostL2Ops{};
    cuts_.clear();
}

namespace {

/** Append ops [begin, end) of src to dst. */
void
appendOps(const PostL2Ops &src, std::uint64_t begin, std::uint64_t end,
          PostL2Ops &dst)
{
    dst.paddr.insert(dst.paddr.end(), src.paddr.begin() + begin,
                     src.paddr.begin() + end);
    dst.pc.insert(dst.pc.end(), src.pc.begin() + begin,
                  src.pc.begin() + end);
    dst.coreId.insert(dst.coreId.end(), src.coreId.begin() + begin,
                      src.coreId.begin() + end);
    dst.kind.insert(dst.kind.end(), src.kind.begin() + begin,
                    src.kind.begin() + end);
}

} // namespace

void
HierarchyPass::copyOps(std::uint64_t begin, std::uint64_t end,
                       PostL2Ops &dst) const
{
    const std::size_t n = dst.paddr.size() + (end - begin);
    dst.paddr.reserve(n);
    dst.pc.reserve(n);
    dst.coreId.reserve(n);
    dst.kind.reserve(n);
    const std::uint64_t split = std::min(end, opBase_);
    if (begin < split)
        appendOps(*prefix_, begin, split, dst);
    begin = std::max(begin, opBase_);
    if (begin < end)
        appendOps(ops_, begin - opBase_, end - opBase_, dst);
}

std::shared_ptr<const WarmupArtifact>
HierarchyPass::cutWarmup(const MaterializedTrace &trace,
                         std::uint64_t warm)
{
    std::unique_lock<std::mutex> held = lock();
    if (broken_ || pendingWarm_.erase(warm) == 0)
        return nullptr;
    advanceTo(trace, warm);
    Cut &cut = cuts_.at(warm);
    auto art = std::make_shared<WarmupArtifact>();
    copyOps(0, cut.op, *art);
    if (cut.op >= opBase_) {
        // The window now holds every op before its cut: keep it as
        // the prefix and drop the pass's copy of those ops.
        prefix_ = art;
        PostL2Ops tail;
        appendOps(ops_, cut.op - opBase_, ops_.paddr.size(), tail);
        ops_ = std::move(tail);
        opBase_ = cut.op;
    }
    art->hierarchy = takeSnapshot(cut);
    art->records = warm;
    art->instructions = cut.instructions;
    art->hierarchyBytes = hierarchy_->stateBytes();
    retireIfDone();
    return art;
}

std::shared_ptr<const SampleSpanArtifact>
HierarchyPass::cutSpan(const MaterializedTrace &trace,
                       std::uint64_t warm,
                       const SampleSchedule &sched)
{
    std::unique_lock<std::mutex> held = lock();
    if (broken_ || pendingSpans_.erase(spanId(warm, sched)) == 0)
        return nullptr;
    advanceTo(trace, warm + sched.spanRecords());
    const Cut &first = cuts_.at(warm);
    auto art = std::make_shared<SampleSpanArtifact>();
    art->schedule = sched;
    copyOps(first.op, cuts_.at(warm + sched.spanRecords()).op, *art);
    for (unsigned p = 0; p < sched.intervals; ++p) {
        const std::uint64_t period_start = warm + p * sched.period;
        const Cut &begin = cuts_.at(period_start);
        Cut &gap_end = cuts_.at(period_start + sched.gap);
        art->opGapEnd.push_back(gap_end.op - first.op);
        art->gapInstructions.push_back(gap_end.instructions -
                                       begin.instructions);
        art->hierarchyAtTimedStart.push_back(takeSnapshot(gap_end));
        art->opPeriodEnd.push_back(
            cuts_.at(period_start + sched.period).op - first.op);
    }
    art->hierarchyBytes =
        static_cast<std::uint64_t>(sched.intervals) *
        hierarchy_->stateBytes();
    retireIfDone();
    return art;
}

std::shared_ptr<const WarmupArtifact>
PodSystem::buildWarmupArtifact(const MaterializedTrace &trace,
                               const CacheHierarchy::Config &hier_cfg,
                               std::uint64_t warm_records)
{
    HierarchyPass pass(hier_cfg);
    pass.planWarmup(warm_records);
    return pass.cutWarmup(trace, warm_records);
}

std::shared_ptr<const SampleSpanArtifact>
PodSystem::buildSampleSpanArtifact(
    const MaterializedTrace &trace,
    const CacheHierarchy::Config &hier_cfg,
    const WarmupArtifact &warm_art, std::uint64_t warm_records,
    const SampleSchedule &sched)
{
    FPC_ASSERT(warm_art.records == warm_records);
    HierarchyPass pass(hier_cfg, warm_art);
    pass.planSpan(warm_records, sched);
    return pass.cutSpan(trace, warm_records, sched);
}

void
PodSystem::replayOps(const PostL2Ops &ops, std::size_t begin,
                     std::size_t end)
{
    MemRequest req;
    for (std::size_t i = begin; i < end; ++i) {
        if ((i & 0xfff) == 0)
            throwIfCancelled(config_.cancel);
        // Same effective two-stage tag/payload prefetch
        // distances the deferred FIFO gives the in-band warmup
        // loop (stage 1 a full queue ahead, stage 2 half plus
        // the in-flight drain slot).
        if (i + 8 < end)
            memory_.prefetchFor(ops.paddr[i + 8]);
        if (i + 5 < end)
            memory_.prefetchFor2(ops.paddr[i + 5]);
        const std::uint8_t kind = ops.kind[i];
        if (kind == PostL2Ops::kWriteback) {
            memory_.writeback(0, ops.paddr[i]);
        } else {
            req.paddr = ops.paddr[i];
            req.pc = ops.pc[i];
            req.op = kind == PostL2Ops::kWrite ? MemOp::Write
                                               : MemOp::Read;
            req.coreId = ops.coreId[i];
            memory_.access(0, req);
        }
    }
}

void
PodSystem::applyWarmup(const WarmupArtifact &artifact)
{
    FPC_ASSERT(config_.warmupMode == SimMode::Functional &&
               !config_.allTimedWarmup);
    hierarchy_.restoreState(artifact.hierarchy);

    memory_.setMode(SimMode::Functional);
    replayOps(artifact, 0, artifact.paddr.size());
    total_records_ += artifact.records;
    total_instructions_ += artifact.instructions;

    // Same phase boundary as runWarmup.
    memory_.setMode(SimMode::Timed);
    if (stacked_)
        stacked_->resetTiming();
    offchip_.resetTiming();
}

void
PodSystem::recordInterval(Snapshot &prev, Cycle now)
{
    const Snapshot cur = capture(now);
    IntervalSample s;
    s.records = cur.records - prev.records;
    s.instructions = cur.instructions - prev.instructions;
    s.cycles = cur.now - prev.now;
    s.llcMisses = cur.llcMisses - prev.llcMisses;
    s.demandAccesses = cur.demandAccesses - prev.demandAccesses;
    s.demandHits = cur.demandHits - prev.demandHits;
    s.memLatencyCycles = cur.memLatency - prev.memLatency;
    s.offchipBytes = cur.offchipBytes - prev.offchipBytes;
    s.stackedBytes = cur.stackedBytes - prev.stackedBytes;
    s.offchipActs = cur.offchipActs - prev.offchipActs;
    s.stackedActs = cur.stackedActs - prev.stackedActs;
    s.tenants.resize(cur.tenants.size());
    for (std::size_t t = 0; t < cur.tenants.size(); ++t) {
        TenantMetrics &tm = s.tenants[t];
        const TenantMetrics &e = cur.tenants[t];
        const TenantMetrics &p = prev.tenants[t];
        tm.traceRecords = e.traceRecords - p.traceRecords;
        tm.instructions = e.instructions - p.instructions;
        tm.llcMisses = e.llcMisses - p.llcMisses;
        tm.demandAccesses = e.demandAccesses - p.demandAccesses;
        tm.demandHits = e.demandHits - p.demandHits;
        tm.memLatencyCycles =
            e.memLatencyCycles - p.memLatencyCycles;
        tm.offchipBytes = e.offchipBytes - p.offchipBytes;
    }
    s.probeValues.resize(cur.probeValues.size());
    for (std::size_t i = 0; i < cur.probeValues.size(); ++i)
        s.probeValues[i] =
            cur.probeValues[i] - prev.probeValues[i];
    intervals_.push_back(std::move(s));
    if (record_epoch_energy_) {
        epoch_energy_.push_back(
            {cur.offchipActPreNj - prev.offchipActPreNj,
             cur.offchipBurstNj - prev.offchipBurstNj,
             cur.stackedActPreNj - prev.stackedActPreNj,
             cur.stackedBurstNj - prev.stackedBurstNj});
    }
    prev = cur;
}

Cycle
PodSystem::runMeasure(std::uint64_t measure_refs, bool measured,
                      Cycle start_now, MeasureCarry *carry)
{
    const std::uint64_t stop = total_records_ + measure_refs;

    // Interval epochs close on the pod-global record counter —
    // per-point work is single-threaded and record consumption
    // is in stream order, so boundaries are deterministic and
    // independent of the sweep's job count. Integer deltas
    // telescope: summing the intervals reproduces run()'s
    // aggregate deltas bit-exactly because the first prev here
    // and run()'s start snapshot are the same capture(0), and
    // the final close below matches its end capture.
    const std::uint64_t interval =
        measured ? config_.telemetry.intervalRecords : 0;
    std::uint64_t next_boundary =
        interval ? total_records_ + interval : 0;
    Snapshot prev;
    if (interval)
        prev = capture(start_now);

    // Hot-path distribution probe: one predictable null test per
    // site when telemetry is off.
    TelemetryProbe *probe = measured ? probe_.get() : nullptr;
    // Miss-attribution shadow probe: same null-when-off pattern;
    // armed only once run() reached the measurement boundary.
    CacheIntrospection *intro =
        measured && intro_armed_ ? intro_.get() : nullptr;
    DramSystem *occupancy_dram = stacked_ ? stacked_ : &offchip_;

    EventQueue<unsigned> ready;
    if (carry && carry->primed) {
        for (unsigned c = 0; c < config_.numCores; ++c)
            ready.schedule(carry->readyAt[c], c);
    } else {
        for (unsigned c = 0; c < config_.numCores; ++c)
            ready.schedule(start_now, c);
    }

    // Outstanding load-miss completion times per core, bounded by
    // mlpPerCore: a fixed-size window (at most mlp + 1 entries
    // live at once) replaces the heap-allocating vector loop. A
    // full window stalls the core until the oldest miss returns.
    const unsigned mlp = std::max(1u, config_.mlpPerCore);
    const unsigned cap = mlp + 1;
    std::vector<Cycle> window(
        static_cast<std::size_t>(config_.numCores) * cap);
    std::vector<unsigned> depth(config_.numCores, 0);
    if (carry && carry->primed) {
        window = carry->window;
        depth = carry->depth;
    }

    // Batch consumption for core-agnostic sources: the event
    // queue decides record-to-core dispatch one record at a time,
    // but the records themselves come in stream order, so a span
    // acquired once can feed many iterations (two fewer virtual
    // calls per record on the hottest loop). The consumed prefix
    // is skip()ped when the span drains and on exit, keeping the
    // source position exact for subsequent run() calls.
    // Core-routed sources (a tenant mix) must not ride one span
    // across cores; they dispatch per record via next().
    const bool agnostic = trace_.coreAgnostic();
    TraceRecord *span = nullptr;
    std::size_t span_len = 0;
    std::size_t span_pos = 0;

    Cycle now = start_now;
    while (!ready.empty() && total_records_ < stop) {
        // Cooperative cancellation at batch boundaries: one
        // predicted-null pointer test every 4096 records keeps
        // the hot loop unmeasurably close to free when no
        // deadline is armed.
        if ((total_records_ & 0xfff) == 0)
            throwIfCancelled(config_.cancel);
        auto [when, core] = ready.pop();
        now = std::max(now, when);

        TraceRecord rec;
        if (!agnostic) {
            if (!trace_.next(core, rec))
                continue; // Tenant stream exhausted or idle core.
        } else if (span_pos < span_len) {
            rec = span[span_pos++];
        } else {
            if (span_pos > 0) {
                trace_.skip(span_pos);
                span_pos = 0;
                span_len = 0;
            }
            span_len = trace_.acquire(core, span);
            if (span_len > 0) {
                rec = span[span_pos++];
            } else if (!trace_.next(core, rec)) {
                continue; // Trace exhausted: core stops issuing.
            }
        }
        rec.req.coreId = static_cast<std::uint16_t>(core);
        ++total_records_;
        total_instructions_ += rec.computeGap + 1;

        // Compute phase: gap instructions at the core's base IPC.
        const Cycle compute = static_cast<Cycle>(
            static_cast<double>(rec.computeGap) / config_.coreIpc);
        const Cycle issue_at = now + compute;

        // Memory phase.
        Cycle ready_at;
        bool long_miss = false;
        HierarchyOutcome out = hierarchy_.access(rec.req);
        TenantMetrics *tm = nullptr;
        if (!tenant_totals_.empty()) {
            tm = &tenant_totals_[rec.req.tenantId];
            ++tm->traceRecords;
            tm->instructions += rec.computeGap + 1;
            tm->llcMisses += out.llcMiss() ? 1 : 0;
        }
        const bool is_load = rec.req.op == MemOp::Read;
        if (out.l1Hit) {
            ready_at = issue_at + config_.l1HitLatency;
        } else if (out.l2Hit) {
            ready_at = issue_at + config_.l1HitLatency +
                       config_.l2HitLatency;
        } else {
            const Cycle mem_issue = issue_at +
                                    config_.l1HitLatency +
                                    config_.l2HitLatency;
            if (probe && probe->tickBankSample())
                probe->sampleBankOccupancy(
                    occupancy_dram->busyBanks(mem_issue));
            MemSystemResult res =
                memory_.access(mem_issue, rec.req);
            if (intro)
                intro->observeDemand(rec.req.paddr, res.cacheHit);
            ready_at = res.doneAt;
            if (res.doneAt > mem_issue)
                total_mem_latency_ += res.doneAt - mem_issue;
            if (probe)
                probe->sampleAccessLatency(
                    res.doneAt > mem_issue
                        ? res.doneAt - mem_issue
                        : 0);
            if (tm) {
                ++tm->demandAccesses;
                tm->demandHits += res.cacheHit ? 1 : 0;
                if (res.doneAt > mem_issue)
                    tm->memLatencyCycles +=
                        res.doneAt - mem_issue;
            }
            long_miss = true;
        }
        // Dirty evictions forced out of the L2 go to memory.
        for (unsigned i = 0; i < out.numWritebacks; ++i) {
            memory_.writeback(issue_at + config_.l1HitLatency +
                                  config_.l2HitLatency,
                              out.writebackAddr[i]);
        }

        if (!is_load) {
            // Stores retire without blocking the core.
            ready_at = issue_at + config_.l1HitLatency;
        } else if (long_miss) {
            // The OoO window hides load misses until mlp are in
            // flight; then the core stalls for the oldest one.
            Cycle *win = &window[static_cast<std::size_t>(core) *
                                 cap];
            unsigned n = depth[core];
            unsigned kept = 0;
            for (unsigned i = 0; i < n; ++i) {
                if (win[i] > issue_at)
                    win[kept++] = win[i];
            }
            n = kept;
            win[n++] = ready_at;
            if (n <= mlp) {
                ready_at = issue_at + config_.l1HitLatency;
            } else {
                unsigned oldest = 0;
                for (unsigned i = 1; i < n; ++i) {
                    if (win[i] < win[oldest])
                        oldest = i;
                }
                ready_at = std::max(win[oldest],
                                    issue_at +
                                        config_.l1HitLatency);
                win[oldest] = win[--n];
            }
            depth[core] = n;
            if (probe)
                probe->sampleMlpWindow(n);
        }

        ready.schedule(ready_at, core);

        if (interval && total_records_ >= next_boundary) {
            recordInterval(prev, now);
            next_boundary = total_records_ + interval;
        }
    }
    if (span_pos > 0)
        trace_.skip(span_pos);

    if (carry) {
        // A core that hit trace exhaustion was dropped from the
        // queue; re-arm it at the final cycle.
        carry->readyAt.assign(config_.numCores, now);
        while (!ready.empty()) {
            const auto [when, core] = ready.pop();
            carry->readyAt[core] = when;
        }
        carry->window = std::move(window);
        carry->depth = std::move(depth);
        carry->primed = true;
    }

    // Finalize-time introspection walks (set occupancy, touched
    // blocks of resident pages) happen before the final epoch
    // close so they land both in the last interval delta and in
    // run()'s aggregate — probe columns keep telescoping.
    if (intro)
        memory_.finalizeIntrospection();

    // Close the final (possibly partial) epoch so the intervals
    // always sum to the aggregate. `now` can advance past the
    // last boundary even with zero records (exhausted-trace event
    // pops), so cycles participate in the emptiness test. The
    // finalize walks above can move probe counters without
    // records or cycles advancing, so they participate too.
    if (interval &&
        (total_records_ != prev.records || now != prev.now ||
         (intro && captureProbeValues() != prev.probeValues)))
        recordInterval(prev, now);
    return now;
}

RunMetrics
PodSystem::run(std::uint64_t warmup_refs,
               std::uint64_t measure_refs)
{
    if (warmup_refs > 0) {
        if (config_.allTimedWarmup) {
            // Legacy all-timed engine: warmup pays the full
            // event-queue timing loop. Drain the channels at the
            // boundary as the lightweight paths do. Not a
            // measured window: telemetry stays quiet.
            runMeasure(warmup_refs, false);
            if (stacked_)
                stacked_->resetTiming();
            offchip_.resetTiming();
        } else {
            runWarmup(warmup_refs);
        }
    }

    // Arm introspection only for a real measured window: a
    // warmup-only run() must neither attach the design hooks nor
    // walk the warm caches at its (empty) measurement boundary.
    if (measure_refs > 0)
        armIntrospection();

    const Snapshot start = capture(0);
    const Cycle end_now = runMeasure(measure_refs, true);
    const Snapshot end = capture(end_now);

    RunMetrics m;
    m.instructions = end.instructions - start.instructions;
    m.cycles = end.now - start.now;
    m.traceRecords = end.records - start.records;
    m.llcMisses = end.llcMisses - start.llcMisses;
    m.demandAccesses = end.demandAccesses - start.demandAccesses;
    m.demandHits = end.demandHits - start.demandHits;
    m.memLatencyCycles = end.memLatency - start.memLatency;
    m.offchipBytes = end.offchipBytes - start.offchipBytes;
    m.stackedBytes = end.stackedBytes - start.stackedBytes;
    m.offchipActs = end.offchipActs - start.offchipActs;
    m.stackedActs = end.stackedActs - start.stackedActs;
    m.offchipActPreNj = end.offchipActPreNj - start.offchipActPreNj;
    m.offchipBurstNj = end.offchipBurstNj - start.offchipBurstNj;
    m.stackedActPreNj = end.stackedActPreNj - start.stackedActPreNj;
    m.stackedBurstNj = end.stackedBurstNj - start.stackedBurstNj;
    m.tenants.resize(end.tenants.size());
    for (std::size_t t = 0; t < end.tenants.size(); ++t) {
        TenantMetrics &tm = m.tenants[t];
        const TenantMetrics &e = end.tenants[t];
        const TenantMetrics &s = start.tenants[t];
        tm.traceRecords = e.traceRecords - s.traceRecords;
        tm.instructions = e.instructions - s.instructions;
        tm.llcMisses = e.llcMisses - s.llcMisses;
        tm.demandAccesses = e.demandAccesses - s.demandAccesses;
        tm.demandHits = e.demandHits - s.demandHits;
        tm.memLatencyCycles =
            e.memLatencyCycles - s.memLatencyCycles;
        tm.offchipBytes = e.offchipBytes - s.offchipBytes;
    }
    m.probeValues.resize(end.probeValues.size());
    for (std::size_t i = 0; i < end.probeValues.size(); ++i)
        m.probeValues[i] =
            end.probeValues[i] - start.probeValues[i];
    return m;
}

SampledRun
PodSystem::runSampled(std::uint64_t span_refs,
                      const SampleSpanArtifact &span_art)
{
    const SamplingConfig &sc = config_.sampling;
    FPC_ASSERT(sc.enabled);
    // Sampling rides the functional fast path; the legacy
    // all-timed engine has nothing cheap to fast-forward with,
    // and the span artifact carries no per-tenant attribution.
    FPC_ASSERT(!config_.allTimedWarmup &&
               config_.warmupMode == SimMode::Functional);
    FPC_ASSERT(tenant_totals_.empty());

    // The schedule is pure record arithmetic — it can't depend on
    // timing or thread count — and must be the one the artifact
    // was cut for.
    const SampleSchedule sched =
        computeSampleSchedule(sc, span_refs);
    FPC_ASSERT(sched.intervals == span_art.schedule.intervals &&
               sched.period == span_art.schedule.period &&
               sched.gap == span_art.schedule.gap &&
               sched.ramp == span_art.schedule.ramp &&
               sched.measure == span_art.schedule.measure);
    const std::size_t ramp_epochs = sched.rampEpochs;

    const auto seconds =
        [](std::chrono::steady_clock::time_point t0) {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                .count();
        };

    SampledRun out;
    std::vector<double> interval_ipc;
    std::uint64_t op_start = 0;
    Cycle clock = 0;
    MeasureCarry carry;
    for (unsigned i = 0; i < sched.intervals; ++i) {
        auto t0 = std::chrono::steady_clock::now();

        // Gap: replay the artifact's post-L2 ops into this
        // design's memory system (same functional-mode pattern as
        // applyWarmup), fast-forward the trace cursor past the
        // records they came from, and land on the artifact's
        // hierarchy snapshot at the timed start.
        const std::uint64_t op_end = span_art.opGapEnd[i];
        memory_.setMode(SimMode::Functional);
        replayOps(span_art, op_start, op_end);
        if (sched.gap > 0)
            trace_.fastForward(sched.gap);
        total_records_ += sched.gap;
        total_instructions_ += span_art.gapInstructions[i];
        hierarchy_.restoreState(
            span_art.hierarchyAtTimedStart[i]);
        out.replayedOps += op_end - op_start;
        out.skippedRecords += sched.gap;
        op_start = span_art.opPeriodEnd[i];

        // Back to timed mode — but unlike the warmup boundary,
        // no channel drain: a gap takes zero simulated time, so
        // each period's timed stretch continues from the previous
        // one's end cycle with the DRAM queue backlog and bank
        // busy windows intact. Resetting here instead would make
        // every interval start from an unloaded memory system and
        // systematically underestimate queueing latency (the span
        // as a whole still starts from the clean post-warmup
        // boundary, exactly like an exact run's measure window).
        memory_.setMode(SimMode::Timed);
        out.ffSeconds += seconds(t0);

        t0 = std::chrono::steady_clock::now();
        const std::size_t before = intervals_.size();
        const std::uint64_t saved_interval =
            config_.telemetry.intervalRecords;
        config_.telemetry.intervalRecords = sched.epoch;
        epoch_energy_.clear();
        record_epoch_energy_ = true;
        clock = runMeasure(sched.ramp + sched.measure, true,
                           clock, &carry);
        record_epoch_energy_ = false;
        config_.telemetry.intervalRecords = saved_interval;
        out.timedSeconds += seconds(t0);

        FPC_ASSERT(intervals_.size() > before + ramp_epochs);
        IntervalSample merged;
        for (std::size_t e = before + ramp_epochs;
             e < intervals_.size(); ++e) {
            const IntervalSample &s = intervals_[e];
            merged.records += s.records;
            merged.instructions += s.instructions;
            merged.cycles += s.cycles;
            merged.llcMisses += s.llcMisses;
            merged.demandAccesses += s.demandAccesses;
            merged.demandHits += s.demandHits;
            merged.memLatencyCycles += s.memLatencyCycles;
            merged.offchipBytes += s.offchipBytes;
            merged.stackedBytes += s.stackedBytes;
            merged.offchipActs += s.offchipActs;
            merged.stackedActs += s.stackedActs;
            if (merged.tenants.size() < s.tenants.size())
                merged.tenants.resize(s.tenants.size());
            for (std::size_t t = 0; t < s.tenants.size(); ++t) {
                TenantMetrics &d = merged.tenants[t];
                const TenantMetrics &ts = s.tenants[t];
                d.traceRecords += ts.traceRecords;
                d.instructions += ts.instructions;
                d.llcMisses += ts.llcMisses;
                d.demandAccesses += ts.demandAccesses;
                d.demandHits += ts.demandHits;
                d.memLatencyCycles += ts.memLatencyCycles;
                d.offchipBytes += ts.offchipBytes;
            }
        }
        for (std::size_t e = ramp_epochs;
             e < epoch_energy_.size(); ++e) {
            out.metrics.offchipActPreNj += epoch_energy_[e][0];
            out.metrics.offchipBurstNj += epoch_energy_[e][1];
            out.metrics.stackedActPreNj += epoch_energy_[e][2];
            out.metrics.stackedBurstNj += epoch_energy_[e][3];
        }
        epoch_energy_.clear();

        // The interval stream of a sampled window is the merged
        // per-interval samples, not the raw scratch epochs.
        intervals_.resize(before);
        intervals_.push_back(merged);

        RunMetrics &agg = out.metrics;
        agg.instructions += merged.instructions;
        agg.cycles += merged.cycles;
        agg.traceRecords += merged.records;
        agg.llcMisses += merged.llcMisses;
        agg.demandAccesses += merged.demandAccesses;
        agg.demandHits += merged.demandHits;
        agg.memLatencyCycles += merged.memLatencyCycles;
        agg.offchipBytes += merged.offchipBytes;
        agg.stackedBytes += merged.stackedBytes;
        agg.offchipActs += merged.offchipActs;
        agg.stackedActs += merged.stackedActs;
        if (agg.tenants.size() < merged.tenants.size())
            agg.tenants.resize(merged.tenants.size());
        for (std::size_t t = 0; t < merged.tenants.size(); ++t) {
            TenantMetrics &d = agg.tenants[t];
            const TenantMetrics &ts = merged.tenants[t];
            d.traceRecords += ts.traceRecords;
            d.instructions += ts.instructions;
            d.llcMisses += ts.llcMisses;
            d.demandAccesses += ts.demandAccesses;
            d.demandHits += ts.demandHits;
            d.memLatencyCycles += ts.memLatencyCycles;
            d.offchipBytes += ts.offchipBytes;
        }

        interval_ipc.push_back(
            merged.cycles
                ? static_cast<double>(merged.instructions) /
                      merged.cycles
                : 0.0);
        out.samples.push_back(std::move(merged));
        ++out.intervalsRun;

        // Online auto-tune: stop once the per-interval IPC CI is
        // tight enough. Depends only on simulated values, so the
        // early stop is as deterministic as the full run.
        if (sc.targetCi > 0.0 &&
            out.intervalsRun >= std::max(2u, sc.minIntervals)) {
            const SampleStats st =
                computeSampleStats(interval_ipc);
            if (st.relativeCi() <= sc.targetCi)
                break;
        }
    }
    return out;
}

} // namespace fpc
