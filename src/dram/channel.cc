#include "dram/channel.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fpc {

DramChannel::DramChannel(const DramTimingParams &timing,
                         std::string name)
    : timing_(timing), stats_(std::move(name))
{
    FPC_ASSERT(isPowerOf2(timing_.rowBytes));
    row_shift_ = floorLog2(timing_.rowBytes);
    banks_pow2_ = isPowerOf2(timing_.numBanks);
    bank_mask_ = banks_pow2_ ? timing_.numBanks - 1 : 0;
    banks_.resize(timing_.numBanks);

    stats_.regCounter(&acts_, "activates", "row activations");
    stats_.regCounter(&row_hits_, "row_hits",
                      "accesses hitting an open row");
    stats_.regCounter(&row_confl_, "row_conflicts",
                      "accesses needing precharge first");
    stats_.regCounter(&blocks_rd_, "blocks_read",
                      "64B blocks read");
    stats_.regCounter(&blocks_wr_, "blocks_written",
                      "64B blocks written");
    stats_.regCounter(&bus_busy_, "bus_busy_cycles",
                      "cycles the data bus transferred");
}

Cycle
DramChannel::activateAllowedAt(Cycle t)
{
    // Rank-level activate spacing. The reservation model commits
    // accesses in call order, so the history may contain activate
    // times later than @p t (reserved by a backed-up bank). A real
    // FR-FCFS scheduler issues around them, so the penalty is
    // capped at one constraint window beyond the requested time —
    // otherwise a single deep bank queue would permanently ratchet
    // the whole rank forward.
    const Cycle rrd =
        std::min(last_act_at_ + timing_.tRRD, t + timing_.tRRD);
    const Cycle fourth = recent_acts_[recent_act_head_];
    const Cycle faw =
        std::min(fourth + timing_.tFAW, t + timing_.tFAW);
    return std::max({t, rrd, faw});
}

void
DramChannel::recordActivate(Cycle t)
{
    recent_acts_[recent_act_head_] = t;
    recent_act_head_ = (recent_act_head_ + 1) % 4;
    last_act_at_ = t;
    acts_.inc();
}

Cycle
DramChannel::openRow(Bank &bank, unsigned bank_idx,
                     std::uint64_t row, Cycle when, bool &row_hit)
{
    if (bank.openRow == row) {
        row_hit = true;
        row_hits_.inc();
        // CAS allowed from tRCD after the original activate.
        return std::max(when, bank.nextCasAllowed);
    }
    row_hit = false;
    Cycle act_start;
    if (bank.openRow != kNoRow) {
        // Conflict: precharge the open row first.
        row_confl_.inc();
        Cycle pre_at = std::max(when, bank.nextPreAllowed);
        act_start = std::max(pre_at + timing_.tRP,
                             bank.nextActAllowed);
    } else {
        act_start = std::max(when, bank.nextActAllowed);
    }
    act_start = activateAllowedAt(act_start);
    recordActivate(act_start);
    if (!bank_acts_.empty())
        ++bank_acts_[bank_idx];

    bank.openRow = row;
    bank.actAt = act_start;
    bank.nextCasAllowed = act_start + timing_.tRCD;
    bank.nextPreAllowed = act_start + timing_.tRAS;
    bank.nextActAllowed = act_start + timing_.tRC;
    return std::max(when, bank.nextCasAllowed);
}

Cycle
DramChannel::casBurst(Bank &bank, unsigned bank_idx, Cycle when,
                      Cycle earliest, bool is_write,
                      unsigned blocks, Cycle &first_ready)
{
    FPC_ASSERT(blocks > 0);
    Cycle cas_at = earliest;
    if (!is_write) {
        // Write-to-read turnaround on the shared bus. As with the
        // rank activate history, a queued future write must not
        // ratchet every later read behind it (read priority), so
        // the penalty is capped at tWTR past the request.
        cas_at = std::max(cas_at,
                          std::min(last_write_end_ + timing_.tWTR,
                                   cas_at + timing_.tWTR));
    }
    // Data leaves tCAS after the column command and needs the bus.
    const Cycle data_start = std::max(cas_at + timing_.tCAS,
                                      bus_free_at_);
    const Cycle occupancy =
        static_cast<Cycle>(blocks) * timing_.tBurst;
    const Cycle data_end = data_start + occupancy;
    // The bus is genuinely busy for `occupancy` cycles. A transfer
    // pushed far into the future by its bank's backlog leaves the
    // interim bus idle for other requests (FR-FCFS backfills), so
    // the shared reservation advances by at most the occupancy
    // beyond max(current reservation, request time).
    bus_free_at_ = std::min(
        data_end, std::max(bus_free_at_, when) + occupancy);
    bus_busy_.inc(occupancy);
    first_ready = data_start + timing_.tBurst;

    if (is_write) {
        last_write_end_ = data_end;
        blocks_wr_.inc(blocks);
        if (!bank_wr_.empty())
            bank_wr_[bank_idx] += blocks;
        // Write recovery gates the next precharge. The anchor is
        // the logical service time, not a bus-delayed completion:
        // otherwise buffered writes would couple transient bus
        // backlog into their bank permanently.
        const Cycle recovery = std::min(
            data_end, cas_at + timing_.tCAS + occupancy);
        bank.nextPreAllowed = std::max(bank.nextPreAllowed,
                                       recovery + timing_.tWR);
    } else {
        blocks_rd_.inc(blocks);
        if (!bank_rd_.empty())
            bank_rd_[bank_idx] += blocks;
        bank.nextPreAllowed = std::max(bank.nextPreAllowed,
                                       cas_at + timing_.tRTP);
    }
    return data_end;
}

void
DramChannel::maybeAutoPrecharge(Bank &bank, Cycle data_end,
                                bool is_write)
{
    (void)is_write;
    if (timing_.policy != PagePolicy::Closed)
        return;
    // Auto-precharge: the row closes as soon as allowed after the
    // access; the next activate waits for tRP past that point.
    Cycle pre_at = std::max(bank.nextPreAllowed, data_end);
    bank.openRow = kNoRow;
    bank.nextActAllowed = std::max(bank.nextActAllowed,
                                   pre_at + timing_.tRP);
}

DramAccessResult
DramChannel::access(Cycle when, Addr local_addr, bool is_write,
                    unsigned num_blocks)
{
    FPC_ASSERT(num_blocks > 0);
    DramAccessResult res;
    res.firstBlockReady = 0;

    Addr addr = blockAlign(local_addr);
    unsigned remaining = num_blocks;
    bool first = true;
    Cycle t = when;

    const unsigned row_blocks = timing_.rowBytes >> kBlockShift;
    while (remaining > 0) {
        const std::uint64_t row_global = addr >> row_shift_;
        const unsigned bank_idx = static_cast<unsigned>(
            banks_pow2_ ? row_global & bank_mask_
                        : row_global % timing_.numBanks);
        const std::uint64_t row = row_global / timing_.numBanks;
        Bank &bank = banks_[bank_idx];

        // Blocks left in this row.
        const unsigned block_in_row = static_cast<unsigned>(
            (addr & (timing_.rowBytes - 1)) >> kBlockShift);
        const unsigned chunk =
            std::min(remaining, row_blocks - block_in_row);

        bool row_hit = false;
        Cycle cas_earliest =
            openRow(bank, bank_idx, row, t, row_hit);
        if (first)
            res.rowHit = row_hit;

        // Writes sit in the controller's write buffer and drain
        // with read priority: their data transfer is scheduled
        // opportunistically from the request time rather than
        // behind the bank's conflict backlog, which would
        // otherwise ratchet the shared bus behind one slow bank.
        // The bank still performs (and accounts) its activate.
        const Cycle burst_earliest = is_write ? t : cas_earliest;
        if (!is_write) {
            bank_wait_ += static_cast<double>(cas_earliest - t);
            reads_n_ += 1.0;
        }

        Cycle first_ready = 0;
        Cycle end = casBurst(bank, bank_idx, t, burst_earliest,
                             is_write, chunk, first_ready);
        if (!is_write) {
            const Cycle nominal =
                burst_earliest + timing_.tCAS + timing_.tBurst;
            bus_wait_ += static_cast<double>(
                first_ready > nominal ? first_ready - nominal : 0);
        }
        if (first) {
            res.firstBlockReady = first_ready;
            first = false;
        }
        maybeAutoPrecharge(bank, end, is_write);

        res.done = end;
        remaining -= chunk;
        addr += static_cast<Addr>(chunk) * kBlockBytes;
        t = std::max(t, cas_earliest);
    }
    return res;
}

DramAccessResult
DramChannel::compoundAccess(Cycle when, Addr row_addr, bool is_write)
{
    // Loh-Hill compound scheduling: ACT, CAS (tags), 1-cycle tag
    // check, CAS (data). The tag-update CAS is assumed off the
    // critical path (§5.2).
    DramAccessResult res;
    const std::uint64_t row_global =
        blockAlign(row_addr) >> row_shift_;
    const unsigned bank_idx = static_cast<unsigned>(
        banks_pow2_ ? row_global & bank_mask_
                    : row_global % timing_.numBanks);
    const std::uint64_t row = row_global / timing_.numBanks;
    Bank &bank = banks_[bank_idx];

    bool row_hit = false;
    Cycle cas_earliest =
        openRow(bank, bank_idx, row, when, row_hit);
    res.rowHit = row_hit;

    // Tag read burst (one block of tags).
    Cycle dummy = 0;
    Cycle tag_end = casBurst(bank, bank_idx, when, cas_earliest,
                             false, 1, dummy);

    // One-cycle tag lookup, then the data CAS.
    Cycle data_earliest = tag_end + 1;
    Cycle first_ready = 0;
    Cycle end = casBurst(bank, bank_idx, when, data_earliest,
                         is_write, 1, first_ready);
    res.firstBlockReady = first_ready;
    res.done = end;
    maybeAutoPrecharge(bank, end, is_write);
    return res;
}

void
DramChannel::resetTiming()
{
    for (Bank &bank : banks_)
        bank = Bank{};
    // Rebase the heatmap counters with the timing state: after
    // the warmup/measurement boundary they cover exactly the
    // measured window (aggregate stats survive as ever-growing
    // counters; windows are taken as snapshot deltas instead).
    if (!bank_acts_.empty()) {
        bank_acts_.assign(bank_acts_.size(), 0);
        bank_rd_.assign(bank_rd_.size(), 0);
        bank_wr_.assign(bank_wr_.size(), 0);
    }
    for (Cycle &t : recent_acts_)
        t = 0;
    recent_act_head_ = 0;
    last_act_at_ = 0;
    bus_free_at_ = 0;
    last_write_end_ = 0;
}

} // namespace fpc
