/**
 * @file
 * The pod's counter schema: every integer a measured window
 * reports, declared once.
 *
 * PodCounters is what the pod captures (running totals), what a
 * run reports (RunMetrics: end − start over the measurement
 * window) and what the interval stream carries (IntervalSample:
 * cur − prev over one epoch). kPodCounterFields and
 * kTenantCounterFields list each u64 counter with its report name,
 * in report order. Deltas, the sampled merge, equality, the
 * journal, the timeseries columns and the report's metrics block
 * all loop over these tables, so adding a counter means adding one
 * field and one table entry here, plus the line of
 * PodSystem::capture that reads it.
 *
 * Only integers live here: integer deltas telescope exactly (the
 * intervals of a window sum bit-exactly to its aggregate). DRAM
 * dynamic energy is derived from the activate and byte counts
 * when it is read (DramEnergyParams::energyNj).
 */

#ifndef FPC_SIM_COUNTERS_HH
#define FPC_SIM_COUNTERS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"
#include "tenant/tenant.hh"

namespace fpc {

/** The pod's counters over one window (or since construction). */
struct PodCounters
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    std::uint64_t traceRecords = 0;

    std::uint64_t llcMisses = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;

    /**
     * Summed memory-system latency of the window's demand
     * accesses (issue at the memory system to critical block back
     * at the L2), in cycles. Divided by demandAccesses this is the
     * average DRAM-cache access latency the frontier experiment
     * plots.
     */
    std::uint64_t memLatencyCycles = 0;

    std::uint64_t offchipBytes = 0;
    std::uint64_t stackedBytes = 0;
    std::uint64_t offchipActs = 0;
    std::uint64_t stackedActs = 0;

    /**
     * Per-tenant slices (PodConfig::numTenants entries; empty for
     * single-tenant runs). Every field sums bit-exactly to the
     * same-named aggregate field above.
     */
    std::vector<TenantMetrics> tenants;

    /**
     * Introspection probe values, positionally aligned with
     * PodSystem::probeNames() (empty unless introspection is
     * armed). Plain u64 counters, so they telescope like the
     * named fields.
     */
    std::vector<std::uint64_t> probeValues;

    /** Average memory-system latency per demand access. */
    double
    avgAccessLatencyCycles() const
    {
        return demandAccesses
                   ? static_cast<double>(memLatencyCycles) /
                         demandAccesses
                   : 0.0;
    }

    /** Aggregate instructions per cycle (the paper's metric). */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles
                      : 0.0;
    }

    /** Block-granularity DRAM cache miss ratio. */
    double
    missRatio() const
    {
        return demandAccesses
                   ? static_cast<double>(demandAccesses -
                                         demandHits) /
                         demandAccesses
                   : 0.0;
    }

    /** Average off-chip bandwidth in GB/s at 3GHz. */
    double
    offchipBandwidthGBps(double cpu_ghz = 3.0) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(offchipBytes) /
               (static_cast<double>(cycles) / cpu_ghz);
    }

    /** Off-chip DRAM activate/precharge and burst energy (nJ). */
    double
    offchipActPreNj() const
    {
        return DramEnergyParams::offchipDdr3().actPreEnergyNj(
            offchipActs);
    }
    double
    offchipBurstNj() const
    {
        return DramEnergyParams::offchipDdr3().burstEnergyNj(
            offchipBytes);
    }

    /** Stacked DRAM activate/precharge and burst energy (nJ). */
    double
    stackedActPreNj() const
    {
        return DramEnergyParams::stackedDram().actPreEnergyNj(
            stackedActs);
    }
    double
    stackedBurstNj() const
    {
        return DramEnergyParams::stackedDram().burstEnergyNj(
            stackedBytes);
    }

    /** Off-chip / stacked DRAM dynamic energy (nJ). */
    double
    offchipEnergyNj() const
    {
        return DramEnergyParams::offchipDdr3().energyNj(
            offchipActs, offchipBytes);
    }
    double
    stackedEnergyNj() const
    {
        return DramEnergyParams::stackedDram().energyNj(
            stackedActs, stackedBytes);
    }

    /** Off-chip DRAM dynamic energy per instruction (nJ). */
    double
    offchipEnergyPerInstr() const
    {
        return instructions ? offchipEnergyNj() / instructions
                            : 0.0;
    }

    /** Stacked DRAM dynamic energy per instruction (nJ). */
    double
    stackedEnergyPerInstr() const
    {
        return instructions ? stackedEnergyNj() / instructions
                            : 0.0;
    }
};

/** One u64 counter of @p S: its report name and its field. */
template <typename S>
struct CounterField
{
    const char *name;
    std::uint64_t S::*member;
};

/** The pod's counters in report order. */
inline constexpr CounterField<PodCounters> kPodCounterFields[] = {
    {"instructions", &PodCounters::instructions},
    {"cycles", &PodCounters::cycles},
    {"trace_records", &PodCounters::traceRecords},
    {"llc_misses", &PodCounters::llcMisses},
    {"demand_accesses", &PodCounters::demandAccesses},
    {"demand_hits", &PodCounters::demandHits},
    {"mem_latency_cycles", &PodCounters::memLatencyCycles},
    {"offchip_bytes", &PodCounters::offchipBytes},
    {"stacked_bytes", &PodCounters::stackedBytes},
    {"offchip_acts", &PodCounters::offchipActs},
    {"stacked_acts", &PodCounters::stackedActs},
};

/** A tenant's counters; each shares its name with the aggregate
 * counter it sums to. */
inline constexpr CounterField<TenantMetrics> kTenantCounterFields[] =
    {
        {"trace_records", &TenantMetrics::traceRecords},
        {"instructions", &TenantMetrics::instructions},
        {"llc_misses", &TenantMetrics::llcMisses},
        {"demand_accesses", &TenantMetrics::demandAccesses},
        {"demand_hits", &TenantMetrics::demandHits},
        {"mem_latency_cycles", &TenantMetrics::memLatencyCycles},
        {"offchip_bytes", &TenantMetrics::offchipBytes},
};

/**
 * Every counter of @p end minus the same counter of @p start,
 * tenant slices and probe values included (both must have the
 * same shape: two captures of one pod).
 */
PodCounters operator-(const PodCounters &end,
                      const PodCounters &start);

/** Add every counter of @p add into @p sum, growing sum's tenant
 * and probe vectors to add's size. */
PodCounters &operator+=(PodCounters &sum, const PodCounters &add);

/**
 * Do @p a and @p b agree on every table counter, tenant slices
 * included? Probe values are not compared: they exist only when
 * introspection is armed, which must not change any counter.
 */
bool countersEqual(const PodCounters &a, const PodCounters &b);

} // namespace fpc

#endif // FPC_SIM_COUNTERS_HH
