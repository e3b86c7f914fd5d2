/**
 * @file
 * DRAM timing parameter sets.
 *
 * Parameters mirror Table 3 of the paper: off-chip DDR3-1600 with a
 * 64-bit channel, and die-stacked DDR3-3200 (1.6GHz bus) with
 * 128-bit channels, both with 8 banks per rank and 2KB row buffers,
 * and the timing string tCAS-tRCD-tRP-tRAS = 11-11-11-28,
 * tRC-tWR-tWTR-tRTP = 39-12-6-6, tRRD-tFAW = 5-24 (bus cycles).
 *
 * All values are converted to CPU cycles (3GHz core clock) on
 * construction; the simulator operates exclusively in CPU cycles.
 */

#ifndef FPC_DRAM_TIMING_HH
#define FPC_DRAM_TIMING_HH

#include <cstdint>

#include "common/types.hh"

namespace fpc {

/** Row-buffer management policy (§5.2 of the paper). */
enum class PagePolicy : std::uint8_t
{
    /** Leave rows open; precharge only on a conflicting access. */
    Open,
    /** Auto-precharge after every column access. */
    Closed,
};

/** Raw DRAM timings, in memory *bus* cycles. */
struct DramBusTimings
{
    unsigned tCAS = 11;
    unsigned tRCD = 11;
    unsigned tRP = 11;
    unsigned tRAS = 28;
    unsigned tRC = 39;
    unsigned tWR = 12;
    unsigned tWTR = 6;
    unsigned tRTP = 6;
    unsigned tRRD = 5;
    unsigned tFAW = 24;
};

/** One channel's full timing/geometry description, in CPU cycles. */
struct DramTimingParams
{
    /** CPU clock in MHz (Table 3: 3GHz). */
    unsigned cpuClockMhz = 3000;

    /** Memory bus clock in MHz (DDR: 2 transfers per cycle). */
    unsigned busClockMhz = 800;

    /** Data bus width in bytes (8B off-chip, 16B stacked TSV). */
    unsigned busBytes = 8;

    /** Banks per rank. */
    unsigned numBanks = 8;

    /** Row-buffer size in bytes. */
    unsigned rowBytes = 2048;

    PagePolicy policy = PagePolicy::Open;

    /* Derived CPU-cycle timings (filled by build()). */
    Cycle tCAS = 0;
    Cycle tRCD = 0;
    Cycle tRP = 0;
    Cycle tRAS = 0;
    Cycle tRC = 0;
    Cycle tWR = 0;
    Cycle tWTR = 0;
    Cycle tRTP = 0;
    Cycle tRRD = 0;
    Cycle tFAW = 0;

    /** CPU cycles to stream one 64B block over the data bus. */
    Cycle tBurst = 0;

    /** Convert @p bus timings into CPU cycles and derive tBurst. */
    static DramTimingParams build(const DramBusTimings &bus,
                                  unsigned cpu_mhz, unsigned bus_mhz,
                                  unsigned bus_bytes,
                                  unsigned num_banks,
                                  unsigned row_bytes,
                                  PagePolicy policy);

    /** Off-chip DDR3-1600, 64-bit channel (Table 3). */
    static DramTimingParams ddr3_1600_offchip();

    /** Die-stacked DDR3-3200, 128-bit TSV channel (Table 3). */
    static DramTimingParams ddr3_3200_stacked();

    /** Copy with all latencies halved (Figure 1 low-latency case). */
    DramTimingParams halvedLatency() const;

    /** Peak channel bandwidth in GB/s. */
    double peakBandwidthGBps() const;
};

/**
 * Per-operation DRAM dynamic energy (nJ), Micron-style model.
 *
 * Reads and writes cost the same per 64B block in both presets,
 * so a DRAM system's dynamic energy over any window follows from
 * its activate and byte counts alone (energyNj).
 */
struct DramEnergyParams
{
    /** Energy of one activate+precharge pair. */
    double actPreNj = 2.0;

    /** Energy to read or write one 64B block (array + I/O). */
    double blockNj = 1.1;

    /** Activate/precharge energy of @p acts activates. */
    double
    actPreEnergyNj(std::uint64_t acts) const
    {
        return static_cast<double>(acts) * actPreNj;
    }

    /** Burst energy of @p bytes moved over the data bus. */
    double
    burstEnergyNj(std::uint64_t bytes) const
    {
        return static_cast<double>(bytes / kBlockBytes) * blockNj;
    }

    /** Total dynamic energy of @p acts activates and @p bytes. */
    double
    energyNj(std::uint64_t acts, std::uint64_t bytes) const
    {
        return actPreEnergyNj(acts) + burstEnergyNj(bytes);
    }

    /** Off-chip DDR3 energies (full-swing I/O, long channels). */
    static constexpr DramEnergyParams
    offchipDdr3()
    {
        return {2.0, 1.1};
    }

    /** Stacked DRAM energies (short TSVs: much cheaper I/O). */
    static constexpr DramEnergyParams
    stackedDram()
    {
        return {1.1, 0.35};
    }
};

} // namespace fpc

#endif // FPC_DRAM_TIMING_HH
