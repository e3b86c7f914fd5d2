#include "dram/timing.hh"

#include "common/logging.hh"

namespace fpc {

namespace {

/** Round a bus-cycle count up to CPU cycles. */
Cycle
toCpuCycles(unsigned bus_cycles, unsigned cpu_mhz, unsigned bus_mhz)
{
    return (static_cast<Cycle>(bus_cycles) * cpu_mhz + bus_mhz - 1) /
           bus_mhz;
}

} // namespace

DramTimingParams
DramTimingParams::build(const DramBusTimings &bus, unsigned cpu_mhz,
                        unsigned bus_mhz, unsigned bus_bytes,
                        unsigned num_banks, unsigned row_bytes,
                        PagePolicy policy)
{
    FPC_ASSERT(cpu_mhz > 0 && bus_mhz > 0);
    FPC_ASSERT(isPowerOf2(bus_bytes) && isPowerOf2(row_bytes));
    FPC_ASSERT(isPowerOf2(num_banks));

    DramTimingParams p;
    p.cpuClockMhz = cpu_mhz;
    p.busClockMhz = bus_mhz;
    p.busBytes = bus_bytes;
    p.numBanks = num_banks;
    p.rowBytes = row_bytes;
    p.policy = policy;

    p.tCAS = toCpuCycles(bus.tCAS, cpu_mhz, bus_mhz);
    p.tRCD = toCpuCycles(bus.tRCD, cpu_mhz, bus_mhz);
    p.tRP = toCpuCycles(bus.tRP, cpu_mhz, bus_mhz);
    p.tRAS = toCpuCycles(bus.tRAS, cpu_mhz, bus_mhz);
    p.tRC = toCpuCycles(bus.tRC, cpu_mhz, bus_mhz);
    p.tWR = toCpuCycles(bus.tWR, cpu_mhz, bus_mhz);
    p.tWTR = toCpuCycles(bus.tWTR, cpu_mhz, bus_mhz);
    p.tRTP = toCpuCycles(bus.tRTP, cpu_mhz, bus_mhz);
    p.tRRD = toCpuCycles(bus.tRRD, cpu_mhz, bus_mhz);
    p.tFAW = toCpuCycles(bus.tFAW, cpu_mhz, bus_mhz);

    // DDR: two transfers per bus cycle. 64B needs
    // 64 / (busBytes * 2) bus cycles.
    unsigned beats = kBlockBytes / bus_bytes;
    unsigned burst_bus_cycles = (beats + 1) / 2;
    if (burst_bus_cycles == 0)
        burst_bus_cycles = 1;
    p.tBurst = toCpuCycles(burst_bus_cycles, cpu_mhz, bus_mhz);
    if (p.tBurst == 0)
        p.tBurst = 1;
    return p;
}

DramTimingParams
DramTimingParams::ddr3_1600_offchip()
{
    return build(DramBusTimings{}, 3000, 800, 8, 8, 2048,
                 PagePolicy::Open);
}

DramTimingParams
DramTimingParams::ddr3_3200_stacked()
{
    return build(DramBusTimings{}, 3000, 1600, 16, 8, 2048,
                 PagePolicy::Open);
}

DramTimingParams
DramTimingParams::halvedLatency() const
{
    DramTimingParams p = *this;
    auto halve = [](Cycle &c) { c = (c + 1) / 2; };
    halve(p.tCAS);
    halve(p.tRCD);
    halve(p.tRP);
    halve(p.tRAS);
    halve(p.tRC);
    halve(p.tWR);
    halve(p.tWTR);
    halve(p.tRTP);
    halve(p.tRRD);
    halve(p.tFAW);
    // Bandwidth (tBurst) is unchanged: only latencies improve.
    return p;
}

double
DramTimingParams::peakBandwidthGBps() const
{
    return static_cast<double>(busBytes) * 2.0 * busClockMhz / 1000.0;
}

} // namespace fpc
