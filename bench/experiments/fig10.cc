/**
 * @file
 * Figure 10: off-chip DRAM dynamic energy per instruction,
 * normalized to the baseline system, split into
 * activate/precharge vs read/write burst energy (256MB caches).
 *
 * Expected shape (paper): every cache design saves substantially;
 * page burns the most burst energy but has good row locality;
 * block burns the most activate/precharge energy; Footprint is
 * the lowest overall (-78% vs baseline).
 */

#include <cstdio>

#include "common/stats.hh"
#include "experiments/experiments.hh"

namespace fpcbench {

namespace {

const std::vector<std::string> kDesigns = {
    "baseline", "block", "page",
    "footprint"};

} // namespace

void
registerFig10(ExperimentRegistry &reg)
{
    ExperimentDef def;
    def.name = "fig10";
    def.title = "off-chip DRAM dynamic energy per instruction";

    def.build = [](const SweepOptions &opts) {
        SweepSpec spec;
        spec.experiment = "fig10";
        spec.workloads = opts.workloads();
        spec.designs = kDesigns;
        spec.capacitiesMb = {256};
        spec.scale = opts.scale;
        spec.seed = opts.seed;
        return spec.expand();
    };

    def.report = [](const SweepOptions &,
                    const std::vector<ExperimentPoint> &points,
                    const std::vector<PointResult> &results) {
        std::printf("\nFigure 10: off-chip DRAM dynamic energy "
                    "per instruction (norm. to baseline)\n");
        std::printf("  %-16s %-10s %9s %9s %9s\n", "workload",
                    "design", "act/pre", "rd/wr", "total");

        const std::size_t stride = kDesigns.size();
        std::vector<double> totals[4];
        for (std::size_t w = 0; w * stride < results.size();
             ++w) {
            const std::size_t o = w * stride;
            const RunMetrics &b = results[o].metrics;
            const double base_epi = b.offchipEnergyPerInstr();
            for (std::size_t d = 0; d < stride; ++d) {
                const RunMetrics &m = results[o + d].metrics;
                const double act = m.offchipActPreNj() /
                                   m.instructions / base_epi;
                const double burst = m.offchipBurstNj() /
                                     m.instructions / base_epi;
                totals[d].push_back(act + burst);
                std::printf(
                    "  %-16s %-10s %8.1f%% %8.1f%% %8.1f%%\n",
                    d == 0 ? workloadName(points[o].workload)
                           : "",
                    kDesigns[d].c_str(), 100.0 * act,
                    100.0 * burst, 100.0 * (act + burst));
            }
        }
        if (totals[0].size() > 1) {
            std::printf("  %-16s", "Geomean");
            for (std::size_t d = 0; d < stride; ++d)
                std::printf(" %s=%.1f%%", kDesigns[d].c_str(),
                            100.0 * geomean(totals[d]));
            std::printf("\n");
        }
    };

    reg.add(std::move(def));
}

} // namespace fpcbench
