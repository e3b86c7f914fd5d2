/** @file Colocation harness (see colocation.hh). */

#include "tenant/colocation.hh"

#include <stdexcept>

#include "common/logging.hh"
#include "tenant/mix_source.hh"

namespace fpc {

void
encodeTenantMix(Experiment::Config &cfg,
                const std::vector<TenantSpec> &tenants,
                const std::string &policy)
{
    FPC_ASSERT(!tenants.empty());
    cfg.params.set("tenant.count",
                   std::to_string(tenants.size()));
    cfg.params.set("tenant.policy", policy);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const std::string idx = std::to_string(t);
        cfg.params.set("tenant.wl" + idx,
                       workloadName(tenants[t].workload));
        cfg.params.set("tenant.cores" + idx,
                       std::to_string(tenants[t].cores));
        if (tenants[t].cacheQuota > 0.0) {
            cfg.params.set("tenant.quota" + idx,
                           std::to_string(
                               tenants[t].cacheQuota));
        }
    }
}

std::vector<TenantSpec>
decodeTenantMix(const ExperimentPoint &point)
{
    const DesignParams &params = point.cfg.params;
    const std::uint64_t count = params.getU64("tenant.count", 0);
    if (count == 0) {
        throw std::runtime_error(
            "colocation point without tenant.count: " +
            point.key());
    }
    std::vector<TenantSpec> tenants;
    for (std::uint64_t t = 0; t < count; ++t) {
        const std::string idx = std::to_string(t);
        TenantSpec spec;
        const std::string wl =
            params.getString("tenant.wl" + idx, "");
        if (!workloadFromName(wl, spec.workload)) {
            throw std::runtime_error(
                "bad tenant.wl" + idx + " '" + wl +
                "' in point " + point.key());
        }
        spec.cores = static_cast<unsigned>(
            params.getU64("tenant.cores" + idx, 0));
        if (spec.cores == 0) {
            throw std::runtime_error("bad tenant.cores" + idx +
                                     " in point " + point.key());
        }
        spec.cacheQuota =
            params.getDouble("tenant.quota" + idx, 0.0);
        tenants.push_back(spec);
    }
    return tenants;
}

ExperimentPoint
makeColocationPoint(const std::vector<TenantSpec> &tenants,
                    const std::string &design,
                    const std::string &policy, double scale,
                    std::uint64_t base_seed)
{
    ExperimentPoint p;
    p.experiment = "colocation";
    // The point's primary workload is tenant 0's: its identity
    // drives the default trace plan and the per-point JSON
    // workload field; the other tenants ride in extraTraceNeeds.
    p.workload = tenants.front().workload;
    p.cfg.design = design;
    p.scale = scale;
    p.baseSeed = base_seed;
    encodeTenantMix(p.cfg, tenants, policy);
    p.custom = runColocationPoint;
    p.inBandWarmup = true;

    std::string mix_name;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (t)
            mix_name += "+";
        mix_name += workloadName(tenants[t].workload);
    }
    p.label = mix_name + "/" + design + "/" +
              std::to_string(p.cfg.capacityMb) + "MB/" +
              std::to_string(p.cfg.pageBytes) + "B/" + policy;
    if (tenants.size() == 1)
        p.label += "/solo";

    const std::uint64_t per_tenant = p.standardRecords();
    for (std::size_t t = 1; t < tenants.size(); ++t) {
        p.extraTraceNeeds.emplace_back(
            traceArenaKey(p, tenants[t].workload), per_tenant);
    }
    return p;
}

PointResult
runColocationPoint(const ExperimentPoint &point)
{
    PointResult out;
    const std::vector<TenantSpec> tenants =
        decodeTenantMix(point);
    const std::uint64_t warm = point.warmupWindow();
    const std::uint64_t measure = measureRecords(point.scale);

    // Upper bound on any one tenant's consumption: a tenant
    // whose cores never stall could in principle drain almost
    // the whole window alone, so each stream must hold it all.
    const std::uint64_t per_tenant = warm + measure;

    const PhaseTimer trace_phase(point);
    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<unsigned> cores;
    for (const TenantSpec &spec : tenants) {
        sources.push_back(openPointTrace(point, spec.workload,
                                         per_tenant, out.timing));
        cores.push_back(spec.cores);
    }
    TenantMixSource mix(std::move(sources), cores);
    out.timing.traceSeconds = trace_phase.stop("trace");

    Experiment::Config cfg = point.cfg;
    cfg.pod.numTenants = static_cast<unsigned>(tenants.size());
    Experiment exp(cfg, mix);

    // In-band warmup. The mixed post-L2 stream is design-
    // independent (functional warmup over a fixed interleave), so
    // one warm artifact per (mix, warm window) could serve every
    // design, with the tenant taken from tenantOfAddr. It stays
    // in-band because cutting those artifacts adds ~0.5-0.7 s of
    // hierarchy-pass builds to setup and ~57 MB of peak RSS at
    // benchmark scale (ROADMAP item 3).
    const PhaseTimer warm_phase(point);
    if (warm > 0)
        exp.run(warm, 0);
    out.timing.warmupSeconds = warm_phase.stop("warmup");

    const PhaseTimer measure_phase(point);
    out.metrics = exp.run(0, measure);
    out.timing.measureSeconds = measure_phase.stop("measure");

    // Intervals carry the per-tenant deltas of every epoch.
    harvestTelemetry(exp.pod(), out);

    FPC_ASSERT(out.metrics.tenants.size() == tenants.size());
    return out;
}

} // namespace fpc
