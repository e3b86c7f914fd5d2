/**
 * @file
 * The pod's counter schema (sim/counters.hh): the names and order
 * every artifact prints, conservation of every table counter
 * across intervals and tenants, a journal round trip that tells
 * every counter apart, and the schema arithmetic itself.
 */

#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>
#include <vector>

#include "counter_checks.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "telemetry/timeseries.hh"
#include "tenant/colocation.hh"

namespace fpc {
namespace {

/** Counters whose every table field (and tenant field and probe
 * value) holds a different number, offset by @p base. */
PodCounters
distinctCounters(std::uint64_t base, std::size_t tenants)
{
    PodCounters c;
    std::uint64_t v = base;
    for (const auto &f : kPodCounterFields)
        c.*f.member = ++v * 1000;
    c.tenants.resize(tenants);
    for (TenantMetrics &t : c.tenants) {
        for (const auto &f : kTenantCounterFields)
            t.*f.member = ++v;
    }
    c.probeValues = {++v, ++v, ++v};
    return c;
}

/** The `"key": ` names in @p text between @p from and the first
 * @p to after it, in order. */
std::vector<std::string>
keysBetween(const std::string &text, const std::string &from,
            const std::string &to)
{
    const std::size_t begin = text.find(from);
    EXPECT_NE(begin, std::string::npos) << from;
    const std::size_t end = text.find(to, begin + from.size());
    const std::string body =
        text.substr(begin + from.size(), end - begin - from.size());
    static const std::regex key("\"([a-z_.0-9]+)\": ");
    std::vector<std::string> out;
    for (std::sregex_iterator it(body.begin(), body.end(), key), e;
         it != e; ++it)
        out.push_back((*it)[1]);
    return out;
}

ExperimentPoint
unitPoint()
{
    ExperimentPoint p;
    p.experiment = "unit";
    p.workload = WorkloadKind::WebSearch;
    p.cfg.design = "footprint";
    p.cfg.capacityMb = 64;
    p.scale = 0.02;
    p.label = standardLabel(p.workload, p.cfg);
    return p;
}

TEST(CounterSchema, ArtifactNamesAndOrderArePinned)
{
    // Renamed, dropped or reordered table entries change the
    // report, timeseries and journal bytes every validator and
    // plot reads: this list is the contract.
    const std::vector<std::string> counters = {
        "instructions",   "cycles",          "trace_records",
        "llc_misses",     "demand_accesses", "demand_hits",
        "mem_latency_cycles", "offchip_bytes", "stacked_bytes",
        "offchip_acts",   "stacked_acts"};
    const std::vector<std::string> tenant = {
        "trace_records",   "instructions", "llc_misses",
        "demand_accesses", "demand_hits",  "mem_latency_cycles",
        "offchip_bytes"};

    const ExperimentPoint p = unitPoint();
    PointResult r;
    r.metrics = distinctCounters(0, 2);
    r.intervals = {distinctCounters(100, 2), distinctCounters(200, 2)};

    SweepOptions opts;
    opts.scale = 0.02;
    const std::string report = renderSweepJson(
        opts, {ExperimentRun{"unit", "t", {p}, {r}}});
    std::vector<std::string> metrics = {"ipc", "miss_ratio"};
    metrics.insert(metrics.end(), counters.begin(), counters.end());
    metrics.push_back("offchip_energy_nj");
    metrics.push_back("stacked_energy_nj");
    EXPECT_EQ(keysBetween(report, "\"metrics\": {", "}"), metrics);
    EXPECT_EQ(keysBetween(report, "{\"tenant\": 0, ", "}"),
              (std::vector<std::string>{
                  "trace_records", "instructions", "llc_misses",
                  "demand_accesses", "demand_hits", "hit_ratio",
                  "mem_latency_cycles", "avg_latency_cycles",
                  "offchip_bytes"}));

    PointSeries series;
    series.key = p.key();
    series.workload = "WebSearch";
    series.intervals = r.intervals;
    const std::string ts = renderTimeseriesJson(0.02, 42, 1000,
                                                {series});
    // The aggregate stream leads with trace_records, as "records".
    std::vector<std::string> columns = {"records"};
    for (const std::string &c : counters) {
        if (c != "trace_records")
            columns.push_back(c);
    }
    EXPECT_EQ(keysBetween(ts, "\"columns\": {", "\n      }"),
              columns);
    EXPECT_EQ(keysBetween(ts, "{\"tenant\": 1, \"columns\": {",
                          "}}"),
              tenant);
}

TEST(CounterSchema, EveryCounterConservesExactSampledAndTenant)
{
    // Exact, with probe columns: intervals sum to the aggregate.
    ExperimentPoint exact = unitPoint();
    exact.cfg.pod.telemetry.intervalRecords = 20000;
    exact.cfg.pod.telemetry.designProbes = true;
    const PointResult e = runPoint(exact);
    EXPECT_GE(e.intervals.size(), 2u);
    EXPECT_FALSE(e.metrics.probeValues.empty());
    expectIntervalsConserve(e.intervals, e.metrics, "exact");

    // Sampled: the merged per-period samples sum to the sampled
    // aggregate.
    ExperimentPoint sampled = unitPoint();
    sampled.scale = 0.05;
    sampled.pinSampling = true;
    sampled.cfg.pod.sampling.enabled = true;
    sampled.label += "/sampled";
    const PointResult s = runPoint(sampled);
    EXPECT_GE(s.intervals.size(), 2u);
    expectIntervalsConserve(s.intervals, s.metrics, "sampled");

    // Two tenants: intervals conserve per tenant, and the tenant
    // slices sum to the aggregate.
    std::vector<TenantSpec> tenants(2);
    tenants[0].workload = WorkloadKind::WebSearch;
    tenants[0].cores = 8;
    tenants[1].workload = WorkloadKind::DataServing;
    tenants[1].cores = 8;
    ExperimentPoint mix = makeColocationPoint(
        tenants, "footprint", "shared", 0.02, 42);
    mix.cfg.pod.telemetry.intervalRecords = 20000;
    const PointResult m = mix.custom(mix);
    ASSERT_EQ(m.metrics.tenants.size(), 2u);
    expectIntervalsConserve(m.intervals, m.metrics, "tenants");
    expectTenantsConserve(m.metrics, "tenants");
    for (const PodCounters &iv : m.intervals)
        expectTenantsConserve(iv, "tenant interval");
}

TEST(CounterSchema, JournalRoundTripTellsEveryCounterApart)
{
    const ExperimentPoint p = unitPoint();
    PointResult r;
    r.metrics = distinctCounters(0, 2);
    r.intervals = {distinctCounters(100, 2), distinctCounters(200, 2)};
    r.probeNames = {"a.x", "a.y", "a.z"};

    // Sanity: no two counters of the entry share a value, so a
    // swapped or dropped field cannot round-trip by accident.
    std::set<std::uint64_t> seen;
    std::size_t total = 0;
    for (const PodCounters *c :
         {&r.metrics, &r.intervals[0], &r.intervals[1]}) {
        for (const auto &f : kPodCounterFields) {
            seen.insert(c->*f.member);
            ++total;
        }
        for (const TenantMetrics &t : c->tenants) {
            for (const auto &f : kTenantCounterFields) {
                seen.insert(t.*f.member);
                ++total;
            }
        }
        seen.insert(c->probeValues.begin(), c->probeValues.end());
        total += c->probeValues.size();
    }
    ASSERT_EQ(seen.size(), total);

    const std::string text = SweepJournal::serialize(p, r);
    std::string key;
    JournalEntry entry;
    ASSERT_TRUE(SweepJournal::parse(text, key, entry));
    const PointResult &q = entry.result;
    expectCountersEqual(q.metrics, r.metrics, "metrics");
    EXPECT_EQ(q.metrics.probeValues, r.metrics.probeValues);
    ASSERT_EQ(q.intervals.size(), r.intervals.size());
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        expectCountersEqual(q.intervals[i], r.intervals[i],
                            "interval");
        EXPECT_EQ(q.intervals[i].probeValues,
                  r.intervals[i].probeValues);
    }
    EXPECT_EQ(q.probeNames, r.probeNames);
}

TEST(CounterSchema, DeltaSumAndEqualityCoverEveryCounter)
{
    const PodCounters a = distinctCounters(0, 2);
    const PodCounters b = distinctCounters(500, 2);
    PodCounters sum = a;
    sum += b;
    expectCountersEqual(sum - b, a, "(a + b) - b");
    EXPECT_EQ((sum - b).probeValues, a.probeValues);
    EXPECT_TRUE(countersEqual(sum - b, a));

    // Equality sees every table and tenant counter.
    for (const auto &f : kPodCounterFields) {
        PodCounters c = a;
        ++(c.*f.member);
        EXPECT_FALSE(countersEqual(a, c)) << f.name;
    }
    for (const auto &f : kTenantCounterFields) {
        PodCounters c = a;
        ++(c.tenants[1].*f.member);
        EXPECT_FALSE(countersEqual(a, c)) << f.name;
    }
    // Probe columns are not counters of the schema.
    PodCounters c = a;
    c.probeValues.clear();
    EXPECT_TRUE(countersEqual(a, c));
}

} // namespace
} // namespace fpc
