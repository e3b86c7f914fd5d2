/**
 * @file
 * Cache-introspection tests: three-C miss attribution conserves
 * against the sampled-miss count, probe columns telescope
 * bit-exactly from interval deltas to aggregates for every
 * design, heatmap cells sum to the same aggregates the probe
 * stream reports, introspection off leaves the result object
 * empty and introspection on leaves the simulated metrics
 * untouched, sampled runs disable introspection entirely while
 * keeping the PR8 interval stream and PR9 histogram extras
 * conserving, and the v4 journal round-trips probe columns and
 * heatmaps (rejecting truncation as corruption, not data).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "counter_checks.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "telemetry/introspection.hh"

namespace fpc {
namespace {

const char *kAllDesigns[] = {"baseline", "block",  "page",
                             "footprint", "ideal", "alloy",
                             "banshee"};

/** A test-sized point with every introspection surface armed. */
ExperimentPoint
introPoint(const char *design, WorkloadKind wk,
           std::uint64_t interval_records)
{
    ExperimentPoint p;
    p.experiment = "unit";
    p.workload = wk;
    p.cfg.design = design;
    p.cfg.capacityMb = 64;
    p.scale = 0.02;
    p.label = standardLabel(wk, p.cfg);
    p.cfg.pod.telemetry.intervalRecords = interval_records;
    p.cfg.pod.telemetry.missAttributionStride = 4;
    p.cfg.pod.telemetry.designProbes = true;
    p.cfg.pod.telemetry.heatmaps = true;
    return p;
}

/** Aggregate probe column by name; fails the test when absent. */
std::uint64_t
probeOf(const PointResult &r, const std::string &name)
{
    for (std::size_t i = 0; i < r.probeNames.size(); ++i) {
        if (r.probeNames[i] == name &&
            i < r.metrics.probeValues.size())
            return r.metrics.probeValues[i];
    }
    ADD_FAILURE() << "missing probe column " << name;
    return 0;
}

bool
hasExtra(const PointResult &r, const std::string &name)
{
    for (const auto &[key, value] : r.extra) {
        if (key == name)
            return true;
    }
    return false;
}

std::uint64_t
sumOf(const std::vector<std::uint64_t> &v)
{
    std::uint64_t s = 0;
    for (std::uint64_t x : v)
        s += x;
    return s;
}

TEST(MissAttribution, ThreeCsConserveAgainstSampledMisses)
{
    for (const char *design : {"footprint", "block", "page"}) {
        ExperimentPoint p =
            introPoint(design, WorkloadKind::WebSearch, 0);
        const PointResult r = runPoint(p);
        const std::uint64_t demand =
            probeOf(r, "intro.sampled_demand");
        const std::uint64_t misses =
            probeOf(r, "intro.sampled_misses");
        const std::uint64_t comp =
            probeOf(r, "intro.miss_compulsory");
        const std::uint64_t cap =
            probeOf(r, "intro.miss_capacity");
        const std::uint64_t conf =
            probeOf(r, "intro.miss_conflict");

        // The 1-in-K set sample sees a strict subset of the
        // measured demand stream, and every sampled miss lands
        // in exactly one class.
        EXPECT_GT(demand, 0u) << design;
        EXPECT_LE(misses, demand) << design;
        EXPECT_EQ(comp + cap + conf, misses) << design;
        EXPECT_GT(comp, 0u) << design;

        // The attribution extras are fractions of the sampled
        // misses, so they must sum to 1 when any miss was seen.
        if (misses > 0) {
            double frac = 0.0;
            for (const auto &[key, value] : r.extra) {
                if (key == "attr_compulsory" ||
                    key == "attr_capacity" ||
                    key == "attr_conflict")
                    frac += value;
            }
            EXPECT_NEAR(frac, 1.0, 1e-9) << design;
        }
    }
}

TEST(Introspection, ProbeColumnsTelescopeForEveryDesign)
{
    for (const char *design : kAllDesigns) {
        ExperimentPoint p =
            introPoint(design, WorkloadKind::WebSearch, 20000);
        const PointResult r = runPoint(p);
        ASSERT_FALSE(r.probeNames.empty()) << design;
        ASSERT_EQ(r.probeNames.size(),
                  r.metrics.probeValues.size())
            << design;
        ASSERT_GE(r.intervals.size(), 2u) << design;

        // Every interval carries one delta per registered
        // column, and the deltas sum bit-exactly to the
        // aggregate — the telescoping contract the timeseries
        // artifact's probe_totals section documents.
        std::vector<std::uint64_t> sum(r.probeNames.size(), 0);
        for (const IntervalSample &s : r.intervals) {
            ASSERT_EQ(s.probeValues.size(), sum.size())
                << design;
            for (std::size_t c = 0; c < sum.size(); ++c)
                sum[c] += s.probeValues[c];
        }
        for (std::size_t c = 0; c < sum.size(); ++c) {
            EXPECT_EQ(sum[c], r.metrics.probeValues[c])
                << design << ": " << r.probeNames[c];
        }

        // The fixed introspection columns lead in
        // counterNames() order; design-specific stat columns
        // (if any) follow.
        const auto &fixed = CacheIntrospection::counterNames();
        ASSERT_GE(r.probeNames.size(), fixed.size()) << design;
        for (std::size_t c = 0; c < fixed.size(); ++c)
            EXPECT_EQ(r.probeNames[c], fixed[c]) << design;
    }
}

TEST(Heatmaps, CellsSumToAggregateCounters)
{
    for (const char *design : {"footprint", "block"}) {
        ExperimentPoint p =
            introPoint(design, WorkloadKind::DataServing, 0);
        const PointResult r = runPoint(p);
        ASSERT_TRUE(r.heatmap.valid) << design;

        // Set-space cells against the same aggregate totals the
        // probe stream carries.
        ASSERT_GT(r.heatmap.numSets, 0u) << design;
        ASSERT_GT(r.heatmap.setsPerBin, 0u) << design;
        ASSERT_FALSE(r.heatmap.setAccess.empty()) << design;
        EXPECT_EQ(sumOf(r.heatmap.setAccess),
                  probeOf(r, "intro.set_accesses"))
            << design;
        EXPECT_EQ(sumOf(r.heatmap.setConflict),
                  probeOf(r, "intro.set_conflicts"))
            << design;
        EXPECT_EQ(sumOf(r.heatmap.setOccupancy),
                  probeOf(r, "intro.set_occupancy"))
            << design;
        EXPECT_GT(sumOf(r.heatmap.setAccess), 0u) << design;

        // Bank grids: per-bank activates are cleared at the
        // measurement boundary, so their sum is exactly the
        // measured-window activate delta the metrics report.
        ASSERT_EQ(r.heatmap.drams.size(), 2u) << design;
        for (const HeatmapData::DramGrid &g : r.heatmap.drams) {
            ASSERT_EQ(g.activates.size(),
                      static_cast<std::size_t>(g.channels) *
                          g.banks)
                << design << ": " << g.name;
            if (g.name == "stacked") {
                EXPECT_EQ(sumOf(g.activates),
                          r.metrics.stackedActs)
                    << design;
            } else {
                EXPECT_EQ(g.name, "offchip") << design;
                EXPECT_EQ(sumOf(g.activates),
                          r.metrics.offchipActs)
                    << design;
            }
        }
    }
}

TEST(Introspection, OffLeavesResultEmptyAndOnLeavesMetricsAlone)
{
    for (const char *design : {"footprint", "banshee"}) {
        ExperimentPoint off =
            introPoint(design, WorkloadKind::WebSearch, 0);
        off.cfg.pod.telemetry.missAttributionStride = 0;
        off.cfg.pod.telemetry.designProbes = false;
        off.cfg.pod.telemetry.heatmaps = false;
        off.label += "/off";
        const PointResult a = runPoint(off);
        EXPECT_TRUE(a.probeNames.empty()) << design;
        EXPECT_TRUE(a.metrics.probeValues.empty()) << design;
        EXPECT_FALSE(a.heatmap.valid) << design;
        EXPECT_FALSE(hasExtra(a, "attr_sampled_demand"))
            << design;
        EXPECT_FALSE(hasExtra(a, "introspect_accuracy"))
            << design;

        // Observation must not perturb simulation: the armed
        // twin reproduces every measured metric bit-exactly.
        ExperimentPoint on =
            introPoint(design, WorkloadKind::WebSearch, 0);
        const PointResult b = runPoint(on);
        EXPECT_EQ(a.metrics.instructions, b.metrics.instructions)
            << design;
        EXPECT_EQ(a.metrics.cycles, b.metrics.cycles) << design;
        EXPECT_EQ(a.metrics.llcMisses, b.metrics.llcMisses)
            << design;
        EXPECT_EQ(a.metrics.demandAccesses,
                  b.metrics.demandAccesses)
            << design;
        EXPECT_EQ(a.metrics.demandHits, b.metrics.demandHits)
            << design;
        EXPECT_EQ(a.metrics.memLatencyCycles,
                  b.metrics.memLatencyCycles)
            << design;
        EXPECT_EQ(a.metrics.offchipBytes, b.metrics.offchipBytes)
            << design;
        EXPECT_EQ(a.metrics.stackedBytes, b.metrics.stackedBytes)
            << design;
        EXPECT_EQ(a.metrics.offchipActs, b.metrics.offchipActs)
            << design;
        EXPECT_EQ(a.metrics.stackedActs, b.metrics.stackedActs)
            << design;
        EXPECT_TRUE(hasExtra(b, "introspect_accuracy"))
            << design;
    }
}

TEST(Introspection, SampledRunsDisableIntrospection)
{
    // PR8 x PR9 interaction: a sampled point keeps its interval
    // stream and histogram extras, but introspection (which
    // would observe the discontinuous sampled windows as one
    // stream and misclassify) stays off no matter the flags.
    ExperimentPoint p =
        introPoint("footprint", WorkloadKind::WebSearch, 20000);
    p.cfg.pod.telemetry.histograms = true;
    p.pinSampling = true;
    p.cfg.pod.sampling.enabled = true;
    p.scale = 0.05;
    p.label += "/sampled";
    const PointResult r = runPoint(p);

    EXPECT_TRUE(r.probeNames.empty());
    EXPECT_TRUE(r.metrics.probeValues.empty());
    EXPECT_FALSE(r.heatmap.valid);
    EXPECT_FALSE(hasExtra(r, "attr_sampled_demand"));
    EXPECT_FALSE(hasExtra(r, "introspect_accuracy"));
    EXPECT_TRUE(hasExtra(r, "sampled_intervals"));

    // Histogram extras still ride along under sampling.
    for (const char *name : {"lat_p50", "lat_p99", "mlp_p95"})
        EXPECT_TRUE(hasExtra(r, name)) << name;

    // The interval stream is one merged sample per sampled
    // period, and it conserves against the sampled aggregates
    // exactly like an exact run's stream.
    ASSERT_GE(r.intervals.size(), 2u);
    for (const IntervalSample &s : r.intervals)
        EXPECT_TRUE(s.probeValues.empty());
    expectIntervalsConserve(r.intervals, r.metrics, "sampled");
}

TEST(Journal, RoundTripsProbeColumnsAndHeatmap)
{
    ExperimentPoint p =
        introPoint("footprint", WorkloadKind::WebSearch, 20000);
    const PointResult r = runPoint(p);
    ASSERT_FALSE(r.probeNames.empty());
    ASSERT_TRUE(r.heatmap.valid);

    const std::string text = SweepJournal::serialize(p, r);
    std::string key;
    JournalEntry entry;
    ASSERT_TRUE(SweepJournal::parse(text, key, entry));
    EXPECT_EQ(key, p.key());
    const PointResult &b = entry.result;

    ASSERT_EQ(b.probeNames.size(), r.probeNames.size());
    for (std::size_t c = 0; c < r.probeNames.size(); ++c)
        EXPECT_EQ(b.probeNames[c], r.probeNames[c]);
    EXPECT_EQ(b.metrics.probeValues, r.metrics.probeValues);
    ASSERT_EQ(b.intervals.size(), r.intervals.size());
    for (std::size_t i = 0; i < r.intervals.size(); ++i)
        EXPECT_EQ(b.intervals[i].probeValues,
                  r.intervals[i].probeValues);

    EXPECT_TRUE(b.heatmap.valid);
    EXPECT_EQ(b.heatmap.numSets, r.heatmap.numSets);
    EXPECT_EQ(b.heatmap.setsPerBin, r.heatmap.setsPerBin);
    EXPECT_EQ(b.heatmap.setAccess, r.heatmap.setAccess);
    EXPECT_EQ(b.heatmap.setConflict, r.heatmap.setConflict);
    EXPECT_EQ(b.heatmap.setOccupancy, r.heatmap.setOccupancy);
    ASSERT_EQ(b.heatmap.drams.size(), r.heatmap.drams.size());
    for (std::size_t g = 0; g < r.heatmap.drams.size(); ++g) {
        EXPECT_EQ(b.heatmap.drams[g].name,
                  r.heatmap.drams[g].name);
        EXPECT_EQ(b.heatmap.drams[g].channels,
                  r.heatmap.drams[g].channels);
        EXPECT_EQ(b.heatmap.drams[g].banks,
                  r.heatmap.drams[g].banks);
        EXPECT_EQ(b.heatmap.drams[g].activates,
                  r.heatmap.drams[g].activates);
        EXPECT_EQ(b.heatmap.drams[g].reads,
                  r.heatmap.drams[g].reads);
        EXPECT_EQ(b.heatmap.drams[g].writes,
                  r.heatmap.drams[g].writes);
    }

    // A journal truncated inside the heatmap section is
    // corruption, not data.
    const std::string cut =
        text.substr(0, text.find("\nheatmap") + 10);
    EXPECT_FALSE(SweepJournal::parse(cut, key, entry));

    // And so is one truncated in the probe-name table.
    const std::string cut2 =
        text.substr(0, text.find("\nprobenames") + 13);
    EXPECT_FALSE(SweepJournal::parse(cut2, key, entry));
}

} // namespace
} // namespace fpc
