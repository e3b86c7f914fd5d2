/**
 * @file
 * Serial per-layer traced pass over sweep registry points.
 *
 * Replays the points `sweep` would run for the same flags, one at
 * a time, calling each layer's public entry points in the order
 * runPoint() and runColocationPoint() call them, and records a
 * span around every call: name, start, end and the enclosing
 * span. Spans stay in memory and are written out when the pass
 * ends; a span's self time is its duration minus its children's.
 *
 * The pass re-implements the two run paths, so it must not drift
 * from them: with --ref-journal it compares every point's
 * simulated result (hex-float journal serialization, timing
 * excluded) against the journal an untraced `sweep` run wrote
 * for the same points and seed, and exits 1 on any difference.
 *
 *   layer_trace --filter fig06 --scale 0.05 --seed 42 \
 *       --ref-journal ref_journal --out-dir traced
 *
 * Accepts every common sweep flag (parseCommonFlag); --jobs is
 * ignored, the pass is serial. Writes OUT/report.json (the merged
 * report, as `sweep --out` renders it), OUT/spans.json and
 * OUT/layers.json (per-layer metrics of this pass).
 *
 *   layer_trace --count-journal DIR
 *
 * prints how many entries SweepJournal::load reads from DIR.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "experiments/experiments.hh"
#include "mem/materialized_trace.hh"
#include "sim/journal.hh"
#include "telemetry/heatmap.hh"
#include "telemetry/timeseries.hh"
#include "tenant/colocation.hh"
#include "tenant/mix_source.hh"
#include "workload/generator.hh"

using namespace fpcbench;

namespace {

using Clock = std::chrono::steady_clock;

/** One timed call into a layer. */
struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the pass began
    double end = 0.0;
    int parent = -1;    ///< index of the enclosing span, -1 = top
    std::string point;  ///< key of the enclosing point, if any
};

/** In-memory span recorder with a stack of open spans. */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    /** Run @p fn inside a span named @p name. */
    template <typename F>
    decltype(auto)
    operator()(const char *name, F &&fn)
    {
        Scope scope(*this, name);
        return fn();
    }

    /** Key attached to spans opened from now on. */
    void setPoint(std::string key) { point_ = std::move(key); }

    double now() const { return secondsSinceEpoch(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration of every span named @p name (only those
     * inside the points in @p within, when given). */
    double
    total(const std::string &name,
          const std::set<std::string> *within = nullptr) const
    {
        double s = 0.0;
        for (const Span &sp : spans_) {
            if (sp.name == name && (!within || within->count(sp.point)))
                s += sp.end - sp.start;
        }
        return s;
    }

    /** Summed self time (duration minus children) of @p name. */
    double
    self(const std::string &name) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &sp : spans_) {
            if (sp.parent >= 0)
                child[sp.parent] += sp.end - sp.start;
        }
        double s = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].name == name)
                s += spans_[i].end - spans_[i].start - child[i];
        }
        return s;
    }

    /** Summed duration of the top-level spans. */
    double
    topLevel() const
    {
        double s = 0.0;
        for (const Span &sp : spans_)
            s += sp.parent < 0 ? sp.end - sp.start : 0.0;
        return s;
    }

    std::string
    json() const
    {
        std::string out = "{\"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &sp = spans_[i];
            out += i ? ",\n  " : "\n  ";
            out += "{\"name\": \"";
            appendJsonEscaped(out, sp.name);
            appendFmt(out,
                      "\", \"start\": %.9f, \"end\": %.9f, "
                      "\"parent\": %d, \"point\": \"",
                      sp.start, sp.end, sp.parent);
            appendJsonEscaped(out, sp.point);
            out += "\"}";
        }
        out += "\n]}\n";
        return out;
    }

  private:
    struct Scope
    {
        Scope(Tracer &t, const char *name) : tracer(t)
        {
            Span sp;
            sp.name = name;
            sp.parent = t.open_.empty() ? -1 : t.open_.back();
            sp.point = t.point_;
            sp.start = t.secondsSinceEpoch();
            index = static_cast<int>(t.spans_.size());
            t.spans_.push_back(std::move(sp));
            t.open_.push_back(index);
        }
        ~Scope()
        {
            tracer.spans_[index].end = tracer.secondsSinceEpoch();
            tracer.open_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        Tracer &tracer;
        int index = -1;
    };

    double
    secondsSinceEpoch() const
    {
        return std::chrono::duration<double>(Clock::now() -
                                             epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::string point_;
};

/** Work counts recorded at the same boundaries as the spans. */
struct Counts
{
    std::uint64_t genRecords = 0;
    std::uint64_t hierRecords = 0;
    std::uint64_t postL2Ops = 0;
    std::uint64_t warmReplayOps = 0;
    std::uint64_t warmLoopRecords = 0;
    std::uint64_t drainRecords = 0;

    /** Per design: its point keys, timed records, demand hits
     * and accesses. */
    struct Design
    {
        std::set<std::string> points;
        std::uint64_t timedRecords = 0;
        std::uint64_t demandAccesses = 0;
        std::uint64_t demandHits = 0;
    };
    std::map<std::string, Design> designs;

    std::uint64_t records = 0;
    std::uint64_t offchipBytes = 0;
    std::uint64_t stackedBytes = 0;
    std::uint64_t acts = 0;

    /** Footprint fills: blocks covered vs overpredicted. */
    std::uint64_t fpCovered = 0;
    std::uint64_t fpOverpred = 0;
};

// The cache keys and the eligibility rule below mirror the
// private helpers of src/sim/sweep.cc; the reference-journal
// comparison catches any drift in what they select.

std::string
hierarchySignature(const PodConfig &pod)
{
    const CacheHierarchy::Config &h = pod.hierarchy;
    char buf[160];
    std::snprintf(
        buf, sizeof(buf),
        "%u/%" PRIu64 ".%u.%u.%u.%" PRIu64 "/%" PRIu64
        ".%u.%u.%u.%" PRIu64,
        pod.numCores, h.l1.sizeBytes, h.l1.assoc, h.l1.blockBytes,
        static_cast<unsigned>(h.l1.repl), h.l1.seed,
        h.l2.sizeBytes, h.l2.assoc, h.l2.blockBytes,
        static_cast<unsigned>(h.l2.repl), h.l2.seed);
    return buf;
}

bool
warmupArtifactEligible(const ExperimentPoint &p, std::uint64_t warm)
{
    return warm > 0 &&
           p.cfg.pod.warmupMode == SimMode::Functional &&
           !p.cfg.pod.allTimedWarmup;
}

std::string
warmupKey(const ExperimentPoint &p, std::uint64_t warm)
{
    return "warmup/" + p.traceKey() + "/" + std::to_string(warm) +
           "/" + hierarchySignature(p.cfg.pod);
}

std::string
spanKey(const ExperimentPoint &p, std::uint64_t warm,
        const SampleSchedule &s)
{
    return "sample/" + p.traceKey() + "/" + std::to_string(warm) +
           "/" + hierarchySignature(p.cfg.pod) + "/" +
           std::to_string(s.intervals) + "." +
           std::to_string(s.period) + "." + std::to_string(s.gap) +
           "." + std::to_string(s.ramp);
}

bool
isColocation(const ExperimentPoint &p)
{
    return p.cfg.params.getU64("tenant.count", 0) > 0;
}

/** The arena plan SweepRunner::runResilient registers. */
void
planCache(TraceCache &cache,
          const std::vector<ExperimentPoint> &points)
{
    for (const ExperimentPoint &p : points) {
        std::vector<std::pair<std::string, std::uint64_t>> needs;
        needs.emplace_back("trace/" + p.traceKey(),
                           p.standardRecords());
        for (const auto &need : p.extraTraceNeeds)
            needs.push_back(need);
        for (std::size_t a = 0; a < needs.size(); ++a) {
            std::uint64_t units = needs[a].second;
            std::uint64_t acquires = 1;
            bool counted = false;
            for (std::size_t b = 0; b < needs.size(); ++b) {
                if (b == a || needs[b].first != needs[a].first)
                    continue;
                if (b < a) {
                    counted = true;
                    break;
                }
                units = std::max(units, needs[b].second);
                ++acquires;
            }
            if (!counted)
                cache.plan(needs[a].first, units, acquires);
        }
        const std::uint64_t warm = p.warmupWindow();
        if (!p.inBandWarmup && warmupArtifactEligible(p, warm)) {
            cache.plan(warmupKey(p, warm), warm);
            if (p.cfg.pod.sampling.enabled) {
                const SampleSchedule sched = computeSampleSchedule(
                    p.cfg.pod.sampling, measureRecords(p.scale));
                cache.plan(spanKey(p, warm, sched),
                           sched.spanRecords());
            }
        }
    }
}

/** Mean + 95% CI extras of a sampled run, as runPoint adds them. */
void
appendSampledExtras(const SampledRun &sr,
                    std::vector<std::pair<std::string, double>> &extra)
{
    std::vector<double> ipc, miss, lat, bw;
    for (const IntervalSample &s : sr.samples) {
        ipc.push_back(s.cycles ? static_cast<double>(s.instructions) /
                                     s.cycles
                               : 0.0);
        miss.push_back(s.demandAccesses
                           ? static_cast<double>(s.demandAccesses -
                                                 s.demandHits) /
                                 s.demandAccesses
                           : 0.0);
        lat.push_back(s.demandAccesses
                          ? static_cast<double>(s.memLatencyCycles) /
                                s.demandAccesses
                          : 0.0);
        bw.push_back(s.cycles ? static_cast<double>(s.offchipBytes) /
                                    (static_cast<double>(s.cycles) /
                                     3.0)
                              : 0.0);
    }
    extra.emplace_back("sampled_intervals",
                       static_cast<double>(sr.intervalsRun));
    const auto put = [&extra](const char *name,
                              const std::vector<double> &vals) {
        const SampleStats st = computeSampleStats(vals);
        extra.emplace_back(std::string(name) + "_mean", st.mean);
        extra.emplace_back(std::string(name) + "_ci95", st.ci95);
    };
    put("ipc", ipc);
    put("miss_ratio", miss);
    put("avg_latency", lat);
    put("offchip_gbps", bw);
}

/** The serial pass: one traced call sequence per point. */
class TracedPass
{
  public:
    TracedPass(Tracer &tracer, TraceCache &cache)
        : t_(tracer), cache_(cache)
    {
    }

    PointResult
    run(const ExperimentPoint &p)
    {
        PointResult r = isColocation(p) ? colocation(p) : standard(p);
        r.attempts = 1;
        tally(p, r);
        return r;
    }

    /** Time a full drain of every arena generated since the last
     * call (a separate replay source: the point's results are
     * untouched). */
    void
    drainNewArenas()
    {
        for (const auto &arena : fresh_) {
            t_("mem.replay_drain", [&] {
                ReplayTraceSource src(arena);
                TraceRecord *span = nullptr;
                std::uint64_t sink = 0;
                while (std::size_t n = src.acquire(0, span)) {
                    sink += span[n - 1].req.paddr;
                    src.skip(n);
                    counts_.drainRecords += n;
                }
                drainSink_ ^= sink;
            });
        }
        fresh_.clear();
    }

    const Counts &counts() const { return counts_; }

    /** Keeps the drain loop observable. */
    std::uint64_t drainSink() const { return drainSink_; }

  private:
    std::shared_ptr<const MaterializedTrace>
    acquireTrace(const std::string &key, std::uint64_t records,
                 WorkloadKind wk, unsigned page_bytes,
                 std::uint64_t seed)
    {
        auto arena = std::static_pointer_cast<const MaterializedTrace>(
            cache_.acquire(key, records, [&](std::uint64_t units) {
                auto built = std::make_shared<MaterializedTrace>();
                t_("workload.materialize", [&] {
                    materializeTrace(makeWorkload(wk, page_bytes, seed),
                                     units, *built);
                });
                counts_.genRecords += units;
                fresh_.push_back(built);
                return built;
            }));
        if (arena->size() < records)
            throw std::runtime_error("short arena for " + key);
        return arena;
    }

    /** runPoint()'s standard path (trace cache on, no custom). */
    PointResult
    standard(const ExperimentPoint &p)
    {
        if (p.custom)
            throw std::runtime_error(
                "custom run functions are not traced: " + p.key());
        PointResult out;
        const std::uint64_t warm = p.warmupWindow();
        const std::uint64_t measure = measureRecords(p.scale);

        const auto arena = t_("mem.trace_acquire", [&] {
            return acquireTrace("trace/" + p.traceKey(),
                                warm + measure, p.workload,
                                p.cfg.pageBytes, p.traceSeed());
        });
        ReplayTraceSource replay(arena);
        std::unique_ptr<Experiment> exp;
        t_("sim.pod_build", [&] {
            exp = std::make_unique<Experiment>(p.cfg, replay);
        });

        std::shared_ptr<const WarmupArtifact> wa;
        if (warmupArtifactEligible(p, warm)) {
            wa = std::static_pointer_cast<const WarmupArtifact>(
                t_("mem.warmup_acquire", [&] {
                    return cache_.acquire(
                        warmupKey(p, warm), warm,
                        [&](std::uint64_t) -> TraceCache::EntryPtr {
                            auto built = t_("cache.hier_pass", [&] {
                                return PodSystem::buildWarmupArtifact(
                                    *arena, p.cfg.pod.hierarchy, warm);
                            });
                            counts_.hierRecords += warm;
                            counts_.postL2Ops += built->paddr.size();
                            return built;
                        });
                }));
            t_("dramcache.warm_replay",
               [&] { exp->pod().applyWarmup(*wa); });
            counts_.warmReplayOps += wa->paddr.size();
            replay.seekTo(warm);
        } else if (warm > 0) {
            t_("sim.warm_loop", [&] { exp->run(warm, 0); });
            counts_.warmLoopRecords += warm;
        }

        if (p.cfg.pod.sampling.enabled) {
            if (wa == nullptr)
                throw std::runtime_error(
                    "sampled point without a warmup artifact: " +
                    p.key());
            const SampleSchedule sched =
                computeSampleSchedule(p.cfg.pod.sampling, measure);
            const auto span_art =
                std::static_pointer_cast<const SampleSpanArtifact>(
                    t_("mem.span_acquire", [&] {
                        return cache_.acquire(
                            spanKey(p, warm, sched),
                            sched.spanRecords(),
                            [&](std::uint64_t) -> TraceCache::EntryPtr {
                                return t_("cache.span_pass", [&] {
                                    return PodSystem::
                                        buildSampleSpanArtifact(
                                            *arena,
                                            p.cfg.pod.hierarchy, *wa,
                                            warm, sched);
                                });
                            });
                    }));
            const SampledRun sr = t_("sim.sampled", [&] {
                return exp->pod().runSampled(measure, *span_art);
            });
            out.metrics = sr.metrics;
            appendSampledExtras(sr, out.extra);
        } else {
            out.metrics =
                t_("sim.timed", [&] { return exp->run(0, measure); });
            counts_.designs[p.cfg.design].timedRecords +=
                out.metrics.traceRecords;
        }

        t_("telemetry.harvest", [&] {
            out.intervals = exp->pod().intervals();
            if (const TelemetryProbe *probe = exp->pod().probe())
                appendProbeExtras(*probe, out.extra);
            if (FootprintCache *fc = exp->footprintCache()) {
                fc->finalizeResidency();
                out.hasFootprint = true;
                out.covered = fc->coveredBlocks();
                out.underpred = fc->underpredictedBlocks();
                out.overpred = fc->overpredictedBlocks();
                out.trigMisses = fc->triggeringMisses();
                out.singletonBypasses = fc->singletonBypasses();
                const Histogram &h = fc->densityHistogram();
                out.densityPages = h.totalSamples();
                for (unsigned b = 0; b < h.numBuckets(); ++b)
                    out.densityBuckets.push_back(h.bucket(b));
            }
        });
        // runPoint's introspection harvest is not mirrored; no
        // benchmark workload arms introspection on standard points.
        if (exp->pod().introspection() != nullptr)
            throw std::runtime_error(
                "introspection harvest is not traced: " + p.key());
        if (out.hasFootprint) {
            counts_.fpCovered += out.covered;
            counts_.fpOverpred += out.overpred;
        }
        return out;
    }

    /** runColocationPoint()'s path (trace cache on). */
    PointResult
    colocation(const ExperimentPoint &p)
    {
        PointResult out;
        const std::vector<TenantSpec> tenants = decodeTenantMix(p);
        const std::uint64_t warm = p.warmupWindow();
        const std::uint64_t measure = measureRecords(p.scale);
        const std::uint64_t per_tenant = warm + measure;

        std::unique_ptr<TenantMixSource> mix;
        t_("mem.trace_acquire", [&] {
            std::vector<std::unique_ptr<TraceSource>> sources;
            std::vector<unsigned> cores;
            for (const TenantSpec &spec : tenants) {
                sources.push_back(std::make_unique<ReplayTraceSource>(
                    acquireTrace(
                        "trace/" + traceIdentityKey(spec.workload,
                                                    p.cfg.pageBytes,
                                                    p.baseSeed),
                        per_tenant, spec.workload, p.cfg.pageBytes,
                        traceIdentitySeed(spec.workload,
                                          p.cfg.pageBytes,
                                          p.baseSeed))));
                cores.push_back(spec.cores);
            }
            mix = std::make_unique<TenantMixSource>(std::move(sources),
                                                    cores);
        });

        Experiment::Config cfg = p.cfg;
        cfg.pod.numTenants = static_cast<unsigned>(tenants.size());
        std::unique_ptr<Experiment> exp;
        t_("sim.pod_build",
           [&] { exp = std::make_unique<Experiment>(cfg, *mix); });
        if (warm > 0) {
            t_("sim.warm_loop", [&] { exp->run(warm, 0); });
            counts_.warmLoopRecords += warm;
        }
        out.metrics =
            t_("sim.timed", [&] { return exp->run(0, measure); });
        counts_.designs[p.cfg.design].timedRecords +=
            out.metrics.traceRecords;

        t_("telemetry.harvest", [&] {
            out.intervals = exp->pod().intervals();
            if (const TelemetryProbe *probe = exp->pod().probe())
                appendProbeExtras(*probe, out.extra);
        });
        if (out.metrics.tenants.size() != tenants.size())
            throw std::runtime_error("tenant slices missing: " +
                                     p.key());
        // Fill accuracy is read off the design directly: the
        // colocation result carries no footprint detail.
        if (FootprintCache *fc = exp->footprintCache()) {
            fc->finalizeResidency();
            counts_.fpCovered += fc->coveredBlocks();
            counts_.fpOverpred += fc->overpredictedBlocks();
        }
        return out;
    }

    void
    tally(const ExperimentPoint &p, const PointResult &r)
    {
        const RunMetrics &m = r.metrics;
        Counts::Design &d = counts_.designs[p.cfg.design];
        d.points.insert(p.key());
        d.demandAccesses += m.demandAccesses;
        d.demandHits += m.demandHits;
        counts_.records += m.traceRecords;
        counts_.offchipBytes += m.offchipBytes;
        counts_.stackedBytes += m.stackedBytes;
        counts_.acts += m.offchipActs + m.stackedActs;
    }

    Tracer &t_;
    TraceCache &cache_;
    Counts counts_;
    std::vector<std::shared_ptr<const MaterializedTrace>> fresh_;
    std::uint64_t drainSink_ = 0;
};

/** A result's simulated content, bit-exact: the journal text
 * with timing, attempts and elapsed time cleared. */
std::string
simulatedImage(const ExperimentPoint &p, const PointResult &r)
{
    PointResult c = r;
    c.timing = PointTiming{};
    c.attempts = 1;
    c.elapsedSeconds = 0.0;
    return SweepJournal::serialize(p, c);
}

bool
matchesFilter(const std::string &name, const std::string &filter)
{
    std::size_t start = 0;
    while (start <= filter.size()) {
        std::size_t comma = filter.find(',', start);
        if (comma == std::string::npos)
            comma = filter.size();
        const std::string pat = filter.substr(start, comma - start);
        if (!pat.empty() && name.find(pat) != std::string::npos)
            return true;
        start = comma + 1;
    }
    return false;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts;
    std::string filter, ref_journal, out_dir;
    for (int i = 1; i < argc; ++i) {
        if (parseCommonFlag(opts, argc, argv, i))
            continue;
        if (!std::strcmp(argv[i], "--count-journal") && i + 1 < argc) {
            std::unordered_map<std::string, JournalEntry> loaded;
            std::printf("%zu\n", SweepJournal(argv[i + 1]).load(loaded));
            return 0;
        } else if (!std::strcmp(argv[i], "--filter") && i + 1 < argc) {
            filter = argv[++i];
        } else if (!std::strcmp(argv[i], "--ref-journal") &&
                   i + 1 < argc) {
            ref_journal = argv[++i];
        } else if (!std::strcmp(argv[i], "--out-dir") &&
                   i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s --filter PAT --out-dir DIR "
                         "[--ref-journal DIR] [sweep flags]\n",
                         argv[0]);
            return 2;
        }
    }
    if (filter.empty() || out_dir.empty() || opts.resume) {
        std::fprintf(stderr, "layer_trace: --filter and --out-dir "
                             "are required; --resume is not "
                             "supported\n");
        return 2;
    }

    // Expand and configure the points exactly as bench/sweep.cc
    // does for the same flags.
    ExperimentRegistry &reg = ExperimentRegistry::instance();
    registerAllExperiments(reg);
    const std::uint64_t interval_records =
        opts.effectiveIntervalRecords();
    const SamplingConfig sampling = opts.samplingConfig();
    std::vector<ExperimentRun> runs;
    std::vector<ExperimentPoint> points;
    for (const ExperimentDef &def : reg.all()) {
        if (!matchesFilter(def.name, filter))
            continue;
        ExperimentRun run;
        run.name = def.name;
        run.title = def.title;
        run.points = def.build(opts);
        for (ExperimentPoint &p : run.points) {
            TelemetryConfig &tc = p.cfg.pod.telemetry;
            tc.intervalRecords = interval_records;
            tc.histograms = opts.histograms;
            tc.missAttributionStride =
                std::max(tc.missAttributionStride, opts.missAttribution);
            tc.designProbes |= opts.designProbes;
            tc.heatmaps |= !opts.heatmapOut.empty();
            if (sampling.enabled && !p.pinSampling &&
                !p.cfg.pod.allTimedWarmup && p.cfg.pod.numTenants == 0 &&
                p.cfg.pod.warmupMode == SimMode::Functional)
                p.cfg.pod.sampling = sampling;
            points.push_back(p);
        }
        runs.push_back(std::move(run));
    }
    if (points.empty()) {
        std::fprintf(stderr, "layer_trace: no point matches '%s'\n",
                     filter.c_str());
        return 2;
    }

    TraceCache cache(opts.traceCacheConfig().budgetBytes);
    planCache(cache, points);
    std::unique_ptr<SweepJournal> journal;
    if (!opts.journalDir.empty()) {
        journal = std::make_unique<SweepJournal>(opts.journalDir);
        if (!journal->open()) {
            std::fprintf(stderr, "layer_trace: cannot open %s\n",
                         opts.journalDir.c_str());
            return 1;
        }
    }

    Tracer t;
    TracedPass pass(t, cache);
    std::vector<PointResult> results(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ExperimentPoint p = points[i];
        p.traceCache = &cache;
        t.setPoint(p.key());
        try {
            t("point", [&] { results[i] = pass.run(p); });
        } catch (const std::exception &e) {
            std::fprintf(stderr, "layer_trace: %s failed: %s\n",
                         p.key().c_str(), e.what());
            return 1;
        }
        if (journal) {
            t("sim.journal_append",
              [&] { journal->append(points[i], results[i]); });
        }
        t.setPoint("");
        pass.drainNewArenas();
    }

    std::size_t journal_entries = 0;
    if (journal) {
        std::unordered_map<std::string, JournalEntry> loaded;
        journal_entries =
            t("sim.journal_load", [&] { return journal->load(loaded); });
    }

    // Artifacts, rendered as the sweep CLI renders them.
    std::size_t cursor = 0;
    for (ExperimentRun &run : runs) {
        run.results.assign(results.begin() + cursor,
                           results.begin() + cursor + run.points.size());
        cursor += run.points.size();
    }
    std::size_t interval_rows = 0, heatmap_points = 0;
    std::set<std::string> probe_columns;
    for (const PointResult &r : results) {
        interval_rows += r.intervals.size();
        heatmap_points += r.heatmap.valid ? 1 : 0;
        probe_columns.insert(r.probeNames.begin(), r.probeNames.end());
    }
    if (!opts.timeseriesOut.empty()) {
        const std::string ts = t("telemetry.render", [&] {
            std::vector<PointSeries> series;
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (results[i].intervals.empty())
                    continue;
                PointSeries s;
                s.key = points[i].key();
                s.workload = workloadName(points[i].workload);
                s.intervals = results[i].intervals;
                s.probeNames = results[i].probeNames;
                s.probeTotals = results[i].metrics.probeValues;
                series.push_back(std::move(s));
            }
            return renderTimeseriesJson(opts.scale, opts.seed,
                                        interval_records, series);
        });
        if (!writeTextFile(opts.timeseriesOut, ts))
            return 1;
    }
    if (!opts.heatmapOut.empty()) {
        const std::string hm = t("telemetry.render", [&] {
            std::vector<HeatmapPoint> cells;
            for (std::size_t i = 0; i < points.size(); ++i) {
                if (!results[i].heatmap.valid)
                    continue;
                HeatmapPoint h;
                h.key = points[i].key();
                h.workload = workloadName(points[i].workload);
                h.design = points[i].cfg.design;
                h.data = results[i].heatmap;
                cells.push_back(std::move(h));
            }
            return renderHeatmapJson(opts.scale, opts.seed, cells);
        });
        if (!writeTextFile(opts.heatmapOut, hm))
            return 1;
    }
    const double pass_wall = t.now();

    // The drift guard: every point's simulated result must match
    // the untraced sweep's journal bit for bit.
    std::size_t mismatches = 0;
    if (!ref_journal.empty()) {
        std::unordered_map<std::string, JournalEntry> ref;
        SweepJournal(ref_journal).load(ref);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto it = ref.find(points[i].key());
            if (it == ref.end() ||
                simulatedImage(points[i], it->second.result) !=
                    simulatedImage(points[i], results[i])) {
                std::fprintf(stderr,
                             "layer_trace: %s differs from the "
                             "reference journal\n",
                             points[i].key().c_str());
                ++mismatches;
            }
        }
    }

    SweepOptions report_opts = opts;
    report_opts.time = false;
    if (!writeTextFile(out_dir + "/report.json",
                       renderSweepJson(report_opts, runs)) ||
        !writeTextFile(out_dir + "/spans.json", t.json()))
        return 1;

    const Counts &c = pass.counts();
    const TraceCacheStats cs = cache.stats();
    std::vector<std::pair<std::string, double>> m;
    const double gen_s = t.total("workload.materialize");
    m.emplace_back("workload.gen_s", gen_s);
    m.emplace_back("workload.gen_mrec_per_s",
                   ratio(c.genRecords / 1e6, gen_s));
    m.emplace_back("mem.cache_hit_share",
                   ratio(static_cast<double>(cs.hits),
                         static_cast<double>(cs.hits + cs.misses)));
    m.emplace_back("mem.acquire_self_s",
                   t.self("mem.trace_acquire") +
                       t.self("mem.warmup_acquire") +
                       t.self("mem.span_acquire"));
    m.emplace_back("mem.replay_mrec_per_s",
                   ratio(c.drainRecords / 1e6,
                         t.total("mem.replay_drain")));
    const double hier_s = t.total("cache.hier_pass");
    m.emplace_back("cache.hier_pass_s", hier_s);
    m.emplace_back("cache.hier_ns_per_rec",
                   ratio(hier_s * 1e9, static_cast<double>(c.hierRecords)));
    m.emplace_back("cache.post_l2_ops_per_krec",
                   ratio(c.postL2Ops * 1e3,
                         static_cast<double>(c.hierRecords)));
    m.emplace_back("cache.span_pass_s", t.total("cache.span_pass"));
    const double warm_replay_s = t.total("dramcache.warm_replay");
    m.emplace_back("dramcache.warm_replay_s", warm_replay_s);
    m.emplace_back("dramcache.warm_ns_per_op",
                   ratio(warm_replay_s * 1e9,
                         static_cast<double>(c.warmReplayOps)));
    for (const char *design : {"block", "page", "footprint"}) {
        const auto it = c.designs.find(design);
        m.emplace_back(std::string("dramcache.hit_ratio.") + design,
                       it == c.designs.end()
                           ? 0.0
                           : ratio(static_cast<double>(it->second.demandHits),
                                   static_cast<double>(
                                       it->second.demandAccesses)));
    }
    m.emplace_back("dramcache.fetch_accuracy",
                   ratio(static_cast<double>(c.fpCovered),
                         static_cast<double>(c.fpCovered + c.fpOverpred)));
    const double records = static_cast<double>(c.records);
    m.emplace_back("dram.offchip_bytes_per_rec",
                   ratio(static_cast<double>(c.offchipBytes), records));
    m.emplace_back("dram.stacked_bytes_per_rec",
                   ratio(static_cast<double>(c.stackedBytes), records));
    m.emplace_back("dram.acts_per_krec",
                   ratio(c.acts * 1e3, records));
    m.emplace_back("sim.pod_build_s", t.total("sim.pod_build"));
    double timed_recs = 0.0;
    for (const auto &[name, d] : c.designs)
        timed_recs += static_cast<double>(d.timedRecords);
    m.emplace_back("sim.timed_ns_per_rec",
                   ratio(t.total("sim.timed") * 1e9, timed_recs));
    for (const char *design :
         {"baseline", "block", "page", "footprint", "ideal"}) {
        const auto it = c.designs.find(design);
        m.emplace_back(std::string("sim.timed_ns_per_rec.") + design,
                       it == c.designs.end()
                           ? 0.0
                           : ratio(t.total("sim.timed", &it->second.points) *
                                       1e9,
                                   static_cast<double>(
                                       it->second.timedRecords)));
    }
    m.emplace_back("sim.sampled_s", t.total("sim.sampled"));
    m.emplace_back("sim.warm_loop_ns_per_rec",
                   ratio(t.total("sim.warm_loop") * 1e9,
                         static_cast<double>(c.warmLoopRecords)));
    m.emplace_back("sim.journal_append_ms",
                   ratio(t.total("sim.journal_append") * 1e3,
                         journal ? static_cast<double>(points.size())
                                 : 0.0));
    m.emplace_back("sim.journal_load_s", t.total("sim.journal_load"));
    m.emplace_back("telemetry.render_s", t.total("telemetry.render"));
    m.emplace_back("telemetry.interval_rows",
                   static_cast<double>(interval_rows));
    m.emplace_back("telemetry.probe_columns",
                   static_cast<double>(probe_columns.size()));
    m.emplace_back("telemetry.heatmap_points",
                   static_cast<double>(heatmap_points));
    m.emplace_back("trace.wall_s", pass_wall);
    m.emplace_back("trace.span_coverage", ratio(t.topLevel(), pass_wall));

    std::string layers = "{\n";
    appendFmt(layers, "  \"points\": %zu,\n", points.size());
    appendFmt(layers, "  \"journal_entries\": %zu,\n", journal_entries);
    appendFmt(layers, "  \"mismatches\": %zu,\n", mismatches);
    appendFmt(layers, "  \"drain_sink\": %" PRIu64 ",\n",
              pass.drainSink());
    layers += "  \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        layers += i ? ",\n    \"" : "\n    \"";
        appendJsonEscaped(layers, m[i].first);
        appendFmt(layers, "\": %.17g", m[i].second);
    }
    layers += "\n  }\n}\n";
    if (!writeTextFile(out_dir + "/layers.json", layers))
        return 1;
    std::printf("layer_trace: %zu point(s) in %.2fs, %zu span(s), "
                "%zu mismatch(es)\n",
                points.size(), pass_wall, t.spans().size(), mismatches);
    return mismatches ? 1 : 0;
}
