/** @file Sweep checkpoint journal (see journal.hh). */

#include "sim/journal.hh"

#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/logging.hh"

namespace fpc {

namespace {

// v2 added the telemetry intervals section; v3 the sampled-mode
// timing fields; v4 the introspection probe columns (names,
// aggregate values, per-interval deltas) and the spatial heatmap;
// v5 writes the aggregate and every interval as the same counter
// block (kPodCounterFields order) and drops the energy line,
// which is now derived from the act and byte counts. Older
// entries fail the magic check and the point simply re-runs —
// safe by design.
constexpr const char *kMagic = "fpcjournal 5";
constexpr const char *kSuffix = ".pt";

/** FNV-1a (matches the sweep key hash). */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
appendFmt(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

/**
 * Doubles are serialized as hex floats ("%a"): exact round trip,
 * so a resumed report renders byte-identically to the original.
 */
void
appendDouble(std::string &out, double v)
{
    appendFmt(out, "%a", v);
}

/** " v1 ... vn" */
void
appendU64s(std::string &out, const std::vector<std::uint64_t> &v)
{
    for (std::uint64_t x : v)
        appendFmt(out, " %" PRIu64, x);
}

/** Length-prefixed raw string: survives newlines and any bytes
 * an exception message can carry. */
void
appendRaw(std::string &out, const std::string &s)
{
    appendFmt(out, "%zu ", s.size());
    out += s;
}

/** Forward-only cursor over the serialized text; every taker
 * returns false on truncation or malformed input. */
struct Reader
{
    const std::string &text;
    std::size_t pos = 0;

    bool
    literal(const char *s)
    {
        const std::size_t n = std::strlen(s);
        if (text.compare(pos, n, s) != 0)
            return false;
        pos += n;
        return true;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n'))
            ++pos;
    }

    bool
    u64(std::uint64_t &out)
    {
        skipSpace();
        if (pos >= text.size() || !std::isdigit(
                static_cast<unsigned char>(text[pos])))
            return false;
        char *end = nullptr;
        out = std::strtoull(text.c_str() + pos, &end, 10);
        pos = end - text.c_str();
        return true;
    }

    /** @p n u64s into @p out. */
    bool
    u64s(std::vector<std::uint64_t> &out, std::uint64_t n)
    {
        out.resize(n);
        for (std::uint64_t &v : out) {
            if (!u64(v))
                return false;
        }
        return true;
    }

    /** "<tag> v1 ... vn" into @p out. */
    bool
    tagged(const char *tag, std::vector<std::uint64_t> &out,
           std::uint64_t n)
    {
        skipSpace();
        return literal(tag) && u64s(out, n);
    }

    bool
    f64(double &out)
    {
        skipSpace();
        char *end = nullptr;
        out = std::strtod(text.c_str() + pos, &end);
        if (end == text.c_str() + pos)
            return false;
        pos = end - text.c_str();
        return true;
    }

    bool
    raw(std::string &out)
    {
        std::uint64_t n = 0;
        if (!u64(n))
            return false;
        if (pos >= text.size() || text[pos] != ' ')
            return false;
        ++pos;
        if (pos + n > text.size())
            return false;
        out = text.substr(pos, n);
        pos += n;
        return true;
    }

    /** Rest of the current line (for the key). */
    bool
    line(std::string &out)
    {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }
};

/**
 * One counter block: "<tag>" and every kPodCounterFields value,
 * then the tenant slices and the probe values — the aggregate
 * metrics and each interval share this layout.
 */
void
appendCounters(std::string &out, const char *tag,
               const PodCounters &c)
{
    out += '\n';
    out += tag;
    for (const auto &f : kPodCounterFields)
        appendFmt(out, " %" PRIu64, c.*f.member);
    appendFmt(out, "\ntenants %zu", c.tenants.size());
    for (const TenantMetrics &t : c.tenants) {
        out += "\ntenant";
        for (const auto &f : kTenantCounterFields)
            appendFmt(out, " %" PRIu64, t.*f.member);
    }
    appendFmt(out, "\nprobes %zu", c.probeValues.size());
    appendU64s(out, c.probeValues);
}

/** Parse what appendCounters wrote. */
bool
readCounters(Reader &in, const char *tag, PodCounters &c)
{
    in.skipSpace();
    if (!in.literal(tag))
        return false;
    for (const auto &f : kPodCounterFields) {
        if (!in.u64(c.*f.member))
            return false;
    }
    std::uint64_t count = 0;
    in.skipSpace();
    if (!in.literal("tenants") || !in.u64(count) || count > 4096)
        return false;
    c.tenants.resize(count);
    for (TenantMetrics &t : c.tenants) {
        in.skipSpace();
        if (!in.literal("tenant"))
            return false;
        for (const auto &f : kTenantCounterFields) {
            if (!in.u64(t.*f.member))
                return false;
        }
    }
    in.skipSpace();
    return in.literal("probes") && in.u64(count) &&
           count <= 1u << 16 && in.u64s(c.probeValues, count);
}

} // namespace

SweepJournal::SweepJournal(std::string dir) : dir_(std::move(dir))
{
}

bool
SweepJournal::open() const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create journal dir %s: %s\n",
                     dir_.c_str(), ec.message().c_str());
        return false;
    }
    return true;
}

std::string
SweepJournal::fileNameFor(const std::string &key)
{
    // Readable prefix for humans poking at the directory, hash
    // suffix for uniqueness (keys contain '/', and labels can
    // exceed filesystem name limits).
    std::string name;
    for (char c : key) {
        const bool safe =
            std::isalnum(static_cast<unsigned char>(c)) ||
            c == '.' || c == '-' || c == '_' || c == '=';
        name += safe ? c : '_';
        if (name.size() >= 96)
            break;
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "-%016" PRIx64,
                  fnv1a(key));
    return name + hash + kSuffix;
}

std::string
SweepJournal::serialize(const ExperimentPoint &point,
                        const PointResult &r)
{
    std::string out;
    out += kMagic;
    out += "\nkey ";
    out += point.key();
    out += "\nopts ";
    appendDouble(out, point.scale);
    appendFmt(out, " %" PRIu64, point.baseSeed);
    appendFmt(out, "\nstatus %u %u ", r.failed ? 1u : 0u,
              r.attempts);
    appendDouble(out, r.elapsedSeconds);
    out += "\nerror ";
    appendRaw(out, r.error);
    appendCounters(out, "metrics", r.metrics);
    appendFmt(out,
              "\nfootprint %u %" PRIu64 " %" PRIu64 " %" PRIu64
              " %" PRIu64 " %" PRIu64 " %" PRIu64,
              r.hasFootprint ? 1u : 0u, r.covered, r.underpred,
              r.overpred, r.trigMisses, r.singletonBypasses,
              r.densityPages);
    appendFmt(out, "\ndensity %zu", r.densityBuckets.size());
    appendU64s(out, r.densityBuckets);
    appendFmt(out, "\nextras %zu", r.extra.size());
    for (const auto &[name, value] : r.extra) {
        out += "\nextra ";
        appendDouble(out, value);
        out += " ";
        appendRaw(out, name);
    }
    out += "\ntiming ";
    appendDouble(out, r.timing.traceSeconds);
    out += " ";
    appendDouble(out, r.timing.warmupSeconds);
    out += " ";
    appendDouble(out, r.timing.measureSeconds);
    appendFmt(out, " %u %u %u %u %u ",
              r.timing.replayedTrace ? 1u : 0u,
              r.timing.generatedTrace ? 1u : 0u,
              r.timing.replayedWarmup ? 1u : 0u,
              r.timing.builtWarmup ? 1u : 0u,
              r.timing.sampled ? 1u : 0u);
    appendDouble(out, r.timing.sampleFfSeconds);
    out += " ";
    appendDouble(out, r.timing.sampleTimedSeconds);
    appendFmt(out, "\nintervals %zu", r.intervals.size());
    for (const IntervalSample &iv : r.intervals)
        appendCounters(out, "interval", iv);
    // Probe column names and the spatial heatmap, so a resumed
    // sweep reproduces the --timeseries-out and --heatmap-out
    // artifacts without re-running the point.
    appendFmt(out, "\nprobenames %zu", r.probeNames.size());
    for (const std::string &name : r.probeNames) {
        out += "\npname ";
        appendRaw(out, name);
    }
    const HeatmapData &hm = r.heatmap;
    appendFmt(out,
              "\nheatmap %u %" PRIu64 " %" PRIu64 " %zu",
              hm.valid ? 1u : 0u, hm.numSets, hm.setsPerBin,
              hm.setAccess.size());
    const auto bins = [&out](const char *tag,
                             const std::vector<std::uint64_t> &v) {
        out += "\n";
        out += tag;
        appendU64s(out, v);
    };
    bins("haccess", hm.setAccess);
    bins("hconflict", hm.setConflict);
    bins("hoccupancy", hm.setOccupancy);
    appendFmt(out, "\nhdrams %zu", hm.drams.size());
    for (const HeatmapData::DramGrid &g : hm.drams) {
        appendFmt(out, "\nhdram %u %u ", g.channels, g.banks);
        appendRaw(out, g.name);
        bins("hacts", g.activates);
        bins("hreads", g.reads);
        bins("hwrites", g.writes);
    }
    out += "\nend\n";
    return out;
}

bool
SweepJournal::parse(const std::string &text, std::string &key,
                    JournalEntry &entry)
{
    Reader in{text};
    JournalEntry e;
    PointResult &r = e.result;

    if (!in.literal(kMagic) || !in.literal("\nkey "))
        return false;
    if (!in.line(key) || key.empty())
        return false;

    std::uint64_t failed = 0, attempts = 0;
    if (!in.literal("opts ") || !in.f64(e.scale) ||
        !in.u64(e.baseSeed))
        return false;
    in.skipSpace();
    if (!in.literal("status ") || !in.u64(failed) ||
        !in.u64(attempts) || !in.f64(r.elapsedSeconds))
        return false;
    if (failed > 1 || attempts == 0)
        return false;
    r.failed = failed != 0;
    r.attempts = static_cast<unsigned>(attempts);
    in.skipSpace();
    if (!in.literal("error ") || !in.raw(r.error))
        return false;

    if (!readCounters(in, "metrics", r.metrics))
        return false;

    std::uint64_t count = 0;
    std::uint64_t has_fp = 0;
    in.skipSpace();
    if (!in.literal("footprint") || !in.u64(has_fp) ||
        has_fp > 1 || !in.u64(r.covered) ||
        !in.u64(r.underpred) || !in.u64(r.overpred) ||
        !in.u64(r.trigMisses) || !in.u64(r.singletonBypasses) ||
        !in.u64(r.densityPages))
        return false;
    r.hasFootprint = has_fp != 0;

    in.skipSpace();
    if (!in.literal("density") || !in.u64(count) ||
        count > 1u << 20 || !in.u64s(r.densityBuckets, count))
        return false;

    in.skipSpace();
    if (!in.literal("extras") || !in.u64(count) ||
        count > 1u << 20)
        return false;
    r.extra.resize(count);
    for (auto &[name, value] : r.extra) {
        in.skipSpace();
        if (!in.literal("extra ") || !in.f64(value))
            return false;
        in.skipSpace();
        if (!in.raw(name))
            return false;
    }

    std::uint64_t flags[5];
    in.skipSpace();
    if (!in.literal("timing ") ||
        !in.f64(r.timing.traceSeconds) ||
        !in.f64(r.timing.warmupSeconds) ||
        !in.f64(r.timing.measureSeconds) || !in.u64(flags[0]) ||
        !in.u64(flags[1]) || !in.u64(flags[2]) ||
        !in.u64(flags[3]) || !in.u64(flags[4]) ||
        !in.f64(r.timing.sampleFfSeconds) ||
        !in.f64(r.timing.sampleTimedSeconds))
        return false;
    r.timing.replayedTrace = flags[0] != 0;
    r.timing.generatedTrace = flags[1] != 0;
    r.timing.replayedWarmup = flags[2] != 0;
    r.timing.builtWarmup = flags[3] != 0;
    r.timing.sampled = flags[4] != 0;

    in.skipSpace();
    if (!in.literal("intervals") || !in.u64(count) ||
        count > 1u << 24)
        return false;
    r.intervals.resize(count);
    for (IntervalSample &iv : r.intervals) {
        if (!readCounters(in, "interval", iv))
            return false;
    }

    in.skipSpace();
    if (!in.literal("probenames") || !in.u64(count) ||
        count > 1u << 16)
        return false;
    r.probeNames.resize(count);
    for (std::string &name : r.probeNames) {
        in.skipSpace();
        if (!in.literal("pname ") || !in.raw(name))
            return false;
    }

    HeatmapData &hm = r.heatmap;
    std::uint64_t hm_valid = 0, bin_count = 0;
    in.skipSpace();
    if (!in.literal("heatmap") || !in.u64(hm_valid) ||
        hm_valid > 1 || !in.u64(hm.numSets) ||
        !in.u64(hm.setsPerBin) || !in.u64(bin_count) ||
        bin_count > 1u << 16)
        return false;
    hm.valid = hm_valid != 0;
    if (!in.tagged("haccess", hm.setAccess, bin_count) ||
        !in.tagged("hconflict", hm.setConflict, bin_count) ||
        !in.tagged("hoccupancy", hm.setOccupancy, bin_count))
        return false;
    in.skipSpace();
    if (!in.literal("hdrams") || !in.u64(count) || count > 64)
        return false;
    hm.drams.resize(count);
    for (HeatmapData::DramGrid &g : hm.drams) {
        std::uint64_t channels = 0, banks = 0;
        in.skipSpace();
        if (!in.literal("hdram") || !in.u64(channels) ||
            !in.u64(banks) || channels > 4096 || banks > 4096)
            return false;
        g.channels = static_cast<unsigned>(channels);
        g.banks = static_cast<unsigned>(banks);
        in.skipSpace();
        if (!in.raw(g.name))
            return false;
        const std::uint64_t cells = channels * banks;
        if (!in.tagged("hacts", g.activates, cells) ||
            !in.tagged("hreads", g.reads, cells) ||
            !in.tagged("hwrites", g.writes, cells))
            return false;
    }

    in.skipSpace();
    if (!in.literal("end"))
        return false;

    entry = std::move(e);
    return true;
}

std::size_t
SweepJournal::load(
    std::unordered_map<std::string, JournalEntry> &out) const
{
    std::error_code ec;
    std::filesystem::directory_iterator it(
        dir_,
        std::filesystem::directory_options::
            skip_permission_denied,
        ec);
    if (ec)
        return 0;
    std::size_t loaded = 0;
    for (const auto &dirent : it) {
        if (!dirent.is_regular_file())
            continue;
        const std::string path = dirent.path().string();
        if (path.size() < std::strlen(kSuffix) ||
            path.compare(path.size() - std::strlen(kSuffix),
                         std::string::npos, kSuffix) != 0)
            continue;
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f)
            continue;
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);

        std::string key;
        JournalEntry entry;
        if (!parse(text, key, entry)) {
            warn("journal: skipping corrupt entry %s "
                 "(the point will re-run)",
                 path.c_str());
            continue;
        }
        out[key] = std::move(entry);
        ++loaded;
    }
    return loaded;
}

bool
SweepJournal::append(const ExperimentPoint &point,
                     const PointResult &result) const
{
    const std::string content = serialize(point, result);
    const std::string final_path =
        dir_ + "/" + fileNameFor(point.key());
    const std::string tmp_path = final_path + ".tmp";

    try {
        faultPoint("journal-write", point.key());
    } catch (const std::exception &e) {
        warn("journal: cannot write %s: %s", final_path.c_str(),
             e.what());
        return false;
    }

    std::FILE *f = std::fopen(tmp_path.c_str(), "wb");
    if (!f) {
        warn("journal: cannot open %s", tmp_path.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(content.data(), 1, content.size(), f) ==
            content.size() &&
        std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    std::fclose(f);
    if (!wrote || std::rename(tmp_path.c_str(),
                              final_path.c_str()) != 0) {
        warn("journal: cannot persist %s", final_path.c_str());
        std::remove(tmp_path.c_str());
        return false;
    }

    // Make the rename itself durable: fsync the directory so a
    // machine crash cannot forget a completed point.
    const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

} // namespace fpc
