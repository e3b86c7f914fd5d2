/** @file Columnar time-series renderer (see timeseries.hh). */

#include "telemetry/timeseries.hh"

#include "common/json.hh"

namespace fpc {

namespace {

/** One integer column: `"name": [get(0), ..., get(n - 1)]`. */
template <typename Get>
void
appendColumn(std::string &out, const char *indent, const char *name,
             std::size_t n, bool first, Get get)
{
    if (!first)
        out += ",\n";
    appendFmt(out, "%s\"%s\": [", indent, name);
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            out += ", ";
        appendFmt(out, "%llu",
                  static_cast<unsigned long long>(get(i)));
    }
    out += ']';
}

} // namespace

std::string
renderTimeseriesJson(double scale, std::uint64_t seed,
                     std::uint64_t interval_records,
                     const std::vector<PointSeries> &points)
{
    std::string out;
    out += "{\n";
    out += "  \"bench\": \"sweep_timeseries\",\n";
    appendFmt(out, "  \"scale\": %.3f,\n", scale);
    appendFmt(out, "  \"seed\": %llu,\n",
              static_cast<unsigned long long>(seed));
    appendFmt(out, "  \"interval_records\": %llu,\n",
              static_cast<unsigned long long>(interval_records));
    out += "  \"points\": [\n";

    bool first_point = true;
    for (const PointSeries &p : points) {
        if (p.intervals.empty())
            continue;
        if (!first_point)
            out += ",\n";
        first_point = false;

        out += "    {\n      \"key\": \"";
        appendJsonEscaped(out, p.key);
        out += "\",\n      \"workload\": \"";
        appendJsonEscaped(out, p.workload);
        out += "\",\n";
        appendFmt(out, "      \"intervals\": %llu,\n",
                  static_cast<unsigned long long>(
                      p.intervals.size()));
        out += "      \"columns\": {\n";

        const auto &iv = p.intervals;
        const std::size_t n = iv.size();
        constexpr const char *kIndent = "        ";
        // The aggregate stream names trace_records "records" and
        // leads with it; every other counter follows in table
        // order.
        appendColumn(out, kIndent, "records", n, true,
                     [&](std::size_t i) {
                         return iv[i].traceRecords;
                     });
        for (const auto &f : kPodCounterFields) {
            if (f.member == &PodCounters::traceRecords)
                continue;
            appendColumn(out, kIndent, f.name, n, false,
                         [&](std::size_t i) {
                             return iv[i].*f.member;
                         });
        }
        // Probe columns (introspection on): one per registered
        // counter, by name; absent intervals (none in practice —
        // the pod sizes every delta identically) read as 0.
        for (std::size_t c = 0; c < p.probeNames.size(); ++c) {
            appendColumn(out, kIndent, p.probeNames[c].c_str(), n,
                         false, [&](std::size_t i) {
                             const auto &v = iv[i].probeValues;
                             return c < v.size() ? v[c] : 0;
                         });
        }
        out += "\n      }";
        if (!p.probeNames.empty()) {
            out += ",\n      \"probe_totals\": {";
            for (std::size_t c = 0; c < p.probeNames.size();
                 ++c) {
                if (c)
                    out += ", ";
                out += "\"";
                appendJsonEscaped(out, p.probeNames[c]);
                appendFmt(
                    out, "\": %llu",
                    static_cast<unsigned long long>(
                        c < p.probeTotals.size()
                            ? p.probeTotals[c]
                            : 0));
            }
            out += "}";
        }

        // Tenant columns: every interval of a point carries the
        // same tenant count (the pod's), so index 0 is
        // representative.
        const std::size_t num_tenants =
            iv.front().tenants.size();
        if (num_tenants > 0) {
            out += ",\n      \"tenants\": [\n";
            for (std::size_t t = 0; t < num_tenants; ++t) {
                if (t)
                    out += ",\n";
                appendFmt(out,
                          "        {\"tenant\": %llu, "
                          "\"columns\": {\n",
                          static_cast<unsigned long long>(t));
                bool first = true;
                for (const auto &f : kTenantCounterFields) {
                    appendColumn(out, "          ", f.name, n,
                                 first, [&](std::size_t i) {
                                     return iv[i].tenants[t].*
                                            f.member;
                                 });
                    first = false;
                }
                out += "\n        }}";
            }
            out += "\n      ]";
        }
        out += "\n    }";
    }

    out += "\n  ]\n}\n";
    return out;
}

} // namespace fpc
