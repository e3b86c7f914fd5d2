/** @file The pod's counter schema (see counters.hh). */

#include "sim/counters.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fpc {

namespace {

template <typename S, std::size_t N>
void
subtractFields(S &out, const S &end, const S &start,
               const CounterField<S> (&fields)[N])
{
    for (const CounterField<S> &f : fields)
        out.*f.member = end.*f.member - start.*f.member;
}

template <typename S, std::size_t N>
void
addFields(S &sum, const S &add, const CounterField<S> (&fields)[N])
{
    for (const CounterField<S> &f : fields)
        sum.*f.member += add.*f.member;
}

template <typename S, std::size_t N>
bool
fieldsEqual(const S &a, const S &b,
            const CounterField<S> (&fields)[N])
{
    return std::all_of(std::begin(fields), std::end(fields),
                       [&](const CounterField<S> &f) {
                           return a.*f.member == b.*f.member;
                       });
}

} // namespace

PodCounters
operator-(const PodCounters &end, const PodCounters &start)
{
    FPC_ASSERT(end.tenants.size() == start.tenants.size() &&
               end.probeValues.size() == start.probeValues.size());
    PodCounters d;
    subtractFields(d, end, start, kPodCounterFields);
    d.tenants.resize(end.tenants.size());
    for (std::size_t t = 0; t < end.tenants.size(); ++t)
        subtractFields(d.tenants[t], end.tenants[t],
                       start.tenants[t], kTenantCounterFields);
    d.probeValues.resize(end.probeValues.size());
    for (std::size_t i = 0; i < end.probeValues.size(); ++i)
        d.probeValues[i] = end.probeValues[i] - start.probeValues[i];
    return d;
}

PodCounters &
operator+=(PodCounters &sum, const PodCounters &add)
{
    addFields(sum, add, kPodCounterFields);
    if (sum.tenants.size() < add.tenants.size())
        sum.tenants.resize(add.tenants.size());
    for (std::size_t t = 0; t < add.tenants.size(); ++t)
        addFields(sum.tenants[t], add.tenants[t],
                  kTenantCounterFields);
    if (sum.probeValues.size() < add.probeValues.size())
        sum.probeValues.resize(add.probeValues.size());
    for (std::size_t i = 0; i < add.probeValues.size(); ++i)
        sum.probeValues[i] += add.probeValues[i];
    return sum;
}

bool
countersEqual(const PodCounters &a, const PodCounters &b)
{
    if (!fieldsEqual(a, b, kPodCounterFields) ||
        a.tenants.size() != b.tenants.size())
        return false;
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        if (!fieldsEqual(a.tenants[t], b.tenants[t],
                         kTenantCounterFields))
            return false;
    }
    return true;
}

} // namespace fpc
