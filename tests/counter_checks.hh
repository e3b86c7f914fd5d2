/**
 * @file
 * gtest checks over the pod's counter schema (sim/counters.hh):
 * every comparison and conservation sum walks the field tables, so
 * a counter added to the schema is covered without touching a test.
 */

#ifndef FPC_TESTS_COUNTER_CHECKS_HH
#define FPC_TESTS_COUNTER_CHECKS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "sim/counters.hh"

namespace fpc {

/** Every table counter of @p a equals @p b's, tenant slices
 * included; failures name the counter. */
inline void
expectCountersEqual(const PodCounters &a, const PodCounters &b,
                    const std::string &what)
{
    for (const auto &f : kPodCounterFields)
        EXPECT_EQ(a.*f.member, b.*f.member) << what << ": " << f.name;
    ASSERT_EQ(a.tenants.size(), b.tenants.size()) << what;
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        for (const auto &f : kTenantCounterFields)
            EXPECT_EQ(a.tenants[t].*f.member, b.tenants[t].*f.member)
                << what << ": tenant " << t << " " << f.name;
    }
}

/** The intervals sum bit-exactly to the aggregate: every table
 * counter, every tenant slice and every probe column. */
inline void
expectIntervalsConserve(const std::vector<PodCounters> &intervals,
                        const PodCounters &total,
                        const std::string &what)
{
    ASSERT_FALSE(intervals.empty()) << what;
    PodCounters sum;
    for (const PodCounters &s : intervals) {
        ASSERT_EQ(s.tenants.size(), total.tenants.size()) << what;
        sum += s;
    }
    expectCountersEqual(sum, total, what);
    EXPECT_EQ(sum.probeValues, total.probeValues) << what;
}

/** The tenant slices sum bit-exactly to the same-named aggregate
 * counter, for every tenant table entry. */
inline void
expectTenantsConserve(const PodCounters &m, const std::string &what)
{
    ASSERT_FALSE(m.tenants.empty()) << what;
    for (const auto &tf : kTenantCounterFields) {
        const auto pf = std::find_if(
            std::begin(kPodCounterFields), std::end(kPodCounterFields),
            [&](const auto &f) {
                return std::strcmp(f.name, tf.name) == 0;
            });
        ASSERT_NE(pf, std::end(kPodCounterFields))
            << "tenant counter " << tf.name << " has no aggregate";
        std::uint64_t sum = 0;
        for (const TenantMetrics &t : m.tenants)
            sum += t.*tf.member;
        EXPECT_EQ(sum, m.*pf->member) << what << ": " << tf.name;
    }
}

} // namespace fpc

#endif // FPC_TESTS_COUNTER_CHECKS_HH
