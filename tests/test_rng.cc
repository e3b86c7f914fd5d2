/** @file Unit tests for the deterministic RNG and the alias Zipf sampler. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "workload/spec.hh"

namespace fpc {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ |= (a.next() != b.next());
    EXPECT_TRUE(differ);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(19);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Zipf, SingleElement)
{
    Rng r(1);
    AliasZipfSampler z(1, 1.0);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(z(r), 0u);
}

TEST(Zipf, UniformWhenExponentZero)
{
    Rng r(23);
    AliasZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
}

TEST(Zipf, InRange)
{
    Rng r(29);
    AliasZipfSampler z(1000, 0.8);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z(r), 1000u);
}

/** Head items must be sampled more often than tail items. */
class ZipfSkew : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkew, HeadBeatsTail)
{
    Rng r(31);
    const std::uint64_t n = 10000;
    AliasZipfSampler z(n, GetParam());
    std::uint64_t head = 0, tail = 0;
    for (int i = 0; i < 200000; ++i) {
        std::uint64_t v = z(r);
        if (v < n / 10)
            ++head;
        if (v >= 9 * n / 10)
            ++tail;
    }
    EXPECT_GT(head, tail);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSkew,
                         ::testing::Values(0.3, 0.6, 0.9, 1.0,
                                           1.2));

/**
 * The textbook Vose build every chunked one must reproduce: a
 * separate weight array, a serial index-order sum and explicit
 * small/large index stacks.
 */
struct ClassicTables
{
    std::vector<std::uint64_t> thresh;
    std::vector<std::uint32_t> alias;
    /** First bucket whose scaled weight is below 1 (n if none). */
    std::uint64_t firstSmall = 0;
};

ClassicTables
classicAliasTables(std::uint64_t n, double s)
{
    std::vector<double> scaled(n);
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        scaled[i] = std::pow(static_cast<double>(i + 1), -s);
        total += scaled[i];
    }
    const double scale = static_cast<double>(n) / total;
    for (double &p : scaled)
        p *= scale;

    ClassicTables t;
    t.thresh.resize(n);
    t.alias.resize(n);
    t.firstSmall = n;
    std::vector<std::uint32_t> small, large;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (scaled[i] < 1.0 && t.firstSmall == n)
            t.firstSmall = i;
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s_idx = small.back();
        small.pop_back();
        const std::uint32_t l_idx = large.back();
        large.pop_back();
        t.thresh[s_idx] = AliasZipfSampler::toThreshold(scaled[s_idx]);
        t.alias[s_idx] = l_idx;
        scaled[l_idx] = (scaled[l_idx] + scaled[s_idx]) - 1.0;
        (scaled[l_idx] < 1.0 ? small : large).push_back(l_idx);
    }
    for (const auto *rest : {&large, &small}) {
        for (std::uint32_t i : *rest) {
            t.thresh[i] = ~std::uint64_t{0};
            t.alias[i] = i;
        }
    }
    return t;
}

/** Element-by-element identity with the classic build. */
bool
sameTables(const std::uint64_t *thresh, const std::uint32_t *alias,
           const ClassicTables &ref, const std::string &what)
{
    for (std::uint64_t i = 0; i < ref.thresh.size(); ++i) {
        if (thresh[i] != ref.thresh[i] || alias[i] != ref.alias[i]) {
            ADD_FAILURE() << what << ": first difference at bucket "
                          << i;
            return false;
        }
    }
    return true;
}

std::string
describe(std::uint64_t n, double s, unsigned chunks)
{
    std::ostringstream os;
    os << "n=" << n << " s=" << s << " chunks=" << chunks;
    return os.str();
}

/** buildTables with @p chunks against a precomputed classic build. */
bool
chunkedMatches(std::uint64_t n, double s, unsigned chunks,
               const ClassicTables &ref)
{
    const auto built = AliasZipfSampler::buildTables(n, s, chunks);
    return sameTables(built->thresh.get(), built->alias.get(), ref,
                      describe(n, s, chunks));
}

TEST(AliasZipf, InPlaceBuildMatchesClassicOnEdgeCases)
{
    // Forced chunk counts cover n divisible and not divisible by
    // the count, and n below it (the count clamps to n).
    unsigned tables = 0;
    for (std::uint64_t n : {2ULL, 3ULL, 5ULL, 17ULL, 1000ULL,
                            4096ULL, 65537ULL}) {
        for (double s : {1e-9, 1e-6, 1e-3, 0.1, 0.35, 0.5, 0.8,
                         0.999, 1.0, 1.001, 1.5, 2.0, 3.0, 5.0,
                         8.0}) {
            const ClassicTables ref = classicAliasTables(n, s);
            for (unsigned chunks : {0u, 1u, 2u, 3u, 7u, 64u}) {
                EXPECT_TRUE(chunkedMatches(n, s, chunks, ref));
                ++tables;
            }
            // buildTables never value-initializes its storage.
            // Building over all-zero and over all-one bytes and
            // matching both times proves no slot keeps its prior
            // contents: a surviving slot differs from one of them.
            for (std::uint64_t fill : {std::uint64_t{0},
                                       ~std::uint64_t{0}}) {
                std::vector<std::uint64_t> thresh(n, fill);
                std::vector<std::uint32_t> alias(
                    n, static_cast<std::uint32_t>(fill));
                AliasZipfSampler::buildInto(n, s, 3, thresh.data(),
                                            alias.data());
                EXPECT_TRUE(sameTables(thresh.data(), alias.data(),
                                       ref,
                                       describe(n, s, 3) + " over " +
                                           std::to_string(fill)));
                ++tables;
            }
        }
    }
    EXPECT_EQ(tables, 7u * 15u * 8u);

    // A chunk boundary on the first under-full bucket, one bucket
    // before it and one after it: where the over-full prefix the
    // pairing starts from meets the under-full suffix.
    std::set<int> offsets_hit;
    for (double s : {0.35, 0.8, 1.0, 2.0}) {
        for (std::uint64_t n = 8; n <= 200; ++n) {
            const ClassicTables ref = classicAliasTables(n, s);
            for (unsigned chunks = 2; chunks <= 6; ++chunks) {
                for (unsigned c = 1; c < chunks; ++c) {
                    const auto begin =
                        AliasZipfSampler::chunkBegin(n, chunks, c);
                    const auto offset =
                        static_cast<std::int64_t>(begin) -
                        static_cast<std::int64_t>(ref.firstSmall);
                    if (offset < -1 || offset > 1)
                        continue;
                    offsets_hit.insert(static_cast<int>(offset));
                    EXPECT_TRUE(chunkedMatches(n, s, chunks, ref));
                }
            }
        }
    }
    EXPECT_EQ(offsets_hit, (std::set<int>{-1, 0, 1}));
}

TEST(AliasZipf, InPlaceBuildMatchesClassicOnPresets)
{
    // Every (datasetPages, zipfS) pair the workload presets use,
    // plus the generator's hot-page table (hotPages, 0.8).
    std::set<std::pair<std::uint64_t, double>> pairs;
    for (WorkloadKind kind : kAllWorkloads) {
        const WorkloadSpec spec = makeWorkload(kind);
        pairs.insert({spec.datasetPages, spec.zipfS});
        if (spec.hotPages > 1)
            pairs.insert({spec.hotPages, 0.8});
    }
    EXPECT_TRUE(pairs.count({220'000, 0.8}));
    for (const auto &[n, s] : pairs) {
        const ClassicTables ref = classicAliasTables(n, s);
        for (unsigned chunks : {0u, 3u})
            EXPECT_TRUE(chunkedMatches(n, s, chunks, ref));
    }
}

TEST(AliasZipf, FailedBuildReleasesItsClaim)
{
    // An (n, s) no other test uses, so no live sampler already
    // holds its tables.
    const std::uint64_t n = 1234;
    const double s = 0.777;
    ASSERT_TRUE(FaultInjector::instance().configure(
        "table-build@" + AliasZipfSampler::faultKey(n, s) +
        ":transient:1"));
    EXPECT_THROW(AliasZipfSampler(n, s), TransientError);

    // The retry must build the tables, not wait forever on the
    // failed build's claim. It runs in a child process whose
    // alarm bounds the wait, so a leaked claim fails the test
    // instead of hanging the suite.
    EXPECT_EXIT(
        {
            ::alarm(30);
            const AliasZipfSampler retried(n, s);
            const auto &t = retried.tables();
            std::exit(t != nullptr &&
                              sameTables(t->thresh.get(),
                                         t->alias.get(),
                                         classicAliasTables(n, s),
                                         "retry")
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0), "");
    FaultInjector::instance().reset();
}

TEST(Mix64, DifferentInputsScatter)
{
    // A weak avalanche check: neighbours must not collide.
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_NE(mix64(i), mix64(i + 1));
}

} // namespace
} // namespace fpc
