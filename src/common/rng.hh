/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All simulations must be reproducible bit-for-bit across runs, so we
 * avoid std::mt19937's unspecified distribution implementations and
 * provide our own xoshiro256** generator plus the distributions the
 * workload models need (uniform, bernoulli, geometric, Zipf).
 */

#ifndef FPC_COMMON_RNG_HH
#define FPC_COMMON_RNG_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "common/logging.hh"

namespace fpc {

/** splitmix64 step, used for seeding and hashing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix, handy as a hash for table indexing. */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** — fast, high-quality 64-bit PRNG (Blackman/Vigna).
 * Deterministically seeded from a single 64-bit value.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Raw 64 random bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        FPC_ASSERT(bound > 0);
        // Lemire's multiply-shift rejection-free-enough variant.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        FPC_ASSERT(lo <= hi);
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Geometric number of failures before success, P(success)=p. */
    std::uint64_t
    geometric(double p)
    {
        FPC_ASSERT(p > 0.0 && p <= 1.0);
        if (p >= 1.0)
            return 0;
        double u = uniform();
        return static_cast<std::uint64_t>(
            std::floor(std::log1p(-u) / std::log1p(-p)));
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Alias-method Zipf sampler (Walker/Vose) over {0, .., n-1} with
 * exponent s. Table construction is O(n) with one pow() per item;
 * every draw afterwards is O(1) from a single 64-bit random value,
 * with no transcendental math and no rejection loop. Costs 12
 * bytes per item, both while the table is built and afterwards,
 * which is acceptable for the multi-million-page workload datasets
 * and paid once per (n, s) per process.
 */
class AliasZipfSampler
{
  public:
    /** Immutable alias tables for one (n, s) distribution. */
    struct Tables
    {
        std::unique_ptr<std::uint64_t[]> thresh;
        std::unique_ptr<std::uint32_t[]> alias;
    };

    AliasZipfSampler(std::uint64_t n, double s) : n_(n), s_(s)
    {
        FPC_ASSERT(n >= 1);
        FPC_ASSERT(n < (1ULL << 32));
        FPC_ASSERT(s >= 0.0);
        if (s_ > 0.0 && n_ > 1)
            tables_ = sharedTables(n_, s_);
    }

    /** Draw one rank in [0, n). Rank 0 is the most popular item. */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (n_ == 1)
            return 0;
        // Split one 64-bit draw into a bucket index (high part of
        // the 128-bit product, Lemire reduction) and the alias
        // coin (low part, uniform over [0, 2^64) at granularity n:
        // an error of at most n/2^64 per threshold comparison).
        const __uint128_t m =
            static_cast<__uint128_t>(rng.next()) * n_;
        const std::uint64_t idx = static_cast<std::uint64_t>(m >> 64);
        if (s_ == 0.0)
            return idx;
        const std::uint64_t coin = static_cast<std::uint64_t>(m);
        return coin < tables_->thresh[idx] ? idx
                                           : tables_->alias[idx];
    }

    std::uint64_t n() const { return n_; }
    double exponent() const { return s_; }

    /** The shared tables; null when n == 1 or s == 0. */
    const std::shared_ptr<const Tables> &tables() const
    {
        return tables_;
    }

    /** First item of chunk @p c of @p chunks (c == chunks: n). */
    static std::uint64_t
    chunkBegin(std::uint64_t n, unsigned chunks, unsigned c)
    {
        return n * c / chunks;
    }

    /**
     * Build the tables for n >= 2 items and s > 0 into fresh,
     * uninitialized storage (see buildInto).
     */
    static std::shared_ptr<const Tables>
    buildTables(std::uint64_t n, double s, unsigned chunks = 0);

    /**
     * Build into caller storage of n slots each, writing every
     * slot before reading it. Each bucket's unscaled weight lives
     * in thresh (as the bits of a double) until the bucket is
     * finalized, so the build needs no memory beyond the result.
     *
     * The pow() per item and the non-increasing-weight check
     * run as @p chunks contiguous chunks on their own threads
     * (clamped to [1, n]; 0 picks one per CPU in this process's
     * affinity mask, with at least 64K items per chunk); a chunk
     * whose thread cannot start runs on the caller. The weight sum and
     * the pairing stay serial, so the tables are bit-identical
     * for every chunk count.
     *
     * Classic Vose pairing keeps two stacks, under-full (weight
     * < 1) and over-full buckets, each filled in index order, and
     * pairs their tops until one runs out; an over-full bucket
     * that drops below 1 is pushed onto the under-full stack and
     * popped next. Zipf weights are non-increasing, so the
     * over-full buckets are a prefix [0, L) and the under-full a
     * suffix [L, n). Two descending cursors plus the one bucket
     * carried across therefore visit the buckets in exactly the
     * classic order and yield identical tables.
     */
    static void buildInto(std::uint64_t n, double s, unsigned chunks,
                          std::uint64_t *thresh, std::uint32_t *alias);

    /** Map a bucket probability in [0, 1] to a u64 coin bound. */
    static std::uint64_t
    toThreshold(double p)
    {
        if (p >= 1.0)
            return ~std::uint64_t{0};
        if (p <= 0.0)
            return 0;
        return static_cast<std::uint64_t>(p * 0x1p64);
    }

    /** Key of the (n, s) table at the "table-build" fault site. */
    static std::string faultKey(std::uint64_t n, double s);

  private:
    /**
     * The same (n, s) pair recurs across every design x mode run
     * of a sweep, so built tables are shared process-wide; a
     * build that throws releases its claim for the next caller.
     */
    static std::shared_ptr<const Tables>
    sharedTables(std::uint64_t n, double s);

    std::uint64_t n_;
    double s_;
    std::shared_ptr<const Tables> tables_;
};

} // namespace fpc

#endif // FPC_COMMON_RNG_HH
