#include "common/rng.hh"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.hh"

namespace fpc {

namespace {

/** Fewest items per chunk when the build picks its chunks. */
constexpr std::uint64_t kMinChunkItems = 1 << 16;

/**
 * Chunks of an n-item build: one per CPU in this process's
 * affinity mask, but no chunk under kMinChunkItems items.
 */
unsigned
autoChunks(std::uint64_t n)
{
    unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return static_cast<unsigned>(std::min<std::uint64_t>(
        cpus, std::max<std::uint64_t>(1, n / kMinChunkItems)));
}

/**
 * Run fn(begin, end) over every chunk of [0, n): the first on the
 * caller, the others on their own threads, or on the caller when
 * their thread cannot start. Returns once every chunk is done.
 */
template <class Fn>
void
forEachChunk(std::uint64_t n, unsigned chunks, const Fn &fn)
{
    auto range = [&](unsigned c) {
        return std::pair{AliasZipfSampler::chunkBegin(n, chunks, c),
                         AliasZipfSampler::chunkBegin(n, chunks, c + 1)};
    };
    // jthreads join on destruction, on the exception path too.
    std::vector<std::jthread> threads;
    threads.reserve(chunks);
    for (unsigned c = 1; c < chunks; ++c) {
        const auto [begin, end] = range(c);
        try {
            threads.emplace_back([&fn, begin, end] { fn(begin, end); });
        } catch (const std::system_error &) {
            fn(begin, end);
        }
    }
    const auto [begin, end] = range(0);
    fn(begin, end);
}

} // namespace

std::shared_ptr<const AliasZipfSampler::Tables>
AliasZipfSampler::buildTables(std::uint64_t n, double s,
                              unsigned chunks)
{
    auto tables = std::make_shared<Tables>();
    tables->thresh = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    tables->alias = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    buildInto(n, s, chunks, tables->thresh.get(), tables->alias.get());
    return tables;
}

void
AliasZipfSampler::buildInto(std::uint64_t n, double s,
                            unsigned chunks, std::uint64_t *thresh,
                            std::uint32_t *alias)
{
    FPC_ASSERT(n >= 2 && s > 0.0);
    chunks = static_cast<unsigned>(std::clamp<std::uint64_t>(
        chunks != 0 ? chunks : autoChunks(n), 1, n));
    auto weight = [&](std::uint64_t i) {
        return std::bit_cast<double>(thresh[i]);
    };
    auto setWeight = [&](std::uint64_t i, double w) {
        thresh[i] = std::bit_cast<std::uint64_t>(w);
    };
    auto zipfWeight = [s](std::uint64_t i) {
        return std::pow(static_cast<double>(i + 1), -s);
    };

    // Unnormalized Zipf weights, chunk-parallel; the first write
    // to each slot also spreads its page faults across the chunks.
    // A chunk recomputes its left neighbour's weight for the
    // non-increasing check rather than read another chunk's slot.
    // Scaling by a positive constant keeps the order, so the
    // scaled weights never increase either.
    forEachChunk(n, chunks,
                 [&](std::uint64_t begin, std::uint64_t end) {
                     double prev =
                         begin == 0
                             ? std::numeric_limits<double>::infinity()
                             : zipfWeight(begin - 1);
                     for (std::uint64_t i = begin; i < end; ++i) {
                         const double w = zipfWeight(i);
                         FPC_ASSERT(w <= prev);
                         setWeight(i, w);
                         prev = w;
                     }
                 });
    // The sum stays serial in index order: any other association
    // rounds differently and moves every threshold.
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i)
        total += weight(i);
    // Rescaled so the mean is 1. Each bucket is scaled where the
    // pairing first reads it, which rounds exactly as a separate
    // rescale pass would.
    const double scale = static_cast<double>(n) / total;
    auto scaled = [&](std::uint64_t i) { return weight(i) * scale; };

    // The first under-full bucket, by binary search over the
    // non-increasing weights.
    std::uint64_t first_small = 0;
    for (std::uint64_t hi = n; first_small < hi;) {
        const std::uint64_t mid = first_small + (hi - first_small) / 2;
        if (scaled(mid) < 1.0)
            hi = mid;
        else
            first_small = mid + 1;
    }

    // Vose pairing: each under-full bucket borrows the excess of
    // one over-full bucket. Unpaired under-full buckets are
    // [first_small, small_end), unpaired over-full ones
    // [0, large_end), the last of them holding residual weight
    // wl. An over-full bucket that falls below 1 is carried: it
    // is bucket large_end, with weight carry_w, and is paired
    // next.
    std::uint64_t small_end = n;
    std::uint64_t large_end = first_small;
    double wl = large_end > 0 ? scaled(large_end - 1) : 0.0;
    bool carry = false;
    double carry_w = 0.0;
    while ((carry || small_end > first_small) && large_end > 0) {
        const std::uint64_t s_idx = carry ? large_end : --small_end;
        const double ws = carry ? carry_w : scaled(s_idx);
        carry = false;
        thresh[s_idx] = toThreshold(ws);
        alias[s_idx] = static_cast<std::uint32_t>(large_end - 1);
        wl = (wl + ws) - 1.0;
        if (wl < 1.0) {
            carry = true;
            carry_w = wl;
            --large_end;
            wl = large_end > 0 ? scaled(large_end - 1) : 0.0;
        }
    }
    // Leftovers (numerical residue): probability one.
    auto keep = [&](std::uint64_t i) {
        thresh[i] = ~std::uint64_t{0};
        alias[i] = static_cast<std::uint32_t>(i);
    };
    for (std::uint64_t i = 0; i < large_end; ++i)
        keep(i);
    if (carry)
        keep(large_end);
    for (std::uint64_t i = first_small; i < small_end; ++i)
        keep(i);
}

std::string
AliasZipfSampler::faultKey(std::uint64_t n, double s)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu/%g",
                  static_cast<unsigned long long>(n), s);
    return buf;
}

std::shared_ptr<const AliasZipfSampler::Tables>
AliasZipfSampler::sharedTables(std::uint64_t n, double s)
{
    // The mutex only guards the cache bookkeeping; the O(n) build
    // runs outside it so sweep workers touching *distinct* (n, s)
    // pairs construct concurrently, while same-key callers wait on
    // the one in-flight build instead of duplicating it. weak_ptr
    // keeps the tables reclaimable once no sampler holds them.
    using Key = std::pair<std::uint64_t, double>;
    static std::mutex mu;
    static std::condition_variable cv;
    static std::map<Key, std::weak_ptr<const Tables>> cache;
    static std::set<Key> building;

    const Key key{n, s};
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        if (auto existing = cache[key].lock())
            return existing;
        if (!building.count(key))
            break;
        cv.wait(lock);
    }
    building.insert(key);
    lock.unlock();

    std::shared_ptr<const Tables> built;
    try {
        faultPoint("table-build", faultKey(n, s));
        built = buildTables(n, s);
    } catch (...) {
        // Release the claim, or every later caller for this key
        // (the failed point's retry included) waits forever.
        lock.lock();
        building.erase(key);
        cv.notify_all();
        throw;
    }

    lock.lock();
    cache[key] = built;
    building.erase(key);
    cv.notify_all();
    return built;
}

} // namespace fpc
