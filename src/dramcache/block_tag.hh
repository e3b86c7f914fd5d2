/**
 * @file
 * One packed tag word per cached 64B block, shared by the two
 * block-granular organizations (the block design's in-row tags and
 * Alloy's TADs).
 *
 * A block number is at most 58 bits (a 64-bit address minus the
 * 6-bit block offset), so it fits above a dirty and a valid bit:
 *
 *   word = blockId << 2 | dirty << 1 | valid
 *
 * An empty entry is the all-zero word, and a tag match is one
 * compare with the dirty bit masked in.
 */

#ifndef FPC_DRAMCACHE_BLOCK_TAG_HH
#define FPC_DRAMCACHE_BLOCK_TAG_HH

#include <cstdint>

#include "common/types.hh"

namespace fpc {
namespace block_tag {

constexpr std::uint64_t kValid = 1;
constexpr std::uint64_t kDirty = 2;

/** Tag word of a valid block. */
constexpr std::uint64_t
make(Addr block_id, bool dirty)
{
    return block_id << 2 | (dirty ? kDirty : 0) | kValid;
}

/** Does @p word hold block @p block_id (valid, either dirtiness)? */
constexpr bool
holds(std::uint64_t word, Addr block_id)
{
    return (word | kDirty) == make(block_id, true);
}

constexpr bool valid(std::uint64_t word) { return word & kValid; }
constexpr bool dirty(std::uint64_t word) { return word & kDirty; }
constexpr Addr blockId(std::uint64_t word) { return word >> 2; }

} // namespace block_tag
} // namespace fpc

#endif // FPC_DRAMCACHE_BLOCK_TAG_HH
