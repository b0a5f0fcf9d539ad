/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace speclens {
namespace uarch {

std::string
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru: return "lru";
      case ReplacementPolicy::TreePlru: return "tree-plru";
      case ReplacementPolicy::Fifo: return "fifo";
      case ReplacementPolicy::Random: return "random";
    }
    return "unknown";
}

std::string
wayPredictionKindName(WayPredictionKind kind)
{
    switch (kind) {
      case WayPredictionKind::None: return "none";
      case WayPredictionKind::Mru: return "mru";
      case WayPredictionKind::MultiMru: return "multi-mru";
    }
    return "unknown";
}

std::uint64_t
CacheConfig::sets() const
{
    std::uint64_t line_capacity = size_bytes / line_bytes;
    return associativity == 0 ? 0 : line_capacity / associativity;
}

std::vector<verify::Violation>
CacheConfig::checkGeometry() const
{
    std::vector<verify::Violation> out;
    auto fail = [&out](const char *invariant, std::string detail) {
        out.push_back({"cache-geometry", invariant, "", std::move(detail)});
    };
    if (!std::has_single_bit(line_bytes)) {
        fail("line-size", "line size " + std::to_string(line_bytes) +
                              " is not a power of two");
        return out;
    }
    if (associativity == 0) {
        fail("associativity", "associativity is zero");
        return out;
    }
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(line_bytes) * associativity;
    if (size_bytes == 0 || size_bytes % way_bytes != 0)
        fail("capacity", "capacity " + std::to_string(size_bytes) +
                             " is not a multiple of line size x ways (" +
                             std::to_string(way_bytes) + ")");
    if (way_bytes > size_bytes)
        fail("ways", "more ways than lines: associativity " +
                         std::to_string(associativity) +
                         " exceeds capacity / line size");
    // The tree-PLRU state is a 32-bit word per set and the decision
    // tree requires a power-of-two way count.
    if (policy == ReplacementPolicy::TreePlru &&
        (!std::has_single_bit(associativity) || associativity > 32))
        fail("tree-plru", "tree-PLRU needs power-of-two associativity "
                          "<= 32, not " +
                              std::to_string(associativity));
    return out;
}

void
CacheConfig::validate() const
{
    std::vector<verify::Violation> found = checkGeometry();
    if (!found.empty())
        throw std::invalid_argument(name + ": " + found.front().detail);
}

void
CacheConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("cache");
    fp.str(name);
    fp.u64(size_bytes);
    fp.u64(associativity);
    fp.u64(line_bytes);
    fp.u64(static_cast<std::uint64_t>(policy));
    fp.u64(static_cast<std::uint64_t>(way_prediction));
}

Cache::Cache(const CacheConfig &config)
    : config_(config),
      num_sets_(config.sets()),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)))),
      rng_(stats::hashName(config.name))
{
    config_.validate();
    sets_pow2_ = num_sets_ > 0 && std::has_single_bit(num_sets_);
    if (sets_pow2_) {
        set_mask_ = num_sets_ - 1;
        set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
    }
    tags_.assign(num_sets_ * config_.associativity, kInvalidTag);
    // Stamps are written before any read (see the member comment), so
    // the allocation skips the zero pass.
    stamps_ = std::make_unique_for_overwrite<std::uint64_t[]>(
        num_sets_ * config_.associativity);
    plru_.assign(config_.policy == ReplacementPolicy::TreePlru ? num_sets_
                                                               : 0,
                 0);
    switch (config_.way_prediction) {
      case WayPredictionKind::None: way_pred_parts_ = 0; break;
      case WayPredictionKind::Mru: way_pred_parts_ = 1; break;
      case WayPredictionKind::MultiMru: way_pred_parts_ = 2; break;
    }
    way_pred_.assign(num_sets_ * way_pred_parts_, 0);
}

bool
Cache::contains(std::uint64_t address) const
{
    std::uint64_t set, tag;
    splitAddress(address, set, tag);
    const std::uint64_t *tags = &tags_[set * config_.associativity];
    for (std::uint32_t w = 0; w < config_.associativity; ++w)
        if (tags[w] == tag)
            return true;
    return false;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    for (std::uint32_t &state : plru_)
        state = 0;
    tick_ = 0;
    accesses_ = 0;
    hits_ = 0;
    cold_fills_.clear();
    last_index_ = 0;
    std::fill(way_pred_.begin(), way_pred_.end(), 0u);
    way_pred_hits_ = 0;
    way_pred_mispredicts_ = 0;
}

double
Cache::missRatio() const
{
    return accesses_ == 0
               ? 0.0
               : static_cast<double>(misses()) /
                     static_cast<double>(accesses_);
}

} // namespace uarch
} // namespace speclens
