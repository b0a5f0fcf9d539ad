/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace speclens {
namespace uarch {

namespace {

/** Bytes reserved over every thread's line-storage region, and their
 *  high-water (the uarch.line_storage.bytes gauge). */
std::atomic<std::uint64_t> reserved_bytes{0};
std::atomic<std::uint64_t> reserved_high{0};

} // namespace

/**
 * One thread's line-storage region: an anonymous mapping handed out
 * as 64-byte-aligned slices, bump style, to the caches the thread
 * builds, and rewound once every slice is back.  Reusing it across
 * simulations is what keeps the multi-MB LLC tag and stamp arrays
 * from being faulted in, zeroed and unmapped on every simulation.
 */
class LineRegion
{
  public:
    LineRegion() = default;
    LineRegion(const LineRegion &) = delete;
    LineRegion &operator=(const LineRegion &) = delete;

    /** The calling thread's region. */
    static LineRegion &
    local()
    {
        static thread_local LineRegion region;
        return region;
    }

    ~LineRegion()
    {
        // A slice still held at thread exit stays mapped rather than
        // dangle.
        if (base_ && holders_ == 0)
            ::munmap(base_, capacity_ * sizeof(std::uint64_t));
        reserved_bytes.fetch_sub(capacity_ * sizeof(std::uint64_t),
                                 std::memory_order_relaxed);
    }

    /** Grow to at least @p words, unless a slice is held. */
    void
    reserve(std::size_t words)
    {
        if (holders_ != 0 || words <= capacity_)
            return;
        constexpr std::size_t kPageWords = 4096 / sizeof(std::uint64_t);
        std::size_t grown = (words + kPageWords - 1) / kPageWords * kPageWords;
        void *mapped = ::mmap(nullptr, grown * sizeof(std::uint64_t),
                              PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mapped == MAP_FAILED)
            return; // caches fall back to the heap
        if (base_)
            ::munmap(base_, capacity_ * sizeof(std::uint64_t));
        const std::uint64_t added = (grown - capacity_) * sizeof(std::uint64_t);
        base_ = static_cast<std::uint64_t *>(mapped);
        capacity_ = grown;

        static obs::Counter &grows =
            obs::Registry::global().counter("uarch.line_storage.grows");
        static obs::Gauge &bytes =
            obs::Registry::global().gauge("uarch.line_storage.bytes");
        grows.add();
        std::uint64_t now =
            reserved_bytes.fetch_add(added, std::memory_order_relaxed) + added;
        std::uint64_t high = reserved_high.load(std::memory_order_relaxed);
        while (now > high && !reserved_high.compare_exchange_weak(
                                 high, now, std::memory_order_relaxed)) {
        }
        if (now > high)
            bytes.set(static_cast<double>(now));
    }

    /** A slice of @p words (rounded up to 64 bytes), or null when the
     *  region lacks room. */
    std::byte *
    take(std::size_t words)
    {
        std::size_t rounded = (words + 7) / 8 * 8;
        if (capacity_ - used_ < rounded)
            return nullptr;
        std::byte *slice = reinterpret_cast<std::byte *>(base_ + used_);
        used_ += rounded;
        ++holders_;
        return slice;
    }

    /** Return one slice; the last one back rewinds the region. */
    void
    give()
    {
        if (--holders_ == 0)
            used_ = 0;
    }

  private:
    std::uint64_t *base_ = nullptr;
    std::size_t capacity_ = 0; //!< Mapped words.
    std::size_t used_ = 0;     //!< Words handed out since the rewind.
    std::size_t holders_ = 0;  //!< Slices not yet given back.
};

LineLease::LineLease(std::size_t words)
{
    LineRegion &region = LineRegion::local();
    data_ = region.take(words);
    if (data_) {
        region_ = &region;
    } else {
        heap_ = std::make_unique_for_overwrite<std::byte[]>(
            words * sizeof(std::uint64_t));
        data_ = heap_.get();
    }
}

LineLease::LineLease(LineLease &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      region_(std::exchange(other.region_, nullptr)),
      heap_(std::move(other.heap_))
{
}

LineLease &
LineLease::operator=(LineLease &&other) noexcept
{
    if (this != &other) {
        release();
        data_ = std::exchange(other.data_, nullptr);
        region_ = std::exchange(other.region_, nullptr);
        heap_ = std::move(other.heap_);
    }
    return *this;
}

LineLease::~LineLease() { release(); }

void
LineLease::release()
{
    if (region_)
        region_->give();
    region_ = nullptr;
    data_ = nullptr;
    heap_.reset();
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
    // 0 for a zero line size or way count, so a Cache built from such
    // a config reaches validate() and throws instead of dividing by 0.
    if (line_bytes == 0 || associativity == 0)
        return 0;
    return size_bytes / line_bytes / associativity;
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
          std::countr_zero(static_cast<std::uint64_t>(config.line_bytes))))
{
    config_.validate();
    sets_pow2_ = num_sets_ > 0 && std::has_single_bit(num_sets_);
    if (sets_pow2_) {
        set_mask_ = num_sets_ - 1;
        set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
    }
    // Stamps are written before any read (see the member comment), so
    // only the tags are initialized.
    const std::size_t lines = num_sets_ * config_.associativity;
    lines_ = LineLease(storageWords(config_));
    tags_ = reinterpret_cast<std::uint32_t *>(lines_.data());
    stamps_ = reinterpret_cast<std::uint32_t *>(tags_ + lines);
    std::fill(tags_, tags_ + lines, kInvalidTag);
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

std::size_t
Cache::storageWords(const CacheConfig &config)
{
    const std::size_t bytes =
        config.sets() * config.associativity *
        (sizeof(std::uint32_t) + sizeof(std::uint32_t));
    return (bytes + 63) / 64 * (64 / sizeof(std::uint64_t));
}

void
Cache::rebaseStamps()
{
    // Rank each set's valid stamps (unique per set, see the auditor's
    // stamp-unique invariant); invalid ways keep their unread words.
    const std::uint32_t assoc = config_.associativity;
    std::vector<std::uint32_t> ways(assoc);
    std::uint64_t top = 0;
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        const std::uint32_t *tags = &tags_[set * assoc];
        std::uint32_t *stamps = &stamps_[set * assoc];
        std::uint32_t valid = 0;
        for (std::uint32_t w = 0; w < assoc; ++w)
            if (tags[w] != kInvalidTag)
                ways[valid++] = w;
        std::sort(ways.begin(), ways.begin() + valid,
                  [stamps](std::uint32_t a, std::uint32_t b) {
                      return stamps[a] < stamps[b];
                  });
        for (std::uint32_t rank = 0; rank < valid; ++rank)
            stamps[ways[rank]] = rank + 1;
        top = std::max<std::uint64_t>(top, valid);
    }
    tick_ = top;
}

void
Cache::reserveStorage(std::size_t words)
{
    LineRegion::local().reserve(words);
}

bool
Cache::contains(std::uint64_t address) const
{
    std::uint64_t set;
    std::uint32_t tag;
    splitAddress(address, set, tag);
    const std::uint32_t *tags = &tags_[set * config_.associativity];
    for (std::uint32_t w = 0; w < config_.associativity; ++w)
        if (tags[w] == tag)
            return true;
    return false;
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
