/**
 * @file
 * Cache hierarchy implementation: prefetch issue, usefulness
 * accounting and the DRAM hookup (the engines' policy is
 * L2Prefetcher::demand, in the header).  The hot L1/L2/L3 fallthrough lives
 * in the header; everything here runs at most once per L2 demand
 * access with the prefetcher on.
 */

#include "cache_hierarchy.h"

#include "obs/metrics.h"
#include "trace/address_stream.h"

namespace speclens {
namespace uarch {

obs::Counter &
CacheHierarchy::outOfDomainDrops()
{
    static obs::Counter &drops =
        obs::Registry::global().counter("uarch.prefetch.out_of_domain");
    return drops;
}

std::string
prefetcherKindName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::NextLine: return "next-line";
      case PrefetcherKind::Stride: return "stride";
      case PrefetcherKind::Stream: return "stream";
    }
    return "unknown";
}

void
CacheHierarchyConfig::hashInto(stats::Fingerprinter &fp) const
{
    fp.tag("caches");
    l1i.hashInto(fp);
    l1d.hashInto(fp);
    l2.hashInto(fp);
    fp.boolean(l3.has_value());
    if (l3)
        l3->hashInto(fp);
    fp.u64(l2_prefetch_degree);
    fp.u64(static_cast<std::uint64_t>(prefetcher));
    fp.boolean(dram.has_value());
    if (dram)
        dram->hashInto(fp);
}

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &config)
    : l1i_cache_(config.l1i),
      l1d_cache_(config.l1d),
      l2_cache_(config.l2)
{
    if (config.l3)
        l3_cache_ = std::make_unique<Cache>(*config.l3);
    prefetcher_.kind = config.prefetcher;
    prefetcher_.degree = config.l2_prefetch_degree;
    prefetcher_.line_bytes = l2_cache_.config().line_bytes;
    if (prefetcher_.degree != 0) {
        l2_prefetch_bits_.assign(l2_cache_.config().sets() *
                                     l2_cache_.config().associativity,
                                 0);
        if (prefetcher_.kind == PrefetcherKind::Stride)
            prefetcher_.stride_table.assign(L2Prefetcher::kStrideEntries,
                                            L2Prefetcher::StrideEntry{});
    }
    if (config.dram)
        dram_ = std::make_unique<DramModel>(*config.dram);
    // Register the drop count with the prefetcher, so that every
    // metrics snapshot of a prefetching run shows it, zero included.
    if (prefetcher_.degree != 0)
        outOfDomainDrops();
}

void
CacheHierarchy::noteDemandFill()
{
    std::size_t slot = l2_cache_.lastIndex();
    if (l2_prefetch_bits_[slot]) {
        l2_prefetch_bits_[slot] = 0;
        ++prefetch_evicted_unused_;
    }
}

void
CacheHierarchy::issuePrefetch(std::uint64_t target)
{
    // The engines extrapolate, so a target can leave the address domain
    // (a stride run past the last data region, or wrapped below 0).
    // No level may see it: its tag would not fit the 32-bit tag word.
    if (target >= trace::kAddressLimit) {
        outOfDomainDrops().add();
        return;
    }
    if (l2_cache_.contains(target))
        return;
    // Prefetches install through L3 (and DRAM on an L3 miss) into L2
    // but are not demand traffic: they touch no SideCounters.
    bool l3_hit = l3_cache_ && l3_cache_->access(target);
    if (!l3_hit && dram_)
        dram_->access(target);
    l2_cache_.access(target);
    std::size_t slot = l2_cache_.lastIndex();
    if (l2_prefetch_bits_[slot])
        ++prefetch_evicted_unused_; // overwrote an unconsumed prefetch
    l2_prefetch_bits_[slot] = 1;
    ++prefetch_fills_;
}

void
CacheHierarchy::onL2DemandHit(std::uint64_t address, std::uint64_t pc)
{
    std::size_t slot = l2_cache_.lastIndex();
    bool was_prefetched = l2_prefetch_bits_[slot] != 0;
    if (was_prefetched) {
        l2_prefetch_bits_[slot] = 0;
        ++prefetch_useful_;
    }
    prefetcher_.demand(address, pc, /*hit=*/true, was_prefetched,
                       [this](std::uint64_t target) {
                           issuePrefetch(target);
                       });
}

void
CacheHierarchy::onL2DemandMiss(std::uint64_t address, std::uint64_t pc)
{
    // The demand fill from Cache::access landed at lastIndex(); account
    // a displaced prefetched line before prefetch issue moves the
    // index.
    noteDemandFill();
    prefetcher_.demand(address, pc, /*hit=*/false, /*was_prefetched=*/false,
                       [this](std::uint64_t target) {
                           issuePrefetch(target);
                       });
}

void
CacheHierarchy::retireUnusedPrefetches()
{
    for (std::uint8_t &bit : l2_prefetch_bits_) {
        if (bit) {
            bit = 0;
            ++prefetch_evicted_unused_;
        }
    }
}

} // namespace uarch
} // namespace speclens
