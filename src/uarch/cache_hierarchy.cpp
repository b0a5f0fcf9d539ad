/**
 * @file
 * Cache hierarchy implementation: prefetch engines, usefulness
 * accounting and the DRAM hookup.  The hot L1/L2/L3 fallthrough lives
 * in the header; everything here runs at most once per L2 demand
 * access with the prefetcher on.
 */

#include "cache_hierarchy.h"

#include <algorithm>

namespace speclens {
namespace uarch {

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
      l2_cache_(config.l2),
      prefetch_degree_(config.l2_prefetch_degree),
      prefetcher_kind_(config.prefetcher)
{
    if (config.l3)
        l3_cache_ = std::make_unique<Cache>(*config.l3);
    if (prefetch_degree_ != 0) {
        l2_prefetch_bits_.assign(l2_cache_.config().sets() *
                                     l2_cache_.config().associativity,
                                 0);
        if (prefetcher_kind_ == PrefetcherKind::Stride)
            stride_table_.assign(kStrideEntries, StrideEntry{});
    }
    if (config.dram)
        dram_ = std::make_unique<DramModel>(*config.dram);
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
CacheHierarchy::prefetchWindow(std::uint64_t address)
{
    std::uint64_t line = l2_cache_.config().line_bytes;
    for (unsigned i = 1; i <= prefetch_degree_; ++i)
        issuePrefetch(address + i * line);
}

void
CacheHierarchy::trainStrideAndIssue(std::uint64_t address, std::uint64_t pc)
{
    std::uint64_t line_bytes = l2_cache_.config().line_bytes;
    std::uint64_t line = address / line_bytes;
    StrideEntry &entry = stride_table_[(pc >> 2) & (kStrideEntries - 1)];
    if (!entry.valid) {
        entry.valid = 1;
        entry.last_line = line;
        entry.delta = 0;
        entry.confidence = 0;
        return;
    }
    std::int64_t delta = static_cast<std::int64_t>(line - entry.last_line);
    if (delta == entry.delta) {
        if (entry.confidence < 3)
            ++entry.confidence;
    } else {
        entry.delta = delta;
        entry.confidence = 0;
    }
    entry.last_line = line;
    if (entry.confidence >= 2 && entry.delta != 0) {
        for (unsigned k = 1; k <= prefetch_degree_; ++k) {
            std::uint64_t target_line =
                line + static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(k) * entry.delta);
            issuePrefetch(target_line * line_bytes);
        }
    }
}

void
CacheHierarchy::streamMiss(std::uint64_t line)
{
    for (StreamWindow &window : stream_windows_) {
        if (window.valid && line > window.last_line &&
            line - window.last_line <= kStreamConfirmDistance) {
            // Second miss just past a tracked window confirms an
            // ascending stream: run ahead of it.
            std::uint64_t line_bytes = l2_cache_.config().line_bytes;
            for (unsigned k = 1; k <= prefetch_degree_; ++k)
                issuePrefetch((line + k) * line_bytes);
            window.last_line = line + prefetch_degree_;
            return;
        }
    }
    stream_windows_[stream_next_] = StreamWindow{line, 1};
    stream_next_ = (stream_next_ + 1) % kStreamWindows;
}

void
CacheHierarchy::streamPrefetchedHit(std::uint64_t line)
{
    for (StreamWindow &window : stream_windows_) {
        if (window.valid && window.last_line >= line &&
            window.last_line - line < kStreamHitWindow) {
            // The stream is consuming what we fetched: extend it.
            std::uint64_t line_bytes = l2_cache_.config().line_bytes;
            for (unsigned k = 1; k <= prefetch_degree_; ++k)
                issuePrefetch((window.last_line + k) * line_bytes);
            window.last_line += prefetch_degree_;
            return;
        }
    }
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
    switch (prefetcher_kind_) {
      case PrefetcherKind::NextLine:
        // Consuming a prefetched line confirms the stream: fetch the
        // next window so the prefetcher stays ahead.
        if (was_prefetched)
            prefetchWindow(address);
        break;
      case PrefetcherKind::Stride:
        trainStrideAndIssue(address, pc);
        break;
      case PrefetcherKind::Stream:
        if (was_prefetched)
            streamPrefetchedHit(address / l2_cache_.config().line_bytes);
        break;
    }
}

void
CacheHierarchy::onL2DemandMiss(std::uint64_t address, std::uint64_t pc)
{
    // The demand fill from Cache::access landed at lastIndex(); account
    // a displaced prefetched line before prefetch issue moves the
    // index.
    noteDemandFill();
    switch (prefetcher_kind_) {
      case PrefetcherKind::NextLine:
        prefetchWindow(address);
        break;
      case PrefetcherKind::Stride:
        trainStrideAndIssue(address, pc);
        break;
      case PrefetcherKind::Stream:
        streamMiss(address / l2_cache_.config().line_bytes);
        break;
    }
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
