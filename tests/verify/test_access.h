/**
 * @file
 * The one test-side window into private simulator state.
 *
 * src/verify/state_audit.h declares StateAuditor::TestAccess and
 * leaves it incomplete; this header defines it.  As a member of the
 * auditor it shares the auditor's friendship with Cache,
 * CacheHierarchy, TlbHierarchy, DramModel and every predictor, so the
 * seeded-corruption tests can poke one private field through the
 * references below, and the prewarm equivalence tests can flatten the
 * whole prewarm-written state with stateDigest(), while production
 * code sees no test hook at all.
 */

#ifndef SPECLENS_TESTS_VERIFY_TEST_ACCESS_H
#define SPECLENS_TESTS_VERIFY_TEST_ACCESS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/dram_model.h"
#include "uarch/tlb.h"
#include "verify/state_audit.h"

namespace speclens {
namespace verify {

struct StateAuditor::TestAccess
{
    // ---- structures inside a hierarchy ----
    static uarch::Cache &l1d(uarch::CacheHierarchy &h)
    {
        return h.l1d_cache_;
    }
    static uarch::Cache &l2(uarch::CacheHierarchy &h)
    {
        return h.l2_cache_;
    }
    static uarch::Cache &l3(uarch::CacheHierarchy &h)
    {
        return *h.l3_cache_;
    }
    static uarch::DramModel &dram(uarch::CacheHierarchy &h)
    {
        return *h.dram_;
    }

    // ---- one cache (or TLB level) ----
    static std::uint32_t &tag(uarch::Cache &c, std::size_t set,
                              std::size_t way)
    {
        return c.tags_[set * c.config_.associativity + way];
    }
    static std::uint32_t &stamp(uarch::Cache &c, std::size_t set,
                                std::size_t way)
    {
        return c.stamps_[set * c.config_.associativity + way];
    }
    static auto &tick(uarch::Cache &c) { return c.tick_; }
    static auto &config(uarch::Cache &c) { return c.config_; }
    static auto &plru(uarch::Cache &c) { return c.plru_; }
    static auto &hits(uarch::Cache &c) { return c.hits_; }
    static auto &wayPred(uarch::Cache &c) { return c.way_pred_; }
    static auto &wayPredHits(uarch::Cache &c) { return c.way_pred_hits_; }

    // ---- TLB walk counter ----
    static auto &pageWalks(uarch::TlbHierarchy &t) { return t.page_walks_; }

    // ---- prefetcher ----
    static auto &prefetchBits(uarch::CacheHierarchy &h)
    {
        return h.l2_prefetch_bits_;
    }
    static auto &prefetchFills(uarch::CacheHierarchy &h)
    {
        return h.prefetch_fills_;
    }
    static auto &strideTable(uarch::CacheHierarchy &h)
    {
        return h.prefetcher_.stride_table;
    }
    static auto &streamNext(uarch::CacheHierarchy &h)
    {
        return h.prefetcher_.next;
    }

    // ---- DRAM bank state ----
    static auto &openRow(uarch::DramModel &d) { return d.open_row_; }
    static auto &rowOpen(uarch::DramModel &d) { return d.row_open_; }
    static auto &busyCycles(uarch::DramModel &d) { return d.busy_cycles_; }

    // ---- predictor tables ----
    static auto &counters(uarch::BimodalPredictor &p) { return p.counters_; }
    static auto &history(uarch::GsharePredictor &p) { return p.history_; }
    static auto &chooser(uarch::TournamentPredictor &p)
    {
        return p.chooser_;
    }
    static auto &tables(uarch::TageLitePredictor &p) { return p.tables_; }

    /**
     * Flatten every prewarm-written field of @p caches and @p tlbs —
     * per-level tags, defined replacement stamps (LRU valid ways only;
     * tree-PLRU stamps are never written), PLRU words, ticks,
     * last-access indices, way-prediction
     * tables, prefetch bits and engine state, DRAM rows and all
     * access/miss statistics — into one word vector, so the analytic
     * and walking prewarm paths can be compared for exact state
     * equality, not just equal measurement results.
     */
    static std::vector<std::uint64_t>
    stateDigest(const uarch::CacheHierarchy &caches,
                const uarch::TlbHierarchy &tlbs)
    {
        std::vector<std::uint64_t> out;
        appendCacheState(caches.l1i_cache_, out);
        appendCacheState(caches.l1d_cache_, out);
        appendCacheState(caches.l2_cache_, out);
        if (caches.l3_cache_)
            appendCacheState(*caches.l3_cache_, out);
        for (const uarch::SideCounters *side :
             {&caches.l1i_stats_, &caches.l1d_stats_, &caches.l2i_stats_,
              &caches.l2d_stats_, &caches.l3_stats_}) {
            out.push_back(side->accesses);
            out.push_back(side->misses);
        }
        out.push_back(caches.prefetch_fills_);
        out.push_back(caches.prefetch_useful_);
        out.push_back(caches.prefetch_evicted_unused_);
        out.insert(out.end(), caches.l2_prefetch_bits_.begin(),
                   caches.l2_prefetch_bits_.end());
        for (const auto &entry : caches.prefetcher_.stride_table) {
            out.push_back(entry.last_line);
            out.push_back(static_cast<std::uint64_t>(entry.delta));
            out.push_back(entry.confidence);
            out.push_back(entry.valid);
        }
        for (const auto &window : caches.prefetcher_.windows) {
            out.push_back(window.last_line);
            out.push_back(window.valid);
        }
        out.push_back(caches.prefetcher_.next);
        if (caches.dram_) {
            const uarch::DramModel &dram = *caches.dram_;
            out.push_back(dram.accesses_);
            out.push_back(dram.row_hits_);
            out.push_back(dram.busy_cycles_);
            out.push_back(dram.budget_cycles_);
            out.insert(out.end(), dram.open_row_.begin(),
                       dram.open_row_.end());
            out.insert(out.end(), dram.row_open_.begin(),
                       dram.row_open_.end());
        }
        appendCacheState(tlbs.itlb_, out);
        appendCacheState(tlbs.dtlb_, out);
        if (tlbs.l2tlb_)
            appendCacheState(*tlbs.l2tlb_, out);
        out.push_back(tlbs.l2tlb_misses_);
        out.push_back(tlbs.page_walks_);
        return out;
    }

  private:
    /** Append one structure's prewarm-visible state to @p out. */
    static void appendCacheState(const uarch::Cache &cache,
                                 std::vector<std::uint64_t> &out)
    {
        const std::uint64_t slots =
            cache.num_sets_ * cache.config_.associativity;
        const bool stamped =
            cache.config_.policy == uarch::ReplacementPolicy::Lru;
        out.push_back(cache.accesses_);
        out.push_back(cache.hits_);
        out.push_back(cache.tick_);
        out.push_back(cache.last_index_);
        out.insert(out.end(), cache.plru_.begin(), cache.plru_.end());
        out.push_back(cache.way_pred_hits_);
        out.push_back(cache.way_pred_mispredicts_);
        out.insert(out.end(), cache.way_pred_.begin(),
                   cache.way_pred_.end());
        for (std::uint64_t i = 0; i < slots; ++i) {
            const std::uint32_t tag = cache.tags_[i];
            out.push_back(tag); // widened: the digest is 64-bit words
            // Stamps are deliberately uninitialized until written:
            // only LRU writes them, and only for filled ways.
            if (stamped && tag != uarch::Cache::kInvalidTag)
                out.push_back(cache.stamps_[i]);
        }
    }
};

} // namespace verify
} // namespace speclens

#endif // SPECLENS_TESTS_VERIFY_TEST_ACCESS_H
