/**
 * @file
 * Two-level TLB hierarchy with page-walk accounting.
 *
 * The paper's metric set (Table III) includes L1 I/D TLB misses, last
 * level TLB misses and page walks per million instructions; these are
 * the features that separate PageRank and cactuBSSN from the rest of
 * the suite in its case studies.  The model is a functional two-level
 * translation cache: per-side L1 TLBs backed by an optional shared
 * second-level TLB; a second-level miss costs a page walk.
 */

#ifndef SPECLENS_UARCH_TLB_H
#define SPECLENS_UARCH_TLB_H

#include <cstdint>
#include <memory>
#include <optional>

#include "uarch/cache.h"

namespace speclens {
namespace verify {
class StateAuditor;
}
namespace uarch {

/** Geometry of a single TLB. */
struct TlbConfig
{
    std::string name = "tlb";
    std::uint32_t entries = 64;

    /** Ways; use `entries` for a fully associative TLB. */
    std::uint32_t associativity = 4;

    /** Page size translated by this TLB. */
    std::uint64_t page_bytes = 4096;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;

    /** Equivalent cache geometry (entries as page-granular lines). */
    CacheConfig asCacheConfig() const;
};

/** Outcome of one translation request. */
struct TlbAccessResult
{
    bool l1_hit = false;   //!< Hit in the first-level TLB.
    bool l2_hit = false;   //!< Hit in the shared second-level TLB.
    bool page_walk = false; //!< Missed every level.
};

/** Configuration of the full translation hierarchy. */
struct TlbHierarchyConfig
{
    TlbConfig itlb{"ITLB", 128, 8, 4096};
    TlbConfig dtlb{"DTLB", 64, 4, 4096};

    /** Shared second-level TLB; absent on older machines. */
    std::optional<TlbConfig> l2tlb = TlbConfig{"L2TLB", 1536, 12, 4096};

    /** Feed every level's geometry to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Two-level TLB hierarchy. */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const TlbHierarchyConfig &config);

    /** Translate a data address. */
    TlbAccessResult accessData(std::uint64_t address);

    /** Translate an instruction-fetch address. */
    TlbAccessResult accessInstr(std::uint64_t pc);

    /**
     * Apply @p count repeat translations of the page touched by the
     * immediately preceding accessInstr(), all ITLB hits — equivalent
     * to that many more accessInstr() calls on the same page, because
     * the entry is resident after the preceding access and the hit
     * state update collapses (see Cache::repeatLastHit).
     */
    void repeatInstrHits(std::uint64_t count)
    {
        itlb_.repeatLastHit(count);
    }

    /** Same as repeatInstrHits() for the data side / DTLB. */
    void repeatDataHits(std::uint64_t count)
    {
        dtlb_.repeatLastHit(count);
    }

    /**
     * TLB counterpart of CacheHierarchy::reserveTicks(): a step
     * translates at most one instruction and one data address, so it
     * ticks each L1 TLB at most once and the L2 TLB at most twice.
     */
    void
    reserveTicks(std::uint64_t steps)
    {
        itlb_.reserveTicks(steps);
        dtlb_.reserveTicks(steps);
        if (l2tlb_)
            l2tlb_->reserveTicks(2 * steps);
    }

    /** True when no translation has happened yet (all levels empty). */
    bool
    untouched() const
    {
        return itlb_.accesses() == 0 && dtlb_.accesses() == 0;
    }

    /** ITLB page size, for same-page run tracking in playback. */
    std::uint64_t instrPageBytes() const
    {
        return itlb_.config().line_bytes;
    }

    /** DTLB page size, for same-page run tracking in playback. */
    std::uint64_t dataPageBytes() const
    {
        return dtlb_.config().line_bytes;
    }

    std::uint64_t dtlbAccesses() const { return dtlb_.accesses(); }
    std::uint64_t dtlbMisses() const { return dtlb_.misses(); }
    std::uint64_t itlbAccesses() const { return itlb_.accesses(); }
    std::uint64_t itlbMisses() const { return itlb_.misses(); }
    std::uint64_t l2tlbMisses() const { return l2tlb_misses_; }
    std::uint64_t pageWalks() const { return page_walks_; }

  private:
    /** Defined inline below; called once or twice per instruction. */
    TlbAccessResult accessCommon(Cache &l1, std::uint64_t address);

    Cache itlb_;
    Cache dtlb_;
    std::unique_ptr<Cache> l2tlb_;
    std::uint64_t l2tlb_misses_ = 0;
    std::uint64_t page_walks_ = 0;

    /** Closed-form prewarm writes the per-level TLBs and walk counters
     *  directly (see src/uarch/prewarm.h). */
    friend class PrewarmSolver;

    /** The invariant prover audits level geometry and walk counters. */
    friend class verify::StateAuditor;
};

// ---------------------------------------------------------------------
// Hot-path definitions, in the header so translation folds into the
// playback loop next to the cache probes.

inline TlbAccessResult
TlbHierarchy::accessCommon(Cache &l1, std::uint64_t address)
{
    TlbAccessResult result;
    if (l1.access(address)) {
        result.l1_hit = true;
        return result;
    }
    if (l2tlb_) {
        if (l2tlb_->access(address)) {
            result.l2_hit = true;
            return result;
        }
        ++l2tlb_misses_;
    } else {
        // Without a second level every L1 miss is a last-level miss.
        ++l2tlb_misses_;
    }
    result.page_walk = true;
    ++page_walks_;
    return result;
}

inline TlbAccessResult
TlbHierarchy::accessData(std::uint64_t address)
{
    return accessCommon(dtlb_, address);
}

inline TlbAccessResult
TlbHierarchy::accessInstr(std::uint64_t pc)
{
    return accessCommon(itlb_, pc);
}

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_TLB_H
