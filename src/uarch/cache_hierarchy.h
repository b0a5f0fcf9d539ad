/**
 * @file
 * Three-level cache hierarchy with split L1, unified L2 and optional
 * unified L3 (machines such as the Table IV Xeon E5405 expose only two
 * levels).
 *
 * The hierarchy tracks instruction-side and data-side miss counts
 * separately at every level because the paper reports L2D and L2I MPKI
 * as distinct metrics (Tables II/III).
 *
 * The memory-centric extension hangs off the L2: a pluggable data
 * prefetcher (next-line, PC-indexed stride, or stream detector) fills
 * L2/L3 ahead of demand, and an optional DRAM row-buffer model sits
 * behind the last level.  Prefetch usefulness is tracked with one bit
 * per L2 slot — set when a prefetch fills the slot, cleared (and
 * counted) when a demand access consumes it or a later fill evicts it —
 * so the accounting identity
 *
 *     prefetch_fills == prefetch_useful + prefetch_evicted_unused
 *                       + (bits still set)
 *
 * holds exactly at every instruction boundary, for any window length.
 * The previous design kept prefetched lines in an unordered_set that
 * was wiped wholesale past 65536 entries, which made coverage and
 * accuracy drift once the wipe landed and left stale entries when a
 * prefetched line was evicted and later re-fetched on demand.
 */

#ifndef SPECLENS_UARCH_CACHE_HIERARCHY_H
#define SPECLENS_UARCH_CACHE_HIERARCHY_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "uarch/cache.h"
#include "uarch/dram_model.h"

namespace speclens {
namespace obs {
class Counter;
}
namespace verify {
class StateAuditor;
}
namespace uarch {

/** Level that serviced a request. */
enum class ServiceLevel : std::uint8_t { L1, L2, L3, Memory };

/**
 * L2 data-prefetch engine.  Only meaningful when
 * CacheHierarchyConfig::l2_prefetch_degree is non-zero; with a degree
 * of zero the prefetcher is off regardless of kind, which keeps the
 * Table IV machine fingerprints' semantics (calibration folds the
 * prefetch effect into the workload streaming parameters).
 */
enum class PrefetcherKind : std::uint8_t {
    NextLine, //!< Fill the next N lines after a demand miss.
    Stride,   //!< PC-indexed stride table with confidence counters.
    Stream,   //!< Ascending-stream detector over a small window set.
};

/** Stable lower-case name ("next-line", "stride", "stream"). */
std::string prefetcherKindName(PrefetcherKind kind);

/**
 * The L2 data-prefetch engine: the one statement of each engine's
 * policy (next-line window, stride confidence, stream confirm and
 * extend).  demand() sees one L2 demand data access, trains on it and
 * hands every prefetch target address, in issue order, to a sink the
 * caller supplies.  CacheHierarchy's sink installs the line
 * (issuePrefetch); the closed-form prewarm replay's sink checks its
 * proof and books the fill symbolically (src/uarch/prewarm.cpp).  Plain
 * data, so the replay can copy a hierarchy's engine, read and shift its
 * state, and hand the final state back with one assignment.
 */
struct L2Prefetcher
{
    /** One slot of the stride engine's PC-indexed table. */
    struct StrideEntry
    {
        std::uint64_t last_line = 0;
        std::int64_t delta = 0; //!< Line delta of the tracked stride.
        std::uint8_t confidence = 0; //!< Saturates at 3; issue at >= 2.
        std::uint8_t valid = 0;
    };

    /** One tracked ascending stream of the stream engine. */
    struct StreamWindow
    {
        std::uint64_t last_line = 0; //!< Furthest line fetched so far.
        std::uint8_t valid = 0;
    };

    static constexpr std::size_t kStrideEntries = 64;
    static constexpr std::size_t kStreamWindows = 8;
    /** A miss within this many lines past a window confirms it. */
    static constexpr std::uint64_t kStreamConfirmDistance = 4;
    /** A prefetched-line hit at most this far behind a window's edge
     *  extends that window. */
    static constexpr std::uint64_t kStreamHitWindow = 64;

    /**
     * One L2 demand data access to @p address by the instruction at
     * @p pc: @p hit when L2 held the line, @p was_prefetched when that
     * hit consumed a prefetched line.  Calls issue(target) once per
     * prefetch target address.  Defined below the class.
     */
    template <class Issue>
    void demand(std::uint64_t address, std::uint64_t pc, bool hit,
                bool was_prefetched, Issue &&issue);

    PrefetcherKind kind = PrefetcherKind::NextLine;
    unsigned degree = 0; //!< Lines per trigger; zero = prefetcher off.
    std::uint64_t line_bytes = 64;

    /** Stride table; sized only for an active PrefetcherKind::Stride. */
    std::vector<StrideEntry> stride_table;

    std::array<StreamWindow, kStreamWindows> windows{};
    std::size_t next = 0; //!< Round-robin window allocation cursor.
};

/** Geometry of the whole hierarchy. */
struct CacheHierarchyConfig
{
    CacheConfig l1i{"L1I", 32 * 1024, 8, 64, ReplacementPolicy::Lru};
    CacheConfig l1d{"L1D", 32 * 1024, 8, 64, ReplacementPolicy::Lru};
    CacheConfig l2{"L2", 256 * 1024, 8, 64, ReplacementPolicy::Lru};

    /** Last-level cache; absent on two-level machines. */
    std::optional<CacheConfig> l3 =
        CacheConfig{"L3", 8 * 1024 * 1024, 16, 64, ReplacementPolicy::Lru};

    /**
     * Aggressiveness of the L2 data prefetcher: how many lines each
     * trigger (demand miss, confirmed stream, confident stride) pulls
     * into L2 (and L3) ahead of the stream.  Zero disables prefetching
     * — the default for the Table IV machine models; the memory-centric
     * machine variants and design-space ablations turn it on.
     */
    unsigned l2_prefetch_degree = 0;

    /** Engine used when l2_prefetch_degree is non-zero. */
    PrefetcherKind prefetcher = PrefetcherKind::NextLine;

    /** Row-buffer model behind the last level; absent = flat memory. */
    std::optional<DramConfig> dram;

    /** Feed every level's geometry, the prefetcher and the DRAM model
     *  to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Side-specific miss counters for one level. */
struct SideCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

/** Functional multi-level cache hierarchy. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const CacheHierarchyConfig &config);

    /**
     * Perform a data access (load or store; both allocate).  @p pc is
     * the program counter of the memory instruction; the stride
     * prefetcher indexes its table with it.  The default keeps
     * pc-less callers (tests, the prewarm walk) valid — they train a
     * single stride slot, which is still deterministic.
     * @return deepest level that had to service the request.
     */
    ServiceLevel accessData(std::uint64_t address, std::uint64_t pc = 0);

    /** Perform an instruction fetch. */
    ServiceLevel accessInstr(std::uint64_t pc);

    /**
     * Apply @p count repeat instruction fetches of the line touched by
     * the immediately preceding accessInstr(), all L1I hits.  Exactly
     * equivalent to calling accessInstr() that many more times with an
     * address on the same line: the line is resident (fetched or
     * filled by the preceding access, and nothing else touches L1I),
     * so the hierarchy never looks past L1 and only the L1I counters
     * and replacement state move — which Cache::repeatLastHit applies
     * in one step.  The playback loop uses this to collapse the
     * sequential-fetch runs that dominate instruction streams.
     */
    void
    repeatInstrHits(std::uint64_t count)
    {
        l1i_stats_.accesses += count;
        l1i_cache_.repeatLastHit(count);
    }

    /** Same as repeatInstrHits() for the data side / L1D. */
    void
    repeatDataHits(std::uint64_t count)
    {
        l1d_stats_.accesses += count;
        l1d_cache_.repeatLastHit(count);
    }

    /**
     * Keep every level's stamps within 32 bits for the next @p steps
     * steps (see Cache::reserveTicks).  A step is one record of the
     * playback loop or one element of the prewarm walk: at most one
     * instruction fetch and one data access, with every repeat run
     * flushed before the call.  It ticks L1I and L1D at most once
     * each, and L2 and L3 at most 2 + degree times (a demand probe per
     * side, plus one per prefetch the data access issues).
     */
    void
    reserveTicks(std::uint64_t steps)
    {
        l1i_cache_.reserveTicks(steps);
        l1d_cache_.reserveTicks(steps);
        const std::uint64_t shared = steps * (2 + prefetcher_.degree);
        l2_cache_.reserveTicks(shared);
        if (l3_cache_)
            l3_cache_->reserveTicks(shared);
    }

    /**
     * True when the prewarm walk may use the cold fill path: nothing
     * has been accessed yet (so every level is empty and every probe
     * of a distinct-line walk must miss) and the prefetcher is off (a
     * prefetch fill would break the guaranteed-miss argument by
     * planting successor lines in L2/L3 ahead of the walk).  A cold
     * hierarchy with the prefetcher on walks the general path, which
     * opens DRAM rows; the closed-form solver reproduces that state
     * too (DESIGN §5e-r4).
     */
    bool
    prewarmFillEligible() const
    {
        return prefetcher_.degree == 0 && l1i_stats_.accesses == 0 &&
               l1d_stats_.accesses == 0;
    }

    /**
     * Fill one distinct line of the cold data walk into every level —
     * what accessData() does when every level misses, which each probe
     * of the walk is guaranteed to.  Only valid under
     * prewarmFillEligible() at walk start.  Unlike accessData() it does
     * not touch the DRAM model: a prefetch-free prewarm is defined to
     * leave every row closed, and the analytic path does the same (see
     * DESIGN §5h).
     */
    void
    prewarmFillData(std::uint64_t address)
    {
        ++l1d_stats_.accesses;
        ++l1d_stats_.misses;
        l1d_cache_.access(address);
        ++l2d_stats_.accesses;
        ++l2d_stats_.misses;
        l2_cache_.access(address);
        ++l3_stats_.accesses;
        ++l3_stats_.misses;
        if (l3_cache_)
            l3_cache_->access(address);
    }

    /** Instruction-side counterpart of prewarmFillData(). */
    void
    prewarmFillInstr(std::uint64_t pc)
    {
        ++l1i_stats_.accesses;
        ++l1i_stats_.misses;
        l1i_cache_.access(pc);
        ++l2i_stats_.accesses;
        ++l2i_stats_.misses;
        l2_cache_.access(pc);
        ++l3_stats_.accesses;
        ++l3_stats_.misses;
        if (l3_cache_)
            l3_cache_->access(pc);
    }

    /** L1I line size, for the playback loop's same-line run tracking. */
    std::uint32_t instrLineBytes() const
    {
        return l1i_cache_.config().line_bytes;
    }

    /** L1D line size, for the playback loop's same-line run tracking. */
    std::uint32_t dataLineBytes() const
    {
        return l1d_cache_.config().line_bytes;
    }

    const SideCounters &l1d() const { return l1d_stats_; }
    const SideCounters &l1i() const { return l1i_stats_; }
    const SideCounters &l2d() const { return l2d_stats_; }
    const SideCounters &l2i() const { return l2i_stats_; }
    const SideCounters &l3() const { return l3_stats_; }

    /** True when the hierarchy has a third level. */
    bool hasL3() const { return l3_cache_ != nullptr; }

    /** Lines brought in by the L2 prefetcher (not demand misses). */
    std::uint64_t prefetchFills() const { return prefetch_fills_; }

    /** Prefetched lines later consumed by a demand data access. */
    std::uint64_t prefetchUseful() const { return prefetch_useful_; }

    /** Prefetched lines evicted before any demand access used them. */
    std::uint64_t prefetchEvictedUnused() const
    {
        return prefetch_evicted_unused_;
    }

    /**
     * Retire every still-unconsumed prefetched line as evicted-unused
     * and clear its slot bit.  Called at the warmup->measurement
     * boundary: measured counters are snapshot deltas, so a line
     * prefetched during warmup must not surface as a measured useful
     * hit with no measured fill to match — that is exactly the
     * accounting drift the per-slot bits exist to prevent.  The lines
     * themselves stay resident; only the attribution is closed out.
     */
    void retireUnusedPrefetches();

    /** Way-predictor hits summed over every level. */
    std::uint64_t
    wayPredHits() const
    {
        return l1i_cache_.wayPredHits() + l1d_cache_.wayPredHits() +
               l2_cache_.wayPredHits() +
               (l3_cache_ ? l3_cache_->wayPredHits() : 0);
    }

    /** Way-predictor mispredictions summed over every level. */
    std::uint64_t
    wayPredMispredicts() const
    {
        return l1i_cache_.wayPredMispredicts() +
               l1d_cache_.wayPredMispredicts() +
               l2_cache_.wayPredMispredicts() +
               (l3_cache_ ? l3_cache_->wayPredMispredicts() : 0);
    }

    std::uint64_t dramAccesses() const
    {
        return dram_ ? dram_->accesses() : 0;
    }
    std::uint64_t dramRowHits() const
    {
        return dram_ ? dram_->rowHits() : 0;
    }
    std::uint64_t dramBusyCycles() const
    {
        return dram_ ? dram_->busyCycles() : 0;
    }
    std::uint64_t dramBudgetCycles() const
    {
        return dram_ ? dram_->budgetCycles() : 0;
    }

  private:
    /** Defined inline below; one call per instruction fetch or memory
     *  op, so it must fold into the playback loop. */
    ServiceLevel accessCommon(Cache &l1, SideCounters &l1_stats,
                              SideCounters &l2_side, std::uint64_t address,
                              std::uint64_t pc, bool allow_prefetch);

    /** Demand data hit in L2: consume the slot's prefetched bit and
     *  let the engine confirm/extend (cold path, out of line). */
    void onL2DemandHit(std::uint64_t address, std::uint64_t pc);

    /** Demand data miss in L2: account the demand fill's eviction and
     *  let the engine train and issue (cold path, out of line). */
    void onL2DemandMiss(std::uint64_t address, std::uint64_t pc);

    /** A demand fill just landed at the L2's lastIndex(): if it
     *  evicted a line still carrying its prefetched bit, count it. */
    void noteDemandFill();

    /** Install one prefetch target through L3 (and DRAM) into L2, or
     *  drop it when it lies outside trace::kAddressLimit. */
    void issuePrefetch(std::uint64_t target);

    /** The uarch.prefetch.out_of_domain counter: prefetch targets
     *  dropped by issuePrefetch, or by the prewarm replay of it. */
    static obs::Counter &outOfDomainDrops();

    Cache l1i_cache_;
    Cache l1d_cache_;
    Cache l2_cache_;
    std::unique_ptr<Cache> l3_cache_;

    SideCounters l1i_stats_;
    SideCounters l1d_stats_;
    SideCounters l2i_stats_;
    SideCounters l2d_stats_;
    SideCounters l3_stats_;

    L2Prefetcher prefetcher_;
    std::uint64_t prefetch_fills_ = 0;
    std::uint64_t prefetch_useful_ = 0;
    std::uint64_t prefetch_evicted_unused_ = 0;

    /**
     * One bit per L2 slot (set-major, same layout as the tag array):
     * set when a prefetch fills the slot, cleared when a demand access
     * consumes it (-> prefetch_useful_) or a later fill overwrites it
     * (-> prefetch_evicted_unused_).  Sized with the L2 and never
     * cleared mid-run, so the fills/useful/evicted identity in the file
     * comment is exact for any window.  Empty when the prefetcher is
     * off.
     */
    std::vector<std::uint8_t> l2_prefetch_bits_;

    /** Row-buffer model behind the last level; null when absent. */
    std::unique_ptr<DramModel> dram_;

    /** Closed-form prewarm writes per-level caches and side counters
     *  directly (see src/uarch/prewarm.h). */
    friend class PrewarmSolver;

    /** The invariant prover audits every level (src/verify). */
    friend class verify::StateAuditor;
};

// ---------------------------------------------------------------------
// Hot-path definitions, in the header so the L1 -> L2 -> L3
// fallthrough inlines into the playback loop.  Prefetch handling is
// the exception: it is rare and engine-heavy, so it stays out of line
// behind the degree check.

template <class Issue>
void
L2Prefetcher::demand(std::uint64_t address, std::uint64_t pc, bool hit,
                     bool was_prefetched, Issue &&issue)
{
    const std::uint64_t line = address / line_bytes;
    switch (kind) {
      case PrefetcherKind::NextLine:
        // A miss, or consuming a prefetched line (which confirms the
        // stream), fetches the next window so the prefetcher stays
        // ahead.
        if (!hit || was_prefetched)
            for (unsigned i = 1; i <= degree; ++i)
                issue(address + i * line_bytes);
        return;
      case PrefetcherKind::Stride: {
        StrideEntry &entry = stride_table[(pc >> 2) & (kStrideEntries - 1)];
        if (!entry.valid) {
            entry = StrideEntry{line, 0, 0, 1};
            return;
        }
        auto delta = static_cast<std::int64_t>(line - entry.last_line);
        if (delta == entry.delta) {
            if (entry.confidence < 3)
                ++entry.confidence;
        } else {
            entry.delta = delta;
            entry.confidence = 0;
        }
        entry.last_line = line;
        if (entry.confidence >= 2 && entry.delta != 0)
            for (unsigned k = 1; k <= degree; ++k)
                issue((line + static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(k) *
                                  entry.delta)) *
                      line_bytes);
        return;
      }
      case PrefetcherKind::Stream:
        if (!hit) {
            for (StreamWindow &window : windows) {
                if (window.valid && line > window.last_line &&
                    line - window.last_line <= kStreamConfirmDistance) {
                    // Second miss just past a tracked window confirms
                    // an ascending stream: run ahead of it.
                    for (unsigned k = 1; k <= degree; ++k)
                        issue((line + k) * line_bytes);
                    window.last_line = line + degree;
                    return;
                }
            }
            windows[next] = StreamWindow{line, 1};
            next = (next + 1) % kStreamWindows;
        } else if (was_prefetched) {
            for (StreamWindow &window : windows) {
                if (window.valid && window.last_line >= line &&
                    window.last_line - line < kStreamHitWindow) {
                    // The stream is consuming what we fetched: extend
                    // it.
                    for (unsigned k = 1; k <= degree; ++k)
                        issue((window.last_line + k) * line_bytes);
                    window.last_line += degree;
                    return;
                }
            }
        }
        return;
    }
}

inline ServiceLevel
CacheHierarchy::accessCommon(Cache &l1, SideCounters &l1_stats,
                             SideCounters &l2_side, std::uint64_t address,
                             std::uint64_t pc, bool allow_prefetch)
{
    ++l1_stats.accesses;
    if (l1.access(address))
        return ServiceLevel::L1;
    ++l1_stats.misses;

    ++l2_side.accesses;
    if (l2_cache_.access(address)) {
        if (prefetcher_.degree != 0 && allow_prefetch)
            onL2DemandHit(address, pc);
        return ServiceLevel::L2;
    }
    ++l2_side.misses;
    if (prefetcher_.degree != 0) {
        if (allow_prefetch) {
            onL2DemandMiss(address, pc);
        } else {
            // Instruction-side demand fills do not trigger the data
            // prefetcher, but they can still evict an unconsumed
            // prefetched line, which the identity must see.
            noteDemandFill();
        }
    }

    if (!l3_cache_) {
        // Two-level machine: an L2 miss goes to memory; the "L3"
        // counters then mirror the L2 miss stream so last-level MPKI
        // remains well-defined for the metric set.
        ++l3_stats_.accesses;
        ++l3_stats_.misses;
        if (dram_)
            dram_->access(address);
        return ServiceLevel::Memory;
    }

    ++l3_stats_.accesses;
    if (l3_cache_->access(address))
        return ServiceLevel::L3;
    ++l3_stats_.misses;
    if (dram_)
        dram_->access(address);
    return ServiceLevel::Memory;
}

inline ServiceLevel
CacheHierarchy::accessData(std::uint64_t address, std::uint64_t pc)
{
    return accessCommon(l1d_cache_, l1d_stats_, l2d_stats_, address, pc,
                        /*allow_prefetch=*/true);
}

inline ServiceLevel
CacheHierarchy::accessInstr(std::uint64_t pc)
{
    // The modelled prefetcher is a data-stream prefetcher.
    return accessCommon(l1i_cache_, l1i_stats_, l2i_stats_, pc, pc,
                        /*allow_prefetch=*/false);
}

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_CACHE_HIERARCHY_H
