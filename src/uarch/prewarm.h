/**
 * @file
 * Closed-form (analytic) cache/TLB prewarm.
 *
 * Playback::prewarm() streams every line of the LLC-resident working
 * sets (plus the code footprint) through the cold hierarchy once,
 * collapsing same-line repeats with Cache::repeatLastHit(), but the
 * walk still executes one iteration per distinct line and page.  This
 * solver removes the loop entirely: the warmup stream is a short list
 * of arithmetic progressions of distinct units (lines or pages), so
 * the final state of every set — which tags survive, in which ways,
 * with which replacement metadata and stamp values — has a closed
 * form, derived here set by set without visiting the stream.
 *
 * The proof obligations (DESIGN.md §5e-r2 and §5e-r4):
 *
 *  - LRU: in a pure fill stream the per-set stamps are strictly
 *    increasing in fill order (repeats only re-stamp the most recent
 *    fill), so victims are round-robin and the p-th in-set fill lands
 *    in way p mod assoc.  The surviving tag of way w is therefore the
 *    unit of the last in-set fill ordinal congruent to w, and its
 *    stamp is that unit's last element tick — both computable from
 *    the per-set fill count alone.
 *  - Per-set fill counts: the units reaching set s from a progression
 *    {u0 + j*d : j < M} are the solutions of a linear congruence —
 *    count and j-positions follow from gcd/modular-inverse arithmetic
 *    (valid for power-of-two and modulo-indexed set counts alike).
 *  - Tree-PLRU: the cold-fill victim schedule is derived by replaying
 *    2*assoc fills through the exact victim/touch primitives
 *    (plruVictimWay/plruTouchState) and verified periodic on the spot;
 *    the verified schedule gives every way's last fill and the final
 *    tree state in O(1) per set.  If verification ever fails the
 *    whole prewarm falls back to the walk.
 *  - Way prediction: the walk never hits in L1 except by repeating the
 *    line it just filled, so every predictor entry holds the way of
 *    the last fill into its (set, partition).  The newest-first scan
 *    writes it at the first visit; it carries on past the survivors
 *    only while a multi-MRU partition's last fill was itself evicted.
 *  - Active L2 prefetcher: L1D, L1I and the TLBs never see a prefetch,
 *    so their segments are unchanged.  Below L1 each walked region is
 *    replayed symbolically — a copy of the hierarchy's own
 *    L2Prefetcher, whose targets go to a proof-checking sink, plus the
 *    lines filled ahead of the demand, with no cache arrays — until
 *    its state relative to the demand line repeats; the repeating period then stands for
 *    every later one (grouped segments), so the replay costs the ramp,
 *    one period and the tail.  The replay proves that L2 fills ascend,
 *    that no line is queried after its eviction and that every L3
 *    probe misses; L2 stamps are demand-hit ticks, unconsumed
 *    prefetches surviving in L2 keep their bit, evictions of the rest
 *    follow by conservation, and DRAM replays the L3-miss order.
 *
 * Fallback contract: apply() either computes the exact walk-equivalent
 * state for the WHOLE hierarchy or mutates nothing and returns false,
 * in which case the caller must run the walking path.  Equivalence is
 * enforced bit-for-bit by tests/uarch/prewarm_equivalence_test.cpp and
 * end to end by the parity suite, whose reference model always walks.
 */

#ifndef SPECLENS_UARCH_PREWARM_H
#define SPECLENS_UARCH_PREWARM_H

#include <cstdint>
#include <vector>

#include "trace/workload_profile.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/tlb.h"

namespace speclens {
namespace uarch {

struct RegionPlan;

/** Closed-form prewarm entry point (stateless; see file comment). */
class PrewarmSolver
{
  public:
    /**
     * Why apply() handed a prewarm back to the walk.  One counter per
     * reason, uarch.prewarm.refused.<refusalName(reason)>, sits next
     * to uarch.prewarm.analytic/walked.
     */
    enum class Refusal : std::uint8_t {
        None,           //!< Solved; nothing refused.
        Touched,        //!< The hierarchy was used before (phase 2+).
        LineSize,       //!< A cache line differs from the trace line.
        PageSize,       //!< The TLB levels disagree on the page size.
        StrideShape,    //!< A region's stride does not tile the unit.
        PlruPeriod,     //!< A tree-PLRU schedule failed verification.
        PrefetchPolicy, //!< Prefetching L2 is not LRU, or a level below
                        //!< L1 predicts ways.
        PrefetchShape,  //!< The prefetching replay left its proof
                        //!< (non-ascending fill, line queried after
                        //!< its eviction, overlapping regions).
        TickRange,      //!< An LRU level would tick past a 32-bit
                        //!< stamp (Cache::kMaxStamp).
    };

    /** Stable snake_case name of @p reason ("touched", ...). */
    static const char *refusalName(Refusal reason);

    /**
     * One run of fills in stream order: an arithmetic progression of
     * @p fills elements starting at @p u0 with step @p step.  Element
     * j fills unit u0 + j*step, or — when @p group is non-empty — the
     * units u0 + j*step + group[k] in group order (a demand line plus
     * the lines its prefetch brings in, or one repeating period of a
     * prefetching walk).  Ungrouped element j absorbs @p rep
     * consecutive stream elements (the last unit clamps to the
     * segment's @p elems total).  tick0 is the structure's cumulative
     * element count before the segment, fixing absolute stamp values.
     *
     * The L2 of a prefetching walk also sees demand hits, so its
     * segments carry per-group-entry L2 ticks (@p fill_tick, for
     * element 0, advancing @p tick_step per element), whether a
     * prefetch made each fill, and the walked region (@p region) whose
     * demand schedule gives a demanded line its hit tick.
     */
    struct Segment
    {
        std::uint64_t u0 = 0;
        std::uint64_t step = 1;
        std::uint64_t fills = 0;
        std::uint64_t rep = 1;
        std::uint64_t elems = 0;
        std::uint64_t tick0 = 0;
        std::vector<std::uint64_t> group;
        std::vector<std::uint64_t> fill_tick;
        std::vector<std::uint8_t> prefetched;
        std::uint64_t tick_step = 0;
        const RegionPlan *region = nullptr;

        /** Units filled per element. */
        std::uint64_t
        width() const
        {
            return group.empty() ? 1 : group.size();
        }
    };

    /**
     * Compute the exact final prewarm state of @p caches and @p tlbs
     * for @p profile, or mutate nothing and return false when any
     * structure's reference pattern leaves the provable regime (the
     * caller then walks; @p why, when given, receives the reason).
     * @p llc_lines is the working-set residency bound the walk applies
     * (last-level capacity in lines).
     */
    static bool apply(CacheHierarchy &caches, TlbHierarchy &tlbs,
                      const trace::WorkloadProfile &profile,
                      std::uint64_t llc_lines, Refusal *why = nullptr);

    /**
     * The walking path: stream every LLC-resident line/page through
     * the hierarchy with exact run collapsing.  This is the semantic
     * definition of prewarm; apply() must reproduce its state bit for
     * bit.  Shared by Playback::prewarm() (fallback) and the
     * equivalence tests (reference side).
     */
    static void walk(CacheHierarchy &caches, TlbHierarchy &tlbs,
                     const trace::WorkloadProfile &profile,
                     std::uint64_t llc_lines);

  private:
    /**
     * Write one structure's final state from its segment list.  For a
     * prefetching L2, @p prefetch_bits receives the surviving
     * unconsumed prefetches; the return value is how many there are.
     */
    static std::uint64_t solveCache(Cache &cache,
                                    const std::vector<Segment> &segments,
                                    std::uint64_t accesses,
                                    std::uint64_t hits,
                                    std::uint8_t *prefetch_bits);
};

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_PREWARM_H
