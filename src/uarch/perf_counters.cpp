/**
 * @file
 * Counter accumulation.
 */

#include "perf_counters.h"

#include <string>

#include "uarch/machine.h"

namespace speclens {
namespace uarch {

PerfCounters &
PerfCounters::operator+=(const PerfCounters &rhs)
{
    instructions += rhs.instructions;
    loads += rhs.loads;
    stores += rhs.stores;
    branches += rhs.branches;
    taken_branches += rhs.taken_branches;
    fp_ops += rhs.fp_ops;
    simd_ops += rhs.simd_ops;
    kernel_instructions += rhs.kernel_instructions;
    l1d_accesses += rhs.l1d_accesses;
    l1d_misses += rhs.l1d_misses;
    l1i_accesses += rhs.l1i_accesses;
    l1i_misses += rhs.l1i_misses;
    l2d_accesses += rhs.l2d_accesses;
    l2d_misses += rhs.l2d_misses;
    l2i_accesses += rhs.l2i_accesses;
    l2i_misses += rhs.l2i_misses;
    l3_accesses += rhs.l3_accesses;
    l3_misses += rhs.l3_misses;
    dtlb_accesses += rhs.dtlb_accesses;
    dtlb_misses += rhs.dtlb_misses;
    itlb_accesses += rhs.itlb_accesses;
    itlb_misses += rhs.itlb_misses;
    l2tlb_misses += rhs.l2tlb_misses;
    page_walks += rhs.page_walks;
    branch_mispredictions += rhs.branch_mispredictions;
    prefetch_fills += rhs.prefetch_fills;
    prefetch_useful += rhs.prefetch_useful;
    prefetch_evicted_unused += rhs.prefetch_evicted_unused;
    way_pred_hits += rhs.way_pred_hits;
    way_pred_mispredicts += rhs.way_pred_mispredicts;
    dram_accesses += rhs.dram_accesses;
    dram_row_hits += rhs.dram_row_hits;
    dram_busy_cycles += rhs.dram_busy_cycles;
    dram_budget_cycles += rhs.dram_budget_cycles;
    return *this;
}

std::vector<verify::Violation>
checkCounterIdentities(const PerfCounters &c, const MachineConfig *machine)
{
    std::vector<verify::Violation> out;
    auto fail = [&out](const char *group, const char *invariant,
                       std::string detail, std::string location = "") {
        out.push_back({group, invariant, std::move(location),
                       std::move(detail)});
    };
    auto count = [](std::uint64_t v) { return std::to_string(v); };

    if (c.loads + c.stores + c.branches + c.fp_ops + c.simd_ops >
        c.instructions)
        fail("counters", "class-sum",
             "instruction classes sum past the retired total");
    if (c.taken_branches > c.branches ||
        c.branch_mispredictions > c.branches)
        fail("counters", "branch-bound",
             "taken/mispredicted branches exceed retired branches");
    if (c.kernel_instructions > c.instructions)
        fail("counters", "kernel-bound",
             "kernel instructions exceed retired instructions");
    const struct
    {
        const char *level;
        std::uint64_t accesses;
        std::uint64_t misses;
    } levels[] = {
        {"l1d", c.l1d_accesses, c.l1d_misses},
        {"l1i", c.l1i_accesses, c.l1i_misses},
        {"l2d", c.l2d_accesses, c.l2d_misses},
        {"l2i", c.l2i_accesses, c.l2i_misses},
        {"l3", c.l3_accesses, c.l3_misses},
        {"dtlb", c.dtlb_accesses, c.dtlb_misses},
        {"itlb", c.itlb_accesses, c.itlb_misses},
    };
    for (const auto &l : levels)
        if (l.misses > l.accesses)
            fail("counters", "miss-bound",
                 "misses (" + count(l.misses) + ") exceed accesses (" +
                     count(l.accesses) + ")",
                 l.level);
    if (c.l2tlb_misses > c.itlb_misses + c.dtlb_misses)
        fail("counters", "walk-bound",
             "L2 TLB misses exceed the L1 TLB miss stream that feeds "
             "them");
    if (c.page_walks != c.l2tlb_misses)
        fail("counters", "walk-consistency",
             "page walks (" + count(c.page_walks) + ") != L2 TLB misses (" +
                 count(c.l2tlb_misses) + ")");
    // Demand-miss plumbing: each level's access stream is the previous
    // level's miss stream (prefetch fills bypass the demand counters,
    // so this holds with prefetching too).
    if (c.l2d_accesses != c.l1d_misses || c.l2i_accesses != c.l1i_misses)
        fail("counters", "l2-plumbing",
             "L2 demand accesses do not equal the L1 miss streams that "
             "generate them");
    if (c.l3_accesses != c.l2d_misses + c.l2i_misses)
        fail("counters", "l3-plumbing",
             "last-level accesses (" + count(c.l3_accesses) +
                 ") do not equal the L2 miss total (" +
                 count(c.l2d_misses + c.l2i_misses) + ")");
    // The per-slot-bit accounting can never consume or evict more
    // lines than the prefetcher filled; the remainder is still
    // resident in L2.
    if (c.prefetch_useful + c.prefetch_evicted_unused > c.prefetch_fills)
        fail("memory", "prefetch-fill-bound",
             "prefetch_useful + prefetch_evicted_unused (" +
                 count(c.prefetch_useful + c.prefetch_evicted_unused) +
                 ") exceeds prefetch_fills (" + count(c.prefetch_fills) +
                 ")");
    if (c.dram_row_hits > c.dram_accesses)
        fail("memory", "row-hit-bound",
             "dram_row_hits (" + count(c.dram_row_hits) +
                 ") exceeds dram_accesses (" + count(c.dram_accesses) + ")");
    if (!machine)
        return out;

    const MachineConfig &m = *machine;
    const CacheHierarchyConfig &caches = m.caches;
    if (!caches.l3 && c.l3_accesses != c.l3_misses)
        fail("topology", "no-l3-mirror",
             "two-level machine '" + m.name +
                 "' must mirror every last-level access as a miss");
    if (!m.tlbs.l2tlb && c.l2tlb_misses != c.itlb_misses + c.dtlb_misses)
        fail("topology", "no-l2tlb-walks",
             "machine '" + m.name +
                 "' has no L2 TLB, so every L1 TLB miss must walk");
    if (caches.l2_prefetch_degree == 0 &&
        (c.prefetch_fills != 0 || c.prefetch_useful != 0 ||
         c.prefetch_evicted_unused != 0))
        fail("memory", "prefetch-off",
             "machine '" + m.name +
                 "' has no prefetcher but the entry carries prefetch "
                 "counters");
    bool way_pred = false;
    for (const CacheConfig *cache :
         {&caches.l1i, &caches.l1d, &caches.l2,
          caches.l3 ? &*caches.l3 : nullptr})
        way_pred |= cache && cache->way_prediction != WayPredictionKind::None;
    if (!way_pred && (c.way_pred_hits != 0 || c.way_pred_mispredicts != 0))
        fail("memory", "waypred-off",
             "machine '" + m.name +
                 "' has no way predictor but the entry carries "
                 "way-prediction counters");
    if (!caches.dram) {
        if (c.dram_accesses != 0 || c.dram_row_hits != 0 ||
            c.dram_busy_cycles != 0 || c.dram_budget_cycles != 0)
            fail("memory", "dram-off",
                 "machine '" + m.name +
                     "' has no DRAM model but the entry carries DRAM "
                     "counters");
    } else if (c.dram_row_hits <= c.dram_accesses) {
        // The open-page cycle identities (skipped when the row-hit
        // bound already fired, since the miss count would underflow).
        std::uint64_t busy =
            caches.dram->busyCycles(c.dram_accesses, c.dram_row_hits);
        if (c.dram_busy_cycles != busy)
            fail("memory", "dram-busy",
                 "dram_busy_cycles (" + count(c.dram_busy_cycles) +
                     ") breaks the open-page identity (expected " +
                     count(busy) + ")");
        std::uint64_t budget = caches.dram->budgetCycles(c.dram_accesses);
        if (c.dram_budget_cycles != budget)
            fail("memory", "dram-budget",
                 "dram_budget_cycles (" + count(c.dram_budget_cycles) +
                     ") is not accesses * cycles_per_burst_budget (" +
                     count(budget) + ")");
    }
    return out;
}

} // namespace uarch
} // namespace speclens
