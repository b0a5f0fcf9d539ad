/**
 * @file
 * Hardware-performance-counter equivalent for simulated machines.
 *
 * On the paper's seven commercial machines these values come from
 * Linux perf / vendor counter infrastructure; here they are accumulated
 * by the trace-driven simulators.  Derived-rate helpers implement the
 * units the paper reports: MPKI (misses per kilo-instruction) for
 * caches and branches, and MPMI (misses per million instructions) for
 * TLBs and page walks.
 */

#ifndef SPECLENS_UARCH_PERF_COUNTERS_H
#define SPECLENS_UARCH_PERF_COUNTERS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "verify/violation.h"

namespace speclens {
namespace uarch {

struct MachineConfig;

/** Raw event counts accumulated over a simulation window. */
struct PerfCounters
{
    // Retirement.
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t taken_branches = 0;
    std::uint64_t fp_ops = 0;
    std::uint64_t simd_ops = 0;
    std::uint64_t kernel_instructions = 0;

    // Cache hierarchy (D = data side, I = instruction side).
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l1i_accesses = 0;
    std::uint64_t l1i_misses = 0;
    std::uint64_t l2d_accesses = 0;
    std::uint64_t l2d_misses = 0;
    std::uint64_t l2i_accesses = 0;
    std::uint64_t l2i_misses = 0;
    std::uint64_t l3_accesses = 0;
    std::uint64_t l3_misses = 0;

    // TLB hierarchy.
    std::uint64_t dtlb_accesses = 0;
    std::uint64_t dtlb_misses = 0;
    std::uint64_t itlb_accesses = 0;
    std::uint64_t itlb_misses = 0;
    std::uint64_t l2tlb_misses = 0;
    std::uint64_t page_walks = 0;

    // Branch prediction.
    std::uint64_t branch_mispredictions = 0;

    // Memory-centric model (zero when the feature is off on the
    // machine: prefetcher disabled, no way prediction, no DRAM model).
    std::uint64_t prefetch_fills = 0;
    std::uint64_t prefetch_useful = 0;
    std::uint64_t prefetch_evicted_unused = 0;
    std::uint64_t way_pred_hits = 0;
    std::uint64_t way_pred_mispredicts = 0;
    std::uint64_t dram_accesses = 0;
    std::uint64_t dram_row_hits = 0;
    std::uint64_t dram_busy_cycles = 0;
    std::uint64_t dram_budget_cycles = 0;

    /** events per kilo-instruction. */
    double
    perKilo(std::uint64_t events) const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(events) /
                         static_cast<double>(instructions);
    }

    /** events per million instructions. */
    double
    perMillion(std::uint64_t events) const
    {
        return instructions == 0
                   ? 0.0
                   : 1.0e6 * static_cast<double>(events) /
                         static_cast<double>(instructions);
    }

    /** events as a fraction of all instructions. */
    double
    fraction(std::uint64_t events) const
    {
        return instructions == 0
                   ? 0.0
                   : static_cast<double>(events) /
                         static_cast<double>(instructions);
    }

    double l1dMpki() const { return perKilo(l1d_misses); }
    double l1iMpki() const { return perKilo(l1i_misses); }
    double l2dMpki() const { return perKilo(l2d_misses); }
    double l2iMpki() const { return perKilo(l2i_misses); }
    double l3Mpki() const { return perKilo(l3_misses); }
    double branchMpki() const { return perKilo(branch_mispredictions); }
    double takenMpki() const { return perKilo(taken_branches); }
    double dtlbMpmi() const { return perMillion(dtlb_misses); }
    double itlbMpmi() const { return perMillion(itlb_misses); }
    double l2tlbMpmi() const { return perMillion(l2tlb_misses); }
    double pageWalksPerMi() const { return perMillion(page_walks); }

    /** ratio of @p part over @p whole, 0 when the whole is zero. */
    static double
    ratio(std::uint64_t part, std::uint64_t whole)
    {
        return whole == 0 ? 0.0
                          : static_cast<double>(part) /
                                static_cast<double>(whole);
    }

    /**
     * Fraction of demand L2 data misses the prefetcher eliminated:
     * useful prefetches over useful prefetches plus the misses that
     * still happened.
     */
    double
    prefetchCoverage() const
    {
        return ratio(prefetch_useful, prefetch_useful + l2d_misses);
    }

    /** Fraction of prefetched lines a demand access later used. */
    double prefetchAccuracy() const
    {
        return ratio(prefetch_useful, prefetch_fills);
    }

    /**
     * Fraction of prefetched lines that survived until use: 1 minus
     * the share evicted unconsumed.  1.0 when nothing was prefetched.
     */
    double
    prefetchTimeliness() const
    {
        return prefetch_fills == 0
                   ? 1.0
                   : 1.0 - ratio(prefetch_evicted_unused, prefetch_fills);
    }

    /** Way-predictor hit rate over predicted cache hits. */
    double
    wayPredAccuracy() const
    {
        return ratio(way_pred_hits, way_pred_hits + way_pred_mispredicts);
    }

    /** DRAM accesses that hit an open row. */
    double rowBufferHitRate() const
    {
        return ratio(dram_row_hits, dram_accesses);
    }

    /**
     * Busy cycles over the cycles-per-burst budget.  Deliberately not
     * clamped: values above 1 mean the access stream demands more
     * bandwidth than the modelled channel sustains.
     */
    double dramBwUtilization() const
    {
        return ratio(dram_busy_cycles, dram_budget_cycles);
    }

    double loadFraction() const { return fraction(loads); }
    double storeFraction() const { return fraction(stores); }
    double branchFraction() const { return fraction(branches); }
    double fpFraction() const { return fraction(fp_ops); }
    double simdFraction() const { return fraction(simd_ops); }
    double kernelFraction() const { return fraction(kernel_instructions); }

    /** Elementwise accumulate (merging simulation windows). */
    PerfCounters &operator+=(const PerfCounters &rhs);
};

/** One named field of a result struct: the unit of a field table. */
template <typename Struct, typename Value>
struct FieldRef
{
    const char *name;
    Value Struct::*member;
};

/**
 * True when @p fields names every member of @p Struct exactly once: no
 * member listed twice, and together they fill sizeof(Struct).  Each
 * field table static_asserts this, so a member added to the struct
 * but not to its table fails the build.
 */
template <typename Struct, typename Value, std::size_t N>
constexpr bool
coversStruct(const FieldRef<Struct, Value> (&fields)[N])
{
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = i + 1; j < N; ++j)
            if (fields[i].member == fields[j].member)
                return false;
    return N * sizeof(Value) == sizeof(Struct);
}

/**
 * Every PerfCounters field, in store order.  The one enumeration of
 * the counter vector: accumulation, the store codec, bit identity,
 * result fingerprints and lint's phased-sum check all loop over it,
 * so the order is part of the on-disk format and of every result
 * fingerprint.  Add new counters at the end (and bump
 * core::kStoreEngineVersion).
 */
inline constexpr FieldRef<PerfCounters, std::uint64_t> kPerfCounterFields[] = {
    {"instructions", &PerfCounters::instructions},
    {"loads", &PerfCounters::loads},
    {"stores", &PerfCounters::stores},
    {"branches", &PerfCounters::branches},
    {"taken_branches", &PerfCounters::taken_branches},
    {"fp_ops", &PerfCounters::fp_ops},
    {"simd_ops", &PerfCounters::simd_ops},
    {"kernel_instructions", &PerfCounters::kernel_instructions},
    {"l1d_accesses", &PerfCounters::l1d_accesses},
    {"l1d_misses", &PerfCounters::l1d_misses},
    {"l1i_accesses", &PerfCounters::l1i_accesses},
    {"l1i_misses", &PerfCounters::l1i_misses},
    {"l2d_accesses", &PerfCounters::l2d_accesses},
    {"l2d_misses", &PerfCounters::l2d_misses},
    {"l2i_accesses", &PerfCounters::l2i_accesses},
    {"l2i_misses", &PerfCounters::l2i_misses},
    {"l3_accesses", &PerfCounters::l3_accesses},
    {"l3_misses", &PerfCounters::l3_misses},
    {"dtlb_accesses", &PerfCounters::dtlb_accesses},
    {"dtlb_misses", &PerfCounters::dtlb_misses},
    {"itlb_accesses", &PerfCounters::itlb_accesses},
    {"itlb_misses", &PerfCounters::itlb_misses},
    {"l2tlb_misses", &PerfCounters::l2tlb_misses},
    {"page_walks", &PerfCounters::page_walks},
    {"branch_mispredictions", &PerfCounters::branch_mispredictions},
    {"prefetch_fills", &PerfCounters::prefetch_fills},
    {"prefetch_useful", &PerfCounters::prefetch_useful},
    {"prefetch_evicted_unused", &PerfCounters::prefetch_evicted_unused},
    {"way_pred_hits", &PerfCounters::way_pred_hits},
    {"way_pred_mispredicts", &PerfCounters::way_pred_mispredicts},
    {"dram_accesses", &PerfCounters::dram_accesses},
    {"dram_row_hits", &PerfCounters::dram_row_hits},
    {"dram_busy_cycles", &PerfCounters::dram_busy_cycles},
    {"dram_budget_cycles", &PerfCounters::dram_budget_cycles},
};
static_assert(coversStruct(kPerfCounterFields),
              "kPerfCounterFields must list every PerfCounters field once");

/**
 * The accounting identities every simulated window satisfies, stated
 * once for the auditor's trail, the store's load-time check and the
 * lint rules.  Without @p machine only the machine-free identities
 * run: class sums and branch/kernel bounds, misses <= accesses per
 * level, page_walks == l2tlb_misses <= L1 TLB misses, demand plumbing
 * (each level's accesses are the previous level's misses) and the
 * prefetch-fill and DRAM row-hit bounds.  With @p machine the topology
 * identities join: a two-level machine mirrors last-level accesses as
 * misses, a machine without an L2 TLB walks on every L1 TLB miss,
 * counters of a disabled feature stay zero, and the DRAM busy/budget
 * cycles follow the open-page cost model.
 *
 * Violation::structure groups them by the lint rule that reports
 * them: "counters" (SL018), "topology" (SL019) and "memory" (SL026).
 */
std::vector<verify::Violation>
checkCounterIdentities(const PerfCounters &counters,
                       const MachineConfig *machine = nullptr);

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_PERF_COUNTERS_H
