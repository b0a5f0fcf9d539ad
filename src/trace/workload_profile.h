/**
 * @file
 * Statistical workload model: the parameters from which a synthetic
 * dynamic instruction stream is generated.
 *
 * Each benchmark in the suite databases (src/suites) is described by one
 * WorkloadProfile.  The parameters are calibrated against the paper's
 * published measurements: Table I fixes the dynamic instruction count,
 * instruction mix and Skylake CPI of every CPU2017 benchmark; Table II
 * bounds the MPKI ranges; and the text fixes qualitative properties
 * (mcf's distinctiveness, cactuBSSN's memory/TLB behaviour, perlbench's
 * and gcc's instruction-cache pressure, and so on).
 *
 * The model has four parts:
 *  - InstructionMix: op-class probabilities (Table I columns).
 *  - MemoryModel: a mixture of working sets.  Each access picks a set by
 *    weight and either streams through it or touches a uniformly random
 *    line.  Footprint sizes relative to cache/TLB capacities are what
 *    make the measured metrics *machine dependent*, which is the
 *    property the paper's seven-machine methodology exists to exploit.
 *  - BranchModel: a static branch population with biased and patterned
 *    members, controlling misprediction rates per predictor type.
 *  - ExecutionModel: non-memory CPI contributions (issue width limits,
 *    dependency stalls), used by the top-down CPI-stack model.
 */

#ifndef SPECLENS_TRACE_WORKLOAD_PROFILE_H
#define SPECLENS_TRACE_WORKLOAD_PROFILE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/fingerprint.h"
#include "verify/violation.h"

namespace speclens {
namespace trace {

/**
 * Dynamic instruction mix as fractions of the total stream.
 * load + store + branch + fp + simd must be <= 1; the remainder is
 * integer ALU plus a small fixed share of OpClass::Other.
 */
struct InstructionMix
{
    double load = 0.25;   //!< Fraction of loads.
    double store = 0.10;  //!< Fraction of stores.
    double branch = 0.12; //!< Fraction of conditional branches.
    double fp = 0.0;      //!< Fraction of scalar FP operations.
    double simd = 0.0;    //!< Fraction of SIMD operations.

    /** Fraction of integer-ALU + other operations (the remainder). */
    double remainder() const { return 1.0 - load - store - branch - fp - simd; }

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** One component of the data working-set mixture. */
struct WorkingSet
{
    double bytes = 32 * 1024; //!< Footprint in bytes.
    double weight = 1.0;      //!< Relative probability of access.

    /**
     * Fraction of accesses to this set that stream sequentially
     * (stride-sized steps) rather than touching a random element.
     * Streaming accesses hit in L1 until they cross a line boundary,
     * modelling spatial locality.
     */
    double sequential = 0.0;

    /**
     * Distance in bytes between addressable elements of the set.  The
     * default (one cache line) models densely used data.  A page-sized
     * stride models sparse structures — hash indexes, pointer arrays —
     * that touch one line per page: the cache sees few distinct lines
     * (bytes / stride) while the TLB sees every page, decoupling cache
     * pressure from TLB pressure.
     */
    double stride_bytes = 64;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Data- and instruction-side locality model. */
struct MemoryModel
{
    /**
     * Data working-set mixture, ordered roughly by the cache level
     * that captures it on a contemporary machine: hot (L1-resident),
     * mid (L2-scale), big (LLC-scale) and vast (beyond any cache).
     * The weights of the non-hot sets are small — real programs hit
     * L1 for the overwhelming majority of accesses, and the paper's
     * Table II shows strong level-by-level filtering (L1D MPKI up to
     * ~98 but L3 MPKI at most ~5).
     */
    std::array<WorkingSet, 4> data{
        WorkingSet{16 * 1024, 0.95, 0.2},
        WorkingSet{256 * 1024, 0.03, 0.2},
        WorkingSet{4.0 * 1024 * 1024, 0.015, 0.2},
        WorkingSet{64.0 * 1024 * 1024, 0.005, 0.0},
    };

    /** Static code footprint in bytes. */
    double code_bytes = 64 * 1024;

    /**
     * Fraction of taken-branch targets that stay inside the hot code
     * region (a loop nest); the rest jump uniformly across the whole
     * code footprint.  Low values model perlbench/gcc-style I-cache
     * pressure.
     */
    double code_locality = 0.95;

    /** Hot code region size in bytes (subset of code_bytes). */
    double hot_code_bytes = 4 * 1024;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Control-flow predictability model. */
struct BranchModel
{
    /** Number of distinct static branches in the stream. */
    std::uint32_t static_branches = 256;

    /** Mean fraction of branches resolving taken. */
    double taken_fraction = 0.5;

    /**
     * Fraction of static branches that are strongly biased (taken or
     * not-taken ~98% of the time) and therefore trivially predictable.
     * The remaining branches get a weak bias drawn from [0.25, 0.75].
     */
    double biased_fraction = 0.85;

    /**
     * Fraction of the *hard* (weakly biased) branches that actually
     * follow a short repeating pattern — mispredicted by a bimodal
     * predictor but captured by history-based predictors.  This knob
     * separates machines with simple vs. sophisticated predictors.
     */
    double patterned_fraction = 0.5;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Non-memory execution behaviour for the CPI model. */
struct ExecutionModel
{
    /**
     * Base CPI of the benchmark on an ideal memory system: issue-width
     * limits, long-latency FP chains, and inherent ILP.  Calibrated so
     * the total Skylake CPI matches Table I.
     */
    double base_cpi = 0.30;

    /**
     * Additional CPI from inter-instruction dependencies ("other" /
     * core-bound category of Fig. 1; dominant for blender and imagick).
     */
    double dependency_cpi = 0.05;

    /**
     * Memory-level parallelism: the divisor applied to miss penalties
     * (overlapping misses).  1 = fully serialised misses.
     */
    double mlp = 2.0;

    /** Fraction of instructions executed in kernel mode. */
    double kernel_fraction = 0.02;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Complete statistical description of one workload. */
struct WorkloadProfile
{
    /** Unique short name, e.g. "605.mcf_s". */
    std::string name;

    /** Dynamic instruction count of the real benchmark, in billions. */
    double dynamic_instructions_billions = 1000.0;

    InstructionMix mix;
    MemoryModel memory;
    BranchModel branch;
    ExecutionModel exec;

    /**
     * checkWorkloadProfile() as a precondition.
     * @throws std::invalid_argument naming the first violation's field.
     */
    void validate() const;

    /** Deterministic per-workload RNG seed derived from the name. */
    std::uint64_t seed() const;

    /** Feed the whole model (name and every sub-model) to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;

    /**
     * Stable content fingerprint of the complete model.  Any change to
     * any calibrated parameter — not just the name — yields a new
     * fingerprint, which is what lets the campaign artifact store
     * (core/artifact_store.h) detect stale entries after a model
     * recalibration.
     */
    std::uint64_t fingerprint() const;
};

/**
 * Every workload-model invariant, stated once: a non-empty name, a
 * finite positive instruction count, mix fractions in [0, 1] summing
 * to <= 1, finite line-granular working sets with finite positive
 * weights, each within its data region (trace::kAddressLimit), a code
 * footprint that ends below the data and holds its hot region,
 * probabilities in [0, 1], 1..2^20 static branches (the branch stream
 * allocates per static branch), finite positive base CPI, finite
 * non-negative dependency CPI and a finite MLP >= 1.
 * Violation::structure names the lint family that reports it —
 * "mix-range" (SL001), "mix-sum" (SL002), "cpi-components" (SL003),
 * "working-set-shape" (SL004), "code-model" (SL005) or
 * "branch-model" (SL006) — and Violation::location the field path
 * ("memory.data[2].bytes").
 * Allocates nothing on a clean profile.
 */
std::vector<verify::Violation>
checkWorkloadProfile(const WorkloadProfile &profile);

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_WORKLOAD_PROFILE_H
