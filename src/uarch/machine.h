/**
 * @file
 * Full machine description and ISA/compiler workload transformation.
 *
 * A Machine bundles everything the characterization runner needs to
 * "measure" a workload the way the paper measures one on a commercial
 * box: the cache and TLB geometries (Table IV), a branch predictor
 * matched to the micro-architecture generation, the latency model
 * behind the CPI stack, and the power coefficients.
 *
 * Machines also carry a workload transformation: the paper deliberately
 * profiles across three ISAs and multiple compilers so that
 * machine-specific artifacts wash out of the PCA.  We model the
 * ISA/compiler effect as a deterministic per-(machine, workload)
 * adjustment of the instruction mix and code footprint — RISC targets
 * execute more instructions with a slightly leaner memory mix; a
 * different compiler perturbs the mix and code size by a few percent.
 */

#ifndef SPECLENS_UARCH_MACHINE_H
#define SPECLENS_UARCH_MACHINE_H

#include <string>
#include <vector>

#include "trace/workload_profile.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/cpi_model.h"
#include "uarch/power_model.h"
#include "uarch/tlb.h"
#include "verify/violation.h"

namespace speclens {
namespace uarch {

/** Instruction-set family of a machine. */
enum class Isa { X86, Sparc };

/** Human-readable ISA name. */
std::string isaName(Isa isa);

/** ISA/compiler-induced workload adjustments. */
struct WorkloadTransform
{
    /**
     * Multiplier on the load/store mix fractions (RISC load/store ISAs
     * with more registers spill slightly less per instruction).
     */
    double memory_mix_scale = 1.0;

    /** Multiplier on the branch mix fraction. */
    double branch_mix_scale = 1.0;

    /** Multiplier on the static code footprint (compiler effect). */
    double code_scale = 1.0;

    /**
     * Relative standard deviation of the deterministic per-(machine,
     * workload) jitter applied to mix fractions, modelling compiler
     * and library differences between result submitters.
     */
    double mix_jitter = 0.02;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Complete machine configuration. */
struct MachineConfig
{
    std::string name = "machine";   //!< Full name ("Intel Core i7-6700").
    std::string short_name = "m";   //!< Label for plots/tables.
    Isa isa = Isa::X86;
    double frequency_ghz = 3.0;

    CacheHierarchyConfig caches;
    TlbHierarchyConfig tlbs;

    PredictorKind predictor = PredictorKind::TageLite;
    unsigned predictor_size_log2 = 13;

    LatencyModel latencies;
    PowerModelConfig power;
    WorkloadTransform transform;

    /** Feed the complete machine description to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;

    /**
     * Stable content fingerprint of the whole machine model: names,
     * ISA, clock, every cache/TLB geometry, predictor, latency, power
     * and transform parameter.  Both the name and the structural
     * parameters matter — the ISA/compiler jitter stream is seeded
     * from the machine name, so two structurally identical machines
     * with different names measure differently.
     */
    std::uint64_t fingerprint() const;
};

/**
 * Every single-machine configuration invariant, stated once: cache
 * capacity and latency order, line-size agreement, cache and TLB
 * geometry (tree-PLRU way counts included), a finite plausible clock,
 * predictor size, positive power coefficients, power clock == machine
 * clock and the DRAM geometry.  Violation::structure names the lint
 * family that reports it — "cache-monotonic" (SL007), "cache-geometry"
 * (SL008), "tlb-config" (SL009) or "machine-config" (SL010) — and
 * Violation::location the offending field ("caches.L2", "latencies").
 */
std::vector<verify::Violation>
checkMachineConfig(const MachineConfig &machine);

/**
 * checkMachineConfig() as a precondition: backs the SPECLENS_VALIDATE
 * startup assertions in the characterization runner.
 *
 * @throws std::invalid_argument naming the first violation.
 */
void validateMachineConfig(const MachineConfig &machine);

/**
 * Apply a machine's ISA/compiler transformation to a workload profile.
 *
 * Deterministic: the jitter stream is seeded from the workload and
 * machine names, so the same pair always yields the same transformed
 * profile.
 */
trace::WorkloadProfile transformForMachine(
    const trace::WorkloadProfile &profile, const MachineConfig &machine);

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_MACHINE_H
