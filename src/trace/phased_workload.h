/**
 * @file
 * Phased workload models.
 *
 * Real benchmarks are not statistically stationary: gcc parses, then
 * optimises, then emits code, and each phase has its own locality and
 * branch character.  The paper's related work (Sherwood's SimPoints,
 * Nair's CPU2006 simulation points — refs [32], [33]) exploits exactly
 * this structure to cut simulation cost *within* a benchmark, the
 * complementary axis to the paper's cutting *across* benchmarks.
 *
 * A PhasedWorkload is an ordered set of stationary phases, each a full
 * WorkloadProfile with an execution weight.  The simulation driver can
 * run the phases in sequence (warm structures carry over, as on real
 * hardware) and the phase-analysis module reproduces the SimPoint
 * idea: measure each phase once, cluster them, and estimate whole-run
 * behaviour from representative phases only.
 */

#ifndef SPECLENS_TRACE_PHASED_WORKLOAD_H
#define SPECLENS_TRACE_PHASED_WORKLOAD_H

#include <string>
#include <vector>

#include "trace/workload_profile.h"

namespace speclens {
namespace trace {

/** One stationary execution phase. */
struct Phase
{
    /** Behaviour of the phase. */
    WorkloadProfile profile;

    /** Fraction of the whole run spent in this phase, (0, 1]. */
    double weight = 1.0;

    /** Feed the phase (profile and weight) to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** A workload as an ordered sequence of weighted phases. */
struct PhasedWorkload
{
    /** Workload name (phases carry derived names "<name>@<k>"). */
    std::string name;

    std::vector<Phase> phases;

    /**
     * checkPhasedWorkload() as a precondition.
     * @throws std::invalid_argument naming the first violation's field.
     */
    void validate() const;

    /** Feed the whole phased model to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;

    /**
     * Stable content fingerprint over the name, phase count, and every
     * phase's full profile and weight (see WorkloadProfile::fingerprint).
     */
    std::uint64_t fingerprint() const;
};

/**
 * Every phased-workload invariant, stated once: a non-empty name, at
 * least one phase, every weight finite and positive, weights summing
 * to 1 within 1e-6 (checked only when every weight is valid), and
 * every phase profile clean under checkWorkloadProfile().  The
 * workload's own violations carry Violation::structure
 * "phased-workload" and a location such as "phases[2].weight"; a
 * phase profile's violations keep their family and gain a
 * "phases[i]." location prefix.
 */
std::vector<verify::Violation>
checkPhasedWorkload(const PhasedWorkload &workload);

/**
 * Derive a phased workload from a base profile: each phase is a
 * deterministic perturbation of the base (footprints, mix, branch
 * behaviour drift between phases), with Dirichlet-like weights.
 * Models multi-phase programs without hand-writing every phase.
 *
 * @param base Stationary base profile.
 * @param num_phases Number of phases (>= 1).
 * @param drift Relative magnitude of per-phase drift (0.3 gives
 *        clearly distinct phases; 0.05 nearly stationary ones).
 */
PhasedWorkload derivePhases(const WorkloadProfile &base,
                            std::size_t num_phases, double drift = 0.3);

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_PHASED_WORKLOAD_H
