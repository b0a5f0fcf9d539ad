/**
 * @file
 * Naive scalar reference model of the simulation driver, for parity
 * tests.
 *
 * uarch::simulate() and uarch::simulatePhased() stream records through
 * the structures in SoA batches, collapse same-line/same-page runs,
 * resolve branches with batch predictor kernels and prewarm with the
 * closed-form solver.  This model does none of that.  It is built only
 * on public APIs and spells out the measurement's semantic definition:
 *  - one TraceGenerator::next() record at a time;
 *  - a full accessInstr()/accessData() probe of the cache and TLB
 *    hierarchies for every record, with no run collapsing;
 *  - scalar predict()/update() through the virtual BranchPredictor
 *    interface, never the updateBatch() kernels;
 *  - always the walking prewarm (PrewarmSolver::walk);
 *  - its own structure-counter snapshot delta, and the prefetch
 *    retire at every warm-up/measurement boundary.
 * It shares neither fill() nor the analytic prewarm with the path it
 * checks, so a bit-identical match is evidence about the fast paths,
 * not a tautology.  It is slow by design; keep windows small.
 */

#ifndef SPECLENS_TESTS_UARCH_REFERENCE_MODEL_H
#define SPECLENS_TESTS_UARCH_REFERENCE_MODEL_H

#include "trace/phased_workload.h"
#include "trace/workload_profile.h"
#include "uarch/machine.h"
#include "uarch/simulation.h"

namespace speclens {
namespace reference {

/** The reference answer for uarch::simulate(profile, machine, config). */
uarch::SimulationResult simulate(const trace::WorkloadProfile &profile,
                                 const uarch::MachineConfig &machine,
                                 const uarch::SimulationConfig &config);

/** The reference answer for uarch::simulatePhased(). */
uarch::PhasedSimulationResult
simulatePhased(const trace::PhasedWorkload &workload,
               const uarch::MachineConfig &machine,
               const uarch::SimulationConfig &config);

} // namespace reference
} // namespace speclens

#endif // SPECLENS_TESTS_UARCH_REFERENCE_MODEL_H
