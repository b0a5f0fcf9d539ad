/**
 * @file
 * Trace-driven simulation driver: the perf-counter measurement
 * equivalent.
 *
 * simulate() plays a workload's synthetic instruction stream through a
 * machine's cache hierarchy, TLBs and branch predictor, collects the
 * event counts a perf session would report, and derives the CPI stack
 * and power estimate.  A warm-up window is excluded from the counters
 * so cold-start compulsory misses do not distort the steady-state
 * rates the paper's metrics describe.
 *
 * simulate() and simulatePhased() share one internal driver that plays
 * an ordered list of phases (an effective profile plus exact warm-up
 * and measured record counts) over one set of structures: simulate()
 * is the one-phase case.  The driver stores no records: one loop
 * draws each record from the trace generator and plays it through the
 * structures in the same iteration.  The per-record reference model
 * the parity tests hold it to lives under tests/uarch/.
 */

#ifndef SPECLENS_UARCH_SIMULATION_H
#define SPECLENS_UARCH_SIMULATION_H

#include <array>
#include <cstdint>
#include <iterator>
#include <vector>

#include "stats/fingerprint.h"
#include "trace/phased_workload.h"
#include "trace/workload_profile.h"
#include "uarch/cpi_model.h"
#include "uarch/machine.h"
#include "uarch/perf_counters.h"
#include "uarch/power_model.h"
#include "verify/violation.h"

namespace speclens {
namespace uarch {

/** Simulation window parameters. */
struct SimulationConfig
{
    /** Measured instructions (after warm-up). */
    std::uint64_t instructions = 200'000;

    /** Warm-up instructions excluded from all counters. */
    std::uint64_t warmup = 40'000;

    /** Extra seed entropy for independent re-runs. */
    std::uint64_t seed_salt = 0;

    /**
     * When false the machine's ISA/compiler workload transform is
     * skipped (used by tests that need the untouched profile).
     */
    bool apply_machine_transform = true;

    /**
     * Touch every line of LLC-resident working sets before the warm-up
     * window, so a short measurement reflects steady state rather than
     * cold-start compulsory misses (the paper measures full multi-
     * trillion-instruction runs).
     */
    bool prewarm = true;

    /**
     * Feed every result-determining field (the window sizes, the seed
     * salt and both mode flags) to @p fp — the canonical "window" hash
     * shared by all artifact-store fingerprints.
     */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Everything a measurement run produces. */
struct SimulationResult
{
    PerfCounters counters;  //!< Steady-state event counts.
    CpiStack cpi_stack;     //!< Top-down CPI decomposition.
    PowerBreakdown power;   //!< Core / LLC / DRAM power estimate.

    /** Total CPI. */
    double cpi() const { return cpi_stack.total(); }

    /** Instructions per cycle. */
    double ipc() const;

    /** Number of 64-bit words in the result's canonical encoding. */
    static constexpr std::size_t kWords = std::size(kPerfCounterFields) +
                                          std::size(kCpiStackFields) +
                                          std::size(kPowerFields);
    using Words = std::array<std::uint64_t, kWords>;

    /**
     * The canonical encoding: every field as one 64-bit word, in the
     * order of kPerfCounterFields, kCpiStackFields and kPowerFields,
     * doubles by IEEE-754 bit pattern.  The store writes these words,
     * hashInto() hashes them and bitIdentical() compares them.
     */
    Words words() const;

    /** Inverse of words(). */
    static SimulationResult fromWords(const Words &words);

    /**
     * Feed words() to @p fp.  No type tag: the campaign and audit
     * fingerprints pinned before this hook existed hash exactly these
     * words per result.
     */
    void hashInto(stats::Fingerprinter &fp) const;
};

/**
 * Measure @p profile on @p machine.
 *
 * Deterministic for a given (profile, machine, config) triple.  The
 * instruction stream is fused into the structure models: records flow
 * from the generator in small structure-of-arrays batches, never as a
 * window-sized buffer.
 *
 * With @p trail non-null the structural invariant prover runs: the
 * live structures are audited after prewarm, at sampled batch
 * boundaries and at end of run, each measured window's counters are
 * held against checkCounterIdentities() with @p machine, and the
 * evidence accumulates in @p trail (verify.audits / verify.violations
 * obs counters move in step).  A null @p trail audits nothing.
 * Auditing never mutates structure state, so the result is
 * bit-identical to an unaudited run.  The StateAudit tests pass a
 * trail; shipped callers pass none.
 */
SimulationResult simulate(const trace::WorkloadProfile &profile,
                          const MachineConfig &machine,
                          const SimulationConfig &config = {},
                          verify::AuditTrail *trail = nullptr);

/**
 * True when two results agree bit-for-bit: equal words(), so every
 * event count is equal and every derived double (CPI-stack components,
 * power rails) has the same IEEE-754 bit pattern (-0.0 differs from
 * 0.0; a NaN equals its own copy).  Agrees with hashInto() and the
 * store codec.  This is the contract the fused pipeline must honour
 * against the reference model and a warm artifact-store rerun against
 * a cold one.
 */
bool bitIdentical(const SimulationResult &a, const SimulationResult &b);

/** Result of simulating a phased workload. */
struct PhasedSimulationResult
{
    /** Per-phase results, in phase order. */
    std::vector<SimulationResult> per_phase;

    /** Counters accumulated over the whole run. */
    PerfCounters combined_counters;

    /** Execution-weighted mean CPI of the run. */
    double combined_cpi = 0.0;
};

/**
 * Measure a phased workload end to end: phases run in sequence within
 * one set of machine structures (caches, TLBs and predictor state
 * carry across phase boundaries, as on hardware), each receiving a
 * share of both windows proportional to its weight (at least one
 * record each).
 *
 * @param workload Validated phased workload.
 * @param machine Machine model.
 * @param config Window sizes apply to the whole run.
 * @param trail When non-null, audit the run as simulate() does: the
 *        post-prewarm fill invariants at the first phase's boundary
 *        only, the counter identities on every phase's window.
 */
PhasedSimulationResult
simulatePhased(const trace::PhasedWorkload &workload,
               const MachineConfig &machine,
               const SimulationConfig &config = {},
               verify::AuditTrail *trail = nullptr);

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_SIMULATION_H
