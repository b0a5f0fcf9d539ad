/**
 * @file
 * Attribution replays of the traced run.
 *
 * The campaign runs its simulations inside SpecLens's worker pool, where
 * the harness cannot place spans.  After the measured window the traced
 * run therefore replays, serially and with a span around every call,
 * the work a pass did in each lower layer:
 *
 *  - uarch:  uarch::simulate() of every pair the pass simulated, checked
 *            bitIdentical against the campaign's parallel result;
 *  - trace:  TraceGenerator::fill() over each pair's warm-up and
 *            measured windows, batch by batch as simulate() pulls them;
 *  - uarch:  the predictor's updateBatch() over each batch's branch
 *            lanes, and PrewarmSolver::apply() (walking on refusal);
 *  - store:  CampaignStore::load() of every pair key against the store
 *            state the pass started from, and save() of every result;
 *  - stats:  zscore, PCA, pairwise distances and Ward agglomeration on
 *            each suite's feature matrix.
 *
 * Span names are the per-layer metric stems (`uarch.simulate`,
 * `trace.fill`, `uarch.predictor_batch`, `uarch.prewarm`, `store.load`,
 * `store.save`, `stats.zscore`, ...).
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/service_context.h"
#include "repro.h"
#include "tracer.h"

namespace perfbench {

/** Counts of the simulation replay (timings are in the tracer). */
struct SimReplay
{
    std::size_t pairs = 0;      //!< Pairs replayed.
    std::size_t mismatches = 0; //!< Pairs not bitIdentical to the campaign.
    std::uint64_t records = 0;  //!< Generator records per pass (all pairs).
    std::size_t prewarm_attempts = 0;
    std::size_t prewarm_analytic = 0; //!< Attempts the solver accepted.
};

/**
 * Replay every pair of @p parts that @p context's campaign holds,
 * comparing each serial uarch::simulate() result with the campaign's.
 * Spans are tagged with operation @p op.
 */
SimReplay replaySimulations(speclens::core::ServiceContext &context,
                            const std::vector<CampaignPart> &parts,
                            Tracer &tracer, std::uint32_t op);

/**
 * Time CampaignStore::load() of every pair key of @p parts against a
 * fresh handle on @p load_dir and, unless @p save_dir is empty,
 * save() of every result into a fresh store at @p save_dir.
 */
void replayStore(speclens::core::ServiceContext &context,
                 const std::vector<CampaignPart> &parts,
                 const std::string &load_dir, const std::string &save_dir,
                 Tracer &tracer, std::uint32_t op);

/**
 * Time the stats stages on the feature matrix of CPU2017, each CPU2017
 * category, CPU2006 and the emerging suite, @p repeats times; repeat r
 * is tagged with operation @p first_op + r.
 */
void replayStats(speclens::core::ServiceContext &context, Tracer &tracer,
                 std::uint32_t first_op, std::size_t repeats);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
