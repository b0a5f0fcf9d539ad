/**
 * @file
 * Minimal shared-memory parallelism utilities.
 *
 * The measurement campaigns this toolkit runs are embarrassingly
 * parallel: every (benchmark, machine) simulation is independent and
 * independently seeded, so work can be fanned out across threads with
 * no effect on results.  parallelFor() is the one fan-out engine: it
 * runs a loop body over [0, count) on up to N threads, the calling
 * thread participating as worker zero and its helpers joined before it
 * returns, so concurrent fan-outs never wait on each other's work.
 * Exceptions thrown by the body are captured and the first one is
 * rethrown on the caller once all workers have drained.
 *
 * Determinism contract: parallelFor() imposes no ordering on task
 * execution, so callers must make each task independent (no shared
 * mutable state without synchronisation, no order-dependent RNG use).
 * All campaign code in SpecLens keys results by task identity rather
 * than completion order, which is what makes output bit-identical for
 * any job count.
 */

#ifndef SPECLENS_CORE_PARALLEL_H
#define SPECLENS_CORE_PARALLEL_H

#include <cstddef>
#include <functional>

namespace speclens {
namespace core {

/**
 * Job count meaning "one per hardware thread": hardware_concurrency(),
 * or 1 when the runtime cannot determine it.
 */
std::size_t defaultJobCount();

/**
 * Resolve a user-facing jobs value: 0 means "auto" (defaultJobCount()),
 * anything else is taken literally.
 */
std::size_t resolveJobCount(std::size_t jobs);

/**
 * Run @p body(i) for every i in [0, @p count) using up to @p jobs
 * threads (0 = auto).  The calling thread participates, so jobs == 1
 * (or count <= 1) degenerates to a plain serial loop with no threads
 * created.  Indices are claimed from a shared atomic counter, so the
 * schedule is dynamic; bodies must therefore be independent of
 * execution order.
 *
 * If any body throws, remaining indices are abandoned (bodies already
 * running finish) and the first captured exception is rethrown on the
 * caller after all workers join.
 */
void parallelFor(std::size_t count, std::size_t jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_PARALLEL_H
