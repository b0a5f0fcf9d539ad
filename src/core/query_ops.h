/**
 * @file
 * Shared query operations: the render-to-string core of the CLI's
 * `characterize`, `subset` and `sensitivity` commands.
 *
 * The batch CLI and the serve daemon must answer the same question
 * with byte-identical output (the serve-smoke check `cmp`s them), so
 * the rendering lives here, once, against a ServiceContext.  The CLI
 * prints the returned string to stdout; the server ships it back in a
 * response frame.  Neither path writes to stdout/stderr itself.
 */

#ifndef SPECLENS_CORE_QUERY_OPS_H
#define SPECLENS_CORE_QUERY_OPS_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/service_context.h"
#include "suites/benchmark_info.h"

namespace speclens {
namespace core {

/** Result of one query: rendered output, or an error message. */
struct QueryOutcome
{
    /** False when the query was rejected (see error). */
    bool ok = true;

    /** Rendered report (exactly what the batch CLI prints to stdout). */
    std::string output;

    /** Human-readable rejection reason (no trailing newline). */
    std::string error;
};

/** Shorthand for a rejected outcome. */
QueryOutcome queryError(std::string message);

/**
 * Resolve a CPU2017 sub-suite name (speed-int / rate-int / speed-fp /
 * rate-fp), as `subset`, `report` and the daemon's subset op accept
 * it: set @p suite to its benchmarks and @p category to its score
 * category, or return false for any other name.
 */
bool resolveCategory(const std::string &name,
                     std::vector<suites::BenchmarkInfo> &suite,
                     suites::Category &category);

/** True when @p name is a valid `sensitivity` metric (branch/l1d/dtlb). */
bool isSensitivityMetric(const std::string &name);

/**
 * Characterize @p benchmarks (registry names) on the context's
 * profiling machines: one per-benchmark metric table, after fanning
 * all (benchmark, machine) simulations out through parallelFor.
 * Rejects on the first unknown benchmark name.
 */
QueryOutcome runCharacterizeQuery(ServiceContext &context,
                                  const std::vector<std::string> &benchmarks);

/**
 * Subset analysis for one CPU2017 @p category: dendrogram, the
 * @p k representatives and score-prediction accuracy.  Rejects unknown
 * categories and k outside [1, suite size].
 */
QueryOutcome runSubsetQuery(ServiceContext &context,
                            const std::string &category, std::size_t k);

/**
 * Sensitivity classification of CPU2017 under @p metric
 * (branch / l1d / dtlb) over the sensitivity machine set.
 */
QueryOutcome runSensitivityQuery(ServiceContext &context,
                                 const std::string &metric);

/**
 * Memory-centric characterization of @p benchmarks over the
 * suites::memoryCentricMachines() variants: per-benchmark tables of
 * prefetch coverage/accuracy/timeliness, way-prediction accuracy and
 * DRAM row-buffer/bandwidth behaviour.  Rejects on the first unknown
 * benchmark name.
 */
QueryOutcome runMemoryQuery(ServiceContext &context,
                            const std::vector<std::string> &benchmarks);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_QUERY_OPS_H
