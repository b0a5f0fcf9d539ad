/**
 * @file
 * The suite feature matrices a reproduction pass fits PCA to, for the
 * stats oracles.
 */

#ifndef SPECLENS_TESTS_STATS_SUITE_MATRICES_H
#define SPECLENS_TESTS_STATS_SUITE_MATRICES_H

#include <string>
#include <utility>
#include <vector>

#include "stats/matrix.h"

namespace speclens {
namespace stats {

/**
 * The 11 suite matrices of a reproduction pass (CPU2017, its four
 * sub-suites, CPU2006, emerging, the two joined studies and the two
 * input-set studies), measured on the profiling machines at the pinned
 * bench window (150k + 40k, salt 0), each with its name.  The campaign
 * is simulated once per process.
 */
const std::vector<std::pair<std::string, Matrix>> &
reproductionSuiteMatrices();

} // namespace stats
} // namespace speclens

#endif // SPECLENS_TESTS_STATS_SUITE_MATRICES_H
