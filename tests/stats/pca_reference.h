/**
 * @file
 * Naive correlation-side PCA, the test oracle for stats::fitPca().
 *
 * stats::fitPca() eigen-decomposes whichever side of the problem is
 * smaller: for a wide feature matrix (fewer observations than metrics,
 * as every suite matrix is) it solves the n x n Gram matrix and maps
 * the Gram eigenvectors back to loadings.  This model does the
 * textbook thing the paper describes, on every input:
 *  - its own column means and sample standard deviations, and z-scores
 *    with zero-variance columns mapped to zero;
 *  - the full p x p correlation matrix, one triple loop;
 *  - its eigenvectors as the loadings, never a Gram-side mapping.
 * It shares with fitPca() only the Jacobi solver (held to its own
 * contract in eigen_test) and restates the documented retention and
 * sign rules, so agreement is evidence about the smaller-side mapping,
 * not a tautology.  It is slow on wide matrices by design.
 */

#ifndef SPECLENS_TESTS_STATS_PCA_REFERENCE_H
#define SPECLENS_TESTS_STATS_PCA_REFERENCE_H

#include "stats/matrix.h"
#include "stats/pca.h"

namespace speclens {
namespace reference {

/** The reference answer for stats::fitPca(raw, policy). */
stats::PcaResult
fitPca(const stats::Matrix &raw,
       const stats::RetentionPolicy &policy = stats::RetentionPolicy::kaiser());

} // namespace reference
} // namespace speclens

#endif // SPECLENS_TESTS_STATS_PCA_REFERENCE_H
