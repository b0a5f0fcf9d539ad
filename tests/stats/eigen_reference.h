/**
 * @file
 * Textbook cyclic Jacobi, the bit-exact test oracle for
 * stats::symmetricEigen().
 *
 * stats::symmetricEigen() keeps the eigenvector accumulator transposed,
 * plans each rotation while the previous one is applied, and updates
 * the strided columns two rows at a time.  This model does none of
 * that: one rotation at a time, (c, s) from the pivot just before its
 * loops, the matrix updated column-wise then row-wise and V updated
 * column-wise, as a numerical-methods text writes it.  Both are meant
 * to evaluate every floating-point expression in the same order, so
 * the two answers must be identical bit for bit, not merely close.
 */

#ifndef SPECLENS_TESTS_STATS_EIGEN_REFERENCE_H
#define SPECLENS_TESTS_STATS_EIGEN_REFERENCE_H

#include "stats/eigen.h"
#include "stats/matrix.h"

namespace speclens {
namespace reference {

/** The reference answer for stats::symmetricEigen(m, tol, max_sweeps). */
stats::EigenDecomposition symmetricEigen(const stats::Matrix &m,
                                         double tol = 1e-12,
                                         int max_sweeps = 100);

} // namespace reference
} // namespace speclens

#endif // SPECLENS_TESTS_STATS_EIGEN_REFERENCE_H
