/**
 * @file
 * Euclidean distance over feature vectors.
 *
 * The paper measures benchmark similarity as the Euclidean distance
 * between PCA-space coordinates (Section III); it is the only metric
 * any analysis uses.
 */

#ifndef SPECLENS_STATS_DISTANCE_H
#define SPECLENS_STATS_DISTANCE_H

#include <vector>

#include "matrix.h"

namespace speclens {
namespace stats {

/** Euclidean distance between two equal-length vectors. */
double distance(const std::vector<double> &a, const std::vector<double> &b);

/** Squared Euclidean distance (no sqrt; used by Ward linkage). */
double squaredEuclidean(const std::vector<double> &a,
                        const std::vector<double> &b);

/**
 * Symmetric pairwise distance matrix between the rows of @p points.
 * Entry (i, j) is the distance between row i and row j.
 */
Matrix pairwiseDistances(const Matrix &points);

/**
 * Position within @p rows of the row of @p points nearest the rows'
 * centroid: the medoid-style representative of a group of points.
 * Distances within a relative 1e-9 of the smallest tie, and a tie goes
 * to the earliest position.  Both members of a pair sit exactly halfway
 * from their midpoint, so without the tolerance the pick would fall to
 * rounding noise in the coordinates.
 *
 * @param distance When non-null, receives the winner's distance to the
 *        centroid.
 * @throws std::invalid_argument when @p rows is empty.
 */
std::size_t nearestToCentroid(const Matrix &points,
                              const std::vector<std::size_t> &rows,
                              double *distance = nullptr);

} // namespace stats
} // namespace speclens

#endif // SPECLENS_STATS_DISTANCE_H
