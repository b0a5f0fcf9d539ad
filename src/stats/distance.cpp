/**
 * @file
 * Distance metric implementations.
 */

#include "distance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace speclens {
namespace stats {

double
squaredEuclidean(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("squaredEuclidean: length mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

double
distance(const std::vector<double> &a, const std::vector<double> &b,
         DistanceMetric metric)
{
    if (a.size() != b.size())
        throw std::invalid_argument("distance: length mismatch");

    switch (metric) {
      case DistanceMetric::Euclidean:
        return std::sqrt(squaredEuclidean(a, b));
      case DistanceMetric::Manhattan: {
        double acc = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i)
            acc += std::fabs(a[i] - b[i]);
        return acc;
      }
      case DistanceMetric::Chebyshev: {
        double best = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i)
            best = std::max(best, std::fabs(a[i] - b[i]));
        return best;
      }
    }
    throw std::invalid_argument("distance: unknown metric");
}

namespace {

/**
 * One distance over the raw rows.  Same accumulation order as the
 * vector-based distance() above, so results are bit-identical; the
 * contiguous pointer loops exist so the compiler can vectorize them
 * and so the O(n^2) pairwise kernel stops copying a row per pair.
 */
double
rowDistance(const double *a, const double *b, std::size_t dims,
            DistanceMetric metric)
{
    switch (metric) {
      case DistanceMetric::Euclidean: {
        double acc = 0.0;
        for (std::size_t k = 0; k < dims; ++k) {
            double d = a[k] - b[k];
            acc += d * d;
        }
        return std::sqrt(acc);
      }
      case DistanceMetric::Manhattan: {
        double acc = 0.0;
        for (std::size_t k = 0; k < dims; ++k)
            acc += std::fabs(a[k] - b[k]);
        return acc;
      }
      case DistanceMetric::Chebyshev: {
        double best = 0.0;
        for (std::size_t k = 0; k < dims; ++k)
            best = std::max(best, std::fabs(a[k] - b[k]));
        return best;
      }
    }
    throw std::invalid_argument("distance: unknown metric");
}

} // namespace

Matrix
pairwiseDistances(const Matrix &points, DistanceMetric metric)
{
    std::size_t n = points.rows();
    std::size_t dims = points.cols();
    Matrix out(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *ri = points.rowPtr(i);
        for (std::size_t j = i + 1; j < n; ++j) {
            double d = rowDistance(ri, points.rowPtr(j), dims, metric);
            out(i, j) = d;
            out(j, i) = d;
        }
    }
    return out;
}

std::size_t
nearestToCentroid(const Matrix &points, const std::vector<std::size_t> &rows,
                  DistanceMetric metric, double *distance_out)
{
    if (rows.empty())
        throw std::invalid_argument("nearestToCentroid: no rows");
    std::vector<double> centroid(points.cols(), 0.0);
    for (std::size_t r : rows) {
        const double *row = points.rowPtr(r);
        for (std::size_t d = 0; d < centroid.size(); ++d)
            centroid[d] += row[d];
    }
    for (double &v : centroid)
        v /= static_cast<double>(rows.size());

    std::vector<double> dist(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k)
        dist[k] = distance(points.row(rows[k]), centroid, metric);
    double best = *std::min_element(dist.begin(), dist.end());
    std::size_t k = 0;
    while (dist[k] > best * (1.0 + 1e-9))
        ++k;
    if (distance_out)
        *distance_out = dist[k];
    return k;
}

} // namespace stats
} // namespace speclens
