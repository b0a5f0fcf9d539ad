/**
 * @file
 * Euclidean distance implementations.
 */

#include "distance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace speclens {
namespace stats {

namespace {

/**
 * Squared Euclidean distance over raw rows: the one accumulation loop,
 * so every entry point below is bit-identical to every other.  The
 * contiguous pointer loop lets the compiler vectorize it and spares
 * the O(n^2) pairwise kernel a row copy per pair.
 */
double
sumSquares(const double *a, const double *b, std::size_t dims)
{
    double acc = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
        double d = a[k] - b[k];
        acc += d * d;
    }
    return acc;
}

} // namespace

double
squaredEuclidean(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("squaredEuclidean: length mismatch");
    return sumSquares(a.data(), b.data(), a.size());
}

double
distance(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("distance: length mismatch");
    return std::sqrt(sumSquares(a.data(), b.data(), a.size()));
}

Matrix
pairwiseDistances(const Matrix &points)
{
    std::size_t n = points.rows();
    std::size_t dims = points.cols();
    Matrix out(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *ri = points.rowPtr(i);
        for (std::size_t j = i + 1; j < n; ++j) {
            double d = std::sqrt(sumSquares(ri, points.rowPtr(j), dims));
            out(i, j) = d;
            out(j, i) = d;
        }
    }
    return out;
}

std::size_t
nearestToCentroid(const Matrix &points, const std::vector<std::size_t> &rows,
                  double *distance_out)
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
        dist[k] = distance(points.row(rows[k]), centroid);
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
