/**
 * @file
 * PCA implementation.
 */

#include "pca.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "eigen.h"
#include "obs/metrics.h"

namespace speclens {
namespace stats {

namespace {

/** Relative tolerance shared by the rank cap and the sign anchor. */
constexpr double kRelativeTolerance = 1e-9;

/**
 * Row of the entry anchoring column @p c's sign: the lowest index whose
 * magnitude is within a relative kRelativeTolerance of the column's
 * largest, so a near-tie resolves the same way whichever side of the
 * eigenproblem produced the column.
 */
std::size_t
anchorRow(const Matrix &m, std::size_t c)
{
    double largest = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r)
        largest = std::max(largest, std::fabs(m(r, c)));
    double floor = largest * (1.0 - kRelativeTolerance);
    for (std::size_t r = 0; r < m.rows(); ++r)
        if (std::fabs(m(r, c)) >= floor)
            return r;
    return 0;
}

/** Number of eigenvalues above kRelativeTolerance * the largest. */
std::size_t
numericalRank(const std::vector<double> &eigenvalues)
{
    if (eigenvalues.empty() || !(eigenvalues.front() > 0.0))
        return 0;
    double floor = kRelativeTolerance * eigenvalues.front();
    std::size_t rank = 0;
    while (rank < eigenvalues.size() && eigenvalues[rank] > floor)
        ++rank;
    return rank;
}

std::size_t
retainCount(const std::vector<double> &eigenvalues,
            const RetentionPolicy &policy)
{
    double total = std::accumulate(eigenvalues.begin(), eigenvalues.end(),
                                   0.0);
    std::size_t n = eigenvalues.size();

    switch (policy.mode) {
      case RetentionPolicy::Mode::Kaiser: {
        std::size_t k = 0;
        while (k < n && eigenvalues[k] >= policy.kaiser_threshold)
            ++k;
        // Always keep at least one component so downstream consumers
        // (clustering, scatter plots) have a non-empty space.
        return std::max<std::size_t>(k, 1);
      }
      case RetentionPolicy::Mode::FixedCount:
        return std::min<std::size_t>(std::max<std::size_t>(policy.count, 1),
                                     n);
      case RetentionPolicy::Mode::VarianceCovered: {
        double covered = 0.0;
        std::size_t k = 0;
        while (k < n && covered < policy.variance_fraction * total) {
            covered += eigenvalues[k];
            ++k;
        }
        return std::max<std::size_t>(k, 1);
      }
    }
    return 1;
}

} // namespace

Matrix
PcaResult::project(const Matrix &raw) const
{
    Matrix standardized = zscoreWith(raw, training_stats);
    return standardized.multiply(loadings);
}

std::size_t
PcaResult::dominantMetric(std::size_t pc) const
{
    if (pc >= retained)
        throw std::out_of_range("PcaResult::dominantMetric: pc index");
    return anchorRow(loadings, pc);
}

PcaResult
fitPca(const Matrix &raw, const RetentionPolicy &policy)
{
    if (raw.rows() < 2 || raw.cols() < 1)
        throw std::invalid_argument("fitPca: need >= 2 rows and >= 1 col");

    static obs::Timing &fit_time =
        obs::Registry::global().timing("stats.pca.fit");
    obs::Span span(fit_time);

    PcaResult out;
    out.training_stats = columnStats(raw);
    Matrix standardized = zscoreWith(raw, out.training_stats);

    // Decompose whichever side of the problem is smaller.  For the
    // (zero-mean) standardized features Z, the p x p correlation matrix
    // Z'Z/(n-1) and the n x n Gram matrix ZZ'/(n-1) share their nonzero
    // eigenvalues, and a Gram eigenvector u maps to the correlation
    // eigenvector Z'u / sqrt((n-1) lambda).  The suites have at most 43
    // rows against 140 features, so the Gram side is the one that runs
    // in practice.
    std::size_t n = raw.rows(), p = raw.cols();
    bool wide = n < p;
    static obs::Timing &eigen_time =
        obs::Registry::global().timing("stats.pca.eigen");
    EigenDecomposition eig;
    {
        obs::Span eigen_span(eigen_time);
        eig = symmetricEigen(
            wide ? standardized.multiply(standardized.transposed())
                       .scaled(1.0 / static_cast<double>(n - 1))
                 : covarianceMatrix(standardized));
    }

    // Numerical noise can produce tiny negative eigenvalues on
    // rank-deficient matrices; clamp them for the variance bookkeeping.
    // The Gram side has only n eigenvalues; the other p - n are exactly
    // zero.
    out.eigenvalues = eig.values;
    for (double &v : out.eigenvalues)
        if (v < 0.0 && v > -1e-9)
            v = 0.0;
    out.eigenvalues.resize(p, 0.0);

    std::size_t rank = numericalRank(out.eigenvalues);
    if (rank == 0)
        throw std::invalid_argument("fitPca: every column is constant");
    std::size_t k = std::min(retainCount(out.eigenvalues, policy), rank);
    out.retained = k;

    std::vector<std::size_t> keep(k);
    std::iota(keep.begin(), keep.end(), std::size_t{0});
    out.loadings = eig.vectors.selectCols(keep);
    if (wide) {
        out.loadings = standardized.transposed().multiply(out.loadings);
        for (std::size_t c = 0; c < k; ++c) {
            double norm = std::sqrt(static_cast<double>(n - 1) *
                                    out.eigenvalues[c]);
            for (std::size_t r = 0; r < p; ++r)
                out.loadings(r, c) /= norm;
        }
    }
    // Canonical sign: each component's anchor entry is positive.
    for (std::size_t c = 0; c < k; ++c)
        if (out.loadings(anchorRow(out.loadings, c), c) < 0.0)
            for (std::size_t r = 0; r < p; ++r)
                out.loadings(r, c) = -out.loadings(r, c);
    out.scores = standardized.multiply(out.loadings);

    double total = std::accumulate(out.eigenvalues.begin(),
                                   out.eigenvalues.end(), 0.0);
    out.variance_per_component.resize(k);
    double covered = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        double frac = total > 0.0 ? out.eigenvalues[i] / total : 0.0;
        out.variance_per_component[i] = frac;
        covered += frac;
    }
    out.variance_covered = covered;
    return out;
}

} // namespace stats
} // namespace speclens
