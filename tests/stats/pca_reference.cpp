/**
 * @file
 * Naive correlation-side PCA reference model.
 */

#include "pca_reference.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "stats/eigen.h"

namespace speclens {
namespace reference {

using stats::Matrix;
using stats::RetentionPolicy;

stats::PcaResult
fitPca(const Matrix &raw, const RetentionPolicy &policy)
{
    std::size_t n = raw.rows(), p = raw.cols();
    stats::PcaResult out;
    std::vector<double> &mean = out.training_stats.means;
    std::vector<double> &sd = out.training_stats.stddevs;
    mean.assign(p, 0.0);
    sd.assign(p, 0.0);
    for (std::size_t c = 0; c < p; ++c) {
        for (std::size_t r = 0; r < n; ++r)
            mean[c] += raw(r, c);
        mean[c] /= static_cast<double>(n);
        for (std::size_t r = 0; r < n; ++r)
            sd[c] += (raw(r, c) - mean[c]) * (raw(r, c) - mean[c]);
        sd[c] = std::sqrt(sd[c] / static_cast<double>(n - 1));
    }

    Matrix z(n, p);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < p; ++c)
            z(r, c) = sd[c] > 0.0 ? (raw(r, c) - mean[c]) / sd[c] : 0.0;

    Matrix corr(p, p);
    for (std::size_t i = 0; i < p; ++i)
        for (std::size_t j = 0; j < p; ++j) {
            double acc = 0.0;
            for (std::size_t r = 0; r < n; ++r)
                acc += z(r, i) * z(r, j);
            corr(i, j) = acc / static_cast<double>(n - 1);
        }
    stats::EigenDecomposition eig = stats::symmetricEigen(corr);

    out.eigenvalues = eig.values;
    double total = 0.0;
    for (double &v : out.eigenvalues) {
        if (v < 0.0 && v > -1e-9)
            v = 0.0;
        total += v;
    }

    // Retention: the policy's count, at least one, never past the
    // numerical rank (eigenvalues above 1e-9 of the largest).
    std::size_t k = 0;
    switch (policy.mode) {
      case RetentionPolicy::Mode::Kaiser:
        while (k < p && out.eigenvalues[k] >= policy.kaiser_threshold)
            ++k;
        break;
      case RetentionPolicy::Mode::FixedCount:
        k = policy.count < p ? policy.count : p;
        break;
      case RetentionPolicy::Mode::VarianceCovered: {
        double covered = 0.0;
        while (k < p && covered < policy.variance_fraction * total)
            covered += out.eigenvalues[k++];
        break;
      }
    }
    if (k == 0)
        k = 1;
    std::size_t rank = 0;
    while (rank < p && out.eigenvalues[rank] > 1e-9 * out.eigenvalues[0])
        ++rank;
    if (k > rank)
        k = rank;
    out.retained = k;

    // Sign: the lowest-index entry whose magnitude is within a relative
    // 1e-9 of the column's largest is positive.
    out.loadings = Matrix(p, k);
    for (std::size_t c = 0; c < k; ++c) {
        double largest = 0.0;
        for (std::size_t r = 0; r < p; ++r)
            largest = std::fmax(largest, std::fabs(eig.vectors(r, c)));
        std::size_t anchor = 0;
        while (std::fabs(eig.vectors(anchor, c)) < largest * (1.0 - 1e-9))
            ++anchor;
        double sign = eig.vectors(anchor, c) < 0.0 ? -1.0 : 1.0;
        for (std::size_t r = 0; r < p; ++r)
            out.loadings(r, c) = sign * eig.vectors(r, c);
    }

    out.scores = Matrix(n, k);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < k; ++c)
            for (std::size_t m = 0; m < p; ++m)
                out.scores(r, c) += z(r, m) * out.loadings(m, c);

    for (std::size_t c = 0; c < k; ++c) {
        out.variance_per_component.push_back(out.eigenvalues[c] / total);
        out.variance_covered += out.eigenvalues[c] / total;
    }
    return out;
}

} // namespace reference
} // namespace speclens
