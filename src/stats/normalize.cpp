/**
 * @file
 * Implementation of feature normalization.
 */

#include "normalize.h"

#include <cmath>
#include <stdexcept>

#include "descriptive.h"
#include "obs/metrics.h"

namespace speclens {
namespace stats {

ColumnStats
columnStats(const Matrix &m)
{
    std::size_t rows = m.rows(), cols = m.cols();
    ColumnStats out;
    out.means.assign(cols, 0.0);
    out.stddevs.assign(cols, 0.0);
    if (cols == 0)
        return out;

    // Row-major two-pass reduction.  Each column's partial sums still
    // accumulate in ascending row order — exactly the order the old
    // per-column copy produced — so means and stddevs are bit-identical
    // to mean()/stddev() over m.col(c); the walk just stops copying a
    // strided column per feature and runs contiguously over each row.
    if (rows > 0) {
        std::vector<double> sums(cols, 0.0);
        for (std::size_t r = 0; r < rows; ++r) {
            const double *row = m.rowPtr(r);
            for (std::size_t c = 0; c < cols; ++c)
                sums[c] += row[c];
        }
        for (std::size_t c = 0; c < cols; ++c)
            out.means[c] = sums[c] / static_cast<double>(rows);
    }
    if (rows >= 2) {
        std::vector<double> sq(cols, 0.0);
        for (std::size_t r = 0; r < rows; ++r) {
            const double *row = m.rowPtr(r);
            for (std::size_t c = 0; c < cols; ++c) {
                double d = row[c] - out.means[c];
                sq[c] += d * d;
            }
        }
        for (std::size_t c = 0; c < cols; ++c)
            out.stddevs[c] =
                std::sqrt(sq[c] / static_cast<double>(rows - 1));
    }
    return out;
}

std::string
NormalizeReport::describe(std::size_t column) const
{
    if (column < column_labels.size() &&
        !column_labels[column].empty())
        return column_labels[column];
    return "column " + std::to_string(column);
}

std::vector<std::size_t>
degenerateColumns(const ColumnStats &stats)
{
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < stats.stddevs.size(); ++c) {
        if (!(stats.stddevs[c] > 0.0))
            out.push_back(c);
    }
    return out;
}

Matrix
zscore(const Matrix &m, NormalizeReport *report)
{
    return zscoreWith(m, columnStats(m), report);
}

Matrix
zscoreWith(const Matrix &m, const ColumnStats &stats,
           NormalizeReport *report)
{
    if (stats.means.size() != m.cols() || stats.stddevs.size() != m.cols())
        throw std::invalid_argument("zscoreWith: stats dimension mismatch");

    static obs::Timing &zscore_time =
        obs::Registry::global().timing("stats.normalize.zscore");
    static obs::Counter &zero_variance = obs::Registry::global().counter(
        "stats.normalize.zero_variance_columns");
    obs::Span span(zscore_time);

    Matrix out(m.rows(), m.cols());
    std::vector<std::size_t> degenerate = degenerateColumns(stats);
    // Elementwise transform, so iteration order does not affect the
    // values; walk row-major over contiguous storage instead of the
    // strided column-major order the first version used.
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const double *src = m.rowPtr(r);
        double *dst = out.rowPtr(r);
        for (std::size_t c = 0; c < m.cols(); ++c) {
            double sd = stats.stddevs[c];
            dst[c] = sd > 0.0 ? (src[c] - stats.means[c]) / sd : 0.0;
        }
    }
    if (!degenerate.empty())
        zero_variance.add(degenerate.size());
    if (report)
        report->degenerate_columns = std::move(degenerate);
    return out;
}

Matrix
covarianceMatrix(const Matrix &m)
{
    if (m.rows() < 2)
        throw std::invalid_argument("covarianceMatrix: need >= 2 rows");

    ColumnStats stats = columnStats(m);
    std::size_t n = m.rows(), d = m.cols();
    const double *data = m.data().data();
    Matrix cov(d, d);
    for (std::size_t i = 0; i < d; ++i) {
        double mean_i = stats.means[i];
        for (std::size_t j = i; j < d; ++j) {
            double mean_j = stats.means[j];
            // Same ascending-row accumulation as before, over raw
            // storage (two fixed columns, stride d).
            const double *pi = data + i;
            const double *pj = data + j;
            double acc = 0.0;
            for (std::size_t r = 0; r < n; ++r) {
                acc += (pi[r * d] - mean_i) * (pj[r * d] - mean_j);
            }
            double v = acc / static_cast<double>(n - 1);
            cov(i, j) = v;
            cov(j, i) = v;
        }
    }
    return cov;
}

} // namespace stats
} // namespace speclens
