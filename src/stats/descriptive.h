/**
 * @file
 * Descriptive statistics helpers: means, variances, geometric means,
 * ranks, and correlation.  These back the normalization step of the PCA
 * pipeline, the geometric-mean SPEC scoring used in subset validation
 * (Section IV-B of the paper), and the rank-difference sensitivity
 * analysis (Section V-G / Table IX).
 */

#ifndef SPECLENS_STATS_DESCRIPTIVE_H
#define SPECLENS_STATS_DESCRIPTIVE_H

#include <cstddef>
#include <vector>

namespace speclens {
namespace stats {

/** Arithmetic mean.  Returns 0 for an empty vector. */
double mean(const std::vector<double> &values);

/**
 * Sample variance (divides by n - 1).  Returns 0 for fewer than two
 * values.
 */
double variance(const std::vector<double> &values);

/** Sample standard deviation (sqrt of sample variance). */
double stddev(const std::vector<double> &values);

/**
 * Geometric mean.  All values must be positive; this is the aggregation
 * SPEC uses for suite scores and the one the paper uses when validating
 * subsets against full sub-suites.
 *
 * @throws std::invalid_argument when any value is <= 0 or the vector is
 *         empty.
 */
double geometricMean(const std::vector<double> &values);

/** Smallest element.  Throws on an empty vector. */
double minValue(const std::vector<double> &values);

/** Largest element.  Throws on an empty vector. */
double maxValue(const std::vector<double> &values);

/** Median (average of the middle two for even sizes). */
double median(std::vector<double> values);

/**
 * Fractional ranks (1-based; ties get the average of their positions).
 * Larger value -> larger rank.  Used by the sensitivity classification,
 * which ranks benchmarks per machine and compares rank stability across
 * machines.
 */
std::vector<double> ranks(const std::vector<double> &values);

/** Pearson correlation coefficient.  Vectors must have equal length. */
double pearson(const std::vector<double> &a, const std::vector<double> &b);

/**
 * Relative error |estimate - reference| / |reference| expressed as a
 * fraction (multiply by 100 for percent).  reference must be non-zero.
 */
double relativeError(double estimate, double reference);

} // namespace stats
} // namespace speclens

#endif // SPECLENS_STATS_DESCRIPTIVE_H
