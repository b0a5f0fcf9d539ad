/**
 * @file
 * Median and tail percentiles under the reporting rule of the
 * benchmark: a timing is a median, and a tail percentile is reported
 * only when at least kMinBeyond samples rank above it.  Every value
 * carries the sample count it came from.
 */

#ifndef PERFBENCH_PERCENTILE_H
#define PERFBENCH_PERCENTILE_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must rank above a tail percentile for it to be reported. */
inline constexpr std::size_t kMinBeyond = 10;

/** One order statistic and the evidence behind it. */
struct Quantile
{
    double value = 0.0;
    std::size_t samples = 0; //!< Sample count the value came from.
    std::size_t beyond = 0;  //!< Samples ranked strictly above it.
    bool reportable = false; //!< The reporting rule holds.
};

/**
 * Median: the middle sample, or the mean of the two middle samples for
 * an even count.  Reportable whenever there is at least one sample.
 */
Quantile median(std::vector<double> samples);

/**
 * Nearest-rank @p p quantile (0 < p < 1): the sample of rank
 * ceil(p * n) in ascending order.  Reportable only when at least
 * kMinBeyond samples rank above that one.
 */
Quantile tail(std::vector<double> samples, double p);

/**
 * The highest of p99, p95, p90 and p75 that is reportable, with its
 * level in @p level (0 when none is).
 */
Quantile highestTail(const std::vector<double> &samples, double &level);

/**
 * Human-readable form: "p90=12.345 (n=160, 16 beyond)", or
 * "p90 not reported (n=40, 4 beyond, needs 10)".
 */
std::string describe(const std::string &label, const Quantile &q);

} // namespace perfbench

#endif // PERFBENCH_PERCENTILE_H
