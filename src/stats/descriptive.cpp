/**
 * @file
 * Implementation of descriptive statistics helpers.
 */

#include "descriptive.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace speclens {
namespace stats {

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = std::accumulate(values.begin(), values.end(), 0.0);
    return sum / static_cast<double>(values.size());
}

double
variance(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    double m = mean(values);
    double acc = 0.0;
    for (double v : values)
        acc += (v - m) * (v - m);
    return acc / static_cast<double>(values.size() - 1);
}

double
stddev(const std::vector<double> &values)
{
    return std::sqrt(variance(values));
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument("geometricMean: empty input");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            throw std::invalid_argument("geometricMean: non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
minValue(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument("minValue: empty input");
    return *std::min_element(values.begin(), values.end());
}

double
maxValue(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument("maxValue: empty input");
    return *std::max_element(values.begin(), values.end());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median: empty input");
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double>
ranks(const std::vector<double> &values)
{
    std::size_t n = values.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return values[a] < values[b];
                     });

    std::vector<double> out(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        // Find the run of tied values and assign each the average rank.
        std::size_t j = i;
        while (j + 1 < n && values[order[j + 1]] == values[order[i]])
            ++j;
        double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            out[order[k]] = avg_rank;
        i = j + 1;
    }
    return out;
}

double
pearson(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("pearson: length mismatch");
    if (a.size() < 2)
        throw std::invalid_argument("pearson: need at least two points");
    double ma = mean(a), mb = mean(b);
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double da = a[i] - ma, db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va == 0.0 || vb == 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

double
relativeError(double estimate, double reference)
{
    if (reference == 0.0)
        throw std::invalid_argument("relativeError: zero reference");
    return std::fabs(estimate - reference) / std::fabs(reference);
}

} // namespace stats
} // namespace speclens
