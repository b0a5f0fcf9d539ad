/**
 * @file
 * Percentile helper implementation.
 */

#include "percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Quantile
median(std::vector<double> samples)
{
    Quantile q;
    q.samples = samples.size();
    if (samples.empty())
        return q;
    std::sort(samples.begin(), samples.end());
    std::size_t mid = samples.size() / 2;
    q.value = samples.size() % 2 == 1
                  ? samples[mid]
                  : 0.5 * (samples[mid - 1] + samples[mid]);
    q.beyond = samples.size() - mid - 1;
    q.reportable = true;
    return q;
}

Quantile
tail(std::vector<double> samples, double p)
{
    Quantile q;
    q.samples = samples.size();
    if (samples.empty() || !(p > 0.0 && p < 1.0))
        return q;
    std::sort(samples.begin(), samples.end());
    // The epsilon keeps p * n that is integral on paper (0.9 * 100)
    // from rounding up a rank through representation error.
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size()) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    q.value = samples[rank - 1];
    q.beyond = samples.size() - rank;
    q.reportable = q.beyond >= kMinBeyond;
    return q;
}

Quantile
highestTail(const std::vector<double> &samples, double &level)
{
    for (double p : {0.99, 0.95, 0.90, 0.75}) {
        Quantile q = tail(samples, p);
        if (q.reportable) {
            level = p;
            return q;
        }
    }
    level = 0.0;
    return Quantile{0.0, samples.size(), 0, false};
}

std::string
describe(const std::string &label, const Quantile &q)
{
    char buffer[160];
    if (q.reportable)
        std::snprintf(buffer, sizeof buffer, "%s=%.6g (n=%zu, %zu beyond)",
                      label.c_str(), q.value, q.samples, q.beyond);
    else
        std::snprintf(buffer, sizeof buffer,
                      "%s not reported (n=%zu, %zu beyond, needs %zu)",
                      label.c_str(), q.samples, q.beyond, kMinBeyond);
    return buffer;
}

} // namespace perfbench
