/**
 * @file
 * Metrics registry implementation.
 */

#include "metrics.h"

namespace speclens {
namespace obs {

namespace {

/** Generic create-on-first-lookup over one instrument map. */
template <typename T>
T &
lookup(std::mutex &mutex, std::map<std::string, std::unique_ptr<T>> &map,
       const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<T> &slot = map[name];
    if (!slot)
        slot = std::make_unique<T>();
    return *slot;
}

} // namespace

Counter &
Registry::counter(const std::string &name)
{
    return lookup(mutex_, counters_, name);
}

Gauge &
Registry::gauge(const std::string &name)
{
    return lookup(mutex_, gauges_, name);
}

Timing &
Registry::timing(const std::string &name)
{
    return lookup(mutex_, timings_, name);
}

Snapshot
Registry::snapshot() const
{
    Snapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.counters.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        out.counters.emplace_back(name, counter->value());
    out.gauges.reserve(gauges_.size());
    for (const auto &[name, gauge] : gauges_)
        out.gauges.emplace_back(name, gauge->value());
    out.timings.reserve(timings_.size());
    for (const auto &[name, timing] : timings_)
        out.timings.emplace_back(name, timing->stats());
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, gauge] : gauges_)
        gauge->reset();
    for (auto &[name, timing] : timings_)
        timing->reset();
}

Registry &
Registry::global()
{
    // Function-local static: constructed on first use, so any
    // initialization-order race with other globals is impossible.
    static Registry registry;
    return registry;
}

} // namespace obs
} // namespace speclens
