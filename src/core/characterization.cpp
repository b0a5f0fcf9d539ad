/**
 * @file
 * Measurement campaign implementation.
 */

#include "characterization.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "obs/metrics.h"

namespace speclens {
namespace core {

uarch::SimulationConfig
CharacterizationConfig::simulationConfig() const
{
    uarch::SimulationConfig sim;
    sim.instructions = instructions;
    sim.warmup = warmup;
    sim.seed_salt = seed_salt;
    return sim;
}

void
CharacterizationConfig::hashInto(stats::Fingerprinter &fp) const
{
    // Delegate to the canonical window hash so campaign entries and
    // raw storedSimulate() entries with the same window share a
    // fingerprint (and therefore a store entry).
    simulationConfig().hashInto(fp);
}

StoreKey
makeStoreKey(const trace::WorkloadProfile &profile,
             const uarch::MachineConfig &machine,
             const CharacterizationConfig &config)
{
    return makeStoreKey(profile, machine, config.simulationConfig());
}

Characterizer::Characterizer(std::vector<uarch::MachineConfig> machines,
                             CharacterizationConfig config)
    : machines_(std::move(machines)), config_(config)
{
    if (machines_.empty())
        throw std::invalid_argument("Characterizer: no machines");
#ifdef SPECLENS_VALIDATE
    // Startup assertions (configure with -DSPECLENS_VALIDATE=ON): a
    // malformed machine model corrupts every measurement silently, so
    // fail fast before any simulation runs.
    for (const uarch::MachineConfig &machine : machines_)
        uarch::validateMachineConfig(machine);
#endif
}

uarch::SimulationResult
Characterizer::runSimulation(const suites::BenchmarkInfo &benchmark,
                             std::size_t machine_index) const
{
    static obs::Timing &simulate_time =
        obs::Registry::global().timing("core.characterize.simulate");
    obs::Span span(simulate_time);
    return uarch::simulate(benchmark.profile, machines_[machine_index],
                           config_.simulationConfig());
}

void
Characterizer::attachStore(std::shared_ptr<CampaignStore> store)
{
    store_ = std::move(store);
}

StoreKey
Characterizer::storeKey(const suites::BenchmarkInfo &benchmark,
                        std::size_t machine_index) const
{
    if (machine_index >= machines_.size())
        throw std::out_of_range("Characterizer::storeKey: machine index");
    return makeStoreKey(benchmark.profile, machines_[machine_index],
                        config_);
}

uarch::SimulationResult
Characterizer::obtainResult(const suites::BenchmarkInfo &benchmark,
                            std::size_t machine_index)
{
    static obs::Counter &simulations =
        obs::Registry::global().counter("core.characterize.simulations");
    StoreKey key;
    if (store_) {
        key = storeKey(benchmark, machine_index);
        uarch::SimulationResult loaded;
        if (store_->load(key, loaded) == StoreStatus::Hit)
            return loaded;
    }
    // No store, a miss, or a defensive rejection (corrupt / stale /
    // mismatched entry): simulate, and overwrite with a fresh entry.
    uarch::SimulationResult result = runSimulation(benchmark, machine_index);
    simulations_run_.fetch_add(1, std::memory_order_relaxed);
    simulations.add();
    if (store_) {
        store_->recordComputed();
        store_->save(key, result);
    }
    return result;
}

const uarch::SimulationResult &
Characterizer::ensureResult(const suites::BenchmarkInfo &benchmark,
                            std::size_t machine_index)
{
    static obs::Counter &memo_hits =
        obs::Registry::global().counter("core.characterize.memo_hits");
    static obs::Counter &dedup_shared =
        obs::Registry::global().counter("core.characterize.dedup_shared");

    CacheKey key{benchmark.profile.name, machine_index};
    {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            memo_hits.add();
            return it->second;
        }
    }

    // Claim leadership of the pair, or join an in-flight measurement.
    std::promise<const uarch::SimulationResult *> promise;
    std::shared_future<const uarch::SimulationResult *> shared;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            shared = it->second;
        } else {
            // The previous leader may have finished (cache insert,
            // then inflight erase) between our two lookups.
            {
                std::lock_guard<std::mutex> cache_lock(cache_mutex_);
                auto hit = cache_.find(key);
                if (hit != cache_.end()) {
                    memo_hits.add();
                    return hit->second;
                }
            }
            shared = promise.get_future().share();
            inflight_.emplace(key, shared);
            leader = true;
        }
    }

    if (!leader) {
        dedup_shared.add();
        return *shared.get(); // rethrows the leader's exception
    }

    try {
        uarch::SimulationResult result =
            obtainResult(benchmark, machine_index);
        const uarch::SimulationResult *stable = nullptr;
        {
            std::lock_guard<std::mutex> lock(cache_mutex_);
            stable =
                &cache_.emplace(std::move(key), std::move(result))
                     .first->second;
        }
        {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            inflight_.erase(
                CacheKey{benchmark.profile.name, machine_index});
        }
        promise.set_value(stable);
        return *stable;
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            inflight_.erase(
                CacheKey{benchmark.profile.name, machine_index});
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

void
Characterizer::prepare(
    const std::vector<suites::BenchmarkInfo> &benchmarks,
    const std::vector<std::size_t> &machine_indices, std::size_t jobs)
{
    // Collect the distinct pairs not yet memoised.  Holding the lock
    // here is cheap: only map lookups, no simulation.
    std::vector<std::pair<const suites::BenchmarkInfo *, std::size_t>>
        missing;
    {
        std::set<CacheKey> scheduled;
        std::lock_guard<std::mutex> lock(cache_mutex_);
        for (const suites::BenchmarkInfo &benchmark : benchmarks) {
            for (std::size_t mi : machine_indices) {
                if (mi >= machines_.size())
                    throw std::out_of_range(
                        "Characterizer::prepare: machine index");
                CacheKey key{benchmark.profile.name, mi};
                if (cache_.find(key) != cache_.end())
                    continue;
                if (!scheduled.insert(std::move(key)).second)
                    continue;
                missing.emplace_back(&benchmark, mi);
            }
        }
    }
    if (missing.empty())
        return;

#ifdef SPECLENS_VALIDATE
    // Validate each profile once before fanning the campaign out, so a
    // broken model aborts with a field name instead of producing a
    // plausible-looking feature matrix.
    for (const auto &[benchmark, mi] : missing) {
        (void)mi;
        benchmark->profile.validate();
    }
#endif

    // ensureResult() memoises and dedups against concurrent callers,
    // so the fan-out body is a bare call whether it runs on the shared
    // pool (ServiceContext) or on prepare()'s own transient threads.
    if (pool_) {
        for (const auto &pair : missing) {
            pool_->submit([this, pair] {
                ensureResult(*pair.first, pair.second);
            });
        }
        pool_->wait();
        return;
    }
    parallelFor(missing.size(), jobs == 0 ? config_.jobs : jobs,
                [&](std::size_t i) {
                    const auto &[benchmark, mi] = missing[i];
                    ensureResult(*benchmark, mi);
                });
}

void
Characterizer::prepare(
    const std::vector<suites::BenchmarkInfo> &benchmarks, std::size_t jobs)
{
    std::vector<std::size_t> all(machines_.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    prepare(benchmarks, all, jobs);
}

const uarch::SimulationResult &
Characterizer::simulation(const suites::BenchmarkInfo &benchmark,
                          std::size_t machine_index)
{
    if (machine_index >= machines_.size())
        throw std::out_of_range("Characterizer: machine index");
    // ensureResult() runs the measurement outside any lock (concurrent
    // misses on different pairs proceed in parallel) and dedups racers
    // on the same pair through the in-flight future map, so the work
    // happens exactly once.
    return ensureResult(benchmark, machine_index);
}

MetricVector
Characterizer::metrics(const suites::BenchmarkInfo &benchmark,
                       std::size_t machine_index)
{
    return extractMetrics(simulation(benchmark, machine_index));
}

stats::Matrix
Characterizer::featureMatrix(
    const std::vector<suites::BenchmarkInfo> &benchmarks,
    MetricSelection selection)
{
    std::vector<std::size_t> all(machines_.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    return featureMatrix(benchmarks, selection, all);
}

stats::Matrix
Characterizer::featureMatrix(
    const std::vector<suites::BenchmarkInfo> &benchmarks,
    MetricSelection selection,
    const std::vector<std::size_t> &machine_indices)
{
    prepare(benchmarks, machine_indices);

    std::vector<Metric> selected = metricsFor(selection);
    stats::Matrix out(benchmarks.size(),
                      machine_indices.size() * selected.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        std::size_t col = 0;
        for (std::size_t mi : machine_indices) {
            MetricVector mv = metrics(benchmarks[b], mi);
            for (Metric metric : selected)
                out(b, col++) = mv.get(metric);
        }
    }
    return out;
}

std::vector<std::string>
Characterizer::featureNames(MetricSelection selection) const
{
    std::vector<std::size_t> all(machines_.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    return featureNames(selection, all);
}

std::vector<std::string>
Characterizer::featureNames(
    MetricSelection selection,
    const std::vector<std::size_t> &machine_indices) const
{
    std::vector<Metric> selected = metricsFor(selection);
    std::vector<std::string> names;
    names.reserve(machine_indices.size() * selected.size());
    for (std::size_t mi : machine_indices) {
        if (mi >= machines_.size())
            throw std::out_of_range("featureNames: machine index");
        for (Metric metric : selected) {
            names.push_back(machines_[mi].short_name + "." +
                            metricName(metric));
        }
    }
    return names;
}

} // namespace core
} // namespace speclens
