/**
 * @file
 * Measurement campaign implementation.
 */

#include "characterization.h"

#include <algorithm>
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

namespace {

std::uint64_t
windowFingerprint(const CharacterizationConfig &config)
{
    stats::Fingerprinter fp;
    config.hashInto(fp);
    return fp.value();
}

} // namespace

ResultMemo::ResultMemo(const CharacterizationConfig &config)
    : window_(windowFingerprint(config))
{
}

std::size_t
ResultMemo::cachedMeasurements() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(std::count_if(
        slots_.begin(), slots_.end(),
        [](const auto &slot) { return !slot.second.batch; }));
}

Characterizer::Characterizer(std::vector<uarch::MachineConfig> machines,
                             CharacterizationConfig config,
                             std::shared_ptr<ResultMemo> memo)
    : machines_(std::move(machines)), config_(config),
      memo_(memo ? std::move(memo) : std::make_shared<ResultMemo>(config))
{
    if (machines_.empty())
        throw std::invalid_argument("Characterizer: no machines");
    if (memo_->window_ != windowFingerprint(config_))
        throw std::invalid_argument(
            "Characterizer: shared memo has another window");
    // A malformed machine model corrupts every measurement silently,
    // so fail fast before any simulation runs.
    machine_keys_.reserve(machines_.size());
    for (const uarch::MachineConfig &machine : machines_) {
        uarch::validateMachineConfig(machine);
        machine_keys_.push_back(machine.fingerprint());
    }
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
                            std::size_t machine_index,
                            const stats::Fingerprinter &key_prefix)
{
    static obs::Counter &simulations =
        obs::Registry::global().counter("core.characterize.simulations");
    StoreKey key;
    if (store_) {
        key = pairStoreKey(key_prefix, benchmark.profile,
                           machines_[machine_index],
                           config_.simulationConfig());
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

void
Characterizer::fill(const std::vector<Pair> &pairs, std::size_t jobs)
{
    static obs::Counter &dedup_shared =
        obs::Registry::global().counter("core.characterize.dedup_shared");

    using Batch = ResultMemo::Batch;
    ResultMemo &memo = *memo_;

    // A pair this call runs, its memo slot and its benchmark's
    // store-key prefix.
    struct Job
    {
        const suites::BenchmarkInfo *benchmark;
        std::size_t machine_index;
        std::map<ResultMemo::Key, ResultMemo::Slot>::iterator slot;
        stats::Fingerprinter key_prefix;
    };
    // A pair another call (of this or another Characterizer sharing
    // the memo) has in flight: that call's batch and index.
    struct Awaited
    {
        std::shared_ptr<const Batch> batch;
        std::size_t index;
    };
    std::vector<Job> claimed;
    std::vector<Awaited> awaited;
    auto batch = std::make_shared<Batch>();
    {
        // The store-key prefix is hashed once per run of same-benchmark
        // claims (prepare() lists pairs benchmark by benchmark).
        const suites::BenchmarkInfo *hashed = nullptr;
        stats::Fingerprinter key_prefix;
        std::lock_guard<std::mutex> lock(memo.mutex_);
        for (const auto &[benchmark, mi] : pairs) {
            auto [slot, fresh] = memo.slots_.try_emplace(
                ResultMemo::Key{benchmark->profile.name, machine_keys_[mi]});
            ResultMemo::Slot &entry = slot->second;
            if (fresh) {
                if (store_ && benchmark != hashed) {
                    key_prefix = pairKeyPrefix(benchmark->profile,
                                               config_.simulationConfig());
                    hashed = benchmark;
                }
                entry.batch = batch;
                entry.index = claimed.size();
                claimed.push_back({benchmark, mi, slot, key_prefix});
            } else if (entry.batch && entry.batch != batch) {
                dedup_shared.add();
                awaited.push_back({entry.batch, entry.index});
            } // else cached, or listed twice in this call
        }
        batch->outcomes.resize(claimed.size());
    }

    // Workers never throw: each claimed pair publishes its result or
    // its error under one lock, which also releases the claim.
    std::exception_ptr first_error;
    auto run = [&](std::size_t i) {
        const Job &job = claimed[i];
        uarch::SimulationResult result;
        std::exception_ptr error;
        try {
            result = obtainResult(*job.benchmark, job.machine_index,
                                  job.key_prefix);
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(memo.mutex_);
            Batch::Outcome &outcome = batch->outcomes[i];
            if (error) {
                outcome.error = error;
                if (!first_error)
                    first_error = error;
                memo.slots_.erase(job.slot);
            } else {
                job.slot->second.result = std::move(result);
                job.slot->second.batch.reset();
            }
            outcome.done = true;
        }
        memo.published_.notify_all();
    };
    parallelFor(claimed.size(), jobs == 0 ? config_.jobs : jobs, run);

    if (!awaited.empty()) {
        std::unique_lock<std::mutex> lock(memo.mutex_);
        for (const Awaited &a : awaited) {
            const Batch::Outcome &outcome = a.batch->outcomes[a.index];
            memo.published_.wait(lock,
                                 [&outcome] { return outcome.done; });
            if (outcome.error && !first_error)
                first_error = outcome.error;
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

void
Characterizer::prepare(
    const std::vector<suites::BenchmarkInfo> &benchmarks,
    const std::vector<std::size_t> &machine_indices, std::size_t jobs)
{
    std::vector<Pair> pairs;
    pairs.reserve(benchmarks.size() * machine_indices.size());
    for (std::size_t mi : machine_indices)
        if (mi >= machines_.size())
            throw std::out_of_range(
                "Characterizer::prepare: machine index");
    for (const suites::BenchmarkInfo &benchmark : benchmarks)
        for (std::size_t mi : machine_indices)
            pairs.emplace_back(&benchmark, mi);
    fill(pairs, jobs);
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
    static obs::Counter &memo_hits =
        obs::Registry::global().counter("core.characterize.memo_hits");
    if (machine_index >= machines_.size())
        throw std::out_of_range("Characterizer: machine index");
    const ResultMemo::Key key{benchmark.profile.name,
                              machine_keys_[machine_index]};
    {
        std::lock_guard<std::mutex> lock(memo_->mutex_);
        auto it = memo_->slots_.find(key);
        if (it != memo_->slots_.end() && !it->second.batch) {
            memo_hits.add();
            return it->second.result;
        }
    }
    fill({{&benchmark, machine_index}}, 1);
    std::lock_guard<std::mutex> lock(memo_->mutex_);
    return memo_->slots_.at(key).result;
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
