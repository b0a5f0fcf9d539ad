/**
 * @file
 * The measurement campaign: every benchmark on every machine.
 *
 * This is the SpecLens equivalent of the paper's perf-counter
 * experiments — each (benchmark, machine) pair is simulated once and
 * its metric vector memoised, then feature matrices for any analysis
 * (full suite, sub-suite, metric subset, machine subset) are assembled
 * from the cache.  Treating each performance-counter/machine pair as a
 * distinct feature reproduces the paper's 20 x 7 = 140-metric design.
 *
 * The pairs are mutually independent and independently seeded, so the
 * campaign is embarrassingly parallel: prepare() (used internally by
 * featureMatrix()) fans the pairs it claims out through parallelFor(),
 * the calling thread running as worker zero beside at most jobs - 1
 * helpers that are joined before it returns, and the memo cache is
 * safe to query from multiple threads concurrently.  Results are
 * bit-identical for any job count.
 */

#ifndef SPECLENS_CORE_CHARACTERIZATION_H
#define SPECLENS_CORE_CHARACTERIZATION_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats/fingerprint.h"
#include "stats/matrix.h"
#include "suites/benchmark_info.h"
#include "core/artifact_store.h"
#include "core/metrics.h"
#include "uarch/machine.h"
#include "uarch/simulation.h"

namespace speclens {
namespace core {

/** Measurement-campaign parameters. */
struct CharacterizationConfig
{
    /** Measured instructions per (benchmark, machine) simulation. */
    std::uint64_t instructions = 120'000;

    /** Warm-up instructions excluded from the counters. */
    std::uint64_t warmup = 30'000;

    /** Seed salt forwarded to the trace generator. */
    std::uint64_t seed_salt = 0;

    /**
     * Worker threads used by prepare()/featureMatrix() to fan the
     * independent (benchmark, machine) simulations out.  0 means one
     * per hardware thread.  Results are bit-identical for any value:
     * every pair is independently seeded and the feature layout is
     * fixed by (benchmark, machine) identity, not completion order.
     */
    std::size_t jobs = 0;

    /**
     * The equivalent per-simulation window (default transform and
     * prewarm behaviour).
     */
    uarch::SimulationConfig simulationConfig() const;

    /**
     * Feed the result-determining window parameters (instructions,
     * warmup, seed_salt) to @p fp.  `jobs` is deliberately excluded:
     * results are bit-identical for any thread count, so campaigns run
     * at different parallelism share store entries.
     */
    void hashInto(stats::Fingerprinter &fp) const;
};

/**
 * Store address of one (profile, machine, window) measurement: the
 * engine version, the campaign window, the full workload model and the
 * full machine model all feed the fingerprint, so changing any of them
 * re-addresses the entry and stale data stops being found.
 */
StoreKey makeStoreKey(const trace::WorkloadProfile &profile,
                      const uarch::MachineConfig &machine,
                      const CharacterizationConfig &config);

/** Runs and memoises benchmark-on-machine measurements. */
class Characterizer
{
  public:
    /**
     * @param machines Machines to measure on (order defines feature
     *        layout).
     * @param config Simulation window parameters.
     */
    explicit Characterizer(std::vector<uarch::MachineConfig> machines,
                           CharacterizationConfig config = {});

    /** Machines in feature order. */
    const std::vector<uarch::MachineConfig> &machines() const
    {
        return machines_;
    }

    /**
     * Attach a persistent artifact store.  From then on every cache
     * miss first consults the store, and every fresh simulation is
     * persisted, so a later process (any CLI command, daemon or
     * test sharing the directory) replays the campaign without
     * simulating.  Corrupt or stale entries are recomputed and
     * overwritten.  A null store detaches.
     */
    void attachStore(std::shared_ptr<CampaignStore> store);

    /** The attached store; null when none. */
    CampaignStore *store() const { return store_.get(); }

    /**
     * Number of actual simulations this instance ran (store hits and
     * memo hits excluded).  A warm run over a populated store keeps
     * this at zero — the acceptance check behind `--store` reuse.
     */
    std::size_t simulationsRun() const
    {
        return simulations_run_.load(std::memory_order_relaxed);
    }

    /** Store key for one (benchmark, machine) pair of this campaign. */
    StoreKey storeKey(const suites::BenchmarkInfo &benchmark,
                      std::size_t machine_index) const;

    /**
     * Simulate every missing (benchmark, machine) pair of the cross
     * product @p benchmarks x @p machine_indices, fanning the work out
     * across worker threads, and memoise the results.  Pairs already
     * cached are skipped.  After prepare() returns, simulation() and
     * metrics() for those pairs are pure cache lookups.
     *
     * Each pair is simulated by an independent, independently seeded
     * generator, so the cached results are bit-identical to what the
     * serial on-demand path produces, for any thread count.
     *
     * Concurrent callers with overlapping pairs run each pair once: a
     * pair another caller has in flight is awaited, not re-run
     * (counted as core.characterize.dedup_shared).  If a pair throws,
     * its claim is released (a later call retries it) and the error
     * is rethrown here and in every caller that awaited it.  Cached
     * pairs are skipped without counting a memo hit; the lookups that
     * follow through simulation() count them.
     *
     * @param jobs Worker threads; 0 falls back to the config's jobs
     *        value (whose own 0 means one per hardware thread).
     */
    void prepare(const std::vector<suites::BenchmarkInfo> &benchmarks,
                 const std::vector<std::size_t> &machine_indices,
                 std::size_t jobs = 0);

    /** prepare() over all machines. */
    void prepare(const std::vector<suites::BenchmarkInfo> &benchmarks,
                 std::size_t jobs = 0);

    /**
     * Full simulation result for one pair: a cache hit (counted as
     * core.characterize.memo_hits), else a one-pair prepare().
     */
    const uarch::SimulationResult &
    simulation(const suites::BenchmarkInfo &benchmark,
               std::size_t machine_index);

    /** Metric vector for one pair (memoised). */
    MetricVector metrics(const suites::BenchmarkInfo &benchmark,
                         std::size_t machine_index);

    /**
     * Assemble the observations-by-features matrix for @p benchmarks:
     * row b holds, for each machine in order, the selected metrics in
     * metricsFor() order.  With the canonical selection and seven
     * machines this is the paper's 140-column matrix.
     */
    stats::Matrix
    featureMatrix(const std::vector<suites::BenchmarkInfo> &benchmarks,
                  MetricSelection selection = MetricSelection::Canonical);

    /**
     * Same, but restricted to a subset of machines given by index
     * (e.g. the three RAPL machines for the power analysis).
     */
    stats::Matrix
    featureMatrix(const std::vector<suites::BenchmarkInfo> &benchmarks,
                  MetricSelection selection,
                  const std::vector<std::size_t> &machine_indices);

    /** Feature names matching featureMatrix columns. */
    std::vector<std::string>
    featureNames(MetricSelection selection = MetricSelection::Canonical)
        const;

    /** Feature names for a machine subset. */
    std::vector<std::string>
    featureNames(MetricSelection selection,
                 const std::vector<std::size_t> &machine_indices) const;

    /** Number of memoised (benchmark, machine) measurements. */
    std::size_t cachedMeasurements() const;

  private:
    using CacheKey = std::pair<std::string, std::size_t>;

    /** One requested (benchmark, machine index) pair. */
    using Pair = std::pair<const suites::BenchmarkInfo *, std::size_t>;

    /**
     * The claims of one fill() call: per claimed pair, whether it is
     * published yet and the error it threw, if any.  Callers that find
     * one of these pairs in flight share ownership and wait for its
     * `done`, so the outcome outlives the memo slot of a failed pair.
     */
    struct Batch
    {
        struct Outcome
        {
            bool done = false;
            std::exception_ptr error;
        };
        std::vector<Outcome> outcomes;
    };

    /**
     * One memo slot.  In flight while `batch` is set (this is pair
     * `index` of that batch); a cached result once published.  A pair
     * that throws loses its slot, so a later call claims it afresh.
     */
    struct Slot
    {
        uarch::SimulationResult result;
        std::shared_ptr<Batch> batch;
        std::size_t index = 0;
    };

    /** Run one uncached simulation (no lock held). */
    uarch::SimulationResult
    runSimulation(const suites::BenchmarkInfo &benchmark,
                  std::size_t machine_index) const;

    /**
     * Produce the result for one pair not in the memo cache: consult
     * the store (when attached), fall back to simulation, persist
     * fresh results.  @p key_prefix is pairKeyPrefix() of the
     * benchmark at this campaign's window (unused without a store).
     * No lock held; safe from worker threads.
     */
    uarch::SimulationResult
    obtainResult(const suites::BenchmarkInfo &benchmark,
                 std::size_t machine_index,
                 const stats::Fingerprinter &key_prefix);

    /**
     * The one memo-fill path, behind both prepare() and simulation():
     * under one lock, claim a slot for every pair of @p pairs that is
     * neither cached nor in flight; run the claimed pairs on @p jobs
     * workers pulling indices from one counter; publish each result
     * (or error) under one lock; then wait for the pairs other calls
     * had in flight.  Rethrows the first error of a claimed or awaited
     * pair once every claim of this call is released.
     */
    void fill(const std::vector<Pair> &pairs, std::size_t jobs);

    std::vector<uarch::MachineConfig> machines_;
    CharacterizationConfig config_;
    std::shared_ptr<CampaignStore> store_;
    std::atomic<std::size_t> simulations_run_{0};

    /**
     * Guards memo_ and every Batch; held only for lookups, claims and
     * publishes, never while a pair is measured.  published_ is
     * signalled after each publish.
     */
    mutable std::mutex mutex_;
    std::condition_variable published_;

    /**
     * The memo: a slot per (profile name, machine index) pair that is
     * cached or in flight.  A std::map keeps references stable across
     * concurrent inserts, so simulation() can hand out long-lived
     * references while other threads keep filling the memo, and a
     * claimed slot becomes the cached entry in place.
     */
    std::map<CacheKey, Slot> memo_;
};

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_CHARACTERIZATION_H
