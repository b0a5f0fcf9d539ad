/**
 * @file
 * Process-lifetime analysis service state: immutable model registry,
 * shared artifact store, Characterizer pool.
 *
 * One ServiceContext serves a whole process — a batch CLI command
 * (every entry of one `speclens repro` run shares it), or every
 * request of the `speclens serve` daemon.  It
 * snapshots the shipped benchmark suites and machine sets into an
 * immutable registry, opens the CampaignStore once, and pools
 * Characterizers keyed by machine set so every request against the
 * same machines shares one memo cache and one in-flight dedup map.
 * The context owns no threads: each campaign fans its own claimed
 * pairs out through parallelFor() on the calling thread plus at most
 * jobs - 1 helpers, joined before the campaign returns, so concurrent
 * campaigns never wait on each other's pairs.  A pair that two
 * campaigns over the same pooled machine set both ask for runs once;
 * the later one waits for it.  Two sets that share a machine (the 4
 * sensitivity machines are also profiling machines) keep separate
 * memos and in-flight maps, so when both miss the store on the same
 * pair at once, each simulates it, with identical results.
 *
 * The Characterizer memo is the process's one in-memory result cache
 * (the store keeps none).  For the daemon its key space is closed:
 * the query ops (query_ops.h) name benchmarks through findBenchmark()
 * and measure on the context's fixed sets (7 profiling, 4 sensitivity,
 * 4 memory-centric machines), all at the context's one window.  It
 * therefore holds at most (|CPU2017| + |CPU2006| + |emerging|) x 15
 * results and needs no eviction.
 *
 * On destruction, when a store is attached, the context prints the
 * one-line `[speclens-store] ...` reuse summary to *stderr* (never
 * stdout — warm and cold runs must stay byte-identical on stdout; the
 * summary includes `simulations=N` and CI asserts `simulations=0` on a
 * warm run) and writes the run manifest (`run-manifest.json`,
 * obs/manifest.h, atomic temp+rename) into the store directory.  The
 * manifest's configuration fingerprint covers the window and
 * ServiceConfig::machines, fixed at construction, so it does not
 * depend on which query a daemon answers first.
 *
 * Thread safety: the registry is immutable after construction;
 * characterizerFor() is guarded by one mutex (the returned references
 * stay valid for the context's lifetime); the store and Characterizers
 * are internally thread-safe.
 */

#ifndef SPECLENS_CORE_SERVICE_CONTEXT_H
#define SPECLENS_CORE_SERVICE_CONTEXT_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "suites/benchmark_info.h"
#include "suites/machines.h"
#include "uarch/machine.h"

namespace speclens {
namespace core {

/** Everything a ServiceContext is built from. */
struct ServiceConfig
{
    /**
     * The machine set the run is about: what the manifest's
     * configuration fingerprint and machine count describe.  A batch
     * entry point names the set its campaign measures on; queries over
     * other sets still work through characterizerFor().
     */
    std::vector<uarch::MachineConfig> machines =
        suites::profilingMachines();

    /** Simulation window parameters (including seed_salt and jobs). */
    CharacterizationConfig characterization;

    /**
     * Artifact-store directory; empty disables persistence (no store,
     * no summary, no manifest).
     */
    std::string store_dir;
};

/** Process-lifetime shared analysis state (see file comment). */
class ServiceContext
{
  public:
    explicit ServiceContext(ServiceConfig config);

    ServiceContext(const ServiceContext &) = delete;
    ServiceContext &operator=(const ServiceContext &) = delete;

    /**
     * Prints the reuse summary to stderr and writes the run manifest
     * into the store directory when a store is attached.
     */
    ~ServiceContext();

    const ServiceConfig &config() const { return config_; }

    // ----- Immutable model registry --------------------------------

    /** SPEC CPU2017 benchmarks (snapshot, feature order). */
    const std::vector<suites::BenchmarkInfo> &cpu2017() const
    {
        return cpu2017_;
    }

    /** SPEC CPU2006 benchmarks (snapshot). */
    const std::vector<suites::BenchmarkInfo> &cpu2006() const
    {
        return cpu2006_;
    }

    /** Emerging-workload benchmarks (snapshot). */
    const std::vector<suites::BenchmarkInfo> &emerging() const
    {
        return emerging_;
    }

    /**
     * Registry lookup by benchmark name across all snapshotted suites
     * (CPU2017 first, then CPU2006, then emerging); null when unknown.
     */
    const suites::BenchmarkInfo *findBenchmark(
        const std::string &name) const;

    /** The paper's seven profiling machines (snapshot). */
    const std::vector<uarch::MachineConfig> &profilingMachines() const
    {
        return profiling_machines_;
    }

    /** The sensitivity-analysis machine set (snapshot). */
    const std::vector<uarch::MachineConfig> &sensitivityMachines() const
    {
        return sensitivity_machines_;
    }

    /** The memory-centric machine variants (snapshot). */
    const std::vector<uarch::MachineConfig> &memoryMachines() const
    {
        return memory_machines_;
    }

    // ----- Shared campaign machinery -------------------------------

    /**
     * The pooled Characterizer for @p machines, created (with the
     * store attached) on first use
     * and keyed by the machine-set fingerprint, so concurrent requests
     * over the same machines share one memo cache and one in-flight
     * dedup map.  The reference stays valid for the context lifetime.
     */
    Characterizer &
    characterizerFor(const std::vector<uarch::MachineConfig> &machines);

    /** The attached store; null when persistence is disabled. */
    CampaignStore *store() const { return store_.get(); }

    /**
     * Simulations executed across every pooled Characterizer — the
     * figure a warm-store acceptance check expects to be zero.
     */
    std::size_t simulationsRun() const;

    /**
     * Results memoised across every pooled Characterizer: one per
     * distinct (benchmark, machine) pair measured so far.
     */
    std::size_t cachedMeasurements() const;

    /**
     * One-line machine-parseable reuse summary, e.g.
     * `[speclens-store] dir=... entries=301 hits=301 simulations=0
     * saves=0 rejected=0`.  `rejected` counts defensively discarded
     * entries (corrupt + stale + fingerprint-mismatched) plus orphaned
     * temp files swept when the store was opened.
     */
    std::string summary() const;

    /**
     * 16-hex fingerprint over everything that determines this
     * context's results: engine version, simulation window and
     * ServiceConfig::machines.  Recorded in the run manifest so warm
     * and cold runs of the same configuration are diffable.
     */
    const std::string &configFingerprint() const
    {
        return config_fingerprint_;
    }

  private:
    /** Fingerprint of one machine set (Characterizer pool key). */
    static std::uint64_t
    machineSetFingerprint(const std::vector<uarch::MachineConfig> &machines);

    ServiceConfig config_;

    // Immutable registry (filled in the constructor, then read-only).
    std::vector<suites::BenchmarkInfo> cpu2017_;
    std::vector<suites::BenchmarkInfo> cpu2006_;
    std::vector<suites::BenchmarkInfo> emerging_;
    std::map<std::string, const suites::BenchmarkInfo *> by_name_;
    std::vector<uarch::MachineConfig> profiling_machines_;
    std::vector<uarch::MachineConfig> sensitivity_machines_;
    std::vector<uarch::MachineConfig> memory_machines_;

    std::shared_ptr<CampaignStore> store_;

    mutable std::mutex mutex_;
    std::map<std::uint64_t, std::unique_ptr<Characterizer>>
        characterizers_;
    std::string config_fingerprint_;
};

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_SERVICE_CONTEXT_H
