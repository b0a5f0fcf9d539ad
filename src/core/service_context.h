/**
 * @file
 * Process-lifetime analysis service state: immutable model registry,
 * shared artifact store, Characterizer pool.
 *
 * One ServiceContext serves a whole process — a batch CLI command
 * (every entry of one `speclens repro` run shares it), or every
 * request of the `speclens serve` daemon.  It
 * reads the shipped benchmark suites and machine sets from the
 * immutable suites:: registry, opens the CampaignStore once, and pools
 * Characterizers keyed by machine set.  Every pooled Characterizer
 * shares the context's one ResultMemo: one memo cache and one
 * in-flight dedup map keyed by (profile name, machine fingerprint).
 * The context owns no threads: each campaign fans its own claimed
 * pairs out through parallelFor() on the calling thread plus at most
 * jobs - 1 helpers, joined before the campaign returns, so concurrent
 * campaigns never wait on each other's pairs.  A pair that two
 * campaigns both ask for runs once and the later one waits for it,
 * also when they measure on different machine sets that share the
 * machine (the 4 sensitivity machines are also profiling machines):
 * the context runs at most one simulation per distinct pair.
 *
 * The memo is the process's one in-memory result cache (the store
 * keeps none).  For the daemon its key space is closed: the query ops
 * (query_ops.h) name benchmarks through findBenchmark() and measure on
 * the context's fixed sets (7 profiling, 4 sensitivity, 4
 * memory-centric machines: 11 distinct machines, since the sensitivity
 * set repeats profiling machines), all at the context's one window.
 * It therefore holds at most (|CPU2017| + |CPU2006| + |emerging|) x 11
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
 * Thread safety: the registry is immutable;
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
#include "suites/emerging.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
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

    // Each accessor returns the suites:: registry's own static, so a
    // context copies no suite and no machine set.

    /** SPEC CPU2017 benchmarks (feature order): suites::spec2017(). */
    const std::vector<suites::BenchmarkInfo> &cpu2017() const
    {
        return suites::spec2017();
    }

    /** SPEC CPU2006 benchmarks: suites::spec2006(). */
    const std::vector<suites::BenchmarkInfo> &cpu2006() const
    {
        return suites::spec2006();
    }

    /** Emerging-workload benchmarks: suites::emergingBenchmarks(). */
    const std::vector<suites::BenchmarkInfo> &emerging() const
    {
        return suites::emergingBenchmarks();
    }

    /** suites::shippedBenchmark(): null when @p name is unknown. */
    const suites::BenchmarkInfo *findBenchmark(
        const std::string &name) const
    {
        return suites::shippedBenchmark(name);
    }

    /** The paper's seven profiling machines. */
    const std::vector<uarch::MachineConfig> &profilingMachines() const
    {
        return suites::profilingMachines();
    }

    /** The sensitivity-analysis machine set. */
    const std::vector<uarch::MachineConfig> &sensitivityMachines() const
    {
        return suites::sensitivityMachines();
    }

    /** The memory-centric machine variants. */
    const std::vector<uarch::MachineConfig> &memoryMachines() const
    {
        return suites::memoryCentricMachines();
    }

    // ----- Shared campaign machinery -------------------------------

    /**
     * The pooled Characterizer for @p machines, created (with the
     * store and the context's memo attached) on first use and keyed by
     * the machine-set fingerprint.  Every pooled Characterizer shares
     * one memo cache and one in-flight dedup map, so no pair is
     * measured twice in one context.  The reference stays valid for
     * the context lifetime.
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
     * Results in the context's memo: one per distinct (benchmark,
     * machine fingerprint) pair measured so far, whichever pooled
     * Characterizers asked for it.
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

    std::shared_ptr<CampaignStore> store_;
    std::shared_ptr<ResultMemo> memo_;

    mutable std::mutex mutex_;
    std::map<std::uint64_t, std::unique_ptr<Characterizer>>
        characterizers_;
    std::string config_fingerprint_;
};

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_SERVICE_CONTEXT_H
