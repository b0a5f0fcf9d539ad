/**
 * @file
 * Persistent campaign artifact store: content-addressed, versioned
 * on-disk cache of simulation results.
 *
 * The paper's methodology is one expensive measurement campaign whose
 * counter data feeds many downstream analyses, long after collection.
 * SpecLens mirrors that: a (benchmark, machine) measurement is
 * deterministic, so once computed it can be persisted and reused by
 * every CLI command (`repro` entries included) and test — the
 * in-process memo cache of the Characterizer extended across process
 * boundaries.
 *
 * Entries are *content addressed*: the file name is the hex of a
 * fingerprint over everything that determines the result — the engine
 * version, the simulation window (instructions, warm-up, seed salt),
 * the full workload model and the full machine model (see
 * stats/fingerprint.h).  Recalibrating a profile, changing a cache
 * geometry or bumping kStoreEngineVersion therefore changes the
 * address, and stale entries simply stop being found.
 *
 * Entries are loaded defensively.  Every file carries a magic, the
 * engine version, its own fingerprint, a payload checksum and a
 * length-checked payload, and the decoded counters must satisfy the
 * machine-free accounting identities (uarch::checkCounterIdentities);
 * truncated, corrupt, identity-violating, version-mismatched or
 * fingerprint-mismatched entries are counted, reported and recomputed
 * — never trusted.  A load can always fail soft: the caller falls back
 * to simulation, exactly as if the entry had never existed.
 *
 * On-disk layout of one entry (`<16-hex-fingerprint>.slart`, all
 * integers little-endian):
 *
 *   offset  size  field
 *        0     8  magic "SLART001" (format version in the magic)
 *        8     8  engine version (kStoreEngineVersion)
 *       16     8  fingerprint (must equal the file name)
 *       24     8  payload size in bytes
 *       32     8  FNV-1a checksum of the payload bytes
 *       40     -  payload: benchmark name, machine name, window
 *                 (instructions, warmup, seed salt, transform and
 *                 prewarm flags), an entry-kind marker, then the
 *                 result — one SimulationResult::words() (counters as
 *                 u64s, CPI stack and power as IEEE-754 bit patterns,
 *                 in field-table order) for a pair entry, or phase
 *                 count + per-phase words + combined counters + combined
 *                 CPI for a phased entry
 *
 * Directory layout: entries live in kStoreShardCount shard
 * subdirectories keyed by the top nibble(s) of the fingerprint —
 * `<store>/shard-<hex>/<16-hex>.slart`.  Shards are a directory layout
 * only (they keep any one directory small); no lock or cache hangs off
 * them.  Only shards are read: a root-level `*.slart` left by a store
 * written before sharding is not an entry, and its pair recomputes
 * into its shard.  An entry filed outside its fingerprint's shard is
 * unreachable by load(); scanStore() classifies it Misfiled and the
 * SL025 lint rule reports it.
 *
 * The store holds no results in memory: every load() reads and
 * verifies the entry's bytes, so a rewritten or truncated file is
 * seen on the next load.  The in-process result cache is the
 * Characterizer's memo, which sits in front of the store.
 *
 * Thread safety: load/save/counters may be called concurrently (the
 * Characterizer's workers do) and take no lock.  Distinct keys touch
 * distinct files; concurrent saves of the same key write identical
 * bytes through unique temp files and an atomic rename, so the last
 * rename wins and every reader sees a complete entry.  I/O counters
 * are lock-free atomics.
 */

#ifndef SPECLENS_CORE_ARTIFACT_STORE_H
#define SPECLENS_CORE_ARTIFACT_STORE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "uarch/simulation.h"

namespace speclens {
namespace core {

/**
 * Version of the simulation engine baked into every fingerprint and
 * entry header.  Bump it whenever a change to the trace generator,
 * the cache/TLB/predictor models, the CPI stack or the power model
 * alters what simulate() produces for an unchanged (profile, machine,
 * window) triple — every persisted entry then invalidates at once.
 */
constexpr std::uint64_t kStoreEngineVersion = 2;

/** File extension of store entries. */
constexpr const char *kStoreEntrySuffix = ".slart";

/**
 * Number of shard subdirectories.  A power of two so the shard index
 * is the fingerprint's top nibble; part of the on-disk layout contract
 * SL025 lints.
 */
constexpr std::size_t kStoreShardCount = 16;

/**
 * Age past which CampaignStore's sweep treats a temp file as orphaned.
 * A save's temp file lives for milliseconds between its write and its
 * rename, so one unchanged for this long belongs to a writer that died;
 * a younger one may belong to a live writer in another process and is
 * left alone.
 */
constexpr std::chrono::minutes kOrphanedTempAge{10};

/** Shard subdirectory prefix: `shard-<hex digit>`. */
constexpr const char *kStoreShardPrefix = "shard-";

/** Shard index of a fingerprint: its top nibble. */
constexpr std::size_t
storeShardIndex(std::uint64_t fingerprint)
{
    return static_cast<std::size_t>(fingerprint >> 60) &
           (kStoreShardCount - 1);
}

/** Shard subdirectory name ("shard-0" ... "shard-f"). */
std::string storeShardDirName(std::size_t shard);

/**
 * Parse a store entry's file name.  True, with @p fingerprint set, only
 * for exactly the name CampaignStore::entryPath() writes:
 * `stats::hex16(fingerprint) + kStoreEntrySuffix`.  Upper-case digits,
 * a `0x` or sign prefix and any other spelling are rejected: no load
 * ever opens such a file.
 */
bool parseStoreEntryName(const std::string &filename,
                         std::uint64_t &fingerprint);

/**
 * Address and descriptive metadata of one store entry.
 *
 * The fingerprint alone addresses the entry; the names and window are
 * persisted alongside the payload so `speclens campaign info` and the
 * SL016 store-integrity lint rule can describe an entry (and re-derive
 * its expected fingerprint from the shipped models) without having to
 * reverse the hash.
 */
struct StoreKey
{
    std::uint64_t fingerprint = 0;

    std::string benchmark; //!< Workload profile name.
    std::string machine;   //!< Machine full name.

    // Simulation window.
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;
    std::uint64_t seed_salt = 0;
    bool apply_machine_transform = true;
    bool prewarm = true;
};

/**
 * Store address of one raw simulate() measurement.  The engine
 * version, the full window, the full workload model and the full
 * machine model all feed the fingerprint, so changing any of them
 * re-addresses the entry and stale data stops being found.
 */
StoreKey makeStoreKey(const trace::WorkloadProfile &profile,
                      const uarch::MachineConfig &machine,
                      const uarch::SimulationConfig &config);

/**
 * The pair fingerprint's hash state after its machine-independent
 * prefix (tag, engine version, window, profile).  A campaign hashes
 * it once per benchmark and continues a copy per machine with
 * pairStoreKey(); the key is the one makeStoreKey() returns.
 */
stats::Fingerprinter pairKeyPrefix(const trace::WorkloadProfile &profile,
                                   const uarch::SimulationConfig &config);

/** makeStoreKey(@p profile, @p machine, @p config), continuing
 *  @p prefix = pairKeyPrefix(@p profile, @p config). */
StoreKey pairStoreKey(stats::Fingerprinter prefix,
                      const trace::WorkloadProfile &profile,
                      const uarch::MachineConfig &machine,
                      const uarch::SimulationConfig &config);

/**
 * Store address of one simulatePhased() measurement.  Domain-separated
 * from pair entries (different top-level tag), so a phased workload
 * never collides with a plain profile of the same name.
 */
StoreKey makeStoreKey(const trace::PhasedWorkload &workload,
                      const uarch::MachineConfig &machine,
                      const uarch::SimulationConfig &config);

/** Outcome of one load. */
enum class StoreStatus {
    Hit,                 //!< Entry present, consistent, deserialized.
    Miss,                //!< No entry file.
    Corrupt,             //!< Truncated / bad magic / checksum mismatch.
    StaleVersion,        //!< Written by a different engine version.
    FingerprintMismatch, //!< Header disagrees with the requested key.
    Misfiled, //!< (scan only) Filed outside its fingerprint's shard.
};

/** Human-readable status name ("hit", "corrupt", ...). */
std::string storeStatusName(StoreStatus status);

/** Lifetime I/O counters of one store handle. */
struct StoreCounters
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t corrupt = 0;
    std::size_t stale_version = 0;
    std::size_t fingerprint_mismatch = 0;
    std::size_t saves = 0;

    /**
     * Simulations actually executed against this store (every load
     * that did not end in a Hit and was recomputed).  Zero on a warm
     * run — the acceptance check behind `--store` reuse.
     */
    std::size_t computed = 0;

    /**
     * Orphaned temp files (`*.slart.tmp*` and half-written
     * `run-manifest.json.tmp*` older than kOrphanedTempAge) removed
     * when the store was opened.  A writer that died between the temp
     * write and the atomic rename leaves one behind; it never shadows
     * an entry (the suffix excludes it from lookup and scan) but would
     * otherwise accumulate silently.  Counted into the `rejected=`
     * figure of the session summary so interrupted runs are visible.
     */
    std::size_t orphaned_temp = 0;

    /**
     * Always zero: the store keeps no in-memory results, so every hit
     * reads its entry file.  Kept only because the benchmark harness
     * (perfbench/harness/main.cpp) still reports it.
     */
    std::size_t lru_hits = 0;
};

/** Verified description of one on-disk entry (see scanStore). */
struct StoreEntryInfo
{
    /** Entry path relative to the store root: `shard-<x>/<hex>.slart`. */
    std::string filename;

    /**
     * Entry condition: Hit when fully consistent, otherwise the
     * defect class (Corrupt / StaleVersion / FingerprintMismatch —
     * the header disagrees with the file name — / Misfiled).
     */
    StoreStatus status = StoreStatus::Hit;

    /** Human-readable defect description; empty when status == Hit. */
    std::string detail;

    // Header fields (valid whenever the header was readable).
    std::uint64_t engine_version = 0;
    std::uint64_t fingerprint = 0;

    // Metadata (valid when status is Hit or StaleVersion).
    std::string benchmark;
    std::string machine;
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;
    std::uint64_t seed_salt = 0;
    bool apply_machine_transform = true;
    bool prewarm = true;

    /** Phase count of a phased entry; 0 for a plain pair entry. */
    std::uint64_t phases = 0;

    // The decoded payload when status is Hit: a pair entry's result,
    // or a phased entry's full result.
    uarch::SimulationResult result;
    uarch::PhasedSimulationResult phased;
};

/** Everything scanStore() found in one store directory. */
struct StoreScan
{
    bool found = false; //!< The directory exists.
    /** Every `*.slart` file in a `shard-*` subdirectory, by path. */
    std::vector<StoreEntryInfo> entries;
};

/**
 * Read and verify every entry of the store at @p directory, once
 * each: magic, engine version, checksum, payload shape, counter
 * identities, file-name/header fingerprint agreement and shard
 * placement.  Read-only: it creates, sweeps and removes nothing, so it
 * may run beside a live writer, and a missing directory stays missing.
 */
StoreScan scanStore(const std::string &directory);

/**
 * A directory of persisted simulation results.
 *
 * Opening a store creates the directory (and its shard
 * subdirectories) if needed and sweeps the orphaned temp files an
 * interrupted writer left behind: those older than kOrphanedTempAge,
 * so a live writer's temp file in another process survives (counted
 * in counters().orphaned_temp).  Only writers open one; readers use
 * scanStore().  All I/O failures
 * degrade soft: load() reports Miss/Corrupt and save() returns false,
 * so a read-only or vanished directory never takes an analysis down —
 * it only costs recomputation.
 */
class CampaignStore
{
  public:
    /** Open (creating if necessary) the store at @p directory. */
    explicit CampaignStore(std::string directory);

    CampaignStore(const CampaignStore &) = delete;
    CampaignStore &operator=(const CampaignStore &) = delete;

    const std::string &directory() const { return directory_; }

    /** Absolute path of shard @p shard's subdirectory. */
    std::string shardPath(std::size_t shard) const;

    /**
     * Load the entry for @p key into @p out.  Returns Hit on success;
     * any other status means @p out is untouched and the caller should
     * recompute (and may save() the fresh result over the bad entry).
     */
    StoreStatus load(const StoreKey &key, uarch::SimulationResult &out);

    /**
     * Persist @p result under @p key (temp file + atomic rename;
     * overwrites any previous entry).  Returns false on I/O failure.
     */
    bool save(const StoreKey &key, const uarch::SimulationResult &result);

    /** load() for a phased entry (full simulatePhased() result). */
    StoreStatus loadPhased(const StoreKey &key,
                           uarch::PhasedSimulationResult &out);

    /** save() for a phased entry. */
    bool savePhased(const StoreKey &key,
                    const uarch::PhasedSimulationResult &result);

    /**
     * Record one simulation executed because the store could not
     * serve it (miss or defensive rejection).  Callers that recompute
     * an entry call this so `counters().computed` — the `simulations=`
     * figure in the session summary — stays accurate.
     */
    void recordComputed();

    /** Lifetime I/O counters of this handle. */
    StoreCounters counters() const;

    /** Number of entry files currently in the shards. */
    std::size_t entryCount() const;

    /** Delete every entry; returns the number removed. */
    std::size_t invalidate();

    /**
     * Delete only inconsistent entries (scanStore() status != Hit);
     * returns the number removed.  Healthy entries survive.
     */
    std::size_t invalidateStale();

    /** Sharded entry file path for @p key (diagnostics and tests). */
    std::string entryPath(const StoreKey &key) const;

  private:
    /**
     * Remove temp files a crashed writer left behind, those older than
     * kOrphanedTempAge (constructor).  Returns the number removed.
     */
    std::size_t sweepOrphanedTempFiles();

    /**
     * Read and verify @p key's entry into whichever of @p pair /
     * @p phased is non-null, and tally the outcome.
     */
    StoreStatus loadEntry(const StoreKey &key,
                          uarch::SimulationResult *pair,
                          uarch::PhasedSimulationResult *phased);

    /** Temp-file + atomic-rename write of one serialized entry. */
    bool writeEntry(const std::string &bytes, const std::string &path);

    std::string directory_;

    // Lock-free I/O counters (materialized by counters()).
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> corrupt_{0};
    std::atomic<std::size_t> stale_version_{0};
    std::atomic<std::size_t> fingerprint_mismatch_{0};
    std::atomic<std::size_t> saves_{0};
    std::atomic<std::size_t> computed_{0};
    std::atomic<std::size_t> orphaned_temp_{0};
};

/**
 * simulate() through an optional store: serve a Hit from disk,
 * otherwise simulate, record the computation and persist the fresh
 * result.  A null @p store degrades to a plain simulate() call, so
 * analyses take the store as an always-valid optional dependency.
 */
uarch::SimulationResult storedSimulate(CampaignStore *store,
                                       const trace::WorkloadProfile &profile,
                                       const uarch::MachineConfig &machine,
                                       const uarch::SimulationConfig &config);

/** simulatePhased() through an optional store (see storedSimulate). */
uarch::PhasedSimulationResult
storedSimulatePhased(CampaignStore *store,
                     const trace::PhasedWorkload &workload,
                     const uarch::MachineConfig &machine,
                     const uarch::SimulationConfig &config);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_ARTIFACT_STORE_H
