/**
 * @file
 * Per-run manifest: a diffable JSON record of one campaign run.
 *
 * A campaign that leaves artifacts behind (the `--store` cache) should
 * also leave a record of the run that produced or replayed them.  The
 * manifest captures what made the run what it was — engine version and
 * configuration fingerprint — and what happened: store totals, the
 * rejected-entry breakdown (corrupt / stale-version /
 * fingerprint-mismatch / orphaned-temp) and a full metric snapshot.
 * Warm and cold runs over the same store are then diffable: identical
 * identity block, different hit/simulation totals.
 *
 * The schema (version 1):
 *
 *   {
 *     "manifest_version": 1,
 *     "engine_version": <u64>,
 *     "config_fingerprint": "<16-hex>",
 *     "run": { "<key>": "<string>", ... },
 *     "totals": { "<key>": <u64>, ... },
 *     "rejected": { "<class>": <u64>, ... },
 *     "metrics": { "counters": ..., "gauges": ..., "timings": ... }
 *   }
 *
 * The writer lives in obs so it stays dependency-free; the core
 * layer (core/service_context.cpp) fills the fields and writes the
 * file next to the store as kManifestFileName.  checkManifest() states
 * the schema once for every reader: lint rule SL022 and `speclens
 * campaign manifest`.
 */

#ifndef SPECLENS_OBS_MANIFEST_H
#define SPECLENS_OBS_MANIFEST_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace speclens {
namespace obs {

/** File name of the manifest within a store directory. */
constexpr const char *kManifestFileName = "run-manifest.json";

/** Everything one run manifest records. */
struct Manifest
{
    std::uint64_t manifest_version = 1;

    /** Simulation-engine version (core::kStoreEngineVersion). */
    std::uint64_t engine_version = 0;

    /** 16-hex fingerprint of the run configuration. */
    std::string config_fingerprint;

    /** Descriptive string fields (store directory, ...). */
    std::vector<std::pair<std::string, std::string>> run;

    /** Numeric totals (entries, hits, misses, saves, simulations). */
    std::vector<std::pair<std::string, std::uint64_t>> totals;

    /** Rejected-entry breakdown by defect class. */
    std::vector<std::pair<std::string, std::uint64_t>> rejected;

    /** Metric snapshot at the end of the run. */
    Snapshot metrics;
};

/**
 * Temp path for an atomic-rename write of @p path:
 * `<path>.tmp<pid>.<thread-hash>`.  The pid keeps writers in different
 * processes apart and the thread hash writers in one, so no two live
 * writers share a temp file.  The manifest and store-entry writers use
 * it; core::CampaignStore sweeps the ones a dead writer left behind.
 */
std::string tempPathFor(const std::string &path);

/** Render @p manifest as its canonical JSON document. */
std::string renderManifest(const Manifest &manifest);

/**
 * Render and write @p manifest to @p path.  Returns false on I/O
 * failure (reported to stderr; a manifest must never take a run
 * down).
 */
bool writeManifest(const std::string &path, const Manifest &manifest);

/** One departure of a manifest document from the schema. */
struct ManifestDefect
{
    bool warning = false; //!< Only a stale engine version is a warning.
    std::string message;
    std::string fix_hint;
};

/**
 * Every departure of @p doc from the version-1 schema above; empty for
 * a conforming manifest.  An engine version other than the current
 * @p engine_version is the one warning.
 */
std::vector<ManifestDefect> checkManifest(const JsonValue &doc,
                                          std::uint64_t engine_version);

} // namespace obs
} // namespace speclens

#endif // SPECLENS_OBS_MANIFEST_H
