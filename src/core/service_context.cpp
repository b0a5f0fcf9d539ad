/**
 * @file
 * Service-context implementation.
 */

#include "service_context.h"

#include <cstdio>
#include <utility>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "stats/fingerprint.h"

namespace speclens {
namespace core {

ServiceContext::ServiceContext(ServiceConfig config)
    : config_(std::move(config)),
      memo_(std::make_shared<ResultMemo>(config_.characterization))
{
    // Anything that changes what a campaign measures must change this,
    // so manifests from different configurations never look comparable.
    // The tag keeps its old name so existing manifests stay comparable.
    stats::Fingerprinter fp;
    fp.tag("speclens.session");
    fp.u64(kStoreEngineVersion);
    config_.characterization.hashInto(fp);
    fp.u64(config_.machines.size());
    for (const uarch::MachineConfig &machine : config_.machines)
        machine.hashInto(fp);
    config_fingerprint_ = stats::hex16(fp.value());

    if (!config_.store_dir.empty())
        store_ = std::make_shared<CampaignStore>(config_.store_dir);
}

ServiceContext::~ServiceContext()
{
    if (!store_)
        return;
    std::fprintf(stderr, "%s\n", summary().c_str());

    StoreCounters c = store_->counters();
    obs::Manifest manifest;
    manifest.engine_version = kStoreEngineVersion;
    manifest.config_fingerprint = configFingerprint();
    manifest.run = {
        {"store_dir", store_->directory()},
        {"machines", std::to_string(config_.machines.size())},
    };
    manifest.totals = {
        {"entries", store_->entryCount()},
        {"hits", c.hits},
        {"misses", c.misses},
        {"simulations", c.computed},
        {"saves", c.saves},
        // Prefetch fills are not demand misses (SL014); exporting the
        // process-wide total makes that separation artifact-checkable.
        {"prefetch_fills",
         obs::Registry::global().counter("uarch.prefetch.fills").value()},
    };
    manifest.rejected = {
        {"corrupt", c.corrupt},
        {"stale_version", c.stale_version},
        {"fingerprint_mismatch", c.fingerprint_mismatch},
        {"orphaned_temp", c.orphaned_temp},
    };
    manifest.metrics = obs::Registry::global().snapshot();
    obs::writeManifest(store_->directory() + "/" +
                           obs::kManifestFileName,
                       manifest);
}

std::uint64_t
ServiceContext::machineSetFingerprint(
    const std::vector<uarch::MachineConfig> &machines)
{
    stats::Fingerprinter fp;
    fp.tag("speclens.machineset");
    fp.u64(machines.size());
    for (const uarch::MachineConfig &machine : machines)
        machine.hashInto(fp);
    return fp.value();
}

Characterizer &
ServiceContext::characterizerFor(
    const std::vector<uarch::MachineConfig> &machines)
{
    const std::uint64_t key = machineSetFingerprint(machines);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = characterizers_.find(key);
    if (it != characterizers_.end())
        return *it->second;

    auto characterizer = std::make_unique<Characterizer>(
        machines, config_.characterization, memo_);
    if (store_)
        characterizer->attachStore(store_);
    return *characterizers_.emplace(key, std::move(characterizer))
                .first->second;
}

std::size_t
ServiceContext::simulationsRun() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto &entry : characterizers_)
        total += entry.second->simulationsRun();
    return total;
}

std::size_t
ServiceContext::cachedMeasurements() const
{
    return memo_->cachedMeasurements();
}

std::string
ServiceContext::summary() const
{
    if (!store_)
        return "[speclens-store] disabled";
    StoreCounters c = store_->counters();
    std::size_t rejected = c.corrupt + c.stale_version +
                           c.fingerprint_mismatch + c.orphaned_temp;
    // `computed` counts every simulation executed against the store,
    // including ones run outside the Characterizer (stability trials,
    // SimPoint probes and phased ground-truth runs).
    return "[speclens-store] dir=" + store_->directory() +
           " entries=" + std::to_string(store_->entryCount()) +
           " hits=" + std::to_string(c.hits) +
           " simulations=" + std::to_string(c.computed) +
           " saves=" + std::to_string(c.saves) +
           " rejected=" + std::to_string(rejected);
}

} // namespace core
} // namespace speclens
