/**
 * @file
 * SimPoint-style phase analysis implementation.
 */

#include "phase_analysis.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/artifact_store.h"
#include "core/metrics.h"
#include "stats/distance.h"
#include "stats/kmeans.h"
#include "stats/normalize.h"
#include "uarch/simulation.h"

namespace speclens {
namespace core {

SimPointResult
simpointEstimate(const trace::PhasedWorkload &workload,
                 const uarch::MachineConfig &machine,
                 const SimPointConfig &config, CampaignStore *store)
{
    workload.validate();
    std::size_t num_phases = workload.phases.size();
    if (config.clusters < 1 || config.clusters > num_phases)
        throw std::invalid_argument("simpointEstimate: cluster count");

    // ----- Ground truth: the full phased run. -----
    uarch::SimulationConfig full_config;
    full_config.instructions = config.instructions;
    full_config.warmup = config.warmup;
    uarch::PhasedSimulationResult full =
        storedSimulatePhased(store, workload, machine, full_config);

    SimPointResult out;
    out.full_cpi = full.combined_cpi;
    out.full_l1d_mpki = full.combined_counters.l1dMpki();

    // ----- Profiling pass: short probe of every phase. -----
    std::vector<MetricVector> probes;
    std::vector<double> probe_cpi(num_phases);
    stats::Matrix features(num_phases, kCanonicalMetricCount);
    std::vector<Metric> canonical =
        metricsFor(MetricSelection::Canonical);
    for (std::size_t k = 0; k < num_phases; ++k) {
        uarch::SimulationConfig probe;
        probe.instructions = config.probe_instructions;
        probe.warmup = config.probe_warmup;
        uarch::SimulationResult r = storedSimulate(
            store, workload.phases[k].profile, machine, probe);
        MetricVector mv = extractMetrics(r);
        probes.push_back(mv);
        probe_cpi[k] = r.cpi();
        for (std::size_t m = 0; m < canonical.size(); ++m)
            features(k, m) = mv.get(canonical[m]);
    }

    // ----- Cluster phases and pick the medoid of each cluster. -----
    stats::Matrix z = stats::zscore(features);
    stats::KmeansResult clustering =
        stats::kmeans(z, config.clusters, /*seed=*/7);

    for (std::size_t c = 0; c < config.clusters; ++c) {
        std::vector<std::size_t> members = clustering.members(c);
        if (members.empty())
            continue;
        // Medoid in z-space.
        std::size_t medoid = members.front();
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t k : members) {
            double d = stats::distance(z.row(k),
                                       clustering.centroids.row(c));
            if (d < best) {
                best = d;
                medoid = k;
            }
        }
        double cluster_weight = 0.0;
        for (std::size_t k : members)
            cluster_weight += workload.phases[k].weight;

        out.representatives.push_back(medoid);
        out.weights.push_back(cluster_weight);
        out.simulated_fraction += workload.phases[medoid].weight;
    }

    // ----- Estimate whole-run behaviour from representatives. -----
    for (std::size_t i = 0; i < out.representatives.size(); ++i) {
        std::size_t rep = out.representatives[i];
        out.estimated_cpi += out.weights[i] * probe_cpi[rep];
        out.estimated_l1d_mpki +=
            out.weights[i] * probes[rep].get(Metric::L1dMpki);
    }

    out.cpi_error_pct =
        out.full_cpi > 0.0
            ? 100.0 * std::fabs(out.estimated_cpi - out.full_cpi) /
                  out.full_cpi
            : 0.0;
    out.l1d_error_pct =
        out.full_l1d_mpki > 0.0
            ? 100.0 *
                  std::fabs(out.estimated_l1d_mpki - out.full_l1d_mpki) /
                  out.full_l1d_mpki
            : 0.0;
    return out;
}

} // namespace core
} // namespace speclens
