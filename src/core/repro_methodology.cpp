/**
 * @file
 * Methodology checks and extensions: ablations of the design decisions
 * DESIGN.md calls out, measurement noise versus clustering signal, and
 * SimPoint-style within-benchmark phase reduction.
 */

#include <cmath>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/phase_analysis.h"
#include "core/repro_render.h"
#include "core/report.h"
#include "core/similarity.h"
#include "core/stability.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "stats/kmeans.h"
#include "suites/machines.h"
#include "suites/score_database.h"
#include "suites/spec2017.h"
#include "uarch/simulation.h"

namespace speclens {
namespace core {
namespace repro {

namespace {

/**
 * Mean validation error over the four sub-suites for one method
 * configuration; an empty @p machines means all seven.
 */
double
meanError(Characterizer &characterizer, const SimilarityConfig &config,
          RepresentativeRule rule, const std::vector<std::size_t> &machines)
{
    suites::ScoreDatabase db;
    double total = 0.0;
    for (const SubSuiteRow &s : subSuiteRows()) {
        stats::Matrix features =
            machines.empty()
                ? characterizer.featureMatrix(s.suite)
                : characterizer.featureMatrix(
                      s.suite, MetricSelection::Canonical, machines);
        SimilarityResult sim = analyzeSimilarity(
            features, suites::benchmarkNames(s.suite), config);
        SubsetResult subset = selectSubset(sim, 3, rule, s.suite);
        total += validateSubset(s.suite, subset.representatives,
                                s.category, db)
                     .avg_error_pct;
    }
    return total / 4.0;
}

/** meanError() with the shortest-linkage rule, as a table cell. */
std::string
meanErrorCell(Characterizer &characterizer, const SimilarityConfig &config,
              const std::vector<std::size_t> &machines)
{
    return TextTable::num(
        meanError(characterizer, config,
                  RepresentativeRule::ShortestLinkage, machines),
        1);
}

} // namespace

/**
 * Methodology ablations, each reported as the mean subset-validation
 * error across the four sub-suites so rows compare directly: the
 * linkage rule, the PCA retention policy, the representative rule,
 * hierarchical Ward versus k-means, and the number of profiling
 * machines (the single-machine bias the paper's method removes).
 */
std::string
ablationMethodology(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;

    banner(out, "Ablation 1: linkage rule (mean subset validation "
                "error across the 4 sub-suites)");
    {
        TextTable table({"Linkage", "Mean error (%)"});
        for (stats::Linkage linkage :
             {stats::Linkage::Single, stats::Linkage::Complete,
              stats::Linkage::Average, stats::Linkage::Ward}) {
            SimilarityConfig config;
            config.linkage = linkage;
            table.addRow({stats::linkageName(linkage),
                          meanErrorCell(characterizer, config, {})});
        }
        out += table.render();
    }

    banner(out, "Ablation 2: PCA retention policy");
    {
        struct Policy
        {
            const char *name;
            stats::RetentionPolicy policy;
        };
        const Policy policies[] = {
            {"kaiser (>= 1)", stats::RetentionPolicy::kaiser()},
            {"fixed 2 PCs", stats::RetentionPolicy::fixedCount(2)},
            {"fixed 4 PCs", stats::RetentionPolicy::fixedCount(4)},
            {"90% variance", stats::RetentionPolicy::varianceCovered(0.90)},
            {"raw space (all PCs)",
             stats::RetentionPolicy::varianceCovered(1.0)},
        };
        TextTable table({"Retention", "Mean error (%)"});
        for (const Policy &p : policies) {
            SimilarityConfig config;
            config.retention = p.policy;
            table.addRow({p.name, meanErrorCell(characterizer, config, {})});
        }
        out += table.render();
    }

    banner(out, "Ablation 3: representative rule");
    {
        TextTable table({"Rule", "Mean error (%)"});
        for (RepresentativeRule rule : {RepresentativeRule::ShortestLinkage,
                                        RepresentativeRule::Medoid}) {
            table.addRow(
                {representativeRuleName(rule),
                 TextTable::num(meanError(characterizer, {}, rule, {}), 1)});
        }
        out += table.render();
    }

    banner(out, "Ablation 5: clustering method (hierarchical Ward vs "
                "k-means, silhouette at k=3)");
    {
        TextTable table({"Sub-suite", "Ward error (%)", "k-means error (%)",
                         "Ward silhouette", "k-means silhouette"});
        suites::ScoreDatabase db;
        for (const SubSuiteRow &s : subSuiteRows()) {
            SimilarityResult sim =
                analyzeSimilarity(characterizer.featureMatrix(s.suite),
                                  suites::benchmarkNames(s.suite));
            SubsetResult ward = selectSubset(
                sim, 3, RepresentativeRule::ShortestLinkage, s.suite);
            SubsetResult km = selectSubsetKmeans(sim, 3, 1, s.suite);

            auto assignment_of = [&](const SubsetResult &subset) {
                std::vector<std::size_t> assignment(sim.labels.size(), 0);
                for (std::size_t c = 0; c < subset.clusters.size(); ++c)
                    for (const std::string &name : subset.clusters[c])
                        assignment[sim.indexOf(name)] = c;
                return assignment;
            };
            auto error_of = [&](const SubsetResult &subset) {
                return TextTable::num(
                    validateSubset(s.suite, subset.representatives,
                                   s.category, db)
                        .avg_error_pct,
                    1);
            };
            table.addRow({suites::categoryName(s.category), error_of(ward),
                          error_of(km),
                          TextTable::num(stats::silhouetteScore(
                              sim.scores, assignment_of(ward))),
                          TextTable::num(stats::silhouetteScore(
                              sim.scores, assignment_of(km)))});
        }
        out += table.render();
    }

    banner(out, "Ablation 4: number of profiling machines");
    {
        TextTable table({"Machines", "Mean error (%)"});
        table.addRow(
            {"Skylake only", meanErrorCell(characterizer, {}, {0})});
        table.addRow(
            {"SPARC T4 only", meanErrorCell(characterizer, {}, {5})});
        table.addRow({"all 7 (paper)", meanErrorCell(characterizer, {}, {})});
        out += table.render();
    }
    return out;
}

/**
 * Measurement noise versus clustering signal: every SPECrate INT
 * benchmark re-measured under five trace seeds on the Skylake model,
 * per canonical metric the within-benchmark standard deviation (noise)
 * against the across-benchmark one (signal).  The clustering method
 * is sound only while signal >> noise.  The (benchmark, trial) runs
 * bypass the Characterizer but share the context's store.
 */
std::string
stabilityAnalysis(ServiceContext &context)
{
    std::string out;
    banner(out, "Measurement stability: within-benchmark noise vs "
                "across-benchmark signal (SPECrate INT, Skylake, 5 seeds)");

    const CharacterizationConfig &window = context.config().characterization;
    StabilityReport report = analyzeStability(
        suites::spec2017RateInt(), suites::skylakeMachine(), 5,
        window.instructions, window.warmup, window.jobs, context.store());

    TextTable table({"Metric", "Noise (within)", "Signal (across)", "SNR",
                     "Informative?"});
    for (const MetricStability &m : report.metrics) {
        table.addRow({metricName(m.metric), TextTable::num(m.noise, 3),
                      TextTable::num(m.signal, 3),
                      m.informative() ? TextTable::num(m.snr(), 1)
                                      : std::string("-"),
                      m.informative() ? "yes" : "no"});
    }
    out += table.render();
    appendf(out,
            "\nWorst informative-metric SNR: %.1f "
            "(the clustering premise needs >> 1)\n",
            report.worstSnr());
    return out;
}

/**
 * SimPoint-style within-benchmark reduction on phased workloads (paper
 * refs [32], [33]), which complements the paper's across-benchmark
 * subsetting.  For multi-phase workloads derived from CPU2017 models
 * it compares the full phased run (ground truth), the
 * representative-phase estimate and a naive estimate from the single
 * heaviest phase.  Expected shape: representative-phase estimates
 * within a few percent at a fraction of the simulated phases, the
 * naive one clearly worse on multi-modal workloads.  These runs bypass
 * the Characterizer but share the context's store.
 */
std::string
extensionSimpoints(ServiceContext &context)
{
    std::string out;
    banner(out, "Extension: SimPoint-style phase reduction "
                "(cluster phases, simulate representatives)");

    const CharacterizationConfig &window = context.config().characterization;
    const std::size_t num_phases = 8;
    const std::size_t clusters = 3;

    TextTable table({"Workload", "Phases", "Reps", "Full CPI",
                     "SimPoint CPI", "Err (%)", "Naive CPI",
                     "Naive err (%)", "Sim. share"});
    for (const char *name :
         {"502.gcc_r", "505.mcf_r", "538.imagick_r", "554.roms_r"}) {
        const auto &base = suites::spec2017Benchmark(name);
        trace::PhasedWorkload workload =
            trace::derivePhases(base.profile, num_phases, 0.35);

        SimPointConfig config;
        config.clusters = clusters;
        config.instructions = window.instructions;
        config.warmup = window.warmup;
        SimPointResult result = simpointEstimate(
            workload, suites::skylakeMachine(), config, context.store());

        // Naive baseline: extrapolate the heaviest phase alone.
        std::size_t heaviest = 0;
        for (std::size_t k = 1; k < workload.phases.size(); ++k)
            if (workload.phases[k].weight > workload.phases[heaviest].weight)
                heaviest = k;
        uarch::SimulationConfig probe;
        probe.instructions = config.probe_instructions;
        probe.warmup = config.probe_warmup;
        // Same key as the simpointEstimate probe of the same phase, so
        // this is a store hit even on the cold run.
        double naive_cpi =
            storedSimulate(context.store(), workload.phases[heaviest].profile,
                           suites::skylakeMachine(), probe)
                .cpi();
        double naive_err =
            100.0 * std::fabs(naive_cpi - result.full_cpi) / result.full_cpi;

        table.addRow(
            {name, std::to_string(num_phases),
             std::to_string(result.representatives.size()),
             TextTable::num(result.full_cpi),
             TextTable::num(result.estimated_cpi),
             TextTable::num(result.cpi_error_pct, 1),
             TextTable::num(naive_cpi), TextTable::num(naive_err, 1),
             TextTable::num(100.0 * result.simulated_fraction, 0) + "%"});
    }
    out += table.render();
    out += "\nExpected shape: SimPoint errors of a few %, beating the "
           "naive single-phase\nextrapolation, at a fraction of the "
           "simulated instructions.\n";
    return out;
}

} // namespace repro
} // namespace core
} // namespace speclens
