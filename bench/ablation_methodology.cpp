/**
 * @file
 * Methodology ablations for the design decisions DESIGN.md calls out:
 *
 *  1. linkage rule (single / complete / average / Ward) — effect on
 *     subset validation error;
 *  2. PCA retention (Kaiser vs fixed counts vs raw metric space) —
 *     effect on validation error and retained dimensionality;
 *  3. representative rule (shortest-linkage vs medoid);
 *  4. number of profiling machines (1 vs all 7) — the single-machine
 *     bias the paper's multi-machine methodology exists to remove.
 *
 * Each ablation reports the mean subset-validation error across the
 * four CPU2017 sub-suites, so rows are directly comparable.
 */

#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "core/report.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "stats/kmeans.h"
#include "suites/score_database.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

struct SubSuite
{
    std::vector<suites::BenchmarkInfo> suite;
    suites::Category category;
};

std::vector<SubSuite>
subSuites()
{
    return {{suites::spec2017SpeedInt(), suites::Category::SpeedInt},
            {suites::spec2017RateInt(), suites::Category::RateInt},
            {suites::spec2017SpeedFp(), suites::Category::SpeedFp},
            {suites::spec2017RateFp(), suites::Category::RateFp}};
}

/** Mean validation error over the four sub-suites for a config. */
double
meanError(core::Characterizer &characterizer,
          const core::SimilarityConfig &config,
          core::RepresentativeRule rule,
          const std::vector<std::size_t> &machines)
{
    suites::ScoreDatabase db;
    double total = 0.0;
    for (const SubSuite &s : subSuites()) {
        stats::Matrix features =
            machines.empty()
                ? characterizer.featureMatrix(s.suite)
                : characterizer.featureMatrix(
                      s.suite, core::MetricSelection::Canonical,
                      machines);
        core::SimilarityResult sim = core::analyzeSimilarity(
            features, suites::benchmarkNames(s.suite), config);
        core::SubsetResult subset =
            core::selectSubset(sim, 3, rule, s.suite);
        total += core::validateSubset(s.suite, subset.representatives,
                                      s.category, db)
                     .avg_error_pct;
    }
    return total / 4.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    core::ServiceContext context(bench::serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());

    bench::banner("Ablation 1: linkage rule (mean subset validation "
                  "error across the 4 sub-suites)");
    {
        core::TextTable table({"Linkage", "Mean error (%)"});
        for (stats::Linkage linkage :
             {stats::Linkage::Single, stats::Linkage::Complete,
              stats::Linkage::Average, stats::Linkage::Ward}) {
            core::SimilarityConfig config;
            config.linkage = linkage;
            table.addRow({stats::linkageName(linkage),
                          core::TextTable::num(
                              meanError(characterizer, config,
                                        core::RepresentativeRule::
                                            ShortestLinkage,
                                        {}),
                              1)});
        }
        std::fputs(table.render().c_str(), stdout);
    }

    bench::banner("Ablation 2: PCA retention policy");
    {
        struct Policy
        {
            const char *name;
            stats::RetentionPolicy policy;
        };
        Policy policies[] = {
            {"kaiser (>= 1)", stats::RetentionPolicy::kaiser()},
            {"fixed 2 PCs", stats::RetentionPolicy::fixedCount(2)},
            {"fixed 4 PCs", stats::RetentionPolicy::fixedCount(4)},
            {"90% variance",
             stats::RetentionPolicy::varianceCovered(0.90)},
            {"raw space (all PCs)",
             stats::RetentionPolicy::varianceCovered(1.0)},
        };
        core::TextTable table({"Retention", "Mean error (%)"});
        for (const Policy &p : policies) {
            core::SimilarityConfig config;
            config.retention = p.policy;
            table.addRow(
                {p.name,
                 core::TextTable::num(
                     meanError(characterizer, config,
                               core::RepresentativeRule::ShortestLinkage,
                               {}),
                     1)});
        }
        std::fputs(table.render().c_str(), stdout);
    }

    bench::banner("Ablation 3: representative rule");
    {
        core::TextTable table({"Rule", "Mean error (%)"});
        for (core::RepresentativeRule rule :
             {core::RepresentativeRule::ShortestLinkage,
              core::RepresentativeRule::Medoid}) {
            table.addRow({core::representativeRuleName(rule),
                          core::TextTable::num(
                              meanError(characterizer, {}, rule, {}),
                              1)});
        }
        std::fputs(table.render().c_str(), stdout);
    }

    bench::banner("Ablation 5: clustering method (hierarchical Ward vs "
                  "k-means, silhouette at k=3)");
    {
        core::TextTable table({"Sub-suite", "Ward error (%)",
                               "k-means error (%)", "Ward silhouette",
                               "k-means silhouette"});
        suites::ScoreDatabase db;
        for (const SubSuite &s : subSuites()) {
            core::SimilarityResult sim = core::analyzeSimilarity(
                characterizer.featureMatrix(s.suite),
                suites::benchmarkNames(s.suite));

            core::SubsetResult ward = core::selectSubset(
                sim, 3, core::RepresentativeRule::ShortestLinkage,
                s.suite);
            core::SubsetResult km =
                core::selectSubsetKmeans(sim, 3, 1, s.suite);

            auto assignment_of =
                [&](const core::SubsetResult &subset) {
                    std::vector<std::size_t> assignment(
                        sim.labels.size(), 0);
                    for (std::size_t c = 0; c < subset.clusters.size();
                         ++c) {
                        for (const std::string &name :
                             subset.clusters[c])
                            assignment[sim.indexOf(name)] = c;
                    }
                    return assignment;
                };

            table.addRow(
                {suites::categoryName(s.category),
                 core::TextTable::num(
                     core::validateSubset(s.suite,
                                          ward.representatives,
                                          s.category, db)
                         .avg_error_pct,
                     1),
                 core::TextTable::num(
                     core::validateSubset(s.suite, km.representatives,
                                          s.category, db)
                         .avg_error_pct,
                     1),
                 core::TextTable::num(stats::silhouetteScore(
                     sim.scores, assignment_of(ward))),
                 core::TextTable::num(stats::silhouetteScore(
                     sim.scores, assignment_of(km)))});
        }
        std::fputs(table.render().c_str(), stdout);
    }

    bench::banner("Ablation 4: number of profiling machines");
    {
        core::TextTable table({"Machines", "Mean error (%)"});
        table.addRow({"Skylake only",
                      core::TextTable::num(
                          meanError(characterizer, {},
                                    core::RepresentativeRule::
                                        ShortestLinkage,
                                    {0}),
                          1)});
        table.addRow({"SPARC T4 only",
                      core::TextTable::num(
                          meanError(characterizer, {},
                                    core::RepresentativeRule::
                                        ShortestLinkage,
                                    {5}),
                          1)});
        table.addRow({"all 7 (paper)",
                      core::TextTable::num(
                          meanError(characterizer, {},
                                    core::RepresentativeRule::
                                        ShortestLinkage,
                                    {}),
                          1)});
        std::fputs(table.render().c_str(), stdout);
    }
    return 0;
}
