/**
 * @file
 * Reproduces Table VI: speedup-estimation error of the identified
 * subsets versus two fixed random subsets, per sub-suite — plus an
 * extension the paper motivates but does not run: the mean error over
 * 100 random subsets, characterising the whole random-subset
 * distribution.
 *
 * Expected shape (paper): identified 11% / 7% / 3% / 4.5%; random set
 * 1 averages 34.85% and random set 2 24.45% — the identified subsets
 * win decisively everywhere.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "suites/score_database.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    core::ServiceContext context(bench::serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());

    bench::banner("Table VI: identified vs. random subsets "
                  "(average speedup-estimation error, %)");

    struct Row
    {
        const char *category;
        std::vector<suites::BenchmarkInfo> suite;
        suites::Category cat;
        const char *paper;
    };
    Row rows[] = {
        {"SPECspeed INT", suites::spec2017SpeedInt(),
         suites::Category::SpeedInt, "11%"},
        {"SPECrate INT", suites::spec2017RateInt(),
         suites::Category::RateInt, "7%"},
        {"SPECspeed FP", suites::spec2017SpeedFp(),
         suites::Category::SpeedFp, "3%"},
        {"SPECrate FP", suites::spec2017RateFp(),
         suites::Category::RateFp, "4.5%"},
    };

    suites::ScoreDatabase db;
    core::TextTable table({"Sub-suite", "Identified", "Rand set1",
                           "Rand set2", "Rand mean(100)", "Paper ident."});

    double ident_total = 0.0, rand_total = 0.0;
    for (const Row &row : rows) {
        core::SimilarityResult sim = core::analyzeSimilarity(
            characterizer.featureMatrix(row.suite),
            suites::benchmarkNames(row.suite));
        core::SubsetResult subset = core::selectSubset(
            sim, 3, core::RepresentativeRule::ShortestLinkage,
            row.suite);

        double identified =
            core::validateSubset(row.suite, subset.representatives,
                                 row.cat, db)
                .avg_error_pct;
        double rand1 =
            core::validateSubset(row.suite,
                                 core::randomSubset(row.suite, 3, 1),
                                 row.cat, db)
                .avg_error_pct;
        double rand2 =
            core::validateSubset(row.suite,
                                 core::randomSubset(row.suite, 3, 2),
                                 row.cat, db)
                .avg_error_pct;
        double rand_mean = core::averageRandomSubsetError(
            row.suite, 3, row.cat, db, 100, 99);

        ident_total += identified;
        rand_total += rand_mean;
        table.addRow({row.category, core::TextTable::num(identified, 1),
                      core::TextTable::num(rand1, 1),
                      core::TextTable::num(rand2, 1),
                      core::TextTable::num(rand_mean, 1), row.paper});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\nIdentified subsets mean error %.1f%% vs random-subset "
                "mean %.1f%% (paper random sets: 34.85%% and 24.45%%)\n",
                ident_total / 4.0, rand_total / 4.0);
    return 0;
}
