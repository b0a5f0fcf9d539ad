/**
 * @file
 * Reproduces Fig. 6: validation of the FP subsets against the score
 * database (see fig5_validation_int.cpp).
 *
 * Expected shape (paper): ~3% average error for speed FP (3 of 10
 * benchmarks) and ~4.5% for rate FP (3 of 13).
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

namespace {

void
validate(core::Characterizer &characterizer,
         const std::vector<suites::BenchmarkInfo> &suite,
         suites::Category category, const char *title)
{
    bench::banner(title);

    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));
    core::SubsetResult subset = core::selectSubset(
        sim, 3, core::RepresentativeRule::ShortestLinkage, suite);

    suites::ScoreDatabase db;
    core::ValidationResult result =
        core::validateSubset(suite, subset.representatives, category, db);

    core::TextTable table({"System", "Full-suite score", "Subset score",
                           "Error (%)"});
    for (const core::SystemValidation &v : result.per_system) {
        table.addRow({v.system, core::TextTable::num(v.full_score),
                      core::TextTable::num(v.subset_score),
                      core::TextTable::num(v.error_pct, 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("Average error: %.1f%%   Max error: %.1f%%\n",
                result.avg_error_pct, result.max_error_pct);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    core::ServiceContext context(bench::serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());

    validate(characterizer, suites::spec2017SpeedFp(),
             suites::Category::SpeedFp,
             "Fig. 6 (top): SPECspeed FP subset validation "
             "(paper: avg error ~3%)");
    validate(characterizer, suites::spec2017RateFp(),
             suites::Category::RateFp,
             "Fig. 6 (bottom): SPECrate FP subset validation "
             "(paper: avg error ~4.5%)");
    return 0;
}
