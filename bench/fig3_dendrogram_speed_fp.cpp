/**
 * @file
 * Reproduces Fig. 3: dendrogram of the SPECspeed FP benchmarks.
 *
 * Expected shape (paper): 607.cactuBSSN_s has the most distinctive
 * performance characteristics (unique memory + TLB behaviour); the
 * 3-benchmark subset is {607.cactuBSSN_s, 621.wrf_s, 654.roms_s}.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    core::ServiceContext context(bench::serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());

    bench::banner("Fig. 3: SPECspeed FP dendrogram");

    auto suite = suites::spec2017SpeedFp();
    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));

    std::printf("Retained %zu PCs covering %.1f%% of variance\n\n",
                sim.pca.retained, 100.0 * sim.pca.variance_covered);
    std::fputs(sim.renderDendrogram().c_str(), stdout);

    std::printf("\nMost distinct benchmark: %s (paper: 607.cactuBSSN_s)\n",
                sim.labels[sim.mostDistinct()].c_str());

    core::SubsetResult subset = core::selectSubset(
        sim, 3, core::RepresentativeRule::ShortestLinkage, suite);
    std::printf("\n3-cluster cut at linkage distance %.2f "
                "(paper subset: 607.cactuBSSN_s, 621.wrf_s, "
                "654.roms_s):\n",
                subset.cut_height);
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        std::printf("  cluster %zu (rep %s):", c + 1,
                    subset.representatives[c].c_str());
        for (const std::string &name : subset.clusters[c])
            std::printf(" %s", name.c_str());
        std::printf("\n");
    }
    return 0;
}
