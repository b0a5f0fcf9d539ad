/**
 * @file
 * Reproduces Fig. 10: all 43 CPU2017 benchmarks in the PC spaces of
 * the data-cache and instruction-cache feature sets.
 *
 * Expected shape (paper): mcf, cactuBSSN and fotonik3d (both
 * versions) have the worst data locality; perlbench and cactuBSSN
 * have the most data-cache accesses; perlbench and gcc dominate the
 * instruction-cache activity while overall L1I MPKI stays modest
 * (0-11) — below emerging cloud workloads.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/similarity.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

void
scatter(core::Characterizer &characterizer, core::MetricSelection sel,
        const char *title)
{
    bench::banner(title);
    const auto &suite = suites::spec2017();
    core::SimilarityConfig config;
    config.retention = stats::RetentionPolicy::fixedCount(2);
    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite, sel),
        suites::benchmarkNames(suite), config);

    std::printf("PC1+PC2 cover %.1f%% of variance\n\n",
                100.0 * sim.pca.variance_covered);

    std::vector<core::ScatterPoint> points;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        core::ScatterPoint p;
        p.x = sim.scores(i, 0);
        p.y = sim.scores.cols() > 1 ? sim.scores(i, 1) : 0.0;
        p.label = suite[i].name;
        p.glyph = suites::isFpCategory(suite[i].category) ? 'f' : 'I';
        points.push_back(p);
    }
    std::fputs(core::renderScatter(points, "PC1", "PC2").c_str(),
               stdout);

    // Extreme points along PC1 (locality) for the call-outs.
    std::printf("\n  PC1 extremes (worst locality first):\n");
    std::vector<std::size_t> order(suite.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return sim.scores(a, 0) > sim.scores(b, 0);
              });
    for (std::size_t k = 0; k < 6; ++k) {
        std::printf("    %-18s PC1 = %6.2f\n",
                    suite[order[k]].name.c_str(),
                    sim.scores(order[k], 0));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    core::ServiceContext context(bench::serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());

    scatter(characterizer, core::MetricSelection::DataCache,
            "Fig. 10 (left): data-cache PC space (paper: mcf / "
            "cactuBSSN / fotonik3d worst locality)");
    scatter(characterizer, core::MetricSelection::InstrCache,
            "Fig. 10 (right): instruction-cache PC space (paper: "
            "perlbench / gcc highest activity)");
    return 0;
}
