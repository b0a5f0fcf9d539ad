/**
 * @file
 * Reproduces Fig. 9: all 43 CPU2017 benchmarks (rate and speed) in
 * the PC1-PC2 plane of the *branch* feature space.
 *
 * Expected shape (paper): leela and mcf (both versions) suffer the
 * highest misprediction rates; mcf and gcc have the highest taken
 * fractions; C++ benchmarks (xalancbmk, omnetpp) have high taken
 * shares; FP benchmarks cluster together while INT spreads out; the
 * two PCs cover >= 94% of the variance.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/similarity.h"
#include "suites/spec2017.h"

using namespace speclens;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);
    core::ServiceContext context(bench::serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());

    bench::banner("Fig. 9: CPU2017 benchmarks in the branch-metric PC "
                  "space");

    const auto &suite = suites::spec2017();
    core::SimilarityConfig config;
    config.retention = stats::RetentionPolicy::fixedCount(2);
    core::SimilarityResult sim = core::analyzeSimilarity(
        characterizer.featureMatrix(suite, core::MetricSelection::Branch),
        suites::benchmarkNames(suite), config);

    std::printf("PC1+PC2 cover %.1f%% of variance (paper: >= 94%%)\n\n",
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
    std::printf("  glyphs: I = integer benchmark, f = floating-point "
                "benchmark\n\n");

    // Rank the extremes the paper calls out.
    core::TextTable table({"Benchmark", "PC1", "PC2", "branch MPKI",
                           "taken PKI"});
    for (const char *name :
         {"541.leela_r", "641.leela_s", "505.mcf_r", "605.mcf_s",
          "502.gcc_r", "523.xalancbmk_r", "520.omnetpp_r",
          "519.lbm_r", "603.bwaves_s"}) {
        std::size_t i = sim.indexOf(name);
        core::MetricVector mv = characterizer.metrics(suite[i], 0);
        table.addRow({name, core::TextTable::num(sim.scores(i, 0)),
                      core::TextTable::num(sim.scores(i, 1)),
                      core::TextTable::num(
                          mv.get(core::Metric::BranchMpki)),
                      core::TextTable::num(
                          mv.get(core::Metric::BranchTakenMpki), 0)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
