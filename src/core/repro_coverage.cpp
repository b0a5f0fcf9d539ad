/**
 * @file
 * Section IV-E/F and Section V reproductions: the benchmarks in the
 * branch, cache and power feature spaces, application domains, and
 * how CPU2017 covers CPU2006 and emerging workloads (Figs. 9-13,
 * Table VIII).
 */

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/balance.h"
#include "core/repro_render.h"
#include "core/report.h"
#include "core/similarity.h"
#include "stats/descriptive.h"
#include "suites/emerging.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {
namespace repro {

namespace {

/** PC1-PC2 scatter of a CPU2017 analysis, I = integer, f = FP. */
std::vector<ScatterPoint>
cpu2017Points(const SimilarityResult &sim,
              const std::vector<suites::BenchmarkInfo> &suite)
{
    std::vector<ScatterPoint> points;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        ScatterPoint p;
        p.x = sim.scores(i, 0);
        p.y = sim.scores.cols() > 1 ? sim.scores(i, 1) : 0.0;
        p.label = suite[i].name;
        p.glyph = suites::isFpCategory(suite[i].category) ? 'f' : 'I';
        points.push_back(p);
    }
    return points;
}

/** Analysis of @p suite in the @p selection space, two PCs retained. */
SimilarityResult
twoPcSpace(Characterizer &characterizer,
           const std::vector<suites::BenchmarkInfo> &suite,
           MetricSelection selection)
{
    SimilarityConfig config;
    config.retention = stats::RetentionPolicy::fixedCount(2);
    return analyzeSimilarity(characterizer.featureMatrix(suite, selection),
                             suites::benchmarkNames(suite), config);
}

/** PC1-PC2 scatter of a joint CPU2017 (7) + CPU2006 (6) analysis. */
std::string
jointScatter(const SuiteComparison &cmp,
             const std::vector<suites::BenchmarkInfo> &suite17,
             const std::vector<suites::BenchmarkInfo> &suite06)
{
    std::vector<ScatterPoint> points;
    for (std::size_t i = 0; i < suite17.size(); ++i)
        points.push_back({cmp.similarity.scores(i, 0),
                          cmp.similarity.scores(i, 1), suite17[i].name,
                          '7'});
    for (std::size_t i = 0; i < suite06.size(); ++i) {
        std::size_t row = suite17.size() + i;
        points.push_back({cmp.similarity.scores(row, 0),
                          cmp.similarity.scores(row, 1), suite06[i].name,
                          '6'});
    }
    return renderScatter(points, "PC1", "PC2");
}

} // namespace

/**
 * Fig. 9: the 43 CPU2017 benchmarks in the PC1-PC2 plane of the
 * branch feature space.  Expected shape (paper): leela and mcf have
 * the highest misprediction rates; mcf and gcc the highest taken
 * fractions; FP clusters while INT spreads; two PCs cover >= 94%.
 */
std::string
fig9BranchPca(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Fig. 9: CPU2017 benchmarks in the branch-metric PC "
                "space");

    const auto &suite = suites::spec2017();
    SimilarityResult sim =
        twoPcSpace(characterizer, suite, MetricSelection::Branch);
    appendf(out, "PC1+PC2 cover %.1f%% of variance (paper: >= 94%%)\n\n",
            100.0 * sim.pca.variance_covered);
    out += renderScatter(cpu2017Points(sim, suite), "PC1", "PC2");
    out += "  glyphs: I = integer benchmark, f = floating-point "
           "benchmark\n\n";

    // Rank the extremes the paper calls out.
    TextTable table(
        {"Benchmark", "PC1", "PC2", "branch MPKI", "taken PKI"});
    for (const char *name :
         {"541.leela_r", "641.leela_s", "505.mcf_r", "605.mcf_s",
          "502.gcc_r", "523.xalancbmk_r", "520.omnetpp_r", "519.lbm_r",
          "603.bwaves_s"}) {
        std::size_t i = sim.indexOf(name);
        MetricVector mv = characterizer.metrics(suite[i], 0);
        table.addRow({name, TextTable::num(sim.scores(i, 0)),
                      TextTable::num(sim.scores(i, 1)),
                      TextTable::num(mv.get(Metric::BranchMpki)),
                      TextTable::num(mv.get(Metric::BranchTakenMpki), 0)});
    }
    out += table.render();
    return out;
}

namespace {

/** One Fig. 10 panel with its six worst-locality PC1 extremes. */
void
cacheScatter(std::string &out, Characterizer &characterizer,
             MetricSelection selection, const char *title)
{
    banner(out, title);
    const auto &suite = suites::spec2017();
    SimilarityResult sim = twoPcSpace(characterizer, suite, selection);

    appendf(out, "PC1+PC2 cover %.1f%% of variance\n\n",
            100.0 * sim.pca.variance_covered);
    out += renderScatter(cpu2017Points(sim, suite), "PC1", "PC2");

    out += "\n  PC1 extremes (worst locality first):\n";
    std::vector<std::size_t> order(suite.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return sim.scores(a, 0) > sim.scores(b, 0);
              });
    for (std::size_t k = 0; k < 6; ++k)
        appendf(out, "    %-18s PC1 = %6.2f\n",
                suite[order[k]].name.c_str(), sim.scores(order[k], 0));
}

} // namespace

/**
 * Fig. 10: the 43 benchmarks in the data-cache and instruction-cache
 * PC spaces.  Expected shape (paper): mcf, cactuBSSN and fotonik3d
 * have the worst data locality; perlbench and gcc dominate
 * instruction-cache activity while L1I MPKI stays modest (0-11).
 */
std::string
fig10CachePca(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    cacheScatter(out, characterizer, MetricSelection::DataCache,
                 "Fig. 10 (left): data-cache PC space (paper: mcf / "
                 "cactuBSSN / fotonik3d worst locality)");
    cacheScatter(out, characterizer, MetricSelection::InstrCache,
                 "Fig. 10 (right): instruction-cache PC space (paper: "
                 "perlbench / gcc highest activity)");
    return out;
}

/**
 * Table VIII: the CPU2017 benchmarks by application domain, marking
 * per domain the ones with distinct behaviour.  A benchmark is
 * distinct when its nearest same-domain neighbour in the joint PC
 * space is further than the suite's median nearest-neighbour
 * distance; when a rate/speed pair is mutually similar only the
 * (shorter-running) rate version is marked (Section IV-F).
 */
std::string
table8Domains(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Table VIII: application domains and their distinct "
                "benchmarks (marked *)");

    const auto &suite = suites::spec2017();
    SimilarityResult sim = analyzeSimilarity(
        characterizer.featureMatrix(suite), suites::benchmarkNames(suite));

    // Suite-wide nearest-neighbour scale.
    std::vector<double> nn;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        double nearest = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < suite.size(); ++j)
            if (i != j)
                nearest = std::min(nearest, sim.pcDistance(i, j));
        nn.push_back(nearest);
    }
    double scale = stats::median(nn);

    std::map<std::string, std::vector<std::size_t>> domains;
    for (std::size_t i = 0; i < suite.size(); ++i)
        domains[suites::domainName(suite[i].domain)].push_back(i);

    TextTable table({"App domain", "Benchmarks (* = distinct)"});
    for (const auto &[domain, members] : domains) {
        std::string cell;
        for (std::size_t i : members) {
            // Distinct when no same-domain neighbour is close, or when
            // the close neighbour is only its own speed partner (then
            // mark the rate version only).
            double nearest = std::numeric_limits<double>::infinity();
            std::size_t nearest_j = i;
            for (std::size_t j : members) {
                if (j == i)
                    continue;
                double d = sim.pcDistance(i, j);
                if (d < nearest) {
                    nearest = d;
                    nearest_j = j;
                }
            }
            bool partner_only = nearest <= scale &&
                                suite[nearest_j].name == suite[i].partner;
            bool is_rate = suite[i].category == suites::Category::RateInt ||
                           suite[i].category == suites::Category::RateFp;
            bool distinct = nearest > scale || (partner_only && is_rate);
            if (!cell.empty())
                cell += ", ";
            if (distinct)
                cell += "*";
            cell += suite[i].name;
        }
        table.addRow({domain, cell});
    }
    out += table.render();
    out += "\nPaper examples: 502.gcc_r* but 602.gcc_s unmarked "
           "(similar to rate); both versions of bwaves / roms / "
           "lbm marked (rate and speed differ).\n";
    return out;
}

/**
 * Fig. 11 and Section V-B: CPU2017 and CPU2006 in one PC workload
 * space.  Expected shape (paper): PC1-PC2 coverage grows slightly but
 * > 25% of CPU2017 falls outside the CPU2006 region; PC3-PC4 area
 * about doubles; of the removed CPU2006 benchmarks only 429.mcf,
 * 445.gobmk and 473.astar are not covered.
 */
std::string
fig11Cpu2006Coverage(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Fig. 11: CPU2017 vs CPU2006 in the PC workload space");

    const auto &suite17 = suites::spec2017();
    const auto &suite06 = suites::spec2006();

    SimilarityConfig config;
    config.retention = stats::RetentionPolicy::fixedCount(4);
    SuiteComparison cmp = compareSuites(characterizer, suite17, suite06,
                                        MetricSelection::Canonical, {},
                                        config);

    appendf(out, "Top-4 PCs cover %.1f%% of variance (paper: ~80%%)\n\n",
            100.0 * cmp.similarity.pca.variance_covered);
    for (const PlaneCoverage *plane : {&cmp.pc12, &cmp.pc34}) {
        appendf(out, "PC%zu-PC%zu plane:\n", plane->pc_x + 1,
                plane->pc_y + 1);
        appendf(out, "  CPU2017 hull area: %8.2f\n", plane->area_a);
        appendf(out, "  CPU2006 hull area: %8.2f\n", plane->area_b);
        appendf(out, "  area ratio 2017/2006: %.2fx\n", plane->area_ratio);
        appendf(out,
                "  CPU2017 benchmarks outside the CPU2006 region: "
                "%.0f%%\n\n",
                100.0 * plane->a_outside_b);
    }
    out += "Paper: PC1-PC2 slightly expanded, > 25% of CPU2017 "
           "outside; PC3-PC4 area ~2x.\n";

    out += jointScatter(cmp, suite17, suite06);
    out += "  glyphs: 7 = CPU2017, 6 = CPU2006\n";

    banner(out, "Section V-B: coverage of removed CPU2006 benchmarks");
    TextTable table({"Removed benchmark", "Nearest CPU2017", "NN distance",
                     "Covered?"});
    for (const CoverageVerdict &v : coverageAnalysis(
             characterizer, suite17, suites::spec2006RemovedBenchmarks())) {
        table.addRow({v.benchmark, v.nearest, TextTable::num(v.nn_distance),
                      v.covered ? "yes" : "NO"});
    }
    out += table.render();
    out += "\nPaper: only 429.mcf, 445.gobmk and 473.astar are not "
           "covered.\n";
    return out;
}

/**
 * Fig. 12: CPU2017 and CPU2006 in the power PC space (core / LLC /
 * DRAM power from the RAPL model on the three Intel machines).
 * Expected shape (paper): PC1 ~ DRAM power, PC2 ~ core power; CPU2017
 * covers a clearly larger region, driven by its new benchmarks.
 */
std::string
fig12PowerPca(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Fig. 12: power-characteristic PC space (3 Intel "
                "machines, core/LLC/DRAM power)");

    const auto &suite17 = suites::spec2017();
    const auto &suite06 = suites::spec2006();

    // Machines 0-2 are Skylake, Broadwell, Ivy Bridge.
    std::vector<std::size_t> rapl_machines = {0, 1, 2};
    SimilarityConfig config;
    config.retention = stats::RetentionPolicy::fixedCount(2);
    SuiteComparison cmp =
        compareSuites(characterizer, suite17, suite06,
                      MetricSelection::Power, rapl_machines, config);

    appendf(out, "PC1+PC2 cover %.1f%% of variance (paper: >= 84%%)\n",
            100.0 * cmp.similarity.pca.variance_covered);

    // Which raw metric dominates each PC?
    auto names =
        characterizer.featureNames(MetricSelection::Power, rapl_machines);
    appendf(out,
            "PC1 dominated by %s, PC2 by %s "
            "(paper: PC1 ~ DRAM power, PC2 ~ core power)\n\n",
            names[cmp.similarity.pca.dominantMetric(0)].c_str(),
            names[cmp.similarity.pca.dominantMetric(1)].c_str());

    out += jointScatter(cmp, suite17, suite06);
    out += "  glyphs: 7 = CPU2017, 6 = CPU2006\n\n";

    appendf(out,
            "Coverage (PC1-PC2 hull): CPU2017 %.2f vs CPU2006 %.2f "
            "(ratio %.2fx; paper: 2017 much higher)\n",
            cmp.pc12.area_a, cmp.pc12.area_b, cmp.pc12.area_ratio);
    appendf(out, "CPU2017 points outside the CPU2006 power region: %.0f%%\n",
            100.0 * cmp.pc12.a_outside_b);
    return out;
}

/**
 * Fig. 13 and Sections V-D/E/F: CPU2017 with the EDA, database and
 * graph-analytics workloads.  Expected shape (paper): EDA sits near
 * mcf (covered); Cassandra is far from everything (I-cache / I-TLB,
 * not covered); PageRank is far out on D-TLB activity (not covered);
 * Connected Components behaves like leela / deepsjeng / xz (covered).
 */
std::string
fig13EmergingWorkloads(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Fig. 13: CPU2017 + EDA + database + graph analytics "
                "dendrogram");

    std::vector<suites::BenchmarkInfo> joint = suites::spec2017();
    for (const suites::BenchmarkInfo &b : suites::emergingBenchmarks())
        joint.push_back(b);

    SimilarityResult sim = analyzeSimilarity(
        characterizer.featureMatrix(joint), suites::benchmarkNames(joint));
    appendf(out, "Retained %zu PCs covering %.1f%% of variance\n\n",
            sim.pca.retained, 100.0 * sim.pca.variance_covered);
    out += sim.renderDendrogram();

    banner(out, "Coverage verdicts (Sections V-D/E/F)");
    auto paper_verdict = [](const std::string &name) {
        if (name == "175.vpr" || name == "300.twolf")
            return "covered (near mcf)";
        if (name.rfind("cas-", 0) == 0)
            return "NOT covered (I-cache/I-TLB)";
        if (name.rfind("pr-", 0) == 0)
            return "NOT covered (D-TLB)";
        return "covered (near leela/deepsjeng/xz)";
    };
    TextTable table({"Workload", "Nearest CPU2017 benchmark",
                     "NN distance", "Covered?", "Paper verdict"});
    for (const CoverageVerdict &v :
         coverageAnalysis(characterizer, suites::spec2017(),
                          suites::emergingBenchmarks())) {
        table.addRow({v.benchmark, v.nearest, TextTable::num(v.nn_distance),
                      v.covered ? "yes" : "NO",
                      paper_verdict(v.benchmark)});
    }
    out += table.render();
    return out;
}

} // namespace repro
} // namespace core
} // namespace speclens
