/**
 * @file
 * Section IV reproductions: similarity dendrograms, representative
 * subsets and their validation, input sets and rate/speed pairs
 * (Figs. 2-8, Tables V-VII and the Section IV-D pair table).
 */

#include <string>
#include <vector>

#include "core/input_set_analysis.h"
#include "core/rate_speed.h"
#include "core/repro_render.h"
#include "core/report.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "suites/input_sets.h"
#include "suites/score_database.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {
namespace repro {

namespace {

/**
 * Dendrogram of @p suite over the 140-metric feature vectors, its most
 * distinct benchmark and its 3-cluster cut.  The notes are appended to
 * the retained-PC, most-distinct and cut lines.
 */
void
dendrogramWithCut(std::string &out, Characterizer &characterizer,
                  const std::vector<suites::BenchmarkInfo> &suite,
                  const char *pcs_note, const char *distinct_note,
                  const char *cut_note)
{
    SimilarityResult sim = analyzeSimilarity(
        characterizer.featureMatrix(suite), suites::benchmarkNames(suite));

    appendf(out, "Retained %zu PCs covering %.1f%% of variance%s\n\n",
            sim.pca.retained, 100.0 * sim.pca.variance_covered, pcs_note);
    out += sim.renderDendrogram();
    appendf(out, "\nMost distinct benchmark: %s%s\n",
            sim.labels[sim.mostDistinct()].c_str(), distinct_note);

    SubsetResult subset = selectSubset(
        sim, 3, RepresentativeRule::ShortestLinkage, suite);
    appendf(out, "\n3-cluster cut at linkage distance %.2f%s:\n",
            subset.cut_height, cut_note);
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        appendf(out, "  cluster %zu (rep %s):", c + 1,
                subset.representatives[c].c_str());
        for (const std::string &name : subset.clusters[c])
            appendf(out, " %s", name.c_str());
        out += "\n";
    }
}

} // namespace

/**
 * Fig. 2: SPECspeed INT dendrogram from PCA + hierarchical clustering
 * over 20 metrics x 7 machines, Kaiser retention.  Expected shape
 * (paper): 605.mcf_s is the most distinct benchmark; the 3-cluster cut
 * yields {605.mcf_s, 623.xalancbmk_s, 641.leela_s}; 7 PCs cover
 * >= 91% of variance.
 */
std::string
fig2DendrogramSpeedInt(ServiceContext &context)
{
    std::string out;
    banner(out, "Fig. 2: SPECspeed INT dendrogram (PCA + hierarchical "
                "clustering, 7 machines x 20 metrics)");
    dendrogramWithCut(out, profiling(context), suites::spec2017SpeedInt(),
                      " (Kaiser criterion; paper: 7 PCs, >= 91%)",
                      " (paper: 605.mcf_s)", "");
    return out;
}

/**
 * Fig. 3: SPECspeed FP dendrogram.  Expected shape (paper):
 * 607.cactuBSSN_s is the most distinctive (unique memory + TLB
 * behaviour); the subset is {607.cactuBSSN_s, 621.wrf_s, 654.roms_s}.
 */
std::string
fig3DendrogramSpeedFp(ServiceContext &context)
{
    std::string out;
    banner(out, "Fig. 3: SPECspeed FP dendrogram");
    dendrogramWithCut(out, profiling(context), suites::spec2017SpeedFp(),
                      "", " (paper: 607.cactuBSSN_s)",
                      " (paper subset: 607.cactuBSSN_s, 621.wrf_s, "
                      "654.roms_s)");
    return out;
}

/**
 * Fig. 4: SPECrate FP dendrogram, plus the SPECrate INT one the paper
 * omits for space.  Expected subsets (paper): {507.cactuBSSN_r,
 * 549.fotonik3d_r, 544.nab_r} and {505.mcf_r, 523.xalancbmk_r,
 * 531.deepsjeng_r}.
 */
std::string
fig4DendrogramRateFp(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Fig. 4: SPECrate FP dendrogram");
    dendrogramWithCut(
        out, characterizer, suites::spec2017RateFp(), "", "",
        " (paper subset: 507.cactuBSSN_r, 549.fotonik3d_r, 544.nab_r)");
    banner(out, "Bonus: SPECrate INT dendrogram (paper omits for space)");
    dendrogramWithCut(
        out, characterizer, suites::spec2017RateInt(), "", "",
        " (paper subset: 505.mcf_r, 523.xalancbmk_r, 531.deepsjeng_r)");
    return out;
}

namespace {

/** The 3-benchmark shortest-linkage subset of @p suite. */
SubsetResult
identifiedSubset(Characterizer &characterizer,
                 const std::vector<suites::BenchmarkInfo> &suite)
{
    SimilarityResult sim = analyzeSimilarity(
        characterizer.featureMatrix(suite), suites::benchmarkNames(suite));
    return selectSubset(sim, 3, RepresentativeRule::ShortestLinkage,
                        suite);
}

} // namespace

/**
 * Table V: the 3-benchmark representative subsets of the four
 * sub-suites, with the simulation-time reductions of Section IV-A.
 */
std::string
table5Subsets(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Table V: representative 3-benchmark subsets of the "
                "CPU2017 sub-suites");

    TextTable table({"Sub-suite", "Identified subset",
                     "Sim-time reduction", "Paper subset"});
    for (const SubSuiteRow &row : subSuiteRows()) {
        SubsetResult subset = identifiedSubset(characterizer, row.suite);
        std::string members;
        for (const std::string &name : subset.representatives) {
            if (!members.empty())
                members += ", ";
            members += name;
        }
        table.addRow(
            {row.label, members,
             TextTable::num(subset.simulation_time_reduction, 1) + "x",
             row.paper_subset});
    }
    out += table.render();
    out += "\nPaper simulation-time reductions: 5.6x (speed INT), "
           "4.5x (rate INT), 4.5x (speed FP), 6.3x (rate FP)\n";
    return out;
}

namespace {

/**
 * Geometric-mean speedup estimated from the identified subset versus
 * the full sub-suite, per commercial system of the score database.
 */
void
validation(std::string &out, Characterizer &characterizer,
           const std::vector<suites::BenchmarkInfo> &suite,
           suites::Category category, const char *title)
{
    banner(out, title);
    SubsetResult subset = identifiedSubset(characterizer, suite);

    suites::ScoreDatabase db;
    ValidationResult result =
        validateSubset(suite, subset.representatives, category, db);

    TextTable table(
        {"System", "Full-suite score", "Subset score", "Error (%)"});
    for (const SystemValidation &v : result.per_system) {
        table.addRow({v.system, TextTable::num(v.full_score),
                      TextTable::num(v.subset_score),
                      TextTable::num(v.error_pct, 1)});
    }
    out += table.render();
    appendf(out, "Average error: %.1f%%   Max error: %.1f%%\n",
            result.avg_error_pct, result.max_error_pct);
}

} // namespace

/** Fig. 5: INT subset validation (paper: speed <= 1%, rate ~7%). */
std::string
fig5ValidationInt(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    validation(out, characterizer, suites::spec2017SpeedInt(),
               suites::Category::SpeedInt,
               "Fig. 5 (top): SPECspeed INT subset validation "
               "(paper: avg error <= 1%)");
    validation(out, characterizer, suites::spec2017RateInt(),
               suites::Category::RateInt,
               "Fig. 5 (bottom): SPECrate INT subset validation "
               "(paper: avg 7%, max 12.9%)");
    return out;
}

/** Fig. 6: FP subset validation (paper: speed ~3%, rate ~4.5%). */
std::string
fig6ValidationFp(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    validation(out, characterizer, suites::spec2017SpeedFp(),
               suites::Category::SpeedFp,
               "Fig. 6 (top): SPECspeed FP subset validation "
               "(paper: avg error ~3%)");
    validation(out, characterizer, suites::spec2017RateFp(),
               suites::Category::RateFp,
               "Fig. 6 (bottom): SPECrate FP subset validation "
               "(paper: avg error ~4.5%)");
    return out;
}

/**
 * Table VI: estimation error of the identified subsets versus two
 * fixed random subsets, plus the mean over 100 random subsets (an
 * extension the paper motivates but does not run).  Expected shape
 * (paper): identified 11% / 7% / 3% / 4.5%; random sets 34.85% and
 * 24.45% on average.
 */
std::string
table6RandomSubsets(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Table VI: identified vs. random subsets "
                "(average speedup-estimation error, %)");

    suites::ScoreDatabase db;
    TextTable table({"Sub-suite", "Identified", "Rand set1", "Rand set2",
                     "Rand mean(100)", "Paper ident."});

    double ident_total = 0.0, rand_total = 0.0;
    for (const SubSuiteRow &row : subSuiteRows()) {
        SubsetResult subset = identifiedSubset(characterizer, row.suite);
        double identified =
            validateSubset(row.suite, subset.representatives,
                           row.category, db)
                .avg_error_pct;
        double rand1 = validateSubset(row.suite,
                                      randomSubset(row.suite, 3, 1),
                                      row.category, db)
                           .avg_error_pct;
        double rand2 = validateSubset(row.suite,
                                      randomSubset(row.suite, 3, 2),
                                      row.category, db)
                           .avg_error_pct;
        double rand_mean = averageRandomSubsetError(
            row.suite, 3, row.category, db, 100, 99);

        ident_total += identified;
        rand_total += rand_mean;
        table.addRow({row.label, TextTable::num(identified, 1),
                      TextTable::num(rand1, 1), TextTable::num(rand2, 1),
                      TextTable::num(rand_mean, 1), row.paper_error});
    }
    out += table.render();
    appendf(out,
            "\nIdentified subsets mean error %.1f%% vs random-subset "
            "mean %.1f%% (paper random sets: 34.85%% and 24.45%%)\n",
            ident_total / 4.0, rand_total / 4.0);
    return out;
}

namespace {

/** Dendrogram of the input-set variants of @p groups and its spreads. */
void
inputSets(std::string &out, Characterizer &characterizer,
          const std::vector<suites::InputSetGroup> &groups,
          const char *pcs_note)
{
    InputSetAnalysis analysis = analyzeInputSets(characterizer, groups);
    appendf(out, "Retained %zu PCs covering %.1f%% of variance %s\n\n",
            analysis.similarity.pca.retained,
            100.0 * analysis.similarity.pca.variance_covered, pcs_note);
    out += analysis.similarity.renderDendrogram();
    appendf(out,
            "\nLargest within-benchmark input-set spread: %.2f\n"
            "Median cross-benchmark distance:            %.2f\n",
            analysis.max_within_group_spread,
            analysis.median_cross_benchmark_distance);
}

} // namespace

/**
 * Fig. 7: all CPU2017 INT benchmarks with their input sets
 * ("<name>#<k>").  Expected shape (paper): input sets of one benchmark
 * cluster tightly; only omnetpp, xalancbmk and x264 show visible
 * rate-vs-speed separation; ~10 PCs cover ~94% of variance.
 */
std::string
fig7InputSetsInt(ServiceContext &context)
{
    std::string out;
    banner(out, "Fig. 7: similarity of CPU2017 INT benchmarks and "
                "their input sets");
    inputSets(out, profiling(context), suites::inputSetGroupsInt(),
              "(paper: 10 PCs, 94%)");
    out += "(the paper's finding: input sets of one benchmark are far "
           "closer together\n than different benchmarks)\n";
    return out;
}

/**
 * Fig. 8: all CPU2017 FP benchmarks with their input sets (bwaves is
 * the only multi-input one).  Expected shape (paper): bwaves inputs
 * cluster together; imagick and bwaves separate most between rate and
 * speed; ~12 PCs cover 94% of variance.
 */
std::string
fig8InputSetsFp(ServiceContext &context)
{
    std::string out;
    banner(out, "Fig. 8: similarity of CPU2017 FP benchmarks and "
                "their input sets");
    inputSets(out, profiling(context), suites::inputSetGroupsFp(),
              "(paper: 12 PCs, 94%)");
    return out;
}

/**
 * Table VII: the most representative input set of every multi-input
 * benchmark, the one closest to the benchmark's aggregate behaviour.
 */
std::string
table7RepresentativeInputs(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    banner(out, "Table VII: representative input sets of multi-input "
                "CPU2017 benchmarks");

    TextTable table({"Benchmark", "Representative input",
                     "Distance to aggregate", "Group spread"});
    for (bool fp : {false, true}) {
        InputSetAnalysis analysis = analyzeInputSets(
            characterizer, fp ? suites::inputSetGroupsFp()
                              : suites::inputSetGroupsInt());
        for (const RepresentativeInput &rep : analysis.representatives) {
            table.addRow({rep.benchmark,
                          "input set " + std::to_string(rep.input_index),
                          TextTable::num(rep.distance_to_aggregate),
                          TextTable::num(rep.group_spread)});
        }
    }
    out += table.render();
    out += "\nPaper Table VII: perlbench_r #1, gcc_r #2, x264_r #3, "
           "xz_r #1, perlbench_s #1,\ngcc_s #1, x264_s #3, xz_s #1, "
           "bwaves_r #1, bwaves_s #1.  The specific index depends on\n"
           "the (proprietary) inputs; the reproducible claim is that one "
           "input suffices because\ngroup spreads are small.\n";
    return out;
}

namespace {

/** PC-space and linkage distances of every INT or FP rate/speed pair. */
void
rateSpeedPairs(std::string &out, Characterizer &characterizer, bool fp,
               const char *title)
{
    banner(out, title);
    RateSpeedAnalysis analysis = analyzeRateSpeed(characterizer, fp);

    TextTable table({"Rate version", "Speed version", "PC distance",
                     "Linkage distance", "vs median"});
    for (const RateSpeedPair &pair : analysis.pairs) {
        table.addRow(
            {pair.rate, pair.speed, TextTable::num(pair.pc_distance),
             TextTable::num(pair.cophenetic),
             TextTable::num(pair.pc_distance / analysis.median_distance) +
                 "x"});
    }
    out += table.render();
    appendf(out, "Median pair distance: %.2f\n", analysis.median_distance);
}

} // namespace

/**
 * Section IV-D as a table (the paper gives it in prose over Figs.
 * 7/8).  Expected shape (paper): most pairs are very similar;
 * 638.imagick_s is furthest from its rate version, bwaves next, and
 * omnetpp / xalancbmk / x264 are the INT pairs with visible separation.
 */
std::string
table10RateSpeed(ServiceContext &context)
{
    Characterizer &characterizer = profiling(context);
    std::string out;
    rateSpeedPairs(out, characterizer, false,
                   "Rate vs. speed, INT pairs (paper: omnetpp, xalancbmk, "
                   "x264 differ; rest similar)");
    rateSpeedPairs(out, characterizer, true,
                   "Rate vs. speed, FP pairs (paper: imagick largest, "
                   "bwaves next; nab/wrf/cactuBSSN similar)");
    return out;
}

} // namespace repro
} // namespace core
} // namespace speclens
