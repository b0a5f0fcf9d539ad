/**
 * @file
 * Shared query-operation implementation.
 *
 * Formatting here must stay byte-identical to what the pre-refactor
 * CLI printed: the serve-smoke acceptance check `cmp`s daemon output
 * against batch CLI output.
 */

#include "query_ops.h"

#include <utility>

#include "core/metrics.h"
#include "core/report.h"
#include "core/sensitivity.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "suites/score_database.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {

namespace {

bool
resolveMetric(const std::string &which, Metric &metric)
{
    if (which == "branch")
        metric = Metric::BranchMpki;
    else if (which == "l1d")
        metric = Metric::L1dMpki;
    else if (which == "dtlb")
        metric = Metric::DtlbMpmi;
    else
        return false;
    return true;
}

} // namespace

QueryOutcome
queryError(std::string message)
{
    QueryOutcome outcome;
    outcome.ok = false;
    outcome.error = std::move(message);
    return outcome;
}

bool
resolveCategory(const std::string &name,
                std::vector<suites::BenchmarkInfo> &suite,
                suites::Category &category)
{
    if (name == "speed-int") {
        suite = suites::spec2017SpeedInt();
        category = suites::Category::SpeedInt;
    } else if (name == "rate-int") {
        suite = suites::spec2017RateInt();
        category = suites::Category::RateInt;
    } else if (name == "speed-fp") {
        suite = suites::spec2017SpeedFp();
        category = suites::Category::SpeedFp;
    } else if (name == "rate-fp") {
        suite = suites::spec2017RateFp();
        category = suites::Category::RateFp;
    } else {
        return false;
    }
    return true;
}

bool
isSensitivityMetric(const std::string &name)
{
    Metric metric;
    return resolveMetric(name, metric);
}

QueryOutcome
runCharacterizeQuery(ServiceContext &context,
                     const std::vector<std::string> &benchmarks)
{
    if (benchmarks.empty())
        return queryError("no benchmarks given");
    std::vector<suites::BenchmarkInfo> selected;
    for (const std::string &name : benchmarks) {
        const suites::BenchmarkInfo *benchmark =
            context.findBenchmark(name);
        if (!benchmark)
            return queryError("unknown benchmark: " + name);
        selected.push_back(*benchmark);
    }

    Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    // Fan all (benchmark, machine) simulations out before rendering.
    characterizer.prepare(selected);

    QueryOutcome outcome;
    for (const suites::BenchmarkInfo &benchmark : selected) {
        outcome.output +=
            "\n" + benchmark.name + " (" +
            suites::suiteName(benchmark.suite) + ", " +
            suites::domainName(benchmark.domain) + ")\n";
        TextTable table({"Machine", "CPI", "L1D MPKI", "L1I MPKI",
                         "L3 MPKI", "Br MPKI", "DTLB MPMI",
                         "Power (W)"});
        for (std::size_t m = 0; m < characterizer.machines().size();
             ++m) {
            const auto &sim = characterizer.simulation(benchmark, m);
            MetricVector mv = extractMetrics(sim);
            table.addRow(
                {characterizer.machines()[m].short_name,
                 TextTable::num(sim.cpi()),
                 TextTable::num(mv.get(Metric::L1dMpki), 1),
                 TextTable::num(mv.get(Metric::L1iMpki), 1),
                 TextTable::num(mv.get(Metric::L3Mpki), 1),
                 TextTable::num(mv.get(Metric::BranchMpki), 1),
                 TextTable::num(mv.get(Metric::DtlbMpmi), 0),
                 TextTable::num(sim.power.total(), 1)});
        }
        outcome.output += table.render();
    }
    return outcome;
}

QueryOutcome
runMemoryQuery(ServiceContext &context,
               const std::vector<std::string> &benchmarks)
{
    if (benchmarks.empty())
        return queryError("no benchmarks given");
    std::vector<suites::BenchmarkInfo> selected;
    for (const std::string &name : benchmarks) {
        const suites::BenchmarkInfo *benchmark =
            context.findBenchmark(name);
        if (!benchmark)
            return queryError("unknown benchmark: " + name);
        selected.push_back(*benchmark);
    }

    Characterizer &characterizer =
        context.characterizerFor(context.memoryMachines());
    characterizer.prepare(selected);

    QueryOutcome outcome;
    for (const suites::BenchmarkInfo &benchmark : selected) {
        outcome.output +=
            "\n" + benchmark.name + " (" +
            suites::suiteName(benchmark.suite) + ", " +
            suites::domainName(benchmark.domain) + ") memory-centric\n";
        TextTable table({"Machine", "Pf cov", "Pf acc", "Pf time",
                         "WayPred", "RowBuf", "BW util", "L2D MPKI",
                         "L3 MPKI"});
        for (std::size_t m = 0; m < characterizer.machines().size();
             ++m) {
            const auto &sim = characterizer.simulation(benchmark, m);
            MetricVector mv = extractMetrics(sim);
            table.addRow(
                {characterizer.machines()[m].short_name,
                 TextTable::num(mv.get(Metric::PrefetchCoverage), 3),
                 TextTable::num(mv.get(Metric::PrefetchAccuracy), 3),
                 TextTable::num(mv.get(Metric::PrefetchTimeliness), 3),
                 TextTable::num(mv.get(Metric::WayPredAccuracy), 3),
                 TextTable::num(mv.get(Metric::RowBufferHitRate), 3),
                 TextTable::num(mv.get(Metric::DramBwUtil), 3),
                 TextTable::num(mv.get(Metric::L2dMpki), 1),
                 TextTable::num(mv.get(Metric::L3Mpki), 1)});
        }
        outcome.output += table.render();
    }
    return outcome;
}

QueryOutcome
runSubsetQuery(ServiceContext &context, const std::string &category_name,
               std::size_t k)
{
    std::vector<suites::BenchmarkInfo> suite;
    suites::Category category;
    if (!resolveCategory(category_name, suite, category))
        return queryError("unknown category: " + category_name);
    if (k < 1 || k > suite.size())
        return queryError("k must be in [1, " +
                          std::to_string(suite.size()) + "]");

    Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    SimilarityResult sim =
        analyzeSimilarity(characterizer.featureMatrix(suite),
                          suites::benchmarkNames(suite));

    QueryOutcome outcome;
    outcome.output += sim.renderDendrogram();

    SubsetResult subset = selectSubset(
        sim, k, RepresentativeRule::ShortestLinkage, suite);
    appendf(outcome.output,
            "\n%zu-benchmark subset (%.1fx less simulation):\n", k,
            subset.simulation_time_reduction);
    for (const std::string &name : subset.representatives)
        outcome.output += "  " + name + "\n";

    suites::ScoreDatabase db;
    ValidationResult validation =
        validateSubset(suite, subset.representatives, category, db);
    appendf(outcome.output,
            "score-prediction accuracy: %.1f%% (avg error %.1f%%, "
            "max %.1f%%)\n",
            100.0 - validation.avg_error_pct, validation.avg_error_pct,
            validation.max_error_pct);
    return outcome;
}

QueryOutcome
runSensitivityQuery(ServiceContext &context, const std::string &metric_name)
{
    Metric metric;
    if (!resolveMetric(metric_name, metric))
        return queryError("unknown metric: " + metric_name);

    Characterizer &characterizer =
        context.characterizerFor(context.sensitivityMachines());
    SensitivityReport report =
        classifySensitivity(characterizer, context.cpu2017(), metric);

    QueryOutcome outcome;
    for (SensitivityClass cls :
         {SensitivityClass::High, SensitivityClass::Medium,
          SensitivityClass::Low}) {
        outcome.output += sensitivityClassName(cls) + ":\n";
        for (const std::string &name : report.names(cls))
            outcome.output += "  " + name + "\n";
    }
    return outcome;
}

} // namespace core
} // namespace speclens
