/**
 * @file
 * Reproduction-pass implementation.  Renderings of the input-set and
 * coverage studies follow tools/speclens_cli.cpp, so a pass prints what
 * the matching CLI commands print.
 */

#include "repro.h"

#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/balance.h"
#include "core/csv_export.h"
#include "core/input_set_analysis.h"
#include "core/query_ops.h"
#include "core/report.h"
#include "core/suite_report.h"
#include "suites/input_sets.h"
#include "suites/spec2017.h"

namespace perfbench {

namespace core = speclens::core;
namespace suites = speclens::suites;

namespace {

const char *const kCategories[] = {"speed-int", "rate-int", "speed-fp",
                                   "rate-fp"};
const char *const kSensitivityMetrics[] = {"branch", "l1d", "dtlb"};

/** Benchmarks of @p lists in order, each name once. */
std::vector<suites::BenchmarkInfo>
distinct(std::initializer_list<const std::vector<suites::BenchmarkInfo> *>
             lists)
{
    std::vector<suites::BenchmarkInfo> out;
    std::set<std::string> seen;
    for (const auto *list : lists)
        for (const suites::BenchmarkInfo &b : *list)
            if (seen.insert(b.name).second)
                out.push_back(b);
    return out;
}

std::vector<std::string>
names(const std::vector<suites::BenchmarkInfo> &benchmarks)
{
    std::vector<std::string> out;
    for (const suites::BenchmarkInfo &b : benchmarks)
        out.push_back(b.name);
    return out;
}

/** Output of an accepted query; throws on a rejected one. */
std::string
accepted(core::QueryOutcome outcome)
{
    if (!outcome.ok)
        throw std::runtime_error("query rejected: " + outcome.error);
    return std::move(outcome.output);
}

/** A category's suite, validation category and report title. */
std::vector<suites::BenchmarkInfo>
categorySuite(const std::string &which, core::SuiteReportOptions &report)
{
    report.title = "SpecLens report: SPEC CPU2017 " + which;
    if (which == "speed-int") {
        report.validation_category = suites::Category::SpeedInt;
        return suites::spec2017SpeedInt();
    }
    if (which == "rate-int") {
        report.validation_category = suites::Category::RateInt;
        return suites::spec2017RateInt();
    }
    if (which == "speed-fp") {
        report.validation_category = suites::Category::SpeedFp;
        return suites::spec2017SpeedFp();
    }
    report.validation_category = suites::Category::RateFp;
    return suites::spec2017RateFp();
}

std::string
renderInputs(const core::InputSetAnalysis &analysis)
{
    core::TextTable table({"Benchmark", "Representative input",
                           "Group spread"});
    for (const core::RepresentativeInput &rep : analysis.representatives)
        table.addRow({rep.benchmark, std::to_string(rep.input_index),
                      core::TextTable::num(rep.group_spread)});
    return table.render();
}

std::string
renderCoverage(const std::vector<core::CoverageVerdict> &verdicts)
{
    core::TextTable table({"Workload", "Nearest CPU2017", "Distance",
                           "Covered?"});
    for (const core::CoverageVerdict &v : verdicts)
        table.addRow({v.benchmark, v.nearest,
                      core::TextTable::num(v.nn_distance),
                      v.covered ? "yes" : "NO"});
    return table.render();
}

} // namespace

core::ServiceConfig
serviceConfig(const std::string &store_dir, std::uint64_t seed)
{
    core::ServiceConfig config;
    config.characterization.instructions = kInstructions;
    config.characterization.warmup = kWarmup;
    config.characterization.seed_salt = seed;
    config.characterization.jobs = kJobs;
    config.store_dir = store_dir;
    return config;
}

std::vector<CampaignPart>
campaign(const core::ServiceContext &context)
{
    std::vector<suites::BenchmarkInfo> inputs_int =
        suites::flattenGroups(suites::inputSetGroupsInt());
    std::vector<suites::BenchmarkInfo> inputs_fp =
        suites::flattenGroups(suites::inputSetGroupsFp());
    std::vector<CampaignPart> parts(3);
    parts[0].machines = &context.profilingMachines();
    parts[0].benchmarks =
        distinct({&context.cpu2017(), &context.cpu2006(),
                  &context.emerging(), &inputs_int, &inputs_fp});
    parts[1].machines = &context.sensitivityMachines();
    parts[1].benchmarks = distinct({&context.cpu2017()});
    parts[2].machines = &context.memoryMachines();
    parts[2].benchmarks = distinct({&context.cpu2017()});
    return parts;
}

std::vector<std::uint64_t>
campaignFingerprints(const std::vector<CampaignPart> &parts,
                     const core::CharacterizationConfig &config)
{
    std::vector<std::uint64_t> out;
    for (const CampaignPart &part : parts)
        for (const suites::BenchmarkInfo &benchmark : part.benchmarks)
            for (const auto &machine : *part.machines)
                out.push_back(
                    core::makeStoreKey(benchmark.profile, machine, config)
                        .fingerprint);
    return out;
}

std::size_t
campaignSimulations(const std::vector<CampaignPart> &parts,
                    const core::CharacterizationConfig &config)
{
    std::vector<std::uint64_t> fingerprints =
        campaignFingerprints(parts, config);
    return std::set<std::uint64_t>(fingerprints.begin(), fingerprints.end())
        .size();
}

std::string
reproduce(core::ServiceContext &context, Tracer *tracer, std::uint32_t op)
{
    Tracer::Scope pass = Tracer::span(tracer, "bench.pass", op);
    std::string out;

    {
        Tracer::Scope span = Tracer::span(tracer, "core.prepare", op);
        for (const CampaignPart &part : campaign(context))
            context.characterizerFor(*part.machines)
                .prepare(part.benchmarks);
    }

    const std::vector<std::string> cpu2017 = names(context.cpu2017());
    {
        Tracer::Scope span =
            Tracer::span(tracer, "core.query.characterize", op);
        out += accepted(core::runCharacterizeQuery(context, cpu2017));
    }
    for (const char *category : kCategories) {
        Tracer::Scope span = Tracer::span(tracer, "core.query.subset", op);
        out += accepted(core::runSubsetQuery(context, category, 3));
    }
    for (const char *metric : kSensitivityMetrics) {
        Tracer::Scope span =
            Tracer::span(tracer, "core.query.sensitivity", op);
        out += accepted(core::runSensitivityQuery(context, metric));
    }
    {
        Tracer::Scope span = Tracer::span(tracer, "core.query.memory", op);
        out += accepted(core::runMemoryQuery(context, cpu2017));
    }

    core::Characterizer &profiling =
        context.characterizerFor(context.profilingMachines());
    for (const auto &groups :
         {suites::inputSetGroupsInt(), suites::inputSetGroupsFp()}) {
        core::InputSetAnalysis analysis;
        {
            Tracer::Scope span = Tracer::span(tracer, "core.inputs", op);
            analysis = core::analyzeInputSets(profiling, groups);
        }
        out += renderInputs(analysis);
    }
    {
        std::vector<core::CoverageVerdict> verdicts;
        {
            Tracer::Scope span = Tracer::span(tracer, "core.coverage", op);
            verdicts = core::coverageAnalysis(profiling, context.cpu2017(),
                                              context.emerging());
        }
        out += renderCoverage(verdicts);
    }
    for (const auto *suite :
         {&context.cpu2017(), &context.cpu2006(), &context.emerging()}) {
        Tracer::Scope span = Tracer::span(tracer, "core.export", op);
        std::ostringstream csv;
        core::writeCsv(csv, names(*suite), profiling.featureNames(),
                       profiling.featureMatrix(*suite));
        out += csv.str();
    }
    for (const char *category : kCategories) {
        Tracer::Scope span = Tracer::span(tracer, "core.report", op);
        core::SuiteReportOptions options;
        std::vector<suites::BenchmarkInfo> suite =
            categorySuite(category, options);
        std::ostringstream report;
        core::writeSuiteReport(report, profiling, suite, options);
        out += report.str();
    }
    return out;
}

} // namespace perfbench
