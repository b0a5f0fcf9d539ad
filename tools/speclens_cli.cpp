/**
 * @file
 * speclens — command-line front end to the SpecLens toolkit.
 *
 * Subcommands:
 *   list [suite]              list known benchmarks (cpu2017, cpu2006,
 *                             emerging; default cpu2017)
 *   machines                  list the Table IV machine models
 *   characterize <bench>...   per-machine metric report for benchmarks
 *   subset <category> [k]     representative subset of a sub-suite
 *   inputs <int|fp>           representative input-set selection
 *   coverage <bench>...       are these workloads covered by CPU2017?
 *   sensitivity <metric>      Table IX-style sensitivity classes
 *                             (branch | l1d | dtlb)
 *   campaign <run|info|invalidate|manifest>
 *                             manage the persistent artifact store
 *   repro --list | --all | <name>...
 *                             render reproduced paper tables/figures
 *   lint                      statically verify every workload model,
 *                             machine config and calibration table
 *   audit                     prove structural invariants over a
 *                             pinned mini-campaign and diff result
 *                             fingerprints across job counts / salts
 *
 * Global options: --instructions N, --warmup N (simulation window),
 * --jobs N (simulation worker threads; default one per hardware
 * thread), --seed-salt N (independent re-runs), --store DIR
 * (persistent artifact store; reused results skip simulation),
 * --metrics FILE + --metrics-format prom|json (metric snapshot written
 * at exit; never touches stdout).  Lint options: --format text|json,
 * --severity info|warning|error (display filter), --no-deep (skip the
 * simulation-backed Table II checks).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <fstream>
#include <iostream>

#include "core/characterization.h"
#include "core/csv_export.h"
#include "core/option_parse.h"
#include "core/query_ops.h"
#include "core/reproductions.h"
#include "core/service_context.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "core/phase_analysis.h"
#include "core/suite_report.h"
#include "core/input_set_analysis.h"
#include "core/balance.h"
#include "core/report.h"
#include "core/sensitivity.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats/fingerprint.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/score_database.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

using namespace speclens;

namespace {

using core::numericFlagValue;
using core::stringFlagValue;

struct CliOptions
{
    std::string command;
    std::vector<std::string> args;
    std::uint64_t instructions = 120'000;
    std::uint64_t warmup = 30'000;

    // True when the user passed the flag explicitly.  `repro` pins its
    // own window (150k+40k) and must not inherit the CLI defaults
    // above, but an explicit flag still wins.
    bool instructions_set = false;
    bool warmup_set = false;
    std::size_t jobs = 0; //!< 0 = one worker per hardware thread.
    std::uint64_t seed_salt = 0;
    std::string store_dir; //!< Empty = no persistent artifact store.

    // Serve/query options.
    std::string host = "127.0.0.1"; //!< Daemon listen/connect address.
    std::uint16_t port = 0; //!< serve: 0 = ephemeral; query: required.

    std::string metrics_path; //!< Empty = no metrics export.
    obs::ExportFormat metrics_format = obs::ExportFormat::Prometheus;

    // Lint options.
    std::string format = "text";   //!< Report format: text | json.
    std::string severity = "info"; //!< Display filter threshold.
    bool deep = true; //!< Run simulation-backed lint checks.
};

[[noreturn]] void
usage(int code)
{
    std::fputs(
        "usage: speclens <command> [args] [--instructions N] "
        "[--warmup N] [--jobs N]\n"
        "                [--seed-salt N] [--store DIR] "
        "[--metrics FILE]\n"
        "                [--metrics-format prom|json]\n"
        "\n"
        "commands:\n"
        "  list [cpu2017|cpu2006|emerging]   list benchmarks\n"
        "  machines                          list machine models\n"
        "  characterize <bench>...           metric report\n"
        "  memory <bench>...                 memory-centric report\n"
        "                                    (prefetch coverage/accuracy/\n"
        "                                    timeliness, way prediction,\n"
        "                                    DRAM row-buffer + bandwidth)\n"
        "  subset <speed-int|rate-int|speed-fp|rate-fp> [k]\n"
        "                                    representative subset\n"
        "  inputs <int|fp>                   representative inputs\n"
        "  coverage <bench>...               CPU2017 coverage verdicts\n"
        "  sensitivity <branch|l1d|dtlb>     sensitivity classes\n"
        "  export <cpu2017|cpu2006|emerging> [file.csv]\n"
        "                                    feature matrix as CSV\n"
        "  report <speed-int|rate-int|speed-fp|rate-fp> [file.md]\n"
        "                                    full markdown suite report\n"
        "  simpoints <bench> [phases] [clusters]\n"
        "                                    phase-reduction estimate\n"
        "  campaign run [cpu2017|cpu2006|emerging|all]\n"
        "                                    populate the --store with a\n"
        "                                    full characterization\n"
        "  campaign info                     describe and verify every\n"
        "                                    --store entry\n"
        "  campaign invalidate [stale]       delete all (or only bad)\n"
        "                                    --store entries\n"
        "  campaign manifest                 validate the run manifest\n"
        "                                    written next to the --store\n"
        "  serve [--host A] [--port N]       long-running daemon; answers\n"
        "                                    queries over a loopback TCP\n"
        "                                    socket (port 0 = ephemeral,\n"
        "                                    printed on the 'listening'\n"
        "                                    line; SIGTERM drains)\n"
        "  query <characterize|memory|subset|sensitivity|stats|\n"
        "         shutdown>\n"
        "        [args] --port N [--host A]  ask a running daemon; output\n"
        "                                    is byte-identical to the\n"
        "                                    batch command\n"
        "  repro --list | --all | <name>...  render reproduced paper\n"
        "                                    tables and figures over one\n"
        "                                    shared campaign (default\n"
        "                                    window 150000+40000)\n"
        "  lint [--format text|json] [--severity info|warning|error]\n"
        "       [--no-deep] [--store DIR]    verify models and tables\n"
        "                                    (and store integrity plus\n"
        "                                    the run manifest)\n"
        "  audit                             prove structural invariants\n"
        "                                    over a pinned mini-campaign\n"
        "                                    and replay it across job\n"
        "                                    counts and seed salts,\n"
        "                                    diffing result fingerprints\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

/**
 * Parse positional argument @p text as a strict non-negative integer.
 * Returns false (with a diagnostic naming @p what) on any defect —
 * the atoi it replaces treated "3x" as 3 and "x" as 0.
 */
bool
parsePositional(const char *what, const std::string &text,
                std::size_t &out)
{
    std::uint64_t value = 0;
    core::ParseStatus status = core::parseUnsigned(text, value);
    if (status != core::ParseStatus::Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s': %s\n",
                     what, text.c_str(),
                     core::parseStatusDetail(status).c_str());
        return false;
    }
    out = static_cast<std::size_t>(value);
    return true;
}

CliOptions
parse(int argc, char **argv)
{
    CliOptions opts;
    if (argc < 2)
        usage(1);
    opts.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--instructions") == 0) {
            opts.instructions =
                numericFlagValue("--instructions", argc, argv, i);
            opts.instructions_set = true;
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            opts.warmup = numericFlagValue("--warmup", argc, argv, i);
            opts.warmup_set = true;
        }
        else if (std::strcmp(argv[i], "--jobs") == 0)
            opts.jobs = static_cast<std::size_t>(
                numericFlagValue("--jobs", argc, argv, i));
        else if (std::strcmp(argv[i], "--seed-salt") == 0)
            opts.seed_salt =
                numericFlagValue("--seed-salt", argc, argv, i);
        else if (std::strcmp(argv[i], "--store") == 0)
            opts.store_dir = stringFlagValue("--store", argc, argv, i);
        else if (std::strcmp(argv[i], "--host") == 0)
            opts.host = stringFlagValue("--host", argc, argv, i);
        else if (std::strcmp(argv[i], "--port") == 0) {
            std::uint64_t value =
                numericFlagValue("--port", argc, argv, i);
            if (value > 65535) {
                std::fprintf(stderr,
                             "error: --port must be <= 65535\n");
                std::exit(1);
            }
            opts.port = static_cast<std::uint16_t>(value);
        }
        else if (std::strcmp(argv[i], "--metrics") == 0)
            opts.metrics_path =
                stringFlagValue("--metrics", argc, argv, i);
        else if (std::strcmp(argv[i], "--metrics-format") == 0) {
            const char *name =
                stringFlagValue("--metrics-format", argc, argv, i);
            try {
                opts.metrics_format = obs::exportFormatFromName(name);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                std::exit(1);
            }
        } else if (std::strcmp(argv[i], "--format") == 0)
            opts.format = stringFlagValue("--format", argc, argv, i);
        else if (std::strcmp(argv[i], "--severity") == 0)
            opts.severity =
                stringFlagValue("--severity", argc, argv, i);
        else if (std::strcmp(argv[i], "--no-deep") == 0)
            opts.deep = false;
        else if (std::strcmp(argv[i], "--help") == 0)
            usage(0);
        else
            opts.args.emplace_back(argv[i]);
    }
    if (!opts.metrics_path.empty())
        obs::exportAtExit(opts.metrics_path, opts.metrics_format);
    return opts;
}

/** Benchmark lookup across every database. */
const suites::BenchmarkInfo *
lookup(const std::string &name)
{
    for (const auto *list :
         {&suites::spec2017(), &suites::spec2006()}) {
        for (const suites::BenchmarkInfo &b : *list)
            if (b.name == name)
                return &b;
    }
    static const std::vector<suites::BenchmarkInfo> emerging =
        suites::emergingBenchmarks();
    for (const suites::BenchmarkInfo &b : emerging)
        if (b.name == name)
            return &b;
    return nullptr;
}

/**
 * Service configuration from the window and store options; @p machines
 * is the set the command's manifest describes.
 */
core::ServiceConfig
serviceConfig(const CliOptions &opts,
              std::vector<uarch::MachineConfig> machines =
                  suites::profilingMachines())
{
    core::ServiceConfig config;
    config.machines = std::move(machines);
    config.characterization.instructions = opts.instructions;
    config.characterization.warmup = opts.warmup;
    config.characterization.seed_salt = opts.seed_salt;
    config.characterization.jobs = opts.jobs;
    config.store_dir = opts.store_dir;
    return config;
}

/** The suites `list`, `export` and `campaign run` name, in campaign
 *  order. */
constexpr const char *kSuiteNames[] = {"cpu2017", "cpu2006", "emerging"};

/** The benchmarks of suite @p name (one of kSuiteNames); any other
 *  name is a usage error. */
std::vector<suites::BenchmarkInfo>
namedSuite(const std::string &name)
{
    if (name == kSuiteNames[0])
        return suites::spec2017();
    if (name == kSuiteNames[1])
        return suites::spec2006();
    if (name == kSuiteNames[2])
        return suites::emergingBenchmarks();
    usage(1);
}

int
cmdList(const CliOptions &opts)
{
    const std::vector<suites::BenchmarkInfo> list =
        namedSuite(opts.args.empty() ? "cpu2017" : opts.args[0]);

    core::TextTable table({"Benchmark", "Category", "Domain",
                           "Language", "Icount (B)", "New in 2017"});
    for (const suites::BenchmarkInfo &b : list) {
        table.addRow({b.name, suites::categoryName(b.category),
                      suites::domainName(b.domain),
                      suites::languageName(b.language),
                      core::TextTable::num(
                          b.profile.dynamic_instructions_billions, 0),
                      b.new_in_2017 ? "yes" : ""});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdMachines(const CliOptions &)
{
    core::TextTable table({"Machine", "Short name", "ISA", "GHz", "L1D",
                           "L2", "LLC", "Predictor"});
    for (const uarch::MachineConfig &m : suites::profilingMachines()) {
        table.addRow(
            {m.name, m.short_name, uarch::isaName(m.isa),
             core::TextTable::num(m.frequency_ghz, 2),
             std::to_string(m.caches.l1d.size_bytes / 1024) + "K",
             std::to_string(m.caches.l2.size_bytes / 1024) + "K",
             m.caches.l3 ? std::to_string(m.caches.l3->size_bytes /
                                          (1024 * 1024)) +
                               "M"
                         : "none",
             uarch::predictorKindName(m.predictor)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdCharacterize(const CliOptions &opts)
{
    core::ServiceContext context(serviceConfig(opts));
    core::QueryOutcome outcome =
        core::runCharacterizeQuery(context, opts.args);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdMemory(const CliOptions &opts)
{
    core::ServiceContext context(
        serviceConfig(opts, suites::memoryCentricMachines()));
    core::QueryOutcome outcome = core::runMemoryQuery(context, opts.args);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdSubset(const CliOptions &opts)
{
    std::vector<suites::BenchmarkInfo> suite;
    suites::Category category;
    if (!core::resolveCategory(opts.args[0], suite, category))
        usage(1);
    std::size_t k = 3;
    if (opts.args.size() > 1 && !parsePositional("k", opts.args[1], k))
        return 1;

    core::ServiceContext context(serviceConfig(opts));
    core::QueryOutcome outcome =
        core::runSubsetQuery(context, opts.args[0], k);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdInputs(const CliOptions &opts)
{
    if (opts.args[0] != "int" && opts.args[0] != "fp")
        usage(1);
    core::ServiceContext context(serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    auto groups = opts.args[0] == "fp" ? suites::inputSetGroupsFp()
                                       : suites::inputSetGroupsInt();
    core::InputSetAnalysis analysis =
        core::analyzeInputSets(characterizer, groups);
    core::TextTable table({"Benchmark", "Representative input",
                           "Group spread"});
    for (const core::RepresentativeInput &rep :
         analysis.representatives) {
        table.addRow({rep.benchmark,
                      std::to_string(rep.input_index),
                      core::TextTable::num(rep.group_spread)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdCoverage(const CliOptions &opts)
{
    std::vector<suites::BenchmarkInfo> candidates;
    for (const std::string &name : opts.args) {
        const suites::BenchmarkInfo *benchmark = lookup(name);
        if (!benchmark) {
            std::fprintf(stderr, "unknown benchmark: %s\n",
                         name.c_str());
            return 1;
        }
        candidates.push_back(*benchmark);
    }
    core::ServiceContext context(serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    auto verdicts = core::coverageAnalysis(
        characterizer, suites::spec2017(), candidates);
    core::TextTable table({"Workload", "Nearest CPU2017", "Distance",
                           "Covered?"});
    for (const core::CoverageVerdict &v : verdicts)
        table.addRow({v.benchmark, v.nearest,
                      core::TextTable::num(v.nn_distance),
                      v.covered ? "yes" : "NO"});
    std::fputs(table.render().c_str(), stdout);
    return 0;
}

int
cmdSensitivity(const CliOptions &opts)
{
    if (!core::isSensitivityMetric(opts.args[0]))
        usage(1);
    core::ServiceContext context(
        serviceConfig(opts, suites::sensitivityMachines()));
    core::QueryOutcome outcome =
        core::runSensitivityQuery(context, opts.args[0]);
    if (!outcome.ok) {
        std::fprintf(stderr, "%s\n", outcome.error.c_str());
        return 1;
    }
    std::fputs(outcome.output.c_str(), stdout);
    return 0;
}

int
cmdExport(const CliOptions &opts)
{
    const std::vector<suites::BenchmarkInfo> list = namedSuite(opts.args[0]);

    core::ServiceContext context(serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    stats::Matrix features = characterizer.featureMatrix(list);

    if (opts.args.size() > 1) {
        std::ofstream file(opts.args[1]);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.args[1].c_str());
            return 1;
        }
        core::writeCsv(file, suites::benchmarkNames(list),
                       characterizer.featureNames(), features);
        std::printf("wrote %zu rows x %zu features to %s\n",
                    features.rows(), features.cols(),
                    opts.args[1].c_str());
    } else {
        core::writeCsv(std::cout, suites::benchmarkNames(list),
                       characterizer.featureNames(), features);
    }
    return 0;
}

int
cmdReport(const CliOptions &opts)
{
    std::vector<suites::BenchmarkInfo> suite;
    core::SuiteReportOptions report;
    const std::string &which = opts.args[0];
    if (!core::resolveCategory(which, suite, report.validation_category))
        usage(1);
    report.title = "SpecLens report: SPEC CPU2017 " + which;

    core::ServiceContext context(serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    if (opts.args.size() > 1) {
        std::ofstream file(opts.args[1]);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n",
                         opts.args[1].c_str());
            return 1;
        }
        core::writeSuiteReport(file, characterizer, suite, report);
        std::printf("wrote report to %s\n", opts.args[1].c_str());
    } else {
        core::writeSuiteReport(std::cout, characterizer, suite,
                               report);
    }
    return 0;
}

int
cmdSimpoints(const CliOptions &opts)
{
    const suites::BenchmarkInfo *benchmark = lookup(opts.args[0]);
    if (!benchmark) {
        std::fprintf(stderr, "unknown benchmark: %s\n",
                     opts.args[0].c_str());
        return 1;
    }
    std::size_t phases = 8;
    std::size_t clusters = 3;
    if (opts.args.size() > 1 &&
        !parsePositional("phases", opts.args[1], phases))
        return 1;
    if (opts.args.size() > 2 &&
        !parsePositional("clusters", opts.args[2], clusters))
        return 1;
    if (phases < 1 || clusters < 1 || clusters > phases) {
        std::fprintf(stderr,
                     "need phases >= 1 and 1 <= clusters <= phases\n");
        return 1;
    }

    trace::PhasedWorkload workload =
        trace::derivePhases(benchmark->profile, phases, 0.35);
    core::SimPointConfig config;
    config.clusters = clusters;
    config.instructions = opts.instructions;
    config.warmup = opts.warmup;
    core::ServiceContext context(
        serviceConfig(opts, {suites::skylakeMachine()}));
    core::SimPointResult result = core::simpointEstimate(
        workload, suites::skylakeMachine(), config, context.store());

    std::printf("%s as %zu phases, %zu representative(s):\n",
                benchmark->name.c_str(), phases,
                result.representatives.size());
    for (std::size_t i = 0; i < result.representatives.size(); ++i) {
        std::printf("  phase %zu carries %.0f%% of the run\n",
                    result.representatives[i] + 1,
                    100.0 * result.weights[i]);
    }
    std::printf("full CPI %.3f vs estimate %.3f (error %.1f%%), "
                "simulating %.0f%% of the run\n",
                result.full_cpi, result.estimated_cpi,
                result.cpi_error_pct,
                100.0 * result.simulated_fraction);
    return 0;
}

/**
 * `campaign run [suite]`: populate the store with a full
 * characterization of the named suite(s) over the seven Table IV
 * machines.  Stdout reports only the deterministic campaign shape;
 * the cold/warm reuse numbers go to stderr with the store summary,
 * so repeat runs stay byte-identical on stdout.
 */
int
cmdCampaignRun(const CliOptions &opts)
{
    std::string which =
        opts.args.size() > 1 ? opts.args[1] : std::string("cpu2017");
    std::vector<std::vector<suites::BenchmarkInfo>> suite_sets;
    if (which == "all")
        for (const char *name : kSuiteNames)
            suite_sets.push_back(namedSuite(name));
    else
        suite_sets.push_back(namedSuite(which));

    core::ServiceContext context(serviceConfig(opts));
    core::Characterizer &characterizer =
        context.characterizerFor(context.profilingMachines());
    std::size_t pairs = 0;
    for (const auto &suite : suite_sets) {
        characterizer.prepare(suite);
        pairs += suite.size() * characterizer.machines().size();
    }
    std::printf("campaign %s: %zu (benchmark, machine) pairs ready\n",
                which.c_str(), pairs);
    return 0;
}

/** `campaign info`: describe and verify every store entry (reads only). */
int
cmdCampaignInfo(const CliOptions &opts)
{
    core::StoreScan scan = core::scanStore(opts.store_dir);
    if (!scan.found) {
        std::fprintf(stderr, "error: no store at %s\n",
                     opts.store_dir.c_str());
        return 1;
    }

    core::TextTable table({"Entry", "Benchmark", "Machine", "Window",
                           "Salt", "Phases", "Status"});
    std::size_t healthy = 0;
    for (const core::StoreEntryInfo &info : scan.entries) {
        bool ok = info.status == core::StoreStatus::Hit;
        healthy += ok ? 1 : 0;
        table.addRow(
            {info.filename, info.benchmark, info.machine,
             std::to_string(info.instructions) + "+" +
                 std::to_string(info.warmup),
             std::to_string(info.seed_salt),
             info.phases ? std::to_string(info.phases) : std::string("-"),
             ok ? "ok" : core::storeStatusName(info.status) +
                             " (" + info.detail + ")"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("%zu entries, %zu healthy, %zu inconsistent\n",
                scan.entries.size(), healthy, scan.entries.size() - healthy);
    std::printf("layout: %zu shards\n", core::kStoreShardCount);
    return healthy == scan.entries.size() ? 0 : 1;
}

/**
 * `campaign manifest`: read, validate (obs::checkManifest, the schema
 * lint rule SL022 checks) and summarise the run manifest a run left
 * next to the store.  Exit 1 when the manifest is missing, is not
 * well-formed JSON or breaks the schema — the CI metrics smoke stage
 * is built on this being a real check.
 */
int
cmdCampaignManifest(const CliOptions &opts)
{
    std::string path =
        opts.store_dir + "/" + obs::kManifestFileName;
    obs::JsonFile manifest = obs::readJsonFile(path);
    if (!manifest.present) {
        std::fprintf(stderr,
                     "error: no manifest at %s (run a campaign with "
                     "--store first)\n",
                     path.c_str());
        return 1;
    }
    if (!manifest.doc) {
        std::fprintf(stderr,
                     "error: %s is not well-formed JSON\n",
                     path.c_str());
        return 1;
    }
    bool conforms = true;
    for (const obs::ManifestDefect &defect :
         obs::checkManifest(*manifest.doc, core::kStoreEngineVersion)) {
        std::fprintf(stderr, "%s: manifest %s: %s\n",
                     defect.warning ? "warning" : "error", path.c_str(),
                     defect.message.c_str());
        conforms = conforms && defect.warning;
    }
    if (!conforms)
        return 1;
    std::printf("manifest %s: well-formed JSON, schema v1 keys "
                "present (%zu bytes)\n",
                path.c_str(), manifest.bytes);
    return 0;
}

/** `campaign invalidate [stale]`: delete all (or only bad) entries. */
int
cmdCampaignInvalidate(const CliOptions &opts)
{
    bool stale_only = opts.args.size() > 1 && opts.args[1] == "stale";
    if (opts.args.size() > 1 && !stale_only)
        usage(1);
    core::CampaignStore store(opts.store_dir);
    std::size_t removed =
        stale_only ? store.invalidateStale() : store.invalidate();
    std::printf("removed %zu %sentr%s from %s\n", removed,
                stale_only ? "inconsistent " : "",
                removed == 1 ? "y" : "ies", opts.store_dir.c_str());
    return 0;
}

// ----- serve / query ---------------------------------------------------

/** The live server, for the signal handlers (null outside cmdServe). */
std::atomic<serve::Server *> g_server{nullptr};

/** SIGINT/SIGTERM: begin a graceful drain (async-signal-safe). */
void
handleDrainSignal(int)
{
    serve::Server *server = g_server.load(std::memory_order_acquire);
    if (server)
        server->requestDrain();
}

int
cmdServe(const CliOptions &opts)
{
    serve::ServerConfig config;
    config.host = opts.host;
    config.port = opts.port;
    config.service = serviceConfig(opts);

    serve::Server server(config);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    g_server.store(&server, std::memory_order_release);
    std::signal(SIGINT, handleDrainSignal);
    std::signal(SIGTERM, handleDrainSignal);

    // Machine-parseable: scripts read the resolved (ephemeral) port
    // from this line.  Flush so a pipe reader sees it immediately.
    std::printf("[speclens-serve] listening host=%s port=%u\n",
                opts.host.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    server.serveForever();
    g_server.store(nullptr, std::memory_order_release);

    serve::ServerStats stats = server.stats();
    std::fprintf(stderr,
                 "[speclens-serve] drained requests=%zu errors=%zu "
                 "dropped=%zu\n",
                 stats.requests, stats.errors, stats.dropped);
    return 0;
}

int
cmdQuery(const CliOptions &opts)
{
    serve::Request request;
    serve::opFromName(opts.args[0], request.op); // known: a kCommands row
    if (opts.port == 0) {
        std::fprintf(stderr, "error: query requires --port N\n");
        return 1;
    }
    switch (request.op) {
    case serve::Op::Characterize:
    case serve::Op::Memory:
        request.benchmarks.assign(opts.args.begin() + 1,
                                  opts.args.end());
        break;
    case serve::Op::Subset:
        request.category = opts.args[1];
        if (opts.args.size() > 2 &&
            !parsePositional("k", opts.args[2], request.k))
            return 1;
        break;
    case serve::Op::Sensitivity:
        request.metric = opts.args[1];
        break;
    case serve::Op::Stats:
    case serve::Op::Shutdown:
        break;
    }

    serve::Client client;
    std::string error;
    if (!client.connect(opts.host, opts.port, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    serve::Response response;
    if (!client.call(request, &response, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    if (!response.ok) {
        std::fprintf(stderr, "%s\n", response.error.c_str());
        return 1;
    }
    std::fputs(response.output.c_str(), stdout);
    return 0;
}

/**
 * repro: render reproduced tables and figures (core/reproductions.h)
 * over one ServiceContext, so entries share every measurement.
 * Artifacts go to stdout, byte-stable between cold and warm stores;
 * per-entry and total wall times go to stderr.
 */
int
cmdRepro(const CliOptions &opts)
{
    const std::vector<core::Reproduction> &all = core::reproductions();
    if (opts.args.size() == 1 && opts.args[0] == "--list") {
        for (const core::Reproduction &entry : all)
            std::printf("%-30s %s\n", entry.name, entry.artifact);
        return 0;
    }

    std::vector<const core::Reproduction *> selected;
    if (opts.args.size() == 1 && opts.args[0] == "--all") {
        for (const core::Reproduction &entry : all)
            selected.push_back(&entry);
    } else {
        for (const std::string &name : opts.args) {
            const core::Reproduction *entry = core::findReproduction(name);
            if (!entry) {
                std::fprintf(stderr,
                             "error: repro: unknown reproduction '%s' "
                             "(see `speclens repro --list`)\n",
                             name.c_str());
                return 1;
            }
            selected.push_back(entry);
        }
    }
    // The reproduction window, not the CLI defaults; explicit flags win.
    CliOptions window = opts;
    if (!opts.instructions_set)
        window.instructions = core::kReproductionInstructions;
    if (!opts.warmup_set)
        window.warmup = core::kReproductionWarmup;
    core::ServiceContext context(serviceConfig(window));

    using Clock = std::chrono::steady_clock;
    auto elapsed_ms = [](Clock::time_point since) {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         since)
            .count();
    };
    const Clock::time_point start = Clock::now();
    for (const core::Reproduction *entry : selected) {
        const Clock::time_point entry_start = Clock::now();
        std::string text;
        try {
            text = entry->render(context);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: repro %s: %s\n", entry->name,
                         e.what());
            return 1;
        }
        std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
        std::fprintf(stderr, "[speclens-repro] %s %.1f ms\n", entry->name,
                     elapsed_ms(entry_start));
    }
    std::fprintf(stderr, "[speclens-repro] total %.1f ms\n",
                 elapsed_ms(start));
    return 0;
}

// ====================================================================
// audit: run the structural invariant prover over a pinned
// mini-campaign, then prove scheduling determinism by replaying the
// campaign across worker counts and seed salts.
// ====================================================================

/** The audit campaign: a pinned benchmark subset on every machine. */
std::vector<suites::BenchmarkInfo>
auditBenchmarks()
{
    // Every 7th CPU2017 entry: seven benchmarks spanning INT and FP,
    // small enough that the audited replay matrix (3 job counts x 2
    // salts) stays interactive.
    std::vector<suites::BenchmarkInfo> picked;
    const std::vector<suites::BenchmarkInfo> &all = suites::spec2017();
    for (std::size_t i = 0; i < all.size(); i += 7)
        picked.push_back(all[i]);
    return picked;
}

/**
 * Fingerprint of the full audit campaign run at @p jobs workers.
 * Results are memoised per Characterizer, so each call simulates the
 * whole campaign afresh on a fresh Characterizer, through the same
 * parallelFor fan-out a ServiceContext's characterizers use.
 */
std::uint64_t
campaignFingerprint(const std::vector<suites::BenchmarkInfo> &benchmarks,
                    const std::vector<uarch::MachineConfig> &machines,
                    const core::CharacterizationConfig &config)
{
    core::Characterizer characterizer(machines, config);
    std::vector<std::size_t> machine_indices;
    for (std::size_t m = 0; m < machines.size(); ++m)
        machine_indices.push_back(m);
    characterizer.prepare(benchmarks, machine_indices, config.jobs);
    stats::Fingerprinter fp;
    fp.tag("speclens-audit-campaign-v1");
    for (const suites::BenchmarkInfo &b : benchmarks)
        for (std::size_t m = 0; m < machines.size(); ++m)
            characterizer.simulation(b, m).hashInto(fp);
    return fp.value();
}

int
cmdAudit(const CliOptions &opts)
{
    // Pinned window unless overridden: large enough to exercise
    // prewarm, warm-up exclusion and sampled mid-run audit points,
    // small enough that 7 replays of the campaign stay fast.
    uarch::SimulationConfig window;
    window.instructions =
        opts.instructions_set ? opts.instructions : 60'000;
    window.warmup = opts.warmup_set ? opts.warmup : 20'000;
    window.seed_salt = opts.seed_salt;

    const std::vector<suites::BenchmarkInfo> benchmarks =
        auditBenchmarks();
    const std::vector<uarch::MachineConfig> machines =
        suites::profilingMachines();

    // -- Stage 1: invariant prover, forced on regardless of build. --
    std::uint64_t audits = 0;
    std::size_t violations = 0;
    std::size_t simulations = 0;
    for (const suites::BenchmarkInfo &b : benchmarks) {
        for (const uarch::MachineConfig &machine : machines) {
            verify::AuditTrail trail;
            (void)uarch::simulate(b.profile, machine, window, &trail);
            ++simulations;
            audits += trail.audits;
            for (const verify::Violation &v : trail.violations)
                std::fprintf(stderr, "audit: %s on %s: %s\n",
                             b.name.c_str(), machine.name.c_str(),
                             verify::renderViolation(v).c_str());
            violations += trail.violations.size();
        }
    }
    std::printf("invariants: %zu simulations, %llu audit points, %zu "
                "violations\n",
                simulations, static_cast<unsigned long long>(audits),
                violations);

    // -- Stage 2: determinism across worker counts and seed salts. --
    // The campaign contract says results are bit-identical for any
    // job count; replay the same configuration at 1, 2 and
    // one-per-hardware-thread workers and diff full-result
    // fingerprints.  Two salts prove the salt both perturbs results
    // and stays deterministic itself.
    bool deterministic = true;
    std::vector<std::uint64_t> salt_fingerprints;
    for (std::uint64_t salt_offset : {0ull, 1ull}) {
        core::CharacterizationConfig config;
        config.instructions = window.instructions;
        config.warmup = window.warmup;
        config.seed_salt = opts.seed_salt + salt_offset;
        std::uint64_t first = 0;
        bool agree = true;
        for (std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{0}}) {
            config.jobs = jobs;
            std::uint64_t fp =
                campaignFingerprint(benchmarks, machines, config);
            if (jobs == 1)
                first = fp;
            else if (fp != first) {
                agree = false;
                std::fprintf(stderr,
                             "audit: salt %llu: --jobs %zu diverged: "
                             "%s != %s\n",
                             static_cast<unsigned long long>(
                                 config.seed_salt),
                             jobs, stats::hex16(fp).c_str(),
                             stats::hex16(first).c_str());
            }
        }
        std::printf("determinism: salt %llu: jobs {1, 2, auto} %s "
                    "(fingerprint %s)\n",
                    static_cast<unsigned long long>(config.seed_salt),
                    agree ? "agree" : "DIVERGED",
                    stats::hex16(first).c_str());
        deterministic = deterministic && agree;
        salt_fingerprints.push_back(first);
    }
    if (salt_fingerprints[0] == salt_fingerprints[1]) {
        std::fprintf(stderr,
                     "audit: distinct seed salts produced identical "
                     "results; the salt is not reaching the "
                     "generator\n");
        deterministic = false;
    }

    bool ok = violations == 0 && deterministic;
    std::printf("audit: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

int
cmdLint(const CliOptions &opts)
{
    const lint::ReportFormat format = lint::reportFormatFromName(opts.format);
    const lint::Severity min_severity =
        lint::severityFromName(opts.severity);

    lint::LintContext context = lint::shippedContext();
    context.deep = opts.deep;
    context.instructions = opts.instructions;
    context.warmup = opts.warmup;
    context.jobs = opts.jobs;
    context.store_dir = opts.store_dir;

    lint::LintReport report = lint::Linter().run(context);
    std::string rendered =
        format == lint::ReportFormat::Json
            ? lint::renderJson(report, min_severity)
            : lint::renderText(report, min_severity);
    std::fputs(rendered.c_str(), stdout);

    // Exit code reflects the unfiltered error count: a severity filter
    // changes what is displayed, never what fails.
    return report.clean() ? 0 : 1;
}

/** Any number of positionals. */
constexpr std::size_t kVariadic = SIZE_MAX;

/**
 * One command line: its name (a command with subcommands has a row per
 * subcommand, named "command subcommand"), the number of positionals
 * it takes after that name, and its handler, which sees every
 * positional, the subcommand included.
 */
struct Command
{
    const char *name;
    std::size_t min_args;
    std::size_t max_args;
    int (*run)(const CliOptions &);
    bool needs_store = false;
};

const Command kCommands[] = {
    {"list", 0, 1, cmdList},
    {"machines", 0, 0, cmdMachines},
    {"characterize", 1, kVariadic, cmdCharacterize},
    {"memory", 1, kVariadic, cmdMemory},
    {"subset", 1, 2, cmdSubset},
    {"inputs", 1, 1, cmdInputs},
    {"coverage", 1, kVariadic, cmdCoverage},
    {"sensitivity", 1, 1, cmdSensitivity},
    {"export", 1, 2, cmdExport},
    {"report", 1, 2, cmdReport},
    {"simpoints", 1, 3, cmdSimpoints},
    {"campaign run", 0, 1, cmdCampaignRun, true},
    {"campaign info", 0, 0, cmdCampaignInfo, true},
    {"campaign invalidate", 0, 1, cmdCampaignInvalidate, true},
    {"campaign manifest", 0, 0, cmdCampaignManifest, true},
    {"serve", 0, 0, cmdServe},
    {"query characterize", 1, kVariadic, cmdQuery},
    {"query memory", 1, kVariadic, cmdQuery},
    {"query subset", 1, 2, cmdQuery},
    {"query sensitivity", 1, 1, cmdQuery},
    {"query stats", 0, 0, cmdQuery},
    {"query shutdown", 0, 0, cmdQuery},
    {"repro", 1, kVariadic, cmdRepro},
    {"audit", 0, 0, cmdAudit},
    {"lint", 0, 0, cmdLint},
};

/**
 * Resolve @p opts to its row and check the positional count once, for
 * every command: too few is a usage error, and a stray token (more
 * likely a misspelled flag than an argument) is named and exits 1
 * rather than being ignored.
 */
int
dispatch(const CliOptions &opts)
{
    std::string name = opts.command;
    std::size_t named = 0; // positionals that are part of the name
    const std::string prefix = name + " ";
    for (const Command &command : kCommands) {
        if (!std::string_view(command.name).starts_with(prefix))
            continue;
        if (opts.args.empty()) {
            std::fprintf(stderr, "error: %s needs a subcommand\n",
                         name.c_str());
            usage(1);
        }
        name = prefix + opts.args[0];
        named = 1;
        break;
    }
    for (const Command &command : kCommands) {
        if (name != command.name)
            continue;
        const std::size_t given = opts.args.size() - named;
        if (given < command.min_args) {
            std::fprintf(stderr,
                         "error: %s needs at least %zu argument%s\n",
                         name.c_str(), command.min_args,
                         command.min_args == 1 ? "" : "s");
            usage(1);
        }
        if (given > command.max_args) {
            const std::string most =
                command.max_args == 0
                    ? std::string("no arguments")
                    : "at most " + std::to_string(command.max_args) +
                          (command.max_args == 1 ? " argument"
                                                 : " arguments");
            std::fprintf(stderr, "error: %s takes %s, got stray '%s'\n",
                         name.c_str(), most.c_str(),
                         opts.args[named + command.max_args].c_str());
            return 1;
        }
        if (command.needs_store && opts.store_dir.empty()) {
            std::fprintf(stderr, "error: %s requires --store DIR\n",
                         name.c_str());
            return 1;
        }
        return command.run(opts);
    }
    std::fprintf(stderr, "unknown command: %s\n", name.c_str());
    usage(1);
}

} // namespace

int
main(int argc, char **argv)
{
    // One boundary for every command: a model or I/O error a command
    // does not handle itself is a diagnostic and exit 1, never an abort.
    try {
        CliOptions opts = parse(argc, argv);
        if (opts.command == "help" || opts.command == "--help")
            usage(0);
        return dispatch(opts);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "speclens: %s\n", ex.what());
        return 1;
    }
}
