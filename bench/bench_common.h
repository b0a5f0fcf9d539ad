/**
 * @file
 * Shared plumbing for the table/figure reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * They share: command-line parsing for the simulation window, the
 * ServiceConfig a bench builds its core::ServiceContext from (the
 * context pools a memoised Characterizer per machine set, optionally
 * backed by the persistent `--store` artifact cache), and small
 * printing conventions.
 *
 * With `--store DIR`, the first run of any bench populates the
 * directory and every later run of *any* bench or CLI command reusing
 * it performs zero simulations while printing byte-identical stdout —
 * the store summary goes to stderr precisely so that holds.
 */

#ifndef SPECLENS_BENCH_BENCH_COMMON_H
#define SPECLENS_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/characterization.h"
#include "core/option_parse.h"
#include "core/service_context.h"
#include "obs/export.h"
#include "suites/machines.h"

namespace speclens {
namespace bench {

/** Options shared by all reproduction benches. */
struct BenchOptions
{
    /** Measured instructions per (benchmark, machine) pair. */
    std::uint64_t instructions = 150'000;

    /** Warm-up instructions. */
    std::uint64_t warmup = 40'000;

    /** Simulation worker threads (0 = one per hardware thread). */
    std::size_t jobs = 0;

    /** Seed salt forwarded to the trace generators. */
    std::uint64_t seed_salt = 0;

    /** Artifact-store directory; empty = no persistence. */
    std::string store_dir;

    /** Metrics output file; empty = no metrics export. */
    std::string metrics_path;

    /** Metrics export format (--metrics-format prom|json). */
    obs::ExportFormat metrics_format = obs::ExportFormat::Prometheus;
};

/**
 * Value of a numeric flag: @p argv[i + 1], advanced past.  Exits with
 * a diagnostic when the value is missing, non-numeric, has trailing
 * garbage, or overflows.
 */
inline std::uint64_t
numericFlagValue(const char *flag, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "error: %s requires a value (try --help)\n", flag);
        std::exit(1);
    }
    const char *text = argv[++i];
    std::uint64_t value = 0;
    core::ParseStatus status = core::parseUnsigned(text, value);
    if (status != core::ParseStatus::Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s': %s (try --help)\n",
                     flag, text,
                     core::parseStatusDetail(status).c_str());
        std::exit(1);
    }
    return value;
}

/**
 * Value of a string flag: @p argv[i + 1], advanced past.  Exits with a
 * diagnostic when the value is missing.
 */
inline const char *
stringFlagValue(const char *flag, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "error: %s requires a value (try --help)\n", flag);
        std::exit(1);
    }
    return argv[++i];
}

/**
 * Parse --instructions/--warmup/--jobs/--seed-salt/--store; exits on
 * --help.  Unknown flags and malformed values are hard errors
 * (exit 1), never silently ignored.
 */
inline BenchOptions
parseOptions(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            std::printf(
                "usage: %s [--instructions N] [--warmup N] [--jobs N]\n"
                "       [--seed-salt N] [--store DIR] [--metrics FILE]\n"
                "       [--metrics-format prom|json]\n"
                "  --instructions  measured instructions per pair "
                "(default %llu)\n"
                "  --warmup        warm-up instructions (default %llu)\n"
                "  --jobs          simulation worker threads "
                "(default: one per hardware thread)\n"
                "  --seed-salt     extra seed entropy for independent "
                "re-runs (default 0)\n"
                "  --store         persistent artifact store directory "
                "(reused results skip simulation)\n"
                "  --metrics       write a metrics snapshot to FILE at "
                "exit (stdout is never touched)\n"
                "  --metrics-format  prom (default) or json\n",
                argv[0],
                static_cast<unsigned long long>(opts.instructions),
                static_cast<unsigned long long>(opts.warmup));
            std::exit(0);
        }
        if (std::strcmp(argv[i], "--instructions") == 0) {
            opts.instructions =
                numericFlagValue("--instructions", argc, argv, i);
        } else if (std::strcmp(argv[i], "--warmup") == 0) {
            opts.warmup = numericFlagValue("--warmup", argc, argv, i);
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            opts.jobs = static_cast<std::size_t>(
                numericFlagValue("--jobs", argc, argv, i));
        } else if (std::strcmp(argv[i], "--seed-salt") == 0) {
            opts.seed_salt =
                numericFlagValue("--seed-salt", argc, argv, i);
        } else if (std::strcmp(argv[i], "--store") == 0) {
            opts.store_dir =
                stringFlagValue("--store", argc, argv, i);
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            opts.metrics_path =
                stringFlagValue("--metrics", argc, argv, i);
        } else if (std::strcmp(argv[i], "--metrics-format") == 0) {
            const char *name =
                stringFlagValue("--metrics-format", argc, argv, i);
            try {
                opts.metrics_format = obs::exportFormatFromName(name);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "error: %s (try --help)\n",
                             e.what());
                std::exit(1);
            }
        } else {
            std::fprintf(stderr, "unknown option: %s (try --help)\n",
                         argv[i]);
            std::exit(1);
        }
    }
    if (!opts.metrics_path.empty())
        obs::exportAtExit(opts.metrics_path, opts.metrics_format);
    return opts;
}

/**
 * Service configuration from the parsed options; @p machines is the
 * set the bench measures on (what its run manifest describes).
 */
inline core::ServiceConfig
serviceConfig(const BenchOptions &opts,
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

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace bench
} // namespace speclens

#endif // SPECLENS_BENCH_BENCH_COMMON_H
