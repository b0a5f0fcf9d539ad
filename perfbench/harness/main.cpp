/**
 * @file
 * speclens_perfbench — the SpecLens benchmark harness.
 *
 *   speclens_perfbench --workload repro-cold|repro-warm|serve-warm
 *                      --seed N --seconds S --trace 0|1 --work DIR
 *
 * Workloads (each drives the public SpecLens API from this one process,
 * with at most kJobs campaign threads and kClients connections; the
 * seed is the simulation seed_salt and, in serve-warm, also shuffles
 * the request order):
 *
 *  - repro-cold: every paper reproduction from an empty store, a fresh
 *    ServiceContext per pass.
 *  - repro-warm: the same passes against a store a fixture filled; the
 *    fixture runs in a forked child, outside the timed window and the
 *    measured process's peak RSS.
 *  - serve-warm: a closed loop of kClients connections to an in-process
 *    serve::Server over the fixture store.
 *
 * An operation is one reproduction pass (repro-*) or one request
 * (serve-warm).  With --trace 0 the run reports the end-to-end metrics;
 * with --trace 1 every other operation is traced and the run reports
 * the per-layer metrics, derived from spans the harness places around
 * its calls into each layer plus the attribution replays of replay.h.
 * Spans are written to DIR/spans-<workload>.csv when the run ends.
 *
 * Every run checks its outputs (see the gates in runRepro/runServe) and
 * prints, as the last line of stdout, one JSON object:
 *   {"correct": bool, "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
 * Exit status is 0 when that line was printed, 1 when the run could not
 * be carried out, 2 on bad arguments.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "core/artifact_store.h"
#include "core/service_context.h"
#include "mix.h"
#include "obs/metrics.h"
#include "percentile.h"
#include "replay.h"
#include "repro.h"
#include "selftest.h"
#include "serve/server.h"
#include "serve_load.h"
#include "tracer.h"

using namespace perfbench;
namespace core = speclens::core;
namespace serve = speclens::serve;
namespace fs = std::filesystem;

namespace {

/** Set-ups timed per run; setup_s is their median. */
constexpr std::size_t kSetupRepeats = 10;

/** Calibration runs before and after each timed region. */
constexpr std::size_t kCalibrationRuns = 3;

/** Repeats of the stats replay; each stage reports the median. */
constexpr std::size_t kStatsRepeats = 5;

/** Mix blocks per client schedule (cycled when the window outlasts it). */
constexpr std::size_t kScheduleBlocks = 400;

/** Operation ids of the replays (pass and request ids stay below). */
constexpr std::uint32_t kReplayOp = 0x7f000000u;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string work;
};

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (!text || !*text)
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || text[0] == '-')
        return false;
    out = value;
    return true;
}

bool
parseOptions(int argc, char **argv, Options &opts)
{
    bool seed = false, seconds = false, trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *value = argv[i + 1];
        std::uint64_t number = 0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--work") {
            opts.work = value;
        } else if (!parseUnsigned(value, number)) {
            return false;
        } else if (flag == "--seed") {
            opts.seed = number;
            seed = true;
        } else if (flag == "--seconds") {
            opts.seconds = static_cast<double>(number);
            seconds = number > 0;
        } else if (flag == "--trace") {
            opts.trace = number == 1;
            trace = number <= 1;
        } else {
            return false;
        }
    }
    bool known = opts.workload == "repro-cold" ||
                 opts.workload == "repro-warm" ||
                 opts.workload == "serve-warm";
    return argc % 2 == 1 && known && seed && seconds && trace &&
           !opts.work.empty();
}

/** Metrics in insertion order, rendered as the result's "metrics". */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof value, "%.10g", entries_[i].value);
            out += (i ? ", \"" : "\"") + entries_[i].name +
                   "\": {\"value\": " + value + ", \"unit\": \"" +
                   entries_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Gate tally: each operation or global check attempted, and failures. */
struct Gates
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        add(1, ok ? 0 : 1, what);
    }

    /** @p n operations of which @p bad failed the check @p what. */
    void
    add(std::size_t n, std::size_t bad, const std::string &what)
    {
        attempted += n;
        failed += bad;
        if (bad)
            std::fprintf(stderr, "perfbench: gate failed (%zu of %zu): %s\n",
                         bad, n, what.c_str());
    }
};

double
seconds(std::uint64_t from_ns, std::uint64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

double
maxOf(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

std::vector<double>
scaled(std::vector<double> values, double factor)
{
    for (double &v : values)
        v *= factor;
    return values;
}

/** Median of a sample list (0 when empty). */
double
med(const std::vector<double> &values)
{
    return median(values).value;
}

/** Per-operation sums of the spans named @p name. */
std::vector<double>
perOpTotals(const Tracer &tracer, const std::string &name)
{
    std::vector<std::string> names = tracer.names();
    auto it = std::find(names.begin(), names.end(), name);
    std::map<std::uint32_t, double> totals;
    if (it != names.end()) {
        auto id = static_cast<std::uint32_t>(it - names.begin());
        for (const SpanRecord &span : tracer.spans())
            if (span.name == id)
                totals[span.op] += seconds(span.start_ns, span.end_ns);
    }
    std::vector<double> out;
    for (const auto &[op, total] : totals)
        out.push_back(total);
    return out;
}

/** Median share of each @p root span's time not covered by child spans. */
double
rootSelfShare(const Tracer &tracer, const std::string &root)
{
    std::vector<std::string> names = tracer.names();
    auto it = std::find(names.begin(), names.end(), root);
    if (it == names.end())
        return 0.0;
    auto id = static_cast<std::uint32_t>(it - names.begin());
    std::vector<SpanRecord> spans = tracer.spans();
    std::vector<std::uint64_t> self = selfTimes(spans);
    std::vector<double> shares;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == id && spans[i].end_ns > spans[i].start_ns)
            shares.push_back(static_cast<double>(self[i]) /
                             static_cast<double>(spans[i].end_ns -
                                                 spans[i].start_ns));
    return med(shares);
}

/**
 * Peak resident set size of this process image in MiB (VmHWM): since
 * exec, or since the last resetPeakRss().  getrusage() would also count
 * the launcher's footprint, which Linux carries across exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * Flush dirty file data and pending metadata before a timed region, so
 * writeback and deletes left by earlier work do not land inside it.
 */
void
settleDisk()
{
    ::sync();
}

/** Restart the peak at the current RSS (Linux clear_refs, value 5). */
void
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

std::uint64_t
registryCounter(const char *name)
{
    return speclens::obs::Registry::global().counter(name).value();
}

std::size_t
rejected(const core::StoreCounters &c)
{
    return c.corrupt + c.stale_version + c.fingerprint_mismatch +
           c.orphaned_temp;
}

/** Print a fact line (not a metric) on stdout. */
void
fact(const std::string &text)
{
    std::printf("perfbench: %s\n", text.c_str());
}

std::string
fmt(const char *format, double value)
{
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, format, value);
    return buffer;
}

/**
 * Build the warm-store fixture in a forked child: one cold reproduction
 * pass into @p store_dir, its output written to @p output_path.  Runs
 * before the parent starts any thread.  Returns the child's wall time,
 * or a negative value when the child failed.
 */
double
buildFixture(const Options &opts, const std::string &store_dir,
             const std::string &output_path)
{
    std::fflush(stdout);
    std::fflush(stderr);
    std::uint64_t start = nowNs();
    pid_t pid = fork();
    if (pid < 0)
        return -1.0;
    if (pid == 0) {
        int code = 1;
        try {
            core::ServiceContext context(serviceConfig(store_dir, opts.seed));
            std::string output = reproduce(context, nullptr, 0);
            std::ofstream file(output_path, std::ios::binary);
            file << output;
            bool complete =
                context.simulationsRun() ==
                campaignSimulations(campaign(context),
                                    context.config().characterization);
            code = file && complete ? 0 : 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: fixture: %s\n", e.what());
        }
        std::fflush(stderr);
        _exit(code);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    double elapsed = seconds(start, nowNs());
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? elapsed : -1.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
}

/** Everything one run reports. */
struct Report
{
    Gates gates;
    Metrics metrics;
};

/** Per-layer metrics every workload prints, defaulted to 0. */
class LayerMetrics
{
  public:
    void set(const std::string &name, double value) { values_[name] = value; }

    void
    emit(Metrics &out) const
    {
        for (const auto &[name, unit] : kLayers) {
            auto it = values_.find(name);
            out.set(name, it == values_.end() ? 0.0 : it->second, unit);
        }
    }

    /** Per-layer metric names and units, in BENCHMARK.json order. */
    static const std::vector<std::pair<std::string, std::string>> kLayers;

  private:
    std::map<std::string, double> values_;
};

const std::vector<std::pair<std::string, std::string>> LayerMetrics::kLayers =
    {
        {"trace.fill_s", "s"},
        {"trace.fill_ns_per_record", "ns"},
        {"trace.fill_share", "ratio"},
        {"uarch.simulate_s", "s"},
        {"uarch.ns_per_record", "ns"},
        {"uarch.simulations", "count"},
        {"uarch.prewarm_s", "s"},
        {"uarch.prewarm_analytic_ratio", "ratio"},
        {"uarch.predictor_batch_s", "s"},
        {"uarch.structures_residual_s", "s"},
        {"core.prepare_s", "s"},
        {"core.pair_s_max", "s"},
        {"core.parallel_efficiency", "ratio"},
        {"core.query.characterize_s", "s"},
        {"core.query.subset_s", "s"},
        {"core.query.sensitivity_s", "s"},
        {"core.query.memory_s", "s"},
        {"core.inputs_s", "s"},
        {"core.coverage_s", "s"},
        {"core.export_s", "s"},
        {"core.report_s", "s"},
        {"core.memo_hits", "count"},
        {"core.dedup_shared", "count"},
        {"core.context_s", "s"},
        {"stats.zscore_s", "s"},
        {"stats.pca_s", "s"},
        {"stats.distances_s", "s"},
        {"stats.agglomerate_s", "s"},
        {"store.open_s", "s"},
        {"store.load_us_p50", "us"},
        {"store.load_us_p90", "us"},
        {"store.save_us_p50", "us"},
        {"store.hits", "count"},
        {"store.lru_hits", "count"},
        {"store.rejected", "count"},
        {"serve.dispatch_ms_p50", "ms"},
        {"serve.dispatch_ms_p90", "ms"},
        {"serve.transport_ms_p50", "ms"},
        {"serve.codec_us", "us"},
        {"serve.requests", "count"},
        {"serve.errors", "count"},
        {"bench.tracing_overhead_share", "ratio"},
        {"bench.op_self_share", "ratio"},
};

/**
 * How much slower than the reference host (calibrate.h) the host ran
 * around one timed region: the median of kCalibrationRuns calibrations
 * before the region and as many after, on the number of threads the
 * region keeps busy, over kReferenceCalibrationSeconds.  Construct it
 * right before the region and call end() right after.
 */
class TimeScale
{
  public:
    explicit TimeScale(std::size_t threads) : threads_(threads) { take(); }

    /** Calibrate after the region and return the scale. */
    double
    end()
    {
        take();
        return med(samples_) / kReferenceCalibrationSeconds;
    }

  private:
    void
    take()
    {
        for (std::size_t i = 0; i < kCalibrationRuns; ++i)
            samples_.push_back(calibrationSeconds(threads_));
    }

    std::size_t threads_;
    std::vector<double> samples_;
};

/** Set-up times of one run and the time scale they were taken at. */
struct SetupTimes
{
    std::vector<double> seconds;
    double scale = 1.0;
};

/** Time kSetupRepeats calls of @p setup (each builds and tears down). */
template <typename Setup>
SetupTimes
timeSetups(Setup setup)
{
    SetupTimes out;
    TimeScale scale(1);
    for (std::size_t i = 0; i < kSetupRepeats; ++i)
        out.seconds.push_back(setup(i));
    out.scale = scale.end();
    return out;
}

/**
 * The end-to-end metrics of an untraced run.
 *
 * op_p50_ref_ms is the median of @p ref_op_ms: each operation time
 * divided by the TimeScale measured around that operation, i.e. the
 * time at the reference host speed.  The host this benchmark was built
 * on runs the same code up to 2x slower from one minute to the next,
 * and from one core to another, which moves unscaled times of
 * CPU-bound operations across runs by more than any bound.  A
 * serve-warm request waits on TCP timers (about 88 ms of its round
 * trip) rather than on the CPU, so its time is not scaled.  setup_s is
 * the median set-up divided by its own scale.  Unscaled medians
 * (@p op_ms) are printed as facts.
 */
void
endToEnd(const std::vector<double> &op_ms,
         const std::vector<double> &ref_op_ms, const SetupTimes &setup,
         double rss_mb, Report &report)
{
    fact(describe("op_p50_ref_ms", median(ref_op_ms)) + "; " +
         describe("unscaled op_p50_ms", median(op_ms)));
    std::string samples;
    for (double s : setup.seconds)
        samples += fmt(" %.6f", s);
    fact(describe("unscaled setup_s median", median(setup.seconds)) +
         fmt("; time scale %.4f", setup.scale) + "; samples:" + samples);
    report.metrics.set("op_p50_ref_ms", med(ref_op_ms), "ms");
    report.metrics.set("setup_s", med(setup.seconds) / setup.scale, "s");
    report.metrics.set("peak_rss_mb", rss_mb, "MB");
}

/**
 * Spans `store.open` and `core.context` around kSetupRepeats store opens
 * and ServiceContext constructions on the store state @p dir_for(i)
 * gives; their medians are store.open_s and core.context_s.
 */
template <typename DirFor>
void
replaySetup(const Options &opts, DirFor dir_for, Tracer &tracer,
            LayerMetrics &layers)
{
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        std::string dir = dir_for(i);
        Tracer::Scope span = Tracer::span(&tracer, "store.open", kReplayOp);
        core::CampaignStore store(dir);
    }
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        core::ServiceConfig config = serviceConfig(dir_for(i), opts.seed);
        Tracer::Scope span = Tracer::span(&tracer, "core.context", kReplayOp);
        core::ServiceContext context(config);
    }
    layers.set("store.open_s", med(tracer.durations("store.open")));
    layers.set("core.context_s", med(tracer.durations("core.context")));
}

/** Stats-stage medians of the stats replay. */
void
statsLayers(const Tracer &tracer, LayerMetrics &layers)
{
    for (const char *stage :
         {"stats.zscore", "stats.pca", "stats.distances", "stats.agglomerate"})
        layers.set(std::string(stage) + "_s",
                   med(perOpTotals(tracer, stage)));
}

/** store.load_us_p50/p90 and store.save_us_p50 of the store replay. */
void
storeLayers(const Tracer &tracer, LayerMetrics &layers)
{
    std::vector<double> load_us = scaled(tracer.durations("store.load"), 1e6);
    layers.set("store.load_us_p50", med(load_us));
    Quantile p90 = tail(load_us, 0.90);
    layers.set("store.load_us_p90", p90.reportable ? p90.value : 0.0);
    fact(describe("store.load_us_p90", p90));
    layers.set("store.save_us_p50",
               med(scaled(tracer.durations("store.save"), 1e6)));
}

/** Dump the run's spans to <work>/spans-<workload>.csv. */
void
writeSpans(const Options &opts, const Tracer &tracer)
{
    fs::path path = fs::path(opts.work) / ("spans-" + opts.workload + ".csv");
    if (!tracer.write(path.string()))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// ----- repro-cold / repro-warm ----------------------------------------

/**
 * The reproduction workloads.  Gates per pass: the output equals the
 * reference byte for byte (repro-warm: the fixture's cold output;
 * repro-cold: the first pass), the pass ran exactly the campaign's
 * simulations (repro-cold) or none (repro-warm), and the store rejected
 * nothing.  The traced run adds the bitIdentical replay gate.
 */
void
runRepro(const Options &opts, const fs::path &run_dir,
         const std::string &fixture_dir, std::string reference,
         Report &report)
{
    const bool cold = fixture_dir.empty();
    auto store_for = [&](const std::string &tag) {
        if (!cold)
            return fixture_dir;
        fs::path dir = run_dir / tag;
        fs::remove_all(dir);
        return dir.string();
    };

    settleDisk();
    const SetupTimes setup = timeSetups([&](std::size_t i) {
        core::ServiceConfig config =
            serviceConfig(store_for("setup-" + std::to_string(i)), opts.seed);
        std::uint64_t t0 = nowNs();
        core::ServiceContext context(config);
        return seconds(t0, nowNs());
    });

    Tracer tracer;
    LayerMetrics layers;
    std::vector<double> pass_s, traced_pass_s, rss_mb, sims, hits, lru_hits,
        memo, dedup, rejects, ref_pass_ms;
    std::size_t cold_simulations = 0;
    std::shared_ptr<core::ServiceContext> kept; // last traced pass

    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(opts.seconds * 1e9);
    for (std::uint32_t i = 0;; ++i) {
        bool enough = nowNs() >= deadline && !pass_s.empty() &&
                      (!opts.trace || !traced_pass_s.empty());
        if (enough)
            break;
        bool traced = opts.trace && i % 2 == 1;
        std::string dir = store_for("pass-" + std::to_string(i));
        settleDisk();
        auto context = std::make_shared<core::ServiceContext>(
            serviceConfig(dir, opts.seed));
        cold_simulations = campaignSimulations(
            campaign(*context), context->config().characterization);
        std::uint64_t memo0 = registryCounter("core.characterize.memo_hits");
        std::uint64_t dedup0 =
            registryCounter("core.characterize.dedup_shared");

        // The pass keeps kJobs threads busy when cold, the main thread
        // when warm; calibrate on as many around it.
        const std::size_t busy_threads = cold ? kJobs : 1;
        std::optional<TimeScale> scale;
        if (!traced)
            scale.emplace(busy_threads);
        std::string output, error;
        resetPeakRss();
        std::uint64_t t0 = nowNs();
        try {
            output = reproduce(*context, traced ? &tracer : nullptr, i);
        } catch (const std::exception &e) {
            error = e.what();
        }
        double elapsed = seconds(t0, nowNs());
        if (!traced) {
            rss_mb.push_back(peakRssMb());
            ref_pass_ms.push_back(elapsed * 1e3 / scale->end());
        }

        core::StoreCounters counters = context->store()->counters();
        std::size_t ran = context->simulationsRun();
        if (cold && reference.empty())
            reference = output;
        std::size_t want = cold ? cold_simulations : 0;
        bool identical = error.empty() && output == reference;
        report.gates.check(
            identical && ran == want && rejected(counters) == 0,
            "pass " + std::to_string(i) + ": " +
                (error.empty() ? identical ? "output matches" : "output DIFFERS"
                               : error) +
                ", simulations " + std::to_string(ran) + " (want " +
                std::to_string(want) + "), rejected " +
                std::to_string(rejected(counters)));

        (traced ? traced_pass_s : pass_s).push_back(elapsed);
        sims.push_back(static_cast<double>(ran));
        hits.push_back(static_cast<double>(counters.hits));
        lru_hits.push_back(static_cast<double>(counters.lru_hits));
        rejects.push_back(static_cast<double>(rejected(counters)));
        memo.push_back(static_cast<double>(
            registryCounter("core.characterize.memo_hits") - memo0));
        dedup.push_back(static_cast<double>(
            registryCounter("core.characterize.dedup_shared") - dedup0));

        // Store directories of cold passes stay until the run ends:
        // deleting thousands of entries mid-run would load the disk
        // while later passes are timed.
        if (traced)
            kept = context;
    }

    const double records_per_pass =
        static_cast<double>(cold_simulations) *
        static_cast<double>(kInstructions + kWarmup);
    std::string samples;
    for (double s : pass_s)
        samples += fmt(" %.3f", s);
    fact(describe("repro_s median", median(pass_s)) + "; passes:" + samples);
    if (cold) {
        std::vector<double> mips;
        for (double s : pass_s)
            mips.push_back(records_per_pass / (s * 1e6));
        fact(describe("sim_mips median", median(mips)) +
             fmt(" over %.0f simulated records per pass", records_per_pass));
    }

    if (!opts.trace) {
        endToEnd(scaled(pass_s, 1e3), ref_pass_ms, setup, med(rss_mb),
                 report);
        return;
    }

    // ----- traced run: per-layer metrics -----
    layers.set("bench.tracing_overhead_share",
               med(traced_pass_s) / med(pass_s) - 1.0);
    layers.set("bench.op_self_share", rootSelfShare(tracer, "bench.pass"));
    const double prepare_s = med(tracer.durations("core.prepare"));
    layers.set("core.prepare_s", prepare_s);
    for (const char *span :
         {"core.query.characterize", "core.query.subset",
          "core.query.sensitivity", "core.query.memory", "core.inputs",
          "core.coverage", "core.export", "core.report"})
        layers.set(std::string(span) + "_s", med(tracer.durations(span)));
    auto mean = [](const std::vector<double> &v) {
        return sum(v) / static_cast<double>(v.size());
    };
    layers.set("uarch.simulations", mean(sims));
    layers.set("store.hits", mean(hits));
    layers.set("store.lru_hits", mean(lru_hits));
    layers.set("store.rejected", mean(rejects));
    layers.set("core.memo_hits", mean(memo));
    layers.set("core.dedup_shared", mean(dedup));

    const std::vector<CampaignPart> parts = campaign(*kept);
    if (kept->simulationsRun() > 0) {
        SimReplay replay = replaySimulations(*kept, parts, tracer, kReplayOp);
        report.gates.check(replay.mismatches == 0,
                           std::to_string(replay.mismatches) + " of " +
                               std::to_string(replay.pairs) +
                               " replayed pairs not bitIdentical to the "
                               "parallel campaign");
        const double simulate_s = tracer.total("uarch.simulate");
        const double fill_s = tracer.total("trace.fill");
        const double predictor_s = tracer.total("uarch.predictor_batch");
        const double prewarm_s = tracer.total("uarch.prewarm");
        const auto records = static_cast<double>(replay.records);
        layers.set("uarch.simulate_s", simulate_s);
        layers.set("uarch.ns_per_record", simulate_s * 1e9 / records);
        layers.set("core.pair_s_max",
                   maxOf(tracer.durations("uarch.simulate")));
        layers.set("core.parallel_efficiency",
                   simulate_s / (static_cast<double>(kJobs) * prepare_s));
        layers.set("trace.fill_s", fill_s);
        layers.set("trace.fill_ns_per_record", fill_s * 1e9 / records);
        layers.set("trace.fill_share", fill_s / simulate_s);
        layers.set("uarch.predictor_batch_s", predictor_s);
        layers.set("uarch.prewarm_s", prewarm_s);
        layers.set("uarch.prewarm_analytic_ratio",
                   replay.prewarm_attempts
                       ? static_cast<double>(replay.prewarm_analytic) /
                             static_cast<double>(replay.prewarm_attempts)
                       : 0.0);
        layers.set("uarch.structures_residual_s",
                   simulate_s - fill_s - prewarm_s - predictor_s);
        fact(fmt("uarch.structures_residual_s is derived: simulate - fill "
                 "- prewarm - predictor = %.4f s",
                 simulate_s - fill_s - prewarm_s - predictor_s));
    }
    replayStore(*kept, parts, cold ? store_for("replay-load") : fixture_dir,
                cold ? store_for("replay-save") : std::string(), tracer,
                kReplayOp);
    storeLayers(tracer, layers);
    replayStats(*kept, tracer, kReplayOp + 1, kStatsRepeats);
    statsLayers(tracer, layers);
    replaySetup(
        opts,
        [&](std::size_t i) { return store_for("open-" + std::to_string(i)); },
        tracer, layers);

    layers.emit(report.metrics);
    writeSpans(opts, tracer);
}

// ----- serve-warm -------------------------------------------------------

/**
 * The serve workload.  Gates: the in-process reference ran no
 * simulations; every reply arrived, was accepted and (stats aside)
 * equals the in-process query_ops output byte for byte; the server ran
 * no simulations and its store rejected nothing.
 */
void
runServe(const Options &opts, const std::string &fixture_dir, Report &report)
{
    const core::ServiceConfig service = serviceConfig(fixture_dir, opts.seed);
    std::vector<std::vector<serve::Request>> schedules;
    for (std::size_t c = 0; c < kClients; ++c)
        schedules.push_back(clientSchedule(opts.seed, c, kScheduleBlocks));

    std::size_t reference_sims = 0;
    const ReferenceOutputs reference =
        referenceOutputs(service, schedules, reference_sims);
    report.gates.check(reference_sims == 0,
                       "in-process reference ran " +
                           std::to_string(reference_sims) + " simulations");

    settleDisk();
    const SetupTimes setup = timeSetups([&](std::size_t) {
        std::uint64_t t0 = nowNs();
        LiveServer live(service);
        return seconds(t0, nowNs());
    });

    Tracer tracer;
    LiveServer live(service);
    resetPeakRss(); // peak_rss_mb: the peak while serving
    std::uint64_t memo0 = registryCounter("core.characterize.memo_hits");
    std::uint64_t dedup0 = registryCounter("core.characterize.dedup_shared");
    ServeWindow window = runServeWindow(live, schedules, reference,
                                        opts.seconds,
                                        opts.trace ? &tracer : nullptr);
    report.gates.add(window.attempted, window.failed,
                     "replies missing, rejected or not byte-identical to "
                     "query_ops");

    core::ServiceContext &context = *live.server().context();
    core::StoreCounters counters = context.store()->counters();
    serve::ServerStats server_stats = live.server().stats();
    report.gates.check(context.simulationsRun() == 0,
                       "server ran " +
                           std::to_string(context.simulationsRun()) +
                           " simulations");
    report.gates.check(rejected(counters) == 0,
                       "store rejected " +
                           std::to_string(rejected(counters)) + " entries");

    double level = 0.0;
    Quantile highest = highestTail(window.rtt_ms, level);
    fact(describe("serve_p50_ms", median(window.rtt_ms)));
    fact(describe("serve_p90_ms", tail(window.rtt_ms, 0.90)));
    fact(describe(level > 0.0 ? fmt("serve_p%.0f_ms", level * 100.0)
                              : std::string("serve tail"),
                  highest) +
         " (highest reportable tail)");
    fact(fmt("serve_rps=%.4g", static_cast<double>(window.attempted) /
                                   window.wall_s));

    if (!opts.trace) {
        endToEnd(window.rtt_ms, window.rtt_ms, setup, peakRssMb(), report);
        return;
    }

    // ----- traced run: per-layer metrics -----
    LayerMetrics layers;
    layers.set("bench.tracing_overhead_share",
               med(window.traced_rtt_ms) / med(window.rtt_ms) - 1.0);
    layers.set("bench.op_self_share", rootSelfShare(tracer, "serve.request"));

    // Pair each traced request's round trip with its direct dispatch.
    std::vector<std::string> names = tracer.names();
    std::map<std::uint32_t, std::pair<double, double>> by_op; // rtt, dispatch
    std::vector<double> dispatch_ms, codec_us;
    std::map<std::string, std::vector<double>> query_s;
    for (const SpanRecord &span : tracer.spans()) {
        const std::string &name = names[span.name];
        double s = seconds(span.start_ns, span.end_ns);
        if (name == "serve.rtt") {
            by_op[span.op].first = s;
        } else if (name.rfind("serve.dispatch.", 0) == 0) {
            by_op[span.op].second = s;
            dispatch_ms.push_back(s * 1e3);
            query_s[name.substr(std::strlen("serve.dispatch."))].push_back(s);
        } else if (name == "serve.codec") {
            codec_us.push_back(s * 1e6);
        }
    }
    std::vector<double> transport_ms;
    for (const auto &[op, pair] : by_op)
        if (pair.first > 0.0 && pair.second > 0.0)
            transport_ms.push_back((pair.first - pair.second) * 1e3);
    layers.set("serve.dispatch_ms_p50", med(dispatch_ms));
    Quantile dispatch_p90 = tail(dispatch_ms, 0.90);
    fact(describe("serve.dispatch_ms_p90", dispatch_p90));
    layers.set("serve.dispatch_ms_p90",
               dispatch_p90.reportable ? dispatch_p90.value : 0.0);
    layers.set("serve.transport_ms_p50", med(transport_ms));
    layers.set("serve.codec_us", med(codec_us));
    layers.set("serve.requests", static_cast<double>(window.attempted));
    layers.set("serve.errors", static_cast<double>(server_stats.errors));
    for (const char *op : {"characterize", "subset", "sensitivity", "memory"})
        layers.set(std::string("core.query.") + op + "_s", med(query_s[op]));

    const auto dispatched = static_cast<double>(server_stats.requests);
    layers.set("core.memo_hits",
               static_cast<double>(
                   registryCounter("core.characterize.memo_hits") - memo0) /
                   dispatched);
    layers.set("core.dedup_shared",
               static_cast<double>(
                   registryCounter("core.characterize.dedup_shared") -
                   dedup0) /
                   dispatched);
    layers.set("uarch.simulations",
               static_cast<double>(context.simulationsRun()) / dispatched);
    layers.set("store.hits", static_cast<double>(counters.hits) / dispatched);
    layers.set("store.lru_hits",
               static_cast<double>(counters.lru_hits) / dispatched);
    layers.set("store.rejected",
               static_cast<double>(rejected(counters)) / dispatched);

    {
        core::ServiceContext replay_context(service);
        replayStore(replay_context, campaign(replay_context), fixture_dir,
                    std::string(), tracer, kReplayOp);
        replayStats(replay_context, tracer, kReplayOp + 1, kStatsRepeats);
    }
    storeLayers(tracer, layers);
    statsLayers(tracer, layers);
    replaySetup(
        opts, [&](std::size_t) { return fixture_dir; }, tracer, layers);

    layers.emit(report.metrics);
    writeSpans(opts, tracer);
}

int
run(const Options &opts, const fs::path &run_dir, const SelfTestResult &self)
{
    std::string fixture_dir, reference;
    if (opts.workload != "repro-cold") {
        fixture_dir = (run_dir / "fixture").string();
        std::string output_path = (run_dir / "fixture-output.txt").string();
        double fixture_s = buildFixture(opts, fixture_dir, output_path);
        if (fixture_s < 0.0) {
            std::fprintf(stderr, "perfbench: fixture build failed\n");
            return 1;
        }
        reference = readFile(output_path);
        fact(fmt("fixture_build_s=%.4f (a fact, not an end-to-end metric: "
                 "one cold pass in a child process)",
                 fixture_s));
    }

    Report report;
    if (opts.workload == "serve-warm")
        runServe(opts, fixture_dir, report);
    else
        runRepro(opts, run_dir, fixture_dir, reference, report);

    const Gates &gates = report.gates;
    fact(fmt("error_rate=%.6g", static_cast<double>(gates.failed) /
                                    static_cast<double>(gates.attempted)) +
         " (" + std::to_string(gates.failed) + " of " +
         std::to_string(gates.attempted) + " operations failed)");
    bool correct = gates.failed == 0 && self.failures == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", gates.attempted, gates.failed,
                report.metrics.json().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseOptions(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: %s --workload repro-cold|repro-warm|serve-warm "
                     "--seed N --seconds S --trace 0|1 --work DIR\n",
                     argv[0]);
        return 2;
    }
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);

    SelfTestResult self = runSelfTests();
    fact("self-tests: " + std::to_string(self.checks) + " checks, " +
         std::to_string(self.failures) + " failed");

    fs::path run_dir = fs::path(opts.work) /
                       (opts.workload + "-" + std::to_string(getpid()));
    int code = 1;
    try {
        fs::remove_all(run_dir);
        fs::create_directories(run_dir);
        code = run(opts, run_dir, self);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        code = 1;
    }
    std::error_code ignored;
    fs::remove_all(run_dir, ignored);
    return code;
}
