/**
 * @file
 * Shipped lint rules.
 *
 * Each rule walks one slice of the calibration data (workload models,
 * machine configurations, cross-reference tables) and reports findings
 * under its stable code.  Thresholds encode either hard physical
 * constraints (probabilities, monotone hierarchies) or the published
 * envelopes of the paper's Tables I/II.
 */

#include "rules.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/perf_trajectory.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "stats/normalize.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

namespace speclens {
namespace lint {

namespace {

const auto num = verify::renderValue;

bool
inUnit(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

/** Shared emit helper bound to one rule's code. */
class RuleBase : public Rule
{
  protected:
    void
    emit(std::vector<Diagnostic> &out, Severity severity,
         std::string location, std::string message,
         std::string fix_hint = "") const
    {
        out.push_back(Diagnostic{code(), severity, std::move(location),
                                 std::move(message),
                                 std::move(fix_hint)});
    }

    void
    error(std::vector<Diagnostic> &out, std::string location,
          std::string message, std::string fix_hint = "") const
    {
        emit(out, Severity::Error, std::move(location),
             std::move(message), std::move(fix_hint));
    }

    /** Without --store: an info note that @p what is skipped, and true. */
    bool
    skippedWithoutStore(const LintContext &context,
                        std::vector<Diagnostic> &out, const char *location,
                        const std::string &what) const
    {
        if (!context.store_dir.empty())
            return false;
        emit(out, Severity::Info, location,
             what + " skipped (no --store directory given)");
        return true;
    }

    /** An error at @p loc (plus the violation's own location) for
     *  each violation in @p found that @p owner reports. */
    void
    violationErrors(std::vector<Diagnostic> &out, const std::string &loc,
                    const std::vector<verify::Violation> &found,
                    const std::string &owner) const
    {
        for (const verify::Violation &v : found)
            if (v.structure == owner)
                error(out,
                      v.location.empty() ? loc : loc + "/" + v.location,
                      v.detail);
    }
};

/**
 * A rule whose code, name and description are data: one instance per
 * family of an invariant checker, the family being the rule's name.
 */
class FamilyRule : public RuleBase
{
  public:
    FamilyRule(std::string code, std::string name, std::string description)
        : code_(std::move(code)), name_(std::move(name)),
          description_(std::move(description))
    {
    }

    std::string code() const override { return code_; }
    std::string name() const override { return name_; }
    std::string description() const override { return description_; }

  protected:
    std::string code_;
    std::string name_;
    std::string description_;
};

// ====================================================================
// Workload-model rules (SL001-SL006): run over every benchmark of
// every database.
// ====================================================================

/**
 * The two calibration conventions of the shipped databases, stated
 * here and nowhere else: working-set weights sum to 1 within 2%
 * (mix-sum) and set sizes grow hot -> vast (working-set-shape).  They
 * are lint-only, not model invariants: the address generator
 * normalises the weights itself and derived phases drift them freely.
 * The tlb_stress knob inflates the vast-set weight by up to
 * (1 + stress); vast weights are <= 0.013, so 2% accepts every preset.
 * @p found holds the profile's checkWorkloadProfile() violations.
 */
void
appendCalibrationConventions(const trace::WorkloadProfile &profile,
                             std::vector<verify::Violation> &found)
{
    constexpr double kTolerance = 0.02;
    const auto &data = profile.memory.data;
    double total = 0.0;
    for (const trace::WorkingSet &ws : data)
        total += ws.weight;
    // A weight the model already rejects makes the sum meaningless.
    bool weights_ok =
        std::none_of(found.begin(), found.end(),
                     [](const verify::Violation &v) {
                         return v.structure == "mix-sum";
                     });
    if (weights_ok && std::fabs(total - 1.0) > kTolerance)
        found.push_back({"mix-sum", "weight-sum", "memory.data",
                         "working-set weights sum to " + num(total) +
                             ", expected 1 within " + num(kTolerance)});
    for (std::size_t i = 1; i < data.size(); ++i)
        if (data[i].bytes <= data[i - 1].bytes)
            found.push_back(
                {"working-set-shape", "size-order",
                 "memory.data[" + std::to_string(i) + "].bytes",
                 "set sizes must increase hot -> vast, but " +
                     num(data[i].bytes) + " <= " +
                     num(data[i - 1].bytes)});
}

/**
 * One workload-rule family: reports the trace::checkWorkloadProfile()
 * violations, plus the calibration conventions, whose structure is
 * the rule's name.
 */
class WorkloadFamilyRule final : public FamilyRule
{
  public:
    using FamilyRule::FamilyRule;

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo *b : context.allBenchmarks()) {
            std::vector<verify::Violation> found =
                trace::checkWorkloadProfile(b->profile);
            appendCalibrationConventions(b->profile, found);
            violationErrors(out, b->name, found, name_);
        }
    }
};

// ====================================================================
// Machine rules (SL007-SL011): the seven Table IV configurations.
// ====================================================================

/**
 * One machine-rule family: reports the uarch::checkMachineConfig()
 * violations whose structure is the rule's name.  SL010 additionally
 * owns the one cross-machine check, distinct short names.
 */
class MachineFamilyRule final : public FamilyRule
{
  public:
    using FamilyRule::FamilyRule;

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        std::set<std::string> short_names;
        for (const uarch::MachineConfig &m : context.machines) {
            const std::string loc = "machine:" + m.short_name;
            violationErrors(out, loc, uarch::checkMachineConfig(m), name_);
            if (name_ == "machine-config" && !m.short_name.empty() &&
                !short_names.insert(m.short_name).second)
                error(out, loc,
                      "duplicate machine short name '" + m.short_name +
                          "'",
                      "short names key the per-machine feature columns");
        }
    }
};

class TransformRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL011"; }
    std::string name() const override { return "transform"; }
    std::string
    description() const override
    {
        return "ISA/compiler transforms stay in range and keep every "
               "CPU2017 model valid";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        for (const uarch::MachineConfig &m : context.machines) {
            const std::string loc =
                "machine:" + m.short_name + "/transform";
            const uarch::WorkloadTransform &t = m.transform;
            const struct
            {
                const char *field;
                double value;
            } scales[] = {
                {"memory_mix_scale", t.memory_mix_scale},
                {"branch_mix_scale", t.branch_mix_scale},
                {"code_scale", t.code_scale},
            };
            for (const auto &s : scales)
                if (!std::isfinite(s.value) || s.value < 0.5 ||
                    s.value > 2.0)
                    error(out, loc + "." + s.field,
                          std::string(s.field) + " is " +
                              num(s.value) +
                              ", outside the plausible [0.5, 2] "
                              "range",
                          "ISA/compiler effects perturb mixes by tens "
                          "of percent, not orders of magnitude");
            if (!std::isfinite(t.mix_jitter) || t.mix_jitter < 0.0 ||
                t.mix_jitter > 0.1)
                error(out, loc + ".mix_jitter",
                      "mix jitter of " + num(t.mix_jitter) +
                          " is outside [0, 0.1]",
                      "jitter models submitter-to-submitter compiler "
                      "noise of a few percent");

            // The transform must keep every calibrated model valid,
            // or the trace generator downstream samples from garbage.
            for (const suites::BenchmarkInfo &b : context.cpu2017)
                for (const verify::Violation &v :
                     trace::checkWorkloadProfile(
                         uarch::transformForMachine(b.profile, m)))
                    error(out, b.name + "@" + m.short_name + "/" +
                                   v.location,
                          "machine transform breaks the model: " +
                              v.detail,
                          "shrink the transform scales");
        }
    }
};

// ====================================================================
// Cross-reference rules (SL012-SL014).
// ====================================================================

class CrossReferenceRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL012"; }
    std::string name() const override { return "cross-reference"; }
    std::string
    description() const override
    {
        return "rate/speed partner links resolve symmetrically and "
               "names/ids/category counts match the suite";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        // Name uniqueness across all databases: analyses key caches
        // and feature rows by name.
        std::set<std::string> names;
        for (const suites::BenchmarkInfo *b : context.allBenchmarks())
            if (!names.insert(b->name).second)
                error(out, b->name,
                      "duplicate benchmark name across databases",
                      "names key the measurement cache and feature "
                      "rows");

        std::set<int> ids;
        std::size_t per_category[4] = {0, 0, 0, 0};
        for (const suites::BenchmarkInfo &b : context.cpu2017) {
            if (b.id != 0 && !ids.insert(b.id).second)
                error(out, b.name,
                      "duplicate SPEC id " + std::to_string(b.id));
            switch (b.category) {
              case suites::Category::SpeedInt: ++per_category[0]; break;
              case suites::Category::RateInt: ++per_category[1]; break;
              case suites::Category::SpeedFp: ++per_category[2]; break;
              case suites::Category::RateFp: ++per_category[3]; break;
              default:
                error(out, b.name,
                      "CPU2017 benchmark carries a non-CPU2017 "
                      "category");
            }
            checkPartner(out, context, b);
        }

        // Table I composition: 10 speed INT, 10 rate INT, 10 speed
        // FP, 13 rate FP.
        const struct
        {
            const char *label;
            std::size_t expected;
            std::size_t actual;
        } counts[] = {
            {"speed INT", 10, per_category[0]},
            {"rate INT", 10, per_category[1]},
            {"speed FP", 10, per_category[2]},
            {"rate FP", 13, per_category[3]},
        };
        for (const auto &c : counts)
            if (c.actual != c.expected)
                error(out, "cpu2017",
                      std::string(c.label) + " has " +
                          std::to_string(c.actual) +
                          " benchmarks, Table I lists " +
                          std::to_string(c.expected));
    }

  private:
    void
    checkPartner(std::vector<Diagnostic> &out,
                 const LintContext &context,
                 const suites::BenchmarkInfo &b) const
    {
        if (b.partner.empty())
            return;
        const suites::BenchmarkInfo *partner = nullptr;
        for (const suites::BenchmarkInfo &other : context.cpu2017)
            if (other.name == b.partner)
                partner = &other;
        if (!partner) {
            error(out, b.name + "/partner",
                  "rate/speed partner '" + b.partner +
                      "' does not resolve in the CPU2017 database");
            return;
        }
        if (partner->partner != b.name)
            error(out, b.name + "/partner",
                  "partnership is not symmetric: " + partner->name +
                      " points at '" + partner->partner + "'");
        bool b_speed = suites::isSpeedCategory(b.category);
        bool p_speed = suites::isSpeedCategory(partner->category);
        bool b_fp = suites::isFpCategory(b.category);
        bool p_fp = suites::isFpCategory(partner->category);
        if (b_speed == p_speed || b_fp != p_fp)
            error(out, b.name + "/partner",
                  "rate/speed pair categories disagree (" +
                      suites::categoryName(b.category) + " vs " +
                      suites::categoryName(partner->category) + ")",
                  "a speed benchmark pairs with the rate benchmark "
                  "of the same INT/FP class");
    }
};

class InputSetRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL013"; }
    std::string name() const override { return "input-sets"; }
    std::string
    description() const override
    {
        return "input-set groups resolve to CPU2017 benchmarks with "
               "the declared variant counts and valid models";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        for (const suites::InputSetGroup &group :
             context.input_groups) {
            const std::string &base = group.benchmark.name;
            bool resolves = false;
            for (const suites::BenchmarkInfo &b : context.cpu2017)
                if (b.name == base)
                    resolves = true;
            if (!resolves)
                error(out, base,
                      "input-set group benchmark does not resolve in "
                      "the CPU2017 database");

            int declared = suites::inputSetCount(base);
            if (group.inputs.size() !=
                static_cast<std::size_t>(declared))
                error(out, base + "/inputs",
                      "group carries " +
                          std::to_string(group.inputs.size()) +
                          " variants but inputSetCount() declares " +
                          std::to_string(declared));

            for (std::size_t k = 0; k < group.inputs.size(); ++k) {
                const suites::BenchmarkInfo &v = group.inputs[k];
                std::string expected =
                    group.inputs.size() == 1
                        ? base
                        : base + "#" + std::to_string(k + 1);
                if (v.name != expected)
                    error(out, v.name,
                          "variant name does not follow the '" +
                              base + "#k' convention (expected " +
                              expected + ")");
                for (const verify::Violation &violation :
                     trace::checkWorkloadProfile(v.profile))
                    error(out, v.name + "/" + violation.location,
                          "variant model is invalid: " +
                              violation.detail);
            }
        }
    }
};

class ScoreDatabaseRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL014"; }
    std::string name() const override { return "score-database"; }
    std::string
    description() const override
    {
        return "every (system, benchmark) speedup and suite score is "
               "finite and positive";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        const suites::Category categories[] = {
            suites::Category::SpeedInt, suites::Category::RateInt,
            suites::Category::SpeedFp, suites::Category::RateFp};
        for (suites::Category category : categories) {
            const auto &systems =
                context.scores.systemsFor(category);
            if (systems.empty()) {
                error(out,
                      "scores/" + suites::categoryName(category),
                      "no commercial systems for the category",
                      "validateSubset() divides by the system count");
                continue;
            }
            for (const suites::CommercialSystem &system : systems) {
                if (!(system.noise_sigma >= 0.0))
                    error(out, "scores/" + system.name,
                          "submission noise sigma is " +
                              num(system.noise_sigma));
                for (const suites::BenchmarkInfo &b :
                     context.cpu2017) {
                    if (b.category != category)
                        continue;
                    double s = context.scores.speedup(system, b);
                    if (!std::isfinite(s) || s <= 0.0)
                        error(out,
                              "scores/" + system.name + "/" + b.name,
                              "speedup is " + num(s) +
                                  ", must be finite and positive",
                              "check the benchmark's traits "
                              "(deriveTraits) for NaNs");
                }
            }
        }
    }
};

// ====================================================================
// Paper-bound rule (SL015).
// ====================================================================

class PaperBoundsRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL015"; }
    std::string name() const override { return "paper-bounds"; }
    std::string
    description() const override
    {
        return "calibrated and simulated metrics stay inside the "
               "Table I/II envelopes";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &deep,
        std::vector<Diagnostic> &out) const override
    {
        for (const suites::BenchmarkInfo &b : context.cpu2017) {
            // Table I CPIs on Skylake span 0.31 (x264) to 1.39
            // (omnetpp); anything outside [0.2, 3] is a typo.
            if (!std::isfinite(b.published_cpi) ||
                b.published_cpi < 0.2 || b.published_cpi > 3.0)
                error(out, b.name + "/published_cpi",
                      "published Skylake CPI of " +
                          num(b.published_cpi) +
                          " is outside the Table I envelope "
                          "[0.2, 3]");
            else {
                double fixed = b.profile.exec.base_cpi +
                               b.profile.exec.dependency_cpi;
                if (fixed > b.published_cpi + 1e-9)
                    error(out, b.name + "/exec",
                          "base + dependency CPI (" + num(fixed) +
                              ") exceeds the published total CPI (" +
                              num(b.published_cpi) + ")",
                          "leave headroom for the simulated stall "
                          "components");
            }
            // Table I mixes: loads up to ~50%, stores up to ~25%,
            // branches up to ~33% (xalancbmk).
            const trace::InstructionMix &mix = b.profile.mix;
            if (mix.load > 0.55 || mix.store > 0.30 ||
                mix.branch > 0.40)
                error(out, b.name + "/mix",
                      "mix exceeds the Table I envelope (load " +
                          num(mix.load) + ", store " +
                          num(mix.store) + ", branch " +
                          num(mix.branch) + ")");
        }

        if (!context.deep) {
            emit(out, Severity::Info, "cpu2017",
                 "simulation-backed Table II checks skipped "
                 "(deep checks disabled)");
            return;
        }
        deepChecks(context, *deep.skylake, out);
    }

  private:
    void
    deepChecks(const LintContext &context,
               core::Characterizer &skylake,
               std::vector<Diagnostic> &out) const
    {
        // Hold every CPU2017 benchmark's derived metrics on the
        // simulated Skylake against the Table II envelope, widened for
        // short-window noise.  A benchmark escaping these bounds means
        // its preset drifted out of calibration even though every
        // structural check passes.
        for (const suites::BenchmarkInfo &b : context.cpu2017) {
            const uarch::SimulationResult &sim = skylake.simulation(b, 0);
            core::MetricVector mv = core::extractMetrics(sim);
            const std::string loc = b.name + "@skylake";

            double cpi = sim.cpi();
            if (!std::isfinite(cpi) || cpi <= 0.0) {
                error(out, loc,
                      "simulated CPI is " + num(cpi),
                      "the CPI stack must sum to a positive total");
                continue;
            }
            if (b.published_cpi > 0.0) {
                double ratio = cpi / b.published_cpi;
                if (ratio < 0.25 || ratio > 4.0)
                    error(out, loc,
                          "simulated CPI " + num(cpi) + " is " +
                              num(ratio) +
                              "x the published Table I CPI " +
                              num(b.published_cpi),
                          "recalibrate the preset's locality / CPI "
                          "knobs");
            }

            const struct
            {
                core::Metric metric;
                double bound;
                const char *label;
            } envelope[] = {
                // Table II tops out at 98.4 L1D / 11.6 L1I / 5 L3 /
                // 8.4 branch MPKI; the margins absorb window noise.
                {core::Metric::L1dMpki, 160.0, "L1D MPKI"},
                {core::Metric::L1iMpki, 30.0, "L1I MPKI"},
                {core::Metric::L3Mpki, 15.0, "L3 MPKI"},
                {core::Metric::BranchMpki, 15.0, "branch MPKI"},
            };
            for (const auto &e : envelope) {
                double v = mv.get(e.metric);
                if (!std::isfinite(v) || v < 0.0 || v > e.bound)
                    error(out, loc,
                          std::string(e.label) + " of " + num(v) +
                              " escapes the Table II envelope "
                              "(<= " + num(e.bound) + ")",
                          "CPU2017 shows strong level-by-level "
                          "filtering; check the locality preset");
            }
        }
    }
};

/** Simulation window reconstructed from a scanned entry's metadata. */
uarch::SimulationConfig
windowOf(const core::StoreEntryInfo &info)
{
    uarch::SimulationConfig window;
    window.instructions = info.instructions;
    window.warmup = info.warmup;
    window.seed_salt = info.seed_salt;
    window.apply_machine_transform = info.apply_machine_transform;
    window.prewarm = info.prewarm;
    return window;
}

/** Base benchmark of @p info: its name before any "@k" suffix. */
std::string
baseName(const core::StoreEntryInfo &info)
{
    return info.benchmark.substr(0, info.benchmark.find('@'));
}

// ====================================================================
// Store-integrity rule (SL016).
// ====================================================================

class StoreIntegrityRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL016"; }
    std::string name() const override { return "store-integrity"; }
    std::string
    description() const override
    {
        return "artifact-store entries are checksum-clean and still "
               "re-derivable from the shipped models";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "store", "store integrity"))
            return;
        if (!store.found) {
            error(out, "store", "no store directory at " + context.store_dir,
                  "check the --store path; lint reads a store and never "
                  "creates one");
            return;
        }
        std::size_t healthy = 0;
        for (const StoredEntry &entry : store.entries) {
            const core::StoreEntryInfo &info = entry.info;
            const std::string loc = "store/" + info.filename;
            if (!entry.canonical_name)
                continue; // SL025 reports the file name.
            switch (info.status) {
              case core::StoreStatus::Corrupt:
                error(out, loc, "corrupt entry: " + info.detail,
                      "delete it with `speclens campaign invalidate "
                      "stale --store DIR` (it will be recomputed)");
                continue;
              case core::StoreStatus::FingerprintMismatch:
                error(out, loc,
                      "entry does not belong under its file name: " +
                          info.detail,
                      "entries must not be renamed; invalidate stale "
                      "entries and re-run the campaign");
                continue;
              case core::StoreStatus::StaleVersion:
                emit(out, Severity::Warning, loc,
                     "stale entry: " + info.detail,
                     "re-run the campaign to refresh it");
                continue;
              case core::StoreStatus::Misfiled:
                continue; // SL025 reports the shard layout.
              default:
                break;
            }

            // Consistent on disk; now hold it against the shipped
            // models.  A derived entry checks only its base name.
            if (!entry.machine || !entry.profile) {
                emit(out, Severity::Warning, loc,
                     "orphaned entry: " +
                         (!entry.machine
                              ? "machine '" + info.machine + "'"
                              : "benchmark '" + baseName(info) + "'") +
                         " is not a shipped model",
                     "written by an ad-hoc configuration; invalidate "
                     "if unwanted");
                continue;
            }
            if (entry.stale_model) {
                emit(out, Severity::Warning, loc,
                     "stale entry: the shipped model of '" +
                         info.benchmark + "' on '" + info.machine +
                         "' no longer produces this fingerprint",
                     "the model changed since the entry was "
                     "written; invalidate and re-run");
                continue;
            }
            ++healthy;
        }
        emit(out, Severity::Info, "store",
             std::to_string(healthy) +
                 " healthy entries in " + context.store_dir);
    }
};

// ====================================================================
// Degenerate-feature rule (SL017).
// ====================================================================

class DegenerateFeaturesRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL017"; }
    std::string name() const override { return "degenerate-features"; }
    std::string
    description() const override
    {
        return "every CPU2017 feature column varies across the suite "
               "(zero-variance columns are zeroed by normalization)";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &deep,
        std::vector<Diagnostic> &out) const override
    {
        if (!context.deep) {
            emit(out, Severity::Info, "features",
                 "degenerate-feature check skipped (deep checks "
                 "disabled)");
            return;
        }

        // The same feature matrix the similarity pipeline consumes:
        // CPU2017 on the simulated Skylake.  zscoreWith() maps a
        // zero-variance column to all-zeros — mathematically forced,
        // but a feature that never varies across 20 benchmarks means
        // the underlying counter model is dead, so it must be
        // surfaced, never silent (that silence was a real bug).
        stats::Matrix features =
            deep.skylake->featureMatrix(context.cpu2017);
        std::vector<std::string> names = deep.skylake->featureNames();

        stats::NormalizeReport report;
        // Label the columns up front so a degenerate one is reported
        // as its machine.metric feature name, never a bare index.
        report.column_labels = names;
        (void)stats::zscore(features, &report);
        for (std::size_t c : report.degenerate_columns) {
            emit(out, Severity::Warning,
                 "features/" + report.describe(c),
                 "feature column " + report.describe(c) +
                     " has zero variance across CPU2017 and is "
                     "zeroed by normalization",
                 "a counter that never varies usually means a dead "
                 "metric model; recalibrate or drop the metric");
        }
        emit(out, Severity::Info, "features",
             std::to_string(features.cols() -
                            report.degenerate_columns.size()) +
                 " of " + std::to_string(features.cols()) +
                 " feature columns vary across CPU2017");
    }
};

// ====================================================================
// Artifact-lint family (SL018-SL026): structural re-audit of on-disk
// artifacts — store entries, BENCH_<pr>.json trajectory files and the
// run manifest.  These rules read what past runs persisted (the store
// through the run's StoreSnapshot) and hold it against the same
// invariants the live simulator satisfies, so silent corruption (bad
// serialization, hand edits, drifted constants) cannot survive a lint
// pass.
// ====================================================================

bool
nearRel(double a, double b, double rel)
{
    double scale = std::max(std::abs(a), std::abs(b));
    return std::isfinite(a) && std::isfinite(b) &&
           std::abs(a - b) <= rel * std::max(scale, 1.0);
}

/**
 * Call @p visit(window) for every stored window of @p store: a pair
 * entry's result, and a phased entry's combined counters and each
 * phase's result.  Returns the number of entries visited, those that
 * scanned clean; SL016 and SL025 report the rest.
 */
template <typename Visit>
std::size_t
forEachStoredWindow(const StoreSnapshot &store, Visit visit)
{
    std::size_t visited = 0;
    for (const StoredEntry &entry : store.entries) {
        for (const StoredWindow &window : entry.windows)
            visit(window);
        visited += entry.windows.empty() ? 0 : 1;
    }
    return visited;
}

class StoreResultAuditRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL018"; }
    std::string name() const override { return "store-result-audit"; }
    std::string
    description() const override
    {
        return "deserialized store results satisfy the simulator's "
               "counter accounting identities";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "store", "store result audit"))
            return;
        std::size_t audited =
            forEachStoredWindow(store, [&](const StoredWindow &w) {
                if (w.counters->instructions == 0)
                    error(out, w.location,
                          "stored window retired zero instructions",
                          "an empty measurement window cannot produce "
                          "the paper's rates; invalidate and re-run");
                else
                    violationErrors(out, w.location, w.identities,
                                    "counters");
                if (w.result)
                    auditResult(w.location, *w.result, out);
            });
        emit(out, Severity::Info, "store",
             std::to_string(audited) + " entries re-audited in " +
                 context.store_dir);
    }

  private:
    /** The per-result checks: CPI, CPI-stack components, power rails. */
    void
    auditResult(const std::string &loc,
                const uarch::SimulationResult &result,
                std::vector<Diagnostic> &out) const
    {
        if (!(std::isfinite(result.cpi()) && result.cpi() > 0.0))
            error(out, loc,
                  "stored CPI is " + num(result.cpi()) +
                      ", not finite-positive");
        for (double component : result.cpi_stack.components())
            if (!(std::isfinite(component) && component >= 0.0)) {
                error(out, loc,
                      "CPI-stack component is " + num(component) +
                          ", not finite and non-negative");
                break;
            }
        const double rails[] = {result.power.core_watts,
                                result.power.llc_watts,
                                result.power.dram_watts};
        for (double watts : rails)
            if (!(std::isfinite(watts) && watts >= 0.0)) {
                error(out, loc,
                      "power rail is " + num(watts) +
                          " W, not finite and non-negative");
                break;
            }
    }
};

class StoreMetricRangeRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL019"; }
    std::string name() const override { return "store-metric-range"; }
    std::string
    description() const override
    {
        return "stored metrics stay inside physical envelopes and "
               "match the describing machine's topology";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "store",
                                "store metric-range check"))
            return;
        auto check = [&](const StoredWindow &w) {
            const uarch::PerfCounters &c = *w.counters;
            const uarch::SimulationResult *result = w.result;
            const std::string &loc = w.location;
            if (c.instructions == 0)
                return; // SL018 reports the empty window.
            if (result) {
                double ipc = result->ipc();
                if (!(ipc > 0.0 && ipc <= 8.0))
                    error(out, loc,
                          "IPC is " + num(ipc) +
                              ", outside the plausible (0, 8] range");
                if (result->cpi() > 100.0)
                    error(out, loc,
                          "CPI is " + num(result->cpi()) +
                              ", beyond any modelled stall mix");
            }
            const struct
            {
                const char *metric;
                double value;
            } mpki[] = {
                {"l1d_mpki", c.l1dMpki()},
                {"l1i_mpki", c.l1iMpki()},
                {"l2d_mpki", c.l2dMpki()},
                {"l2i_mpki", c.l2iMpki()},
                {"l3_mpki", c.l3Mpki()},
                {"branch_mpki", c.branchMpki()},
            };
            for (const auto &m : mpki)
                if (!(m.value >= 0.0 && m.value <= 1000.0))
                    error(out, loc,
                          std::string(m.metric) + " is " +
                              num(m.value) +
                              ", outside [0, 1000] (at most one "
                              "event per instruction)");
            violationErrors(out, loc, w.identities, "topology");
        };
        std::size_t checked = forEachStoredWindow(store, check);
        emit(out, Severity::Info, "store",
             std::to_string(checked) + " entries range-checked in " +
                 context.store_dir);
    }
};

class MemoryMetricRangeRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL026"; }
    std::string name() const override { return "memory-metric-range"; }
    std::string
    description() const override
    {
        return "stored memory-centric metrics (prefetch, way "
               "prediction, DRAM) stay in range and satisfy the "
               "accounting identities";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "store",
                                "memory metric-range check"))
            return;
        auto check = [&](const StoredWindow &w) {
            const uarch::PerfCounters &c = *w.counters;
            const std::string &loc = w.location;
            const struct
            {
                const char *metric;
                double value;
            } ratios[] = {
                {"prefetch_coverage", c.prefetchCoverage()},
                {"prefetch_accuracy", c.prefetchAccuracy()},
                {"prefetch_timeliness", c.prefetchTimeliness()},
                {"way_pred_accuracy", c.wayPredAccuracy()},
                {"row_buffer_hit_rate", c.rowBufferHitRate()},
            };
            for (const auto &r : ratios)
                if (!inUnit(r.value))
                    error(out, loc,
                          std::string(r.metric) + " is " +
                              num(r.value) + ", outside [0, 1]");
            double bw = c.dramBwUtilization();
            if (!(std::isfinite(bw) && bw >= 0.0))
                error(out, loc,
                      "dram_bw_utilization is " + num(bw) +
                          ", not a finite non-negative ratio");
            violationErrors(out, loc, w.identities, "memory");
        };
        std::size_t checked = forEachStoredWindow(store, check);
        emit(out, Severity::Info, "store",
             std::to_string(checked) +
                 " entries memory-metric-checked in " +
                 context.store_dir);
    }
};

/** One BENCH_<pr>.json artifact, parsed. */
struct BenchArtifact
{
    std::string filename;
    bool readable = false;
    std::optional<obs::JsonValue> doc; //!< Null when not valid JSON.
    std::uint64_t pr = 0; //!< From the file name.
    int version = 0;      //!< 1, 2 or 3; 0 when the schema is foreign.
};

/** Collect BENCH_<pr>.json artifacts under @p dir, name-sorted. */
std::vector<BenchArtifact>
collectBenchArtifacts(const std::string &dir)
{
    std::vector<BenchArtifact> artifacts;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= 11 || name.compare(0, 6, "BENCH_") != 0 ||
            name.compare(name.size() - 5, 5, ".json") != 0)
            continue;
        const std::string digits = name.substr(6, name.size() - 11);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            continue;
        BenchArtifact artifact;
        artifact.filename = name;
        artifact.pr = std::stoull(digits);
        obs::JsonFile file = obs::readJsonFile(entry.path().string());
        artifact.readable = file.bytes > 0;
        artifact.doc = std::move(file.doc);
        std::string schema;
        if (artifact.doc && artifact.doc->string("schema", schema)) {
            if (schema == "speclens-bench-trajectory-v1")
                artifact.version = 1;
            else if (schema == "speclens-bench-trajectory-v2")
                artifact.version = 2;
            else if (schema == "speclens-bench-trajectory-v3")
                artifact.version = 3;
        }
        artifacts.push_back(std::move(artifact));
    }
    std::sort(artifacts.begin(), artifacts.end(),
              [](const BenchArtifact &a, const BenchArtifact &b) {
                  return a.pr < b.pr;
              });
    return artifacts;
}

class BenchSchemaRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL020"; }
    std::string name() const override { return "bench-schema"; }
    std::string
    description() const override
    {
        return "each BENCH_<pr>.json trajectory artifact is "
               "well-formed and internally consistent";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (context.bench_dir.empty()) {
            emit(out, Severity::Info, "bench",
                 "trajectory-artifact checks skipped (no --bench "
                 "directory given)");
            return;
        }
        std::vector<BenchArtifact> artifacts =
            collectBenchArtifacts(context.bench_dir);
        if (artifacts.empty()) {
            emit(out, Severity::Info, "bench",
                 "no BENCH_<pr>.json artifacts under " +
                     context.bench_dir);
            return;
        }
        for (const BenchArtifact &a : artifacts)
            checkArtifact(a, out);
        emit(out, Severity::Info, "bench",
             std::to_string(artifacts.size()) +
                 " trajectory artifacts checked in " +
                 context.bench_dir);
    }

  private:
    void
    checkArtifact(const BenchArtifact &a,
                  std::vector<Diagnostic> &out) const
    {
        const std::string loc = "bench/" + a.filename;
        if (!a.readable) {
            error(out, loc, "artifact is unreadable or empty");
            return;
        }
        if (!a.doc) {
            error(out, loc, "artifact is not well-formed JSON",
                  "regenerate it with `speclens bench trajectory "
                  "--pr N`");
            return;
        }
        const obs::JsonValue &doc = *a.doc;
        if (a.version == 0) {
            std::string schema;
            doc.string("schema", schema);
            error(out, loc,
                  "unknown trajectory schema '" + schema + "'",
                  "expected speclens-bench-trajectory-v1, -v2 or -v3");
            return;
        }
        std::uint64_t pr = 0;
        if (!doc.u64("pr", pr) || pr != a.pr)
            error(out, loc,
                  "embedded pr number does not match the file name",
                  "trajectory files must be named BENCH_<pr>.json");

        if (!doc.find("campaign")) {
            error(out, loc, "missing campaign section");
            return;
        }
        double simulations = 0.0, per_sim = 0.0, total = 0.0;
        if (doc.number("campaign.simulations", simulations) &&
            doc.number("campaign.records_per_simulation", per_sim) &&
            doc.number("campaign.records_total", total)) {
            if (total != simulations * per_sim)
                error(out, loc,
                      "records_total != simulations * "
                      "records_per_simulation");
        } else {
            error(out, loc, "campaign volume fields missing");
        }
        if (!doc.hex16("campaign.fingerprint"))
            error(out, loc,
                  "campaign fingerprint is not a 16-hex digest");
        double fused = 0.0;
        if (!doc.number("campaign.fused_seconds", fused) || !(fused > 0.0))
            error(out, loc, "campaign timing missing or non-positive");
        // A checked store stage must be a zero-simulation exact replay.
        bool checked = false, identical = false;
        double warm_runs = -1.0;
        if (doc.boolean("store.checked", checked) && checked &&
            !(doc.boolean("store.warm_bit_identical", identical) &&
              identical &&
              doc.number("store.warm_simulations_run", warm_runs) &&
              warm_runs == 0.0))
            error(out, loc,
                  "warm-store rerun is not a bit-identical "
                  "zero-simulation replay",
                  "never commit such a run");
        if (a.version >= 2)
            checkSeedBaseline(doc, loc, out);
    }

    void
    checkSeedBaseline(const obs::JsonValue &doc, const std::string &loc,
                      std::vector<Diagnostic> &out) const
    {
        if (!doc.find("seed_baseline")) {
            error(out, loc, "v2 artifact lacks a seed_baseline block");
            return;
        }
        double seed_rps = 0.0, seed_sps = 0.0;
        if (!doc.number("seed_baseline.records_per_second", seed_rps) ||
            !doc.number("seed_baseline.simulations_per_second",
                        seed_sps) ||
            !nearRel(seed_rps, core::kSeedRecordsPerSecond, 1e-6) ||
            !nearRel(seed_sps, core::kSeedSimulationsPerSecond, 1e-6))
            error(out, loc,
                  "seed_baseline does not match the pinned PR-5 "
                  "constants",
                  "kSeedRecordsPerSecond / kSeedSimulationsPerSecond "
                  "in core/perf_trajectory.h are the trajectory's "
                  "fixed origin");
        double rps = 0.0, vs_seed = 0.0;
        if (doc.number("campaign.records_per_second", rps) &&
            doc.number("campaign.speedup_vs_seed", vs_seed) &&
            !nearRel(vs_seed, rps / core::kSeedRecordsPerSecond, 1e-6))
            error(out, loc,
                  "speedup_vs_seed does not equal records_per_second "
                  "/ seed records_per_second");
    }
};

class BenchTrajectoryRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL021"; }
    std::string name() const override { return "bench-trajectory"; }
    std::string
    description() const override
    {
        return "the BENCH_<pr>.json series is mutually comparable: "
               "distinct PRs, one pinned configuration";
    }

    void
    run(const LintContext &context, const StoreSnapshot &,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (context.bench_dir.empty()) {
            emit(out, Severity::Info, "bench",
                 "trajectory-series checks skipped (no --bench "
                 "directory given)");
            return;
        }
        std::vector<BenchArtifact> artifacts =
            collectBenchArtifacts(context.bench_dir);
        if (artifacts.empty()) {
            emit(out, Severity::Info, "bench",
                 "no BENCH_<pr>.json artifacts under " +
                     context.bench_dir);
            return;
        }
        std::set<std::uint64_t> prs;
        for (const BenchArtifact &a : artifacts) {
            const std::string loc = "bench/" + a.filename;
            if (!prs.insert(a.pr).second)
                error(out, loc,
                      "duplicate trajectory point for PR " +
                          std::to_string(a.pr),
                      "each PR contributes exactly one BENCH file");
            if (a.version == 0)
                continue; // SL020 reports the schema defect.
            std::uint64_t instructions = 0, warmup = 0, salt = 0,
                          jobs = 0;
            bool have = a.doc->u64("config.instructions", instructions) &&
                        a.doc->u64("config.warmup", warmup) &&
                        a.doc->u64("config.seed_salt", salt) &&
                        a.doc->u64("config.jobs", jobs);
            if (!have || instructions != core::kTrajectoryInstructions ||
                warmup != core::kTrajectoryWarmup || salt != 0 ||
                jobs != 1)
                error(out, loc,
                      "measurement configuration is not the pinned "
                      "trajectory window",
                      "points are only comparable when every PR "
                      "measures the same pinned configuration "
                      "(core/perf_trajectory.h)");
        }
        emit(out, Severity::Info, "bench",
             std::to_string(prs.size()) +
                 " trajectory points span PRs " +
                 std::to_string(artifacts.front().pr) + ".." +
                 std::to_string(artifacts.back().pr));
    }
};

class ManifestSchemaRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL022"; }
    std::string name() const override { return "manifest-schema"; }
    std::string
    description() const override
    {
        return "the store's run-manifest.json carries the version-1 "
               "schema with every required block";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "manifest", "manifest checks"))
            return;
        const obs::JsonFile &manifest = store.manifest;
        if (!manifest.present) {
            emit(out, Severity::Info, "manifest",
                 "store has no run manifest (written by campaign "
                 "runs; nothing to check)");
            return;
        }
        const std::string loc = "store/run-manifest.json";
        if (!manifest.doc) {
            error(out, loc, "manifest is not well-formed JSON",
                  "delete it and re-run a campaign with --store");
            return;
        }
        for (const obs::ManifestDefect &defect :
             obs::checkManifest(*manifest.doc, core::kStoreEngineVersion))
            emit(out, defect.warning ? Severity::Warning : Severity::Error,
                 loc, defect.message, defect.fix_hint);
    }
};

class ManifestStoreRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL023"; }
    std::string name() const override { return "manifest-store"; }
    std::string
    description() const override
    {
        return "the run manifest's totals agree with the store "
               "directory it describes";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "manifest",
                                "manifest cross-check"))
            return;
        const obs::JsonFile &manifest = store.manifest;
        if (!manifest.present) {
            emit(out, Severity::Info, "manifest",
                 "store has no run manifest to cross-check");
            return;
        }
        const std::string loc = "store/run-manifest.json";
        std::uint64_t entries = 0, misses = 0, simulations = 0,
                      saves = 0;
        if (!manifest.doc ||
            !manifest.doc->u64("totals.entries", entries) ||
            !manifest.doc->u64("totals.misses", misses) ||
            !manifest.doc->u64("totals.simulations", simulations) ||
            !manifest.doc->u64("totals.saves", saves))
            return; // SL022 reports the schema defect.

        const std::size_t on_disk = store.entries.size();
        if (entries != on_disk)
            error(out, loc,
                  "manifest records " + std::to_string(entries) +
                      " entries but the store holds " +
                      std::to_string(on_disk),
                  "the store changed since the manifest was written; "
                  "re-run the campaign with --store to refresh it");
        if (saves > simulations)
            error(out, loc,
                  "manifest records more saves than simulations",
                  "every save is preceded by a computed simulation");
        if (simulations > misses)
            error(out, loc,
                  "manifest records more simulations than store "
                  "misses",
                  "a simulation is only computed after a store miss");
    }
};

class StorePhasedConsistencyRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL024"; }
    std::string name() const override { return "store-phased"; }
    std::string
    description() const override
    {
        return "phased store entries combine exactly: counters sum "
               "field-wise and combined CPI lies within phase CPIs";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "store",
                                "phased-consistency check"))
            return;
        std::size_t checked = 0;
        for (const StoredEntry &entry : store.entries) {
            const core::StoreEntryInfo &info = entry.info;
            if (info.status != core::StoreStatus::Hit || info.phases == 0)
                continue;
            const std::string loc = "store/" + info.filename;
            const uarch::PhasedSimulationResult &result = info.phased;
            uarch::PerfCounters sum;
            for (const uarch::SimulationResult &phase :
                 result.per_phase)
                sum += phase.counters;
            for (const auto &f : uarch::kPerfCounterFields) {
                if (result.combined_counters.*f.member != sum.*f.member) {
                    error(out, loc,
                          std::string("combined counter '") + f.name +
                              "' is not the sum of its phases",
                          "phased results are combined by exact "
                          "field-wise accumulation");
                    break;
                }
            }
            double lo = result.per_phase.front().cpi();
            double hi = lo;
            for (const uarch::SimulationResult &phase :
                 result.per_phase) {
                lo = std::min(lo, phase.cpi());
                hi = std::max(hi, phase.cpi());
            }
            if (!(result.combined_cpi >= lo * (1.0 - 1e-9) - 1e-9 &&
                  result.combined_cpi <= hi * (1.0 + 1e-9) + 1e-9))
                error(out, loc,
                      "combined CPI " + num(result.combined_cpi) +
                          " lies outside the per-phase range [" +
                          num(lo) + ", " + num(hi) + "]",
                      "the execution-weighted mean cannot leave the "
                      "convex hull of its phases");
            ++checked;
        }
        emit(out, Severity::Info, "store",
             checked == 0
                 ? "no phased entries to check"
                 : std::to_string(checked) +
                       " phased entries combine consistently");
    }
};

class StoreShardLayoutRule final : public RuleBase
{
  public:
    std::string code() const override { return "SL025"; }
    std::string name() const override { return "store-shard-layout"; }
    std::string
    description() const override
    {
        return "every store entry sits in the shard its fingerprint "
               "names";
    }

    void
    run(const LintContext &context, const StoreSnapshot &store,
        const DeepCampaign &, std::vector<Diagnostic> &out) const override
    {
        if (skippedWithoutStore(context, out, "store", "shard-layout check"))
            return;
        std::size_t well_placed = 0, misfiled = 0;
        for (const StoredEntry &entry : store.entries) {
            const core::StoreEntryInfo &info = entry.info;
            const std::string loc = "store/" + info.filename;
            if (!entry.canonical_name) {
                error(out, loc,
                      "entry filename is not a 16-digit lower-case hex "
                      "fingerprint");
            } else if (info.status == core::StoreStatus::Misfiled) {
                ++misfiled;
                error(out, loc, "entry is " + info.detail,
                      "loads resolve entries by fingerprint shard, so a "
                      "misfiled entry is unreachable and silently "
                      "recomputed; move or delete it");
            } else {
                ++well_placed;
            }
        }
        emit(out, Severity::Info, "store",
             std::to_string(well_placed) +
                 " entries correctly sharded, " +
                 std::to_string(misfiled) + " misfiled");
    }
};

} // namespace

DeepCampaign::DeepCampaign(const LintContext &context)
{
    if (!context.deep)
        return;
    core::CharacterizationConfig config;
    config.instructions = context.instructions;
    config.warmup = context.warmup;
    config.jobs = context.jobs;
    skylake = std::make_unique<core::Characterizer>(
        std::vector<uarch::MachineConfig>{suites::skylakeMachine()}, config);
    skylake->prepare(context.cpu2017);
}

StoreSnapshot::StoreSnapshot(const LintContext &context)
{
    if (context.store_dir.empty())
        return;
    // Every model an entry may describe: the three databases plus the
    // Fig. 7/8 input-set variants, and the machines below.  Machine
    // names are not unique (the ablation variant keeps Skylake's), so
    // an entry resolves by name *and* fingerprint.
    std::map<std::string, const trace::WorkloadProfile *> profiles;
    for (const suites::BenchmarkInfo *b : context.allBenchmarks())
        profiles.emplace(b->profile.name, &b->profile);
    for (const suites::InputSetGroup &g : context.input_groups)
        for (const suites::BenchmarkInfo &v : g.inputs)
            profiles.emplace(v.profile.name, &v.profile);
    machines = context.machines;
    for (auto family :
         {suites::memoryCentricMachines(), suites::sensitivityMachines()})
        machines.insert(machines.end(), family.begin(), family.end());
    machines.push_back(suites::prefetchAblationMachine());

    core::StoreScan scan = core::scanStore(context.store_dir);
    found = scan.found;
    manifest = obs::readJsonFile(context.store_dir + "/" +
                                 obs::kManifestFileName);
    // Windows point into their entry: the vector must never reallocate.
    entries.reserve(scan.entries.size());
    for (core::StoreEntryInfo &scanned : scan.entries) {
        StoredEntry &entry = entries.emplace_back();
        entry.info = std::move(scanned);
        const core::StoreEntryInfo &info = entry.info;
        std::uint64_t named = 0;
        entry.canonical_name = core::parseStoreEntryName(
            info.filename.substr(info.filename.find('/') + 1), named);
        if (info.status != core::StoreStatus::Hit)
            continue;

        auto known = profiles.find(baseName(info));
        entry.profile = known == profiles.end() ? nullptr : known->second;
        // Derived workloads (phased ground truths and "@k" phase probes)
        // cannot be re-derived without their derivation parameters.
        const trace::WorkloadProfile *shipped =
            info.phases > 0 || info.benchmark.find('@') != std::string::npos
                ? nullptr
                : entry.profile;
        entry.stale_model = shipped != nullptr;
        for (const uarch::MachineConfig &m : machines) {
            if (m.name != info.machine)
                continue;
            if (!entry.machine)
                entry.machine = &m;
            if (shipped && core::makeStoreKey(*shipped, m, windowOf(info))
                                   .fingerprint == info.fingerprint) {
                entry.machine = &m;
                entry.stale_model = false;
                break;
            }
        }

        auto window = [&](std::string location,
                          const uarch::PerfCounters &counters,
                          const uarch::SimulationResult *result) {
            entry.windows.push_back(
                {std::move(location), &counters, result,
                 uarch::checkCounterIdentities(counters, entry.machine)});
        };
        const std::string loc = "store/" + info.filename;
        if (info.phases == 0) {
            window(loc, info.result.counters, &info.result);
        } else {
            window(loc + "/combined", info.phased.combined_counters,
                   nullptr);
            for (std::size_t k = 0; k < info.phased.per_phase.size(); ++k)
                window(loc + "/phase" + std::to_string(k),
                       info.phased.per_phase[k].counters,
                       &info.phased.per_phase[k]);
        }
    }
}

std::vector<const suites::BenchmarkInfo *>
LintContext::allBenchmarks() const
{
    std::vector<const suites::BenchmarkInfo *> all;
    all.reserve(cpu2017.size() + cpu2006.size() + emerging.size());
    for (const auto *list : {&cpu2017, &cpu2006, &emerging})
        for (const suites::BenchmarkInfo &b : *list)
            all.push_back(&b);
    return all;
}

LintContext
shippedContext()
{
    LintContext context;
    context.cpu2017 = suites::spec2017();
    context.cpu2006 = suites::spec2006();
    context.emerging = suites::emergingBenchmarks();
    context.machines = suites::profilingMachines();
    context.input_groups = suites::inputSetGroupsInt();
    for (suites::InputSetGroup &g : suites::inputSetGroupsFp())
        context.input_groups.push_back(std::move(g));
    return context;
}

std::vector<std::unique_ptr<Rule>>
defaultRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<WorkloadFamilyRule>(
        "SL001", "mix-range",
        "instruction-mix fractions lie in [0,1] and leave a "
        "non-negative integer-ALU remainder"));
    rules.push_back(std::make_unique<WorkloadFamilyRule>(
        "SL002", "mix-sum",
        "working-set mixture weights are finite, positive and sum to 1 "
        "within tolerance"));
    rules.push_back(std::make_unique<WorkloadFamilyRule>(
        "SL003", "cpi-components",
        "the profile is named, the instruction count is finite and "
        "positive, CPI components are finite and non-negative and "
        "MLP >= 1"));
    rules.push_back(std::make_unique<WorkloadFamilyRule>(
        "SL004", "working-set-shape",
        "working-set sizes are finite, increase hot->vast and strides "
        "are line-granular"));
    rules.push_back(std::make_unique<WorkloadFamilyRule>(
        "SL005", "code-model",
        "hot code fits inside the finite code footprint and code "
        "locality is a probability"));
    rules.push_back(std::make_unique<WorkloadFamilyRule>(
        "SL006", "branch-model",
        "branch-population fractions are probabilities and the "
        "static population is within [1, 2^20]"));
    rules.push_back(std::make_unique<MachineFamilyRule>(
        "SL007", "cache-monotonic",
        "cache capacity and visible latency grow with the hierarchy "
        "level"));
    rules.push_back(std::make_unique<MachineFamilyRule>(
        "SL008", "cache-geometry",
        "every cache has a power-of-two line size and a geometry its "
        "ways divide evenly"));
    rules.push_back(std::make_unique<MachineFamilyRule>(
        "SL009", "tlb-config",
        "TLB entries/ways/page sizes are sane and a shared L2 TLB "
        "covers the L1 TLBs"));
    rules.push_back(std::make_unique<MachineFamilyRule>(
        "SL010", "machine-config",
        "frequency, predictor size and power coefficients are in "
        "plausible hardware ranges"));
    rules.push_back(std::make_unique<TransformRule>());
    rules.push_back(std::make_unique<CrossReferenceRule>());
    rules.push_back(std::make_unique<InputSetRule>());
    rules.push_back(std::make_unique<ScoreDatabaseRule>());
    rules.push_back(std::make_unique<PaperBoundsRule>());
    rules.push_back(std::make_unique<StoreIntegrityRule>());
    rules.push_back(std::make_unique<DegenerateFeaturesRule>());
    rules.push_back(std::make_unique<StoreResultAuditRule>());
    rules.push_back(std::make_unique<StoreMetricRangeRule>());
    rules.push_back(std::make_unique<BenchSchemaRule>());
    rules.push_back(std::make_unique<BenchTrajectoryRule>());
    rules.push_back(std::make_unique<ManifestSchemaRule>());
    rules.push_back(std::make_unique<ManifestStoreRule>());
    rules.push_back(std::make_unique<StorePhasedConsistencyRule>());
    rules.push_back(std::make_unique<StoreShardLayoutRule>());
    rules.push_back(std::make_unique<MemoryMetricRangeRule>());
    return rules;
}

std::unique_ptr<Rule>
ruleByCode(const std::string &code)
{
    for (std::unique_ptr<Rule> &rule : defaultRules())
        if (rule->code() == code)
            return std::move(rule);
    throw std::invalid_argument("unknown lint rule code: " + code);
}

} // namespace lint
} // namespace speclens
