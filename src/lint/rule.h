/**
 * @file
 * The Rule interface and the data a lint run inspects.
 *
 * A LintContext snapshots everything the rules verify: the three
 * benchmark databases, the Table IV machine models, the input-set
 * groups and the synthetic score database.  Holding the data by value
 * lets tests corrupt a single field of a copy and assert that exactly
 * one rule fires with exactly its diagnostic code.  A StoreSnapshot
 * holds the context's artifact store, read once per lint run, and a
 * DeepCampaign its simulation-backed measurement, run once per lint
 * run.
 */

#ifndef SPECLENS_LINT_RULE_H
#define SPECLENS_LINT_RULE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "lint/diagnostics.h"
#include "obs/json.h"
#include "suites/benchmark_info.h"
#include "suites/input_sets.h"
#include "suites/score_database.h"
#include "uarch/machine.h"
#include "verify/violation.h"

namespace speclens {
namespace lint {

/** Everything a lint run inspects. */
struct LintContext
{
    std::vector<suites::BenchmarkInfo> cpu2017;
    std::vector<suites::BenchmarkInfo> cpu2006;
    std::vector<suites::BenchmarkInfo> emerging;
    std::vector<uarch::MachineConfig> machines;

    /** INT + FP input-set groups (Figs. 7-8). */
    std::vector<suites::InputSetGroup> input_groups;

    /** Synthetic published-results database (Section IV-B). */
    suites::ScoreDatabase scores;

    /**
     * When true, simulation-backed checks run too: each CPU2017
     * benchmark is measured on the simulated Skylake and its derived
     * metrics are checked against the Table I/II envelopes.  Slower
     * (43 short simulations, one DeepCampaign shared by SL015 and
     * SL017) but catches calibration drift that no purely structural
     * check can see.
     */
    bool deep = false;

    /** Simulation window for the deep checks. */
    std::uint64_t instructions = 120'000;
    std::uint64_t warmup = 30'000;

    /** Worker threads for the deep checks; 0 = one per hardware thread. */
    std::size_t jobs = 0;

    /**
     * Artifact-store directory for the store rules (SL016, SL018,
     * SL019, SL022-SL026), which read it through one StoreSnapshot;
     * empty (the default) skips them with an info note.
     */
    std::string store_dir;

    /** All benchmarks of all databases, 2017 first. */
    std::vector<const suites::BenchmarkInfo *> allBenchmarks() const;
};

/** Context loaded with the shipped suites, machines and databases. */
LintContext shippedContext();

/** One measured window of an entry that scanned clean. */
struct StoredWindow
{
    std::string location; //!< "store/<entry>[/combined|/phaseK]".
    const uarch::PerfCounters *counters = nullptr;
    const uarch::SimulationResult *result = nullptr; //!< Null if combined.
    /** checkCounterIdentities(*counters, entry machine), every owner. */
    std::vector<verify::Violation> identities;
};

/** One scanned store entry and what lint resolved for it. */
struct StoredEntry
{
    core::StoreEntryInfo info;

    /**
     * The file name is exactly the one a save writes (16 lower-case
     * hex digits + `.slart`).  No load opens any other name, so SL025
     * alone reports such an entry, whatever it holds.
     */
    bool canonical_name = false;

    // Set only for an entry that scanned clean (status Hit): the
    // shipped profile of its base benchmark; the machine that wrote it
    // (of the known machines with its name, the one whose store key
    // reproduces the fingerprint, else the first); whether a shipped,
    // non-derived profile no longer reproduces the fingerprint; and its
    // windows (a pair's result, or a phased entry's combined counters,
    // then each phase).
    const trace::WorkloadProfile *profile = nullptr;
    const uarch::MachineConfig *machine = nullptr;
    bool stale_model = false;
    std::vector<StoredWindow> windows;
};

/**
 * The context's artifact store, read once: every entry read, verified
 * and decoded by core::scanStore(), resolved against the shipped
 * models, each stored window's counter identities checked, and the
 * run manifest parsed.  Linter::run builds one per run and every store
 * rule reads it; no rule opens the directory.  Empty without a store.
 */
struct StoreSnapshot
{
    explicit StoreSnapshot(const LintContext &context);
    // Entries point into this object, so it is neither copied nor moved.
    StoreSnapshot(const StoreSnapshot &) = delete;
    StoreSnapshot &operator=(const StoreSnapshot &) = delete;

    bool found = false;               //!< The store directory exists.
    std::vector<StoredEntry> entries; //!< By path.
    obs::JsonFile manifest;           //!< The run manifest.

    /** Every machine an entry may name (StoredEntry::machine points
     *  here): the context's, memory-centric, sensitivity and ablation. */
    std::vector<uarch::MachineConfig> machines;
};

/**
 * The deep checks' measurement: every CPU2017 benchmark of the context
 * on the simulated Skylake at the context's window, simulated once per
 * lint run.  Linter::run builds one and both deep rules (SL015, SL017)
 * read it.  Without LintContext::deep nothing is measured.
 */
struct DeepCampaign
{
    explicit DeepCampaign(const LintContext &context);

    /** Null unless deep; else every CPU2017 pair is cached. */
    std::unique_ptr<core::Characterizer> skylake;
};

/** One verification rule. */
class Rule
{
  public:
    virtual ~Rule() = default;

    /** Stable diagnostic code ("SL001"). */
    virtual std::string code() const = 0;

    /** Short kebab-case name ("mix-range"). */
    virtual std::string name() const = 0;

    /** One-line description of what the rule verifies. */
    virtual std::string description() const = 0;

    /**
     * Append findings for @p context (its store: @p store; its deep
     * measurement: @p deep) to @p out.
     */
    virtual void run(const LintContext &context, const StoreSnapshot &store,
                     const DeepCampaign &deep,
                     std::vector<Diagnostic> &out) const = 0;
};

} // namespace lint
} // namespace speclens

#endif // SPECLENS_LINT_RULE_H
