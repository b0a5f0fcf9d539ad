/**
 * @file
 * Per-rule corruption tests.
 *
 * Every rule is exercised both ways: on the shipped data (no findings)
 * and on a context with exactly one field corrupted, where it must
 * fire with exactly its diagnostic code.  The LintContext holds its
 * data by value precisely so these tests can mutate a copy.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "core/artifact_store.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "stats/fingerprint.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "trace/address_stream.h"
#include "trace/phased_workload.h"
#include "uarch/simulation.h"

namespace speclens {
namespace lint {
namespace {

/** Shipped context, copied fresh per test (deep checks off). */
LintContext
cleanContext()
{
    static const LintContext base = shippedContext();
    LintContext context = base;
    context.deep = false;
    return context;
}

/** Diagnostics from running just the rule with @p code. */
std::vector<Diagnostic>
runRule(const std::string &code, const LintContext &context)
{
    std::vector<Diagnostic> out;
    const StoreSnapshot store(context);
    const DeepCampaign deep(context);
    ruleByCode(code)->run(context, store, deep, out);
    return out;
}

/** Errors only (deep-skip Info notes are not findings). */
std::size_t
errorCount(const std::vector<Diagnostic> &diagnostics)
{
    return countSeverity(diagnostics, Severity::Error);
}

/**
 * The corrupted context must make rule @p code (and only invocations
 * of that rule) report at least one error, every error carrying the
 * rule's own code; the clean context must stay silent.
 */
void
expectFires(const std::string &code, const LintContext &corrupted)
{
    EXPECT_EQ(errorCount(runRule(code, cleanContext())), 0u)
        << code << " reports errors on shipped data";
    std::vector<Diagnostic> found = runRule(code, corrupted);
    EXPECT_GT(errorCount(found), 0u)
        << code << " missed the seeded corruption";
    for (const Diagnostic &d : found)
        EXPECT_EQ(d.code, code) << "stray code from " << code;
}

TEST(Rules, SL001_MixRange)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.mix.load = 1.5;
    expectFires("SL001", context);
}

TEST(Rules, SL001_MixOverUnitBudget)
{
    LintContext context = cleanContext();
    // Each fraction in range but the sum exceeds 1.
    context.cpu2006[0].profile.mix.load = 0.6;
    context.cpu2006[0].profile.mix.store = 0.6;
    expectFires("SL001", context);
}

TEST(Rules, SL002_MixSum)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.memory.data[1].weight = 0.5;
    expectFires("SL002", context);
}

TEST(Rules, SL002_NonPositiveWeight)
{
    LintContext context = cleanContext();
    context.emerging[0].profile.memory.data[2].weight = -0.1;
    expectFires("SL002", context);
}

TEST(Rules, SL003_CpiComponents)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.exec.base_cpi = -0.1;
    expectFires("SL003", context);
}

TEST(Rules, SL003_MlpBelowOne)
{
    LintContext context = cleanContext();
    context.cpu2017[3].profile.exec.mlp = 0.5;
    expectFires("SL003", context);
}

TEST(Rules, SL004_WorkingSetShape)
{
    LintContext context = cleanContext();
    // Big set smaller than the mid set: ordering broken.
    context.cpu2017[0].profile.memory.data[2].bytes = 1024.0;
    expectFires("SL004", context);
}

TEST(Rules, SL005_CodeModel)
{
    LintContext context = cleanContext();
    trace::MemoryModel &m = context.cpu2017[0].profile.memory;
    m.hot_code_bytes = m.code_bytes * 2;
    expectFires("SL005", context);
}

TEST(Rules, SL006_BranchModel)
{
    LintContext context = cleanContext();
    context.cpu2017[0].profile.branch.taken_fraction = 1.2;
    expectFires("SL006", context);
}

TEST(Rules, SL007_CacheMonotonicity)
{
    LintContext context = cleanContext();
    context.machines[0].caches.l2.size_bytes = 16 * 1024;
    expectFires("SL007", context);
}

TEST(Rules, SL007_LatencyInversion)
{
    LintContext context = cleanContext();
    context.machines[2].latencies.memory_cycles = 1.0;
    expectFires("SL007", context);
}

TEST(Rules, SL008_CacheGeometry)
{
    LintContext context = cleanContext();
    context.machines[0].caches.l1d.line_bytes = 48;
    expectFires("SL008", context);
}

TEST(Rules, SL008_CapacityNotMultipleOfWay)
{
    LintContext context = cleanContext();
    context.machines[1].caches.l2.size_bytes = 200 * 1000;
    expectFires("SL008", context);
}

TEST(Rules, SL009_TlbConfig)
{
    LintContext context = cleanContext();
    // Skylake DTLB has 64 entries; 3 ways do not divide them.
    context.machines[0].tlbs.dtlb.associativity = 3;
    expectFires("SL009", context);
}

TEST(Rules, SL009_L2TlbSmallerThanL1)
{
    LintContext context = cleanContext();
    ASSERT_TRUE(context.machines[0].tlbs.l2tlb.has_value());
    context.machines[0].tlbs.l2tlb->entries = 32;
    context.machines[0].tlbs.l2tlb->associativity = 32;
    expectFires("SL009", context);
}

TEST(Rules, SL010_MachineConfig)
{
    LintContext context = cleanContext();
    context.machines[0].frequency_ghz = 9.0;
    expectFires("SL010", context);
}

TEST(Rules, SL011_Transform)
{
    LintContext context = cleanContext();
    context.machines[0].transform.mix_jitter = 0.5;
    expectFires("SL011", context);
}

TEST(Rules, SL012_CrossReference)
{
    LintContext context = cleanContext();
    context.cpu2017[0].partner = "999.nonesuch_r";
    expectFires("SL012", context);
}

TEST(Rules, SL013_InputSets)
{
    LintContext context = cleanContext();
    ASSERT_FALSE(context.input_groups.empty());
    ASSERT_GT(context.input_groups[0].inputs.size(), 1u);
    context.input_groups[0].inputs.pop_back();
    expectFires("SL013", context);
}

TEST(Rules, SL014_ScoreDatabase)
{
    LintContext context = cleanContext();
    // A NaN mix fraction propagates through deriveTraits() into the
    // speedup model.
    context.cpu2017[0].profile.mix.load =
        std::numeric_limits<double>::quiet_NaN();
    expectFires("SL014", context);
}

TEST(Rules, SL015_PaperBounds)
{
    LintContext context = cleanContext();
    context.cpu2017[0].published_cpi = 50.0;
    expectFires("SL015", context);
}

TEST(Rules, SL015_DeepSimulationChecksPassOnShippedData)
{
    LintContext context = cleanContext();
    context.deep = true;
    context.instructions = 15'000;
    context.warmup = 5'000;
    std::vector<Diagnostic> found = runRule("SL015", context);
    EXPECT_EQ(errorCount(found), 0u);
    // With deep checks on, the skip note must be absent.
    for (const Diagnostic &d : found)
        EXPECT_EQ(d.message.find("skipped"), std::string::npos);
}

TEST(Rules, SL015_SkipNoteWithoutDeep)
{
    std::vector<Diagnostic> found =
        runRule("SL015", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL016_SkipNoteWithoutStore)
{
    std::vector<Diagnostic> found =
        runRule("SL016", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL016_StoreIntegrity)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "speclens_sl016_test";
    std::filesystem::remove_all(dir);

    // A healthy store (one shipped pair) lints clean...
    core::CampaignStore store(dir.string());
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    LintContext context = cleanContext();
    core::StoreKey key = core::makeStoreKey(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(key,
               uarch::simulate(context.cpu2017[0].profile,
                               context.machines[0], window));
    context.store_dir = dir.string();
    EXPECT_EQ(errorCount(runRule("SL016", context)), 0u);

    // ...and a truncated entry is an error finding.
    std::filesystem::resize_file(store.entryPath(key), 12);
    expectFires("SL016", context);
    std::filesystem::remove_all(dir);
}

TEST(Rules, SL016_OrphanedEntryWarns)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "speclens_sl016_orphan_test";
    std::filesystem::remove_all(dir);

    // A consistent entry whose benchmark no shipped model matches:
    // warning, not error.
    core::CampaignStore store(dir.string());
    LintContext context = cleanContext();
    trace::WorkloadProfile foreign = context.cpu2017[0].profile;
    foreign.name = "999.nonesuch_r";
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    core::StoreKey key =
        core::makeStoreKey(foreign, context.machines[0], window);
    store.save(key, uarch::simulate(foreign, context.machines[0],
                                    window));
    context.store_dir = dir.string();

    std::vector<Diagnostic> found = runRule("SL016", context);
    EXPECT_EQ(errorCount(found), 0u);
    EXPECT_EQ(countSeverity(found, Severity::Warning), 1u);
    std::filesystem::remove_all(dir);
}

TEST(Rules, SL017_SkipNoteWithoutDeep)
{
    std::vector<Diagnostic> found =
        runRule("SL017", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
    EXPECT_NE(found[0].message.find("skipped"), std::string::npos);
}

// A suite of identical workloads makes *every* feature column
// degenerate: SL017 must warn per column (never error — a dead metric
// is a calibration smell, not invalid data) and name each column.
TEST(Rules, SL017_IdenticalWorkloadsDegenerateEveryColumn)
{
    LintContext context = cleanContext();
    context.deep = true;
    context.instructions = 2'000;
    context.warmup = 500;
    context.cpu2017.resize(2);
    context.cpu2017[1] = context.cpu2017[0];

    std::vector<Diagnostic> found = runRule("SL017", context);
    EXPECT_EQ(errorCount(found), 0u);
    std::size_t warnings = countSeverity(found, Severity::Warning);
    EXPECT_GT(warnings, 0u);
    for (const Diagnostic &d : found) {
        EXPECT_EQ(d.code, "SL017");
        if (d.severity == Severity::Warning) {
            EXPECT_EQ(d.location.rfind("features/", 0), 0u)
                << d.location;
            EXPECT_FALSE(d.fix_hint.empty());
        }
    }
    // The summary Info line reports "0 of N feature columns vary".
    bool summary_seen = false;
    for (const Diagnostic &d : found)
        if (d.severity == Severity::Info &&
            d.message.rfind("0 of ", 0) == 0)
            summary_seen = true;
    EXPECT_TRUE(summary_seen);
    // Every column warned: warnings == N in "0 of N".
    EXPECT_EQ(warnings, found.size() - 1);
}

// SL015 and SL017 read one DeepCampaign: a deep lint run simulates each
// CPU2017 benchmark on Skylake once, not once per deep rule.
TEST(Rules, DeepRunSimulatesEachCpu2017BenchmarkOnce)
{
    if (!obs::kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    obs::Counter &simulations = obs::Registry::global().counter(
        "core.characterize.simulations");
    LintContext context = cleanContext();
    context.deep = true;
    context.instructions = 3'000;
    context.warmup = 800;
    const std::uint64_t before = simulations.value();
    (void)Linter().run(context);
    EXPECT_EQ(simulations.value() - before, context.cpu2017.size());
}

// ---------------------------------------------------------------------
// Artifact-lint family (SL018-SL024).

/** RAII temp directory under the system temp root. */
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const char *name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

void
writeFile(const std::filesystem::path &file, const std::string &text)
{
    std::ofstream os(file);
    os << text;
}

/** @p text with the first occurrence of @p from swapped for @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    std::size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos)
        text.replace(pos, from.size(), to);
    return text;
}

/** A well-formed version-1 run manifest claiming @p entries entries. */
std::string
manifestText(std::uint64_t entries)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"manifest_version\": 1,\n";
    os << "  \"engine_version\": " << core::kStoreEngineVersion << ",\n";
    os << "  \"config_fingerprint\": \"0123456789abcdef\",\n";
    os << "  \"run\": {\n";
    os << "    \"benchmarks\": 23,\n";
    os << "    \"machines\": 7\n";
    os << "  },\n";
    os << "  \"totals\": {\n";
    os << "    \"entries\": " << entries << ",\n";
    os << "    \"hits\": 0,\n";
    os << "    \"misses\": " << entries << ",\n";
    os << "    \"simulations\": " << entries << ",\n";
    os << "    \"saves\": " << entries << "\n";
    os << "  },\n";
    os << "  \"rejected\": {\n";
    os << "    \"corrupt\": 0,\n";
    os << "    \"stale_version\": 0,\n";
    os << "    \"fingerprint_mismatch\": 0,\n";
    os << "    \"orphaned_temp\": 0\n";
    os << "  },\n";
    os << "  \"metrics\": {\n";
    os << "    \"spans\": 0\n";
    os << "  }\n";
    os << "}\n";
    return os.str();
}

TEST(Rules, SL018_SkipNoteWithoutStore)
{
    std::vector<Diagnostic> found = runRule("SL018", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL018_StoreResultAudit)
{
    TempDir dir("speclens_sl018_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    // A faithfully saved result re-audits clean...
    uarch::SimulationResult result = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               result);
    EXPECT_EQ(errorCount(runRule("SL018", context)), 0u);

    // ...and a negative CPI-stack component is a finding.  (A broken
    // counter identity never reaches SL018: the store rejects such an
    // entry on load and SL016 reports it.)
    window.seed_salt = 7;
    uarch::SimulationResult bad = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    bad.cpi_stack.backend_memory = -0.25;
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               bad);
    expectFires("SL018", context);
}

TEST(Rules, SL019_StoreMetricRange)
{
    TempDir dir("speclens_sl019_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    uarch::SimulationResult result = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               result);
    EXPECT_EQ(errorCount(runRule("SL019", context)), 0u);

    // A CPI of 0.1 is an IPC of 10, past any modelled issue width.
    window.seed_salt = 7;
    uarch::SimulationResult bad = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    bad.cpi_stack = uarch::CpiStack{};
    bad.cpi_stack.base = 0.1;
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               bad);
    expectFires("SL019", context);
}

TEST(Rules, SL022_ManifestSchema)
{
    TempDir dir("speclens_sl022_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();

    // No manifest: an Info note, never a finding (API-created stores
    // legitimately lack one).
    std::vector<Diagnostic> found = runRule("SL022", context);
    EXPECT_EQ(errorCount(found), 0u);
    EXPECT_EQ(countSeverity(found, Severity::Info), 1u);

    writeFile(dir.path / obs::kManifestFileName, manifestText(0));
    EXPECT_EQ(errorCount(runRule("SL022", context)), 0u);

    writeFile(dir.path / obs::kManifestFileName,
              replaced(manifestText(0), "\"manifest_version\": 1",
                       "\"manifest_version\": 2"));
    expectFires("SL022", context);
}

TEST(Rules, SL023_ManifestStoreDrift)
{
    TempDir dir("speclens_sl023_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();

    // Consistent: empty store, manifest claiming zero entries.
    writeFile(dir.path / obs::kManifestFileName, manifestText(0));
    EXPECT_EQ(errorCount(runRule("SL023", context)), 0u);

    // A manifest describing five entries over an empty store is stale.
    writeFile(dir.path / obs::kManifestFileName, manifestText(5));
    expectFires("SL023", context);
}

TEST(Rules, SL024_StorePhasedConsistency)
{
    TempDir dir("speclens_sl024_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    trace::PhasedWorkload workload = trace::derivePhases(
        context.cpu2017[0].profile, 3, 0.35);
    uarch::PhasedSimulationResult result = uarch::simulatePhased(
        workload, context.machines[0], window);
    store.savePhased(
        core::makeStoreKey(workload, context.machines[0], window),
        result);
    EXPECT_EQ(errorCount(runRule("SL024", context)), 0u);

    // A combined counter that is not the sum of its phases.
    window.seed_salt = 7;
    uarch::PhasedSimulationResult bad = uarch::simulatePhased(
        workload, context.machines[0], window);
    bad.combined_counters.instructions += 1;
    store.savePhased(
        core::makeStoreKey(workload, context.machines[0], window),
        bad);
    expectFires("SL024", context);

    // Every counter is summed, the memory-centric ones included.  No
    // machine-free identity involves dram_busy_cycles, so the entry
    // passes load-time verification and only SL024 can see it.
    TempDir dram_dir("speclens_sl024_dram_test");
    core::CampaignStore dram_store(dram_dir.path.string());
    context.store_dir = dram_dir.path.string();
    uarch::PhasedSimulationResult off = result;
    off.combined_counters.dram_busy_cycles += 1;
    core::StoreKey off_key =
        core::makeStoreKey(workload, context.machines[0], window);
    dram_store.savePhased(off_key, off);
    uarch::PhasedSimulationResult loaded;
    ASSERT_EQ(dram_store.loadPhased(off_key, loaded),
              core::StoreStatus::Hit);
    expectFires("SL024", context);
}

// The machine-bound identities of a phased entry are checked too: its
// combined counters and every phase's counters, by the rule that owns
// each identity (SL019 topology, SL026 memory).
TEST(Rules, SL019_SL026_CheckPhasedEntries)
{
    uarch::SimulationConfig window;
    window.instructions = 4'000;
    window.warmup = 1'000;
    LintContext context = cleanContext();
    const uarch::MachineConfig &no_l2tlb = context.machines[3];
    ASSERT_FALSE(no_l2tlb.tlbs.l2tlb.has_value());
    ASSERT_EQ(context.machines[0].caches.l2_prefetch_degree, 0u);
    trace::PhasedWorkload workload = trace::derivePhases(
        context.cpu2017[0].profile, 2, 0.35);

    // A clean phased entry checks clean under both rules.
    TempDir dir("speclens_phased_identity_test");
    core::CampaignStore store(dir.path.string());
    context.store_dir = dir.path.string();
    store.savePhased(
        core::makeStoreKey(workload, no_l2tlb, window),
        uarch::simulatePhased(workload, no_l2tlb, window));
    EXPECT_EQ(errorCount(runRule("SL019", context)), 0u);
    EXPECT_EQ(errorCount(runRule("SL026", context)), 0u);

    // One more L1 DTLB miss in phase 1 that no walk follows: fine in
    // isolation, wrong for a machine without an L2 TLB.
    window.seed_salt = 7;
    uarch::PhasedSimulationResult walkless =
        uarch::simulatePhased(workload, no_l2tlb, window);
    for (uarch::PerfCounters *c : {&walkless.per_phase[1].counters,
                                   &walkless.combined_counters}) {
        c->dtlb_accesses += 1;
        c->dtlb_misses += 1;
    }
    store.savePhased(core::makeStoreKey(workload, no_l2tlb, window),
                     walkless);
    expectFires("SL019", context);

    // Prefetch fills in phase 0 on a machine without a prefetcher.
    TempDir memory_dir("speclens_phased_memory_test");
    core::CampaignStore memory_store(memory_dir.path.string());
    context.store_dir = memory_dir.path.string();
    uarch::PhasedSimulationResult fills =
        uarch::simulatePhased(workload, context.machines[0], window);
    fills.per_phase[0].counters.prefetch_fills += 5;
    fills.combined_counters.prefetch_fills += 5;
    memory_store.savePhased(
        core::makeStoreKey(workload, context.machines[0], window),
        fills);
    expectFires("SL026", context);
}

/** The `<16-hex>.slart` basename the store files @p key under. */
std::string
entryBaseName(const core::StoreKey &key)
{
    return stats::hex16(key.fingerprint) + core::kStoreEntrySuffix;
}

TEST(Rules, SL025_SkipNoteWithoutStore)
{
    std::vector<Diagnostic> found = runRule("SL025", cleanContext());
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Info);
}

TEST(Rules, SL025_MisfiledEntryIsAnError)
{
    TempDir dir("speclens_sl025_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    core::StoreKey key = core::makeStoreKey(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(key, uarch::simulate(context.cpu2017[0].profile,
                                    context.machines[0], window));
    EXPECT_EQ(errorCount(runRule("SL025", context)), 0u);

    // File the entry under the next shard over: unreachable by lookup.
    std::size_t home = core::storeShardIndex(key.fingerprint);
    std::size_t wrong = (home + 1) % core::kStoreShardCount;
    std::filesystem::path name = entryBaseName(key);
    std::filesystem::create_directories(dir.path /
                                        core::storeShardDirName(wrong));
    std::filesystem::rename(
        dir.path / core::storeShardDirName(home) / name,
        dir.path / core::storeShardDirName(wrong) / name);
    expectFires("SL025", context);
}

TEST(Rules, SL026_MemoryMetricRange)
{
    TempDir dir("speclens_sl026_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    ASSERT_EQ(context.machines[0].caches.l2_prefetch_degree, 0u);

    uarch::SimulationResult result = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               result);
    EXPECT_EQ(errorCount(runRule("SL026", context)), 0u);

    // Prefetch fills on a machine without a prefetcher: consistent on
    // their own (so the entry loads), wrong for the machine named.
    window.seed_salt = 7;
    uarch::SimulationResult bad = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    bad.counters.prefetch_fills = 5;
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               bad);
    expectFires("SL026", context);
}

// SL016 resolves machines like SL018/SL019/SL026: an entry measured on
// a memory-centric variant is a shipped model, not an orphan, while a
// machine no shipped set names still warns.
TEST(Rules, SL016_ResolvesMemoryCentricMachines)
{
    TempDir dir("speclens_sl016_variant_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    const trace::WorkloadProfile &profile = context.cpu2017[0].profile;

    uarch::MachineConfig variant = suites::memoryCentricMachines().back();
    store.save(core::makeStoreKey(profile, variant, window),
               uarch::simulate(profile, variant, window));
    std::vector<Diagnostic> found = runRule("SL016", context);
    EXPECT_EQ(errorCount(found), 0u);
    EXPECT_EQ(countSeverity(found, Severity::Warning), 0u);

    uarch::MachineConfig unknown = variant;
    unknown.name = "Nonesuch 9000";
    store.save(core::makeStoreKey(profile, unknown, window),
               uarch::simulate(profile, unknown, window));
    found = runRule("SL016", context);
    EXPECT_EQ(errorCount(found), 0u);
    ASSERT_EQ(countSeverity(found, Severity::Warning), 1u);
    bool named = false;
    for (const Diagnostic &d : found)
        named = named || d.message.find("Nonesuch 9000") !=
                             std::string::npos;
    EXPECT_TRUE(named);
}

// The prefetcher ablation's degree-4 Skylake keeps Skylake's name: its
// entries resolve by fingerprint to the variant (neither stale nor a
// prefetch-counter error), while a same-named machine no shipped model
// describes still warns as stale.
TEST(Rules, SL016_ResolvesSameNamedMachinesByFingerprint)
{
    TempDir dir("speclens_sl016_same_name_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    const trace::WorkloadProfile &profile = context.cpu2017[0].profile;

    uarch::MachineConfig ablation = suites::prefetchAblationMachine();
    ASSERT_EQ(ablation.name, context.machines[0].name);
    store.save(core::makeStoreKey(profile, ablation, window),
               uarch::simulate(profile, ablation, window));
    std::vector<Diagnostic> found = runRule("SL016", context);
    EXPECT_EQ(errorCount(found), 0u);
    EXPECT_EQ(countSeverity(found, Severity::Warning), 0u);
    EXPECT_EQ(errorCount(runRule("SL026", context)), 0u);

    uarch::MachineConfig unknown = ablation;
    unknown.caches.l2_prefetch_degree = 2;
    store.save(core::makeStoreKey(profile, unknown, window),
               uarch::simulate(profile, unknown, window));
    found = runRule("SL016", context);
    EXPECT_EQ(errorCount(found), 0u);
    ASSERT_EQ(countSeverity(found, Severity::Warning), 1u);
    for (const Diagnostic &d : found) {
        if (d.severity == Severity::Warning) {
            EXPECT_NE(d.message.find("stale entry"), std::string::npos)
                << d.message;
        }
    }
}

TEST(Rules, SL016_BrokenCounterIdentityIsCorrupt)
{
    TempDir dir("speclens_sl016_identity_test");
    core::CampaignStore store(dir.path.string());
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;

    uarch::SimulationResult bad = uarch::simulate(
        context.cpu2017[0].profile, context.machines[0], window);
    bad.counters.page_walks += 1;
    store.save(core::makeStoreKey(context.cpu2017[0].profile,
                                  context.machines[0], window),
               bad);
    std::vector<Diagnostic> found = runRule("SL016", context);
    ASSERT_EQ(errorCount(found), 1u);
    for (const Diagnostic &d : found) {
        if (d.severity == Severity::Error) {
            EXPECT_NE(d.message.find("walk-consistency"),
                      std::string::npos)
                << d.message;
        }
    }
}

// ---------------------------------------------------------------------
// The store rules' output from a whole lint run, pinned byte for byte.

/** Rendered SL016-SL026 findings of a full lint run, store path elided. */
std::string
storeLintText(const LintContext &context)
{
    LintReport full = Linter().run(context);
    LintReport store_rules;
    store_rules.rules_run = full.rules_run;
    for (const Diagnostic &d : full.diagnostics)
        if (d.code >= "SL016")
            store_rules.diagnostics.push_back(d);
    std::string text = renderText(store_rules);
    for (std::size_t pos = text.find(context.store_dir);
         pos != std::string::npos; pos = text.find(context.store_dir))
        text.replace(pos, context.store_dir.size(), "<store>");
    return text;
}

// A pair entry, a phased entry, a stale-version entry, an entry on a
// machine no shipped model names, and a manifest whose entry count has
// drifted from the store's.
TEST(StoreLint, OutputOverAHandBuiltStoreIsPinned)
{
    TempDir dir("speclens_store_lint_pin_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    const trace::WorkloadProfile &profile = context.cpu2017[0].profile;
    const uarch::MachineConfig &machine = context.machines[0];
    {
        core::CampaignStore store(context.store_dir);
        store.save(core::makeStoreKey(profile, machine, window),
                   uarch::simulate(profile, machine, window));

        trace::PhasedWorkload workload =
            trace::derivePhases(profile, 2, 0.35);
        store.savePhased(
            core::makeStoreKey(workload, machine, window),
            uarch::simulatePhased(workload, machine, window));

        const trace::WorkloadProfile &other = context.cpu2017[1].profile;
        core::StoreKey stale = core::makeStoreKey(other, machine, window);
        store.save(stale, uarch::simulate(other, machine, window));
        std::ifstream in(store.entryPath(stale), std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        in.close();
        bytes[8] = static_cast<char>(bytes[8] ^ 0xff); // engine version
        writeFile(store.entryPath(stale), bytes);

        uarch::MachineConfig unknown = machine;
        unknown.name = "Nonesuch 9000";
        store.save(core::makeStoreKey(profile, unknown, window),
                   uarch::simulate(profile, unknown, window));
    }
    writeFile(dir.path / obs::kManifestFileName, manifestText(5));

    EXPECT_EQ(storeLintText(context),
              "SL016 [warning] store/shard-0/085acc58a1398940.slart\n"
              "    stale entry: engine version 253 != 2\n"
              "    hint: re-run the campaign to refresh it\n"
              "SL016 [warning] store/shard-6/6b73b1b0cd16a06e.slart\n"
              "    orphaned entry: machine 'Nonesuch 9000' is not a "
              "shipped model\n"
              "    hint: written by an ad-hoc configuration; invalidate "
              "if unwanted\n"
              "SL016 [info] store\n"
              "    2 healthy entries in <store>\n"
              "SL017 [info] features\n"
              "    degenerate-feature check skipped (deep checks "
              "disabled)\n"
              "SL018 [info] store\n"
              "    3 entries re-audited in <store>\n"
              "SL019 [info] store\n"
              "    3 entries range-checked in <store>\n"
              "SL023 [error] store/run-manifest.json\n"
              "    manifest records 5 entries but the store holds 4\n"
              "    hint: the store changed since the manifest was "
              "written; re-run the campaign with --store to refresh "
              "it\n"
              "SL024 [info] store\n"
              "    1 phased entries combine consistently\n"
              "SL025 [info] store\n"
              "    4 entries correctly sharded, 0 misfiled\n"
              "SL026 [info] store\n"
              "    3 entries memory-metric-checked in <store>\n"
              "lint: 24 rules, 1 errors, 2 warnings\n");
}

// Lint only reads the store: a missing directory is an SL016 error and
// stays missing.
TEST(StoreLint, MissingStoreIsAnErrorAndStaysMissing)
{
    std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                "speclens_store_lint_missing_test";
    std::filesystem::remove_all(dir);
    LintContext context = cleanContext();
    context.store_dir = dir.string();

    LintReport report = Linter().run(context);
    EXPECT_EQ(report.errors(), 1u);
    for (const Diagnostic &d : report.diagnostics) {
        if (d.severity == Severity::Error) {
            EXPECT_EQ(d.code, "SL016");
        }
    }
    EXPECT_FALSE(std::filesystem::exists(dir));
}

/** Save one pair entry into a store at @p dir; returns its key. */
core::StoreKey
saveOnePair(const LintContext &context, const std::string &dir)
{
    uarch::SimulationConfig window;
    window.instructions = 2'000;
    window.warmup = 500;
    const trace::WorkloadProfile &profile = context.cpu2017[0].profile;
    core::CampaignStore store(dir);
    core::StoreKey key =
        core::makeStoreKey(profile, context.machines[0], window);
    store.save(key, uarch::simulate(profile, context.machines[0], window));
    return key;
}

// A daemon or campaign saving into the same store keeps its in-flight
// temp files: lint never sweeps.
TEST(StoreLint, LeavesWriterTempFilesAlone)
{
    TempDir dir("speclens_store_lint_temp_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    core::StoreKey key = saveOnePair(context, context.store_dir);
    const std::filesystem::path entry_temp =
        dir.path / core::storeShardDirName(
                       core::storeShardIndex(key.fingerprint)) /
        (entryBaseName(key) + ".tmp1234");
    const std::filesystem::path manifest_temp =
        dir.path / (std::string(obs::kManifestFileName) + ".tmp5678");
    writeFile(entry_temp, "half-written");
    writeFile(manifest_temp, "{");

    EXPECT_TRUE(Linter().run(context).clean());
    EXPECT_TRUE(std::filesystem::exists(entry_temp));
    EXPECT_TRUE(std::filesystem::exists(manifest_temp));
}

// One misfiled entry is one finding: SL025's, with no SL016 corruption
// or SL018 load failure besides.
TEST(StoreLint, MisfiledEntryIsReportedOnceUnderSL025)
{
    TempDir dir("speclens_store_lint_misfiled_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    core::StoreKey key = saveOnePair(context, context.store_dir);
    std::size_t home = core::storeShardIndex(key.fingerprint);
    std::filesystem::rename(
        dir.path / core::storeShardDirName(home) / entryBaseName(key),
        dir.path / core::storeShardDirName((home + 1) %
                                           core::kStoreShardCount) /
            entryBaseName(key));

    LintReport report = Linter().run(context);
    std::vector<Diagnostic> findings;
    for (const Diagnostic &d : report.diagnostics)
        if (d.severity != Severity::Info)
            findings.push_back(d);
    ASSERT_EQ(findings.size(), 1u) << renderText(report);
    EXPECT_EQ(findings[0].code, "SL025");
    EXPECT_EQ(findings[0].severity, Severity::Error);
}

// An upper-case copy of an entry is one finding too: SL025 owns a
// non-canonical file name, and SL016 does not also call it corrupt.
TEST(StoreLint, NonCanonicalEntryNameIsReportedOnceUnderSL025)
{
    TempDir dir("speclens_store_lint_entry_name_test");
    LintContext context = cleanContext();
    context.store_dir = dir.path.string();
    core::StoreKey key = saveOnePair(context, context.store_dir);
    const std::filesystem::path shard =
        dir.path /
        core::storeShardDirName(core::storeShardIndex(key.fingerprint));
    std::string upper = stats::hex16(key.fingerprint);
    for (char &c : upper)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    ASSERT_NE(upper, stats::hex16(key.fingerprint));
    std::filesystem::copy_file(shard / entryBaseName(key),
                               shard / (upper + core::kStoreEntrySuffix));

    LintReport report = Linter().run(context);
    std::vector<Diagnostic> findings;
    for (const Diagnostic &d : report.diagnostics)
        if (d.severity != Severity::Info)
            findings.push_back(d);
    ASSERT_EQ(findings.size(), 1u) << renderText(report);
    EXPECT_EQ(findings[0].code, "SL025");
    EXPECT_EQ(findings[0].severity, Severity::Error);
    EXPECT_NE(findings[0].location.find(upper), std::string::npos)
        << findings[0].location;
}

// ---------------------------------------------------------------------
// Machine configuration: one statement behind the validator and lint.

/** One seeded machine mutation and the lint rule that owns it. */
struct MachineMutation
{
    const char *what;
    const char *code;
    void (*apply)(uarch::MachineConfig &);
};

const MachineMutation kMachineMutations[] = {
    {"NaN clock", "SL010",
     [](uarch::MachineConfig &m) {
         m.frequency_ghz = std::numeric_limits<double>::quiet_NaN();
         m.power.frequency_ghz = m.frequency_ghz;
     }},
    {"L1I line 32 vs L1D 64", "SL007",
     [](uarch::MachineConfig &m) {
         m.caches.l1i.line_bytes = 32;
         m.caches.l1d.line_bytes = 64;
     }},
    {"tree-PLRU with 3 ways", "SL008",
     [](uarch::MachineConfig &m) {
         m.caches.l1d.policy = uarch::ReplacementPolicy::TreePlru;
         m.caches.l1d.associativity = 3;
         m.caches.l1d.size_bytes = 3 * 64 * 64;
     }},
    {"L3 not larger than L2", "SL007",
     [](uarch::MachineConfig &m) {
         ASSERT_TRUE(m.caches.l3.has_value());
         m.caches.l3->size_bytes = m.caches.l2.size_bytes;
     }},
    {"L1D of 8 sets: 64-byte-line tags reach 2^32 - 1", "SL008",
     [](uarch::MachineConfig &m) {
         m.caches.l1d.size_bytes = 8 * m.caches.l1d.associativity * 64;
     }},
    {"TLB ways not dividing entries", "SL009",
     [](uarch::MachineConfig &m) { m.tlbs.dtlb.associativity = 3; }},
    {"power clock != clock", "SL010",
     [](uarch::MachineConfig &m) { m.power.frequency_ghz += 0.5; }},
};

bool
validatorThrows(const uarch::MachineConfig &machine)
{
    try {
        uarch::validateMachineConfig(machine);
        return false;
    } catch (const std::invalid_argument &) {
        return true;
    }
}

TEST(MachineConfigAgreement, ValidatorThrowsExactlyWhenLintFires)
{
    const LintContext clean = cleanContext();
    ASSERT_FALSE(validatorThrows(clean.machines[0]));
    for (const MachineMutation &mutation : kMachineMutations) {
        LintContext context = clean;
        mutation.apply(context.machines[0]);
        std::vector<Diagnostic> found = runRule(mutation.code, context);
        EXPECT_GT(errorCount(found), 0u) << mutation.what;
        EXPECT_EQ(validatorThrows(context.machines[0]),
                  errorCount(found) > 0)
            << mutation.what;
    }
}

TEST(MachineConfigAgreement, EveryBuiltMachinePasses)
{
    std::vector<uarch::MachineConfig> machines =
        suites::profilingMachines();
    for (auto family : {suites::sensitivityMachines(),
                        suites::memoryCentricMachines()})
        machines.insert(machines.end(), family.begin(), family.end());
    machines.push_back(suites::prefetchAblationMachine());
    for (const uarch::MachineConfig &machine : machines)
        for (const verify::Violation &v : uarch::checkMachineConfig(machine))
            ADD_FAILURE() << machine.name << ": "
                          << verify::renderViolation(v);
}

// ---------------------------------------------------------------------
// Workload model: one statement behind validate() and lint.  Each case
// is an input the two layers used to disagree on; both must now reject
// it, validate() naming the field and lint reporting it under the
// family's code.

void
expectBothReject(const char *code, const std::string &field,
                 void (*apply)(trace::WorkloadProfile &))
{
    LintContext context = cleanContext();
    suites::BenchmarkInfo &b = context.cpu2017[0];
    apply(b.profile);
    try {
        b.profile.validate();
        ADD_FAILURE() << "validate() accepted a corrupt " << field;
    } catch (const std::invalid_argument &ex) {
        EXPECT_NE(std::string(ex.what()).find(field), std::string::npos)
            << ex.what();
    }
    std::vector<Diagnostic> found = runRule(code, context);
    bool located = false;
    for (const Diagnostic &d : found)
        located = located || (d.severity == Severity::Error &&
                              d.location == b.name + "/" + field);
    EXPECT_TRUE(located) << code << " missed " << field;
    expectFires(code, context);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(WorkloadModelAgreement, NanInstructionCount)
{
    expectBothReject("SL003", "dynamic_instructions_billions",
                     [](trace::WorkloadProfile &p) {
                         p.dynamic_instructions_billions = kNan;
                     });
}

TEST(WorkloadModelAgreement, NonFiniteWorkingSetBytes)
{
    expectBothReject("SL004", "memory.data[2].bytes",
                     [](trace::WorkloadProfile &p) {
                         p.memory.data[2].bytes = kNan;
                     });
    expectBothReject("SL004", "memory.data[2].bytes",
                     [](trace::WorkloadProfile &p) {
                         p.memory.data[2].bytes = kInf;
                     });
    expectBothReject("SL004", "memory.data[2].bytes",
                     [](trace::WorkloadProfile &p) {
                         p.memory.data[2].bytes = -kInf;
                     });
}

TEST(WorkloadModelAgreement, FootprintsPastTheAddressDomain)
{
    // A working set fills at most its data region, and the code
    // segment ends below the first one (trace::kAddressLimit).
    expectBothReject("SL004", "memory.data[3].bytes",
                     [](trace::WorkloadProfile &p) {
                         p.memory.data[3].bytes =
                             2.0 * static_cast<double>(
                                       trace::kDataRegionStride);
                     });
    expectBothReject("SL005", "memory.code_bytes",
                     [](trace::WorkloadProfile &p) {
                         p.memory.code_bytes =
                             static_cast<double>(trace::kDataBase);
                     });
    trace::WorkloadProfile full =
        suites::spec2017Benchmark("505.mcf_r").profile;
    full.memory.data[3].bytes =
        static_cast<double>(trace::kDataRegionStride);
    full.memory.code_bytes =
        static_cast<double>(trace::kDataBase - trace::kCodeBase);
    EXPECT_TRUE(trace::checkWorkloadProfile(full).empty());
}

TEST(WorkloadModelAgreement, NanStride)
{
    expectBothReject("SL004", "memory.data[1].stride_bytes",
                     [](trace::WorkloadProfile &p) {
                         p.memory.data[1].stride_bytes = kNan;
                     });
}

TEST(WorkloadModelAgreement, ZeroOrInfiniteWeight)
{
    expectBothReject("SL002", "memory.data[1].weight",
                     [](trace::WorkloadProfile &p) {
                         p.memory.data[1].weight = 0.0;
                     });
    expectBothReject("SL002", "memory.data[1].weight",
                     [](trace::WorkloadProfile &p) {
                         p.memory.data[1].weight = kInf;
                     });
}

TEST(WorkloadModelAgreement, InfiniteCodeFootprint)
{
    expectBothReject("SL005", "memory.code_bytes",
                     [](trace::WorkloadProfile &p) {
                         p.memory.code_bytes = kInf;
                     });
}

TEST(WorkloadModelAgreement, InfiniteCpiOrMlp)
{
    expectBothReject("SL003", "exec.base_cpi",
                     [](trace::WorkloadProfile &p) {
                         p.exec.base_cpi = kInf;
                     });
    expectBothReject("SL003", "exec.dependency_cpi",
                     [](trace::WorkloadProfile &p) {
                         p.exec.dependency_cpi = kInf;
                     });
    expectBothReject("SL003", "exec.mlp", [](trace::WorkloadProfile &p) {
        p.exec.mlp = kInf;
    });
}

TEST(WorkloadModelAgreement, OversizedBranchPopulation)
{
    expectBothReject("SL006", "branch.static_branches",
                     [](trace::WorkloadProfile &p) {
                         p.branch.static_branches = (1u << 20) + 1;
                     });
}

TEST(WorkloadModelAgreement, EmptyName)
{
    expectBothReject("SL003", "name", [](trace::WorkloadProfile &p) {
        p.name.clear();
    });
}

// The two calibration conventions stay lint-only: a profile whose
// weights do not sum to 1 or whose sets are not ordered hot -> vast is
// still a valid model (derived phases produce both).
TEST(WorkloadModelAgreement, CalibrationConventionsAreLintOnly)
{
    LintContext context = cleanContext();
    trace::WorkloadProfile &p = context.cpu2017[0].profile;
    p.memory.data[1].weight = 0.5;
    p.memory.data[2].bytes = p.memory.data[1].bytes / 2;
    EXPECT_NO_THROW(p.validate());
    expectFires("SL002", context);
    expectFires("SL004", context);
}

} // namespace
} // namespace lint
} // namespace speclens
