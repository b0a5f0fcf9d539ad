/**
 * @file
 * Campaign artifact store tests (ctest label `store`).
 *
 * Round-trips every shipped profile on every profiling machine through
 * a store directory and asserts bit-identical reload; seeds each
 * defect class (truncation, checksum flip, engine-version bump,
 * fingerprint mismatch) and asserts the load rejects the entry and the
 * caller recomputes without crashing; and checks the warm-run
 * acceptance criterion — a second campaign over a populated store
 * executes zero simulations.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/service_context.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "stats/fingerprint.h"
#include "suites/emerging.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
#include "trace/phased_workload.h"
#include "uarch/simulation.h"

#include <unistd.h>

using namespace speclens;

namespace {

/** Fresh (pre-cleaned) store directory unique to one test. */
std::string
storeDir(const std::string &test)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("speclens_store_test_" + test);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** Tiny window so the full cross product stays fast. */
uarch::SimulationConfig
tinyWindow()
{
    uarch::SimulationConfig config;
    config.instructions = 2'000;
    config.warmup = 500;
    return config;
}

void
expectBitIdentical(const uarch::SimulationResult &a,
                   const uarch::SimulationResult &b)
{
    for (const auto &field : uarch::kPerfCounterFields)
        EXPECT_EQ(a.counters.*field.member, b.counters.*field.member)
            << field.name;

    // Doubles are persisted as IEEE-754 bit patterns, so identical
    // words are the contract, not a tolerance.
    EXPECT_EQ(a.words(), b.words());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Plant a temp file a writer that died long ago left behind: written,
 * then back-dated past the sweep's age threshold.
 */
void
writeOrphan(const std::string &path, const std::string &bytes)
{
    writeFile(path, bytes);
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now() -
                  core::kOrphanedTempAge - std::chrono::minutes(1));
}

/** FNV-1a-64 of @p bytes as 16 lower-case hex digits. */
std::string
fnvHex(const std::string &bytes)
{
    stats::Fingerprinter fp;
    for (char c : bytes)
        fp.byte(static_cast<unsigned char>(c));
    return stats::hex16(fp.value());
}

/**
 * A hand-filled result, every field distinct and nonzero, scaled by
 * @p k.  The counters satisfy the machine-free identities, so the
 * entry also loads back.
 */
uarch::SimulationResult
fixedResult(std::uint64_t k)
{
    uarch::SimulationResult r;
    uarch::PerfCounters &c = r.counters;
    c.instructions = 100'000 * k;
    c.loads = 25'000 * k;
    c.stores = 10'000 * k;
    c.branches = 15'000 * k;
    c.taken_branches = 9'000 * k;
    c.fp_ops = 5'000 * k;
    c.simd_ops = 2'000 * k;
    c.kernel_instructions = 300 * k;
    c.l1d_accesses = 35'000 * k;
    c.l1d_misses = 1'200 * k;
    c.l1i_accesses = 20'000 * k;
    c.l1i_misses = 400 * k;
    c.l2d_accesses = 1'200 * k;
    c.l2d_misses = 300 * k;
    c.l2i_accesses = 400 * k;
    c.l2i_misses = 50 * k;
    c.l3_accesses = 350 * k;
    c.l3_misses = 90 * k;
    c.dtlb_accesses = 35'001 * k;
    c.dtlb_misses = 80 * k;
    c.itlb_accesses = 20'001 * k;
    c.itlb_misses = 20 * k;
    c.l2tlb_misses = 30 * k;
    c.page_walks = 30 * k;
    c.branch_mispredictions = 700 * k;
    c.prefetch_fills = 60 * k;
    c.prefetch_useful = 40 * k;
    c.prefetch_evicted_unused = 10 * k;
    c.way_pred_hits = 30'000 * k;
    c.way_pred_mispredicts = 900 * k;
    c.dram_accesses = 91 * k;
    c.dram_row_hits = 45 * k;
    c.dram_busy_cycles = 1'234 * k;
    c.dram_budget_cycles = 5'678 * k;
    const double s = static_cast<double>(k);
    r.cpi_stack.base = 0.25 * s;
    r.cpi_stack.dependency = 0.1 * s;
    r.cpi_stack.frontend_icache = 0.03125 * s;
    r.cpi_stack.frontend_branch = 0.2 * s;
    r.cpi_stack.backend_l2 = 0.07 * s;
    r.cpi_stack.backend_l3 = 0.011 * s;
    r.cpi_stack.backend_memory = 0.9 * s;
    r.cpi_stack.backend_tlb = 0.0003 * s;
    r.power.core_watts = 12.5 * s;
    r.power.llc_watts = 1.7 * s;
    r.power.dram_watts = 3.3 * s;
    return r;
}

} // namespace

// Every shipped profile on every profiling machine survives a save /
// reload cycle bit-identically, through a second store handle (a
// separate process in miniature).
TEST(CampaignStore, RoundTripEveryProfileAndMachine)
{
    const std::string dir = storeDir("round_trip");
    const uarch::SimulationConfig window = tinyWindow();

    std::vector<suites::BenchmarkInfo> benchmarks = suites::spec2017();
    for (const auto &b : suites::spec2006())
        benchmarks.push_back(b);
    for (const auto &b : suites::emergingBenchmarks())
        benchmarks.push_back(b);

    std::vector<uarch::SimulationResult> fresh;
    {
        core::CampaignStore store(dir);
        for (const auto &benchmark : benchmarks)
            for (const auto &machine : suites::profilingMachines())
                fresh.push_back(core::storedSimulate(
                    &store, benchmark.profile, machine, window));
        EXPECT_EQ(store.counters().saves, fresh.size());
        EXPECT_EQ(store.counters().computed, fresh.size());
        EXPECT_EQ(store.entryCount(), fresh.size());
    }

    core::CampaignStore reopened(dir);
    std::size_t i = 0;
    for (const auto &benchmark : benchmarks)
        for (const auto &machine : suites::profilingMachines()) {
            core::StoreKey key = core::makeStoreKey(benchmark.profile,
                                                    machine, window);
            uarch::SimulationResult loaded;
            ASSERT_EQ(reopened.load(key, loaded),
                      core::StoreStatus::Hit)
                << benchmark.name << " on " << machine.name;
            expectBitIdentical(fresh[i++], loaded);
        }
    EXPECT_EQ(reopened.counters().hits, fresh.size());
    EXPECT_EQ(reopened.counters().computed, 0u);
    std::filesystem::remove_all(dir);
}

// A truncated entry is rejected as Corrupt and recomputed in place.
TEST(CampaignStore, TruncatedEntryRecomputes)
{
    const std::string dir = storeDir("truncated");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    uarch::SimulationResult fresh = core::storedSimulate(
        &store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);

    // Header cut short.
    std::filesystem::resize_file(store.entryPath(key), 20);
    uarch::SimulationResult out;
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);

    // storedSimulate() recovers: recompute, overwrite, serve again.
    uarch::SimulationResult recomputed = core::storedSimulate(
        &store, benchmark.profile, machine, window);
    expectBitIdentical(fresh, recomputed);
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Hit);

    // Payload cut short (header intact) is also Corrupt.
    std::string bytes = readFile(store.entryPath(key));
    writeFile(store.entryPath(key), bytes.substr(0, bytes.size() - 9));
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);
    EXPECT_GE(store.counters().corrupt, 2u);
    std::filesystem::remove_all(dir);
}

// An entry with bytes past its payload is Corrupt, whatever the
// length: one byte more, padded to exactly one read buffer (4 KiB, so
// the reader must read again to find the end), and several buffers
// long.  A valid entry still loads after each.
TEST(CampaignStore, OverlongEntryRejected)
{
    const std::string dir = storeDir("overlong");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    const std::string path = store.entryPath(key);
    const std::string original = readFile(path);
    ASSERT_LT(original.size(), 4096u);

    uarch::SimulationResult out;
    for (std::size_t size :
         {original.size() + 1, std::size_t{4096}, std::size_t{3 * 4096 + 7}}) {
        std::string padded = original;
        padded.resize(size, '\0');
        writeFile(path, padded);
        EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt)
            << size << " bytes";
        writeFile(path, original);
        EXPECT_EQ(store.load(key, out), core::StoreStatus::Hit);
    }
    EXPECT_EQ(store.counters().corrupt, 3u);
    std::filesystem::remove_all(dir);
}

// A flipped payload byte fails the checksum; a flipped checksum byte
// does too.  Both are Corrupt, never a wrong result.
TEST(CampaignStore, ChecksumFlipDetected)
{
    const std::string dir = storeDir("checksum");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("502.gcc_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    const std::string path = store.entryPath(key);
    const std::string original = readFile(path);

    std::string flipped = original;
    flipped[39] = static_cast<char>(flipped[39] ^ 0x7f); // checksum
    writeFile(path, flipped);
    uarch::SimulationResult out;
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);

    flipped = original;
    flipped[original.size() - 1] ^= 0x01; // payload
    writeFile(path, flipped);
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);
    std::filesystem::remove_all(dir);
}

// A checksum-valid entry whose counters break an accounting identity
// (one page walk no L2 TLB miss explains) is Corrupt on load, counted,
// recomputed and overwritten; the rewritten entry then serves.
TEST(CampaignStore, BrokenCounterIdentityRejectedOnLoad)
{
    const std::string dir = storeDir("identity");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);

    core::CampaignStore store(dir);
    uarch::SimulationResult fresh =
        uarch::simulate(benchmark.profile, machine, window);
    uarch::SimulationResult bad = fresh;
    bad.counters.page_walks += 1;
    ASSERT_TRUE(store.save(key, bad));

    uarch::SimulationResult out;
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Corrupt);
    EXPECT_EQ(store.counters().corrupt, 1u);

    uarch::SimulationResult recomputed = core::storedSimulate(
        &store, benchmark.profile, machine, window);
    expectBitIdentical(fresh, recomputed);
    EXPECT_EQ(store.counters().computed, 1u);
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Hit);
    expectBitIdentical(fresh, out);
    std::filesystem::remove_all(dir);
}

// One phase breaking an identity rejects the whole phased entry, and
// the scan names the phase and the identity.
TEST(CampaignStore, PhasedEntryWithBrokenPhaseRejectedOnLoad)
{
    const std::string dir = storeDir("identity_phased");
    uarch::SimulationConfig window = tinyWindow();
    window.instructions = 6'000;
    const auto &base = suites::spec2017Benchmark("502.gcc_r");
    trace::PhasedWorkload workload =
        trace::derivePhases(base.profile, 3, 0.35);
    const auto &machine = suites::skylakeMachine();
    core::StoreKey key = core::makeStoreKey(workload, machine, window);

    core::CampaignStore store(dir);
    uarch::PhasedSimulationResult bad =
        uarch::simulatePhased(workload, machine, window);
    ASSERT_EQ(bad.per_phase.size(), 3u);
    bad.per_phase[1].counters.l3_accesses += 1;
    ASSERT_TRUE(store.savePhased(key, bad));

    uarch::PhasedSimulationResult out;
    EXPECT_EQ(store.loadPhased(key, out), core::StoreStatus::Corrupt);
    EXPECT_EQ(store.counters().corrupt, 1u);
    std::vector<core::StoreEntryInfo> entries =
        core::scanStore(dir).entries;
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].status, core::StoreStatus::Corrupt);
    EXPECT_NE(entries[0].detail.find("phase 1"), std::string::npos)
        << entries[0].detail;
    EXPECT_NE(entries[0].detail.find("l3-plumbing"), std::string::npos)
        << entries[0].detail;
    std::filesystem::remove_all(dir);
}

// An entry written by a different engine version is StaleVersion (and
// would be recomputed), even though its checksum is intact.
TEST(CampaignStore, EngineVersionBumpDetected)
{
    const std::string dir = storeDir("version");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("519.lbm_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);

    std::string bytes = readFile(store.entryPath(key));
    bytes[8] = static_cast<char>(bytes[8] ^ 0xff); // engine version
    writeFile(store.entryPath(key), bytes);

    uarch::SimulationResult out;
    EXPECT_EQ(store.load(key, out), core::StoreStatus::StaleVersion);
    EXPECT_EQ(store.counters().stale_version, 1u);
    std::filesystem::remove_all(dir);
}

// An entry parked under the wrong file name (here: copied onto another
// key's address) is FingerprintMismatch — content addressing holds.
TEST(CampaignStore, FingerprintMismatchDetected)
{
    const std::string dir = storeDir("fingerprint");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("531.deepsjeng_r");
    const auto &machine = suites::skylakeMachine();

    core::CampaignStore store(dir);
    core::storedSimulate(&store, benchmark.profile, machine, window);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);

    uarch::SimulationConfig salted = window;
    salted.seed_salt = 7;
    core::StoreKey other =
        core::makeStoreKey(benchmark.profile, machine, salted);
    ASSERT_NE(key.fingerprint, other.fingerprint);

    std::filesystem::copy_file(store.entryPath(key),
                               store.entryPath(other));
    uarch::SimulationResult out;
    EXPECT_EQ(store.load(other, out),
              core::StoreStatus::FingerprintMismatch);

    // The misplaced copy still loads fine under its real address.
    EXPECT_EQ(store.load(key, out), core::StoreStatus::Hit);
    std::filesystem::remove_all(dir);
}

// Everything that determines a result re-addresses the entry.
TEST(CampaignStore, FingerprintCoversWindowAndModels)
{
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();
    const core::StoreKey base =
        core::makeStoreKey(benchmark.profile, machine, window);

    uarch::SimulationConfig salted = window;
    salted.seed_salt = 1;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, salted)
                  .fingerprint,
              base.fingerprint);

    uarch::SimulationConfig wider = window;
    wider.instructions += 1;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, wider)
                  .fingerprint,
              base.fingerprint);

    uarch::SimulationConfig raw = window;
    raw.apply_machine_transform = false;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, raw)
                  .fingerprint,
              base.fingerprint);

    uarch::SimulationConfig cold = window;
    cold.prewarm = false;
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machine, cold)
                  .fingerprint,
              base.fingerprint);

    const auto &other = suites::spec2017Benchmark("502.gcc_r");
    EXPECT_NE(core::makeStoreKey(other.profile, machine, window)
                  .fingerprint,
              base.fingerprint);

    const auto &machines = suites::profilingMachines();
    EXPECT_NE(core::makeStoreKey(benchmark.profile, machines.at(1),
                                 window)
                  .fingerprint,
              base.fingerprint);
}

// The campaign-level key (CharacterizationConfig) and the raw
// simulate() key (SimulationConfig) agree, so bench campaigns and
// direct storedSimulate() calls share entries.
TEST(CampaignStore, CampaignAndRawKeysShareAddresses)
{
    core::CharacterizationConfig campaign;
    campaign.instructions = 2'000;
    campaign.warmup = 500;
    campaign.jobs = 5; // must not affect the address

    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();
    const core::StoreKey a =
        core::makeStoreKey(benchmark.profile, machine, campaign);
    const core::StoreKey b = core::makeStoreKey(
        benchmark.profile, machine, campaign.simulationConfig());
    EXPECT_EQ(a.fingerprint, b.fingerprint);

    campaign.jobs = 0;
    EXPECT_EQ(core::makeStoreKey(benchmark.profile, machine, campaign)
                  .fingerprint,
              a.fingerprint);
}

// A campaign hashes each benchmark's key prefix (tag, engine version,
// window, profile) once and continues a copy per machine.  Over every
// campaign pair that must give the fingerprint of hashing the whole
// key afresh, and a store-backed campaign must save every pair under
// the key storeKey() names.
TEST(CampaignStore, PrefixKeysMatchFullKeysForEveryCampaignPair)
{
    const std::string dir = storeDir("prefix-keys");
    core::ServiceConfig config;
    config.characterization.instructions = 1'000;
    config.characterization.warmup = 200;
    config.store_dir = dir;
    core::ServiceContext context(config);
    const uarch::SimulationConfig window =
        config.characterization.simulationConfig();

    const std::vector<const std::vector<uarch::MachineConfig> *> sets = {
        &context.profilingMachines(), &context.sensitivityMachines(),
        &context.memoryMachines()};
    std::size_t pairs = 0;
    for (const auto *suite :
         {&context.cpu2017(), &context.cpu2006(), &context.emerging()}) {
        for (const suites::BenchmarkInfo &benchmark : *suite) {
            const stats::Fingerprinter prefix =
                core::pairKeyPrefix(benchmark.profile, window);
            for (const auto *machines : sets) {
                for (const uarch::MachineConfig &machine : *machines) {
                    stats::Fingerprinter full;
                    full.tag("speclens.pair");
                    full.u64(core::kStoreEngineVersion);
                    window.hashInto(full);
                    benchmark.profile.hashInto(full);
                    machine.hashInto(full);
                    const core::StoreKey key = core::pairStoreKey(
                        prefix, benchmark.profile, machine, window);
                    EXPECT_EQ(key.fingerprint, full.value())
                        << benchmark.profile.name << " on " << machine.name;
                    EXPECT_EQ(key.fingerprint,
                              core::makeStoreKey(benchmark.profile, machine,
                                                 window)
                                  .fingerprint);
                    ++pairs;
                }
            }
        }
    }
    EXPECT_GT(pairs, 1000u);

    // The fill path's keys: every pair it saved loads by storeKey().
    std::vector<suites::BenchmarkInfo> benchmarks(
        context.cpu2017().begin(), context.cpu2017().begin() + 2);
    core::Characterizer &characterizer =
        context.characterizerFor(context.memoryMachines());
    characterizer.prepare(benchmarks);
    for (const suites::BenchmarkInfo &benchmark : benchmarks) {
        for (std::size_t m = 0; m < characterizer.machines().size(); ++m) {
            uarch::SimulationResult loaded;
            ASSERT_EQ(context.store()->load(
                          characterizer.storeKey(benchmark, m), loaded),
                      core::StoreStatus::Hit);
            EXPECT_TRUE(uarch::bitIdentical(
                loaded, characterizer.simulation(benchmark, m)));
        }
    }
    std::filesystem::remove_all(dir);
}

// Phased results round-trip through their own entry kind, and a pair
// load against a phased entry is rejected rather than misparsed.
TEST(CampaignStore, PhasedRoundTripAndKindMismatch)
{
    const std::string dir = storeDir("phased");
    uarch::SimulationConfig window = tinyWindow();
    window.instructions = 8'000; // room for 4 phases
    const auto &base = suites::spec2017Benchmark("502.gcc_r");
    trace::PhasedWorkload workload =
        trace::derivePhases(base.profile, 4, 0.35);

    core::CampaignStore store(dir);
    uarch::PhasedSimulationResult fresh = core::storedSimulatePhased(
        &store, workload, suites::skylakeMachine(), window);
    core::StoreKey key = core::makeStoreKey(
        workload, suites::skylakeMachine(), window);

    core::CampaignStore reopened(dir);
    uarch::PhasedSimulationResult loaded;
    ASSERT_EQ(reopened.loadPhased(key, loaded),
              core::StoreStatus::Hit);
    ASSERT_EQ(loaded.per_phase.size(), fresh.per_phase.size());
    for (std::size_t k = 0; k < fresh.per_phase.size(); ++k)
        expectBitIdentical(fresh.per_phase[k], loaded.per_phase[k]);
    EXPECT_EQ(loaded.combined_cpi, fresh.combined_cpi);
    EXPECT_EQ(loaded.combined_counters.instructions,
              fresh.combined_counters.instructions);

    // Same file requested as a pair entry: defensive rejection.
    uarch::SimulationResult pair_out;
    EXPECT_EQ(reopened.load(key, pair_out),
              core::StoreStatus::Corrupt);

    // Warm storedSimulatePhased() serves the entry without computing.
    core::CampaignStore warm(dir);
    uarch::PhasedSimulationResult again = core::storedSimulatePhased(
        &warm, workload, suites::skylakeMachine(), window);
    EXPECT_EQ(again.combined_cpi, fresh.combined_cpi);
    EXPECT_EQ(warm.counters().computed, 0u);
    std::filesystem::remove_all(dir);
}

// A valid entry longer than one 4 KiB read (a phased entry with many
// phases) is read to its end, not cut at the first full buffer.
TEST(CampaignStore, EntryLongerThanOneReadLoads)
{
    const std::string dir = storeDir("long_entry");
    uarch::SimulationConfig window = tinyWindow();
    window.instructions = 16'000; // room for 16 phases
    const auto &base = suites::spec2017Benchmark("502.gcc_r");
    trace::PhasedWorkload workload =
        trace::derivePhases(base.profile, 16, 0.35);

    core::CampaignStore store(dir);
    uarch::PhasedSimulationResult fresh = core::storedSimulatePhased(
        &store, workload, suites::skylakeMachine(), window);
    core::StoreKey key = core::makeStoreKey(
        workload, suites::skylakeMachine(), window);
    ASSERT_GT(readFile(store.entryPath(key)).size(), 4096u);

    uarch::PhasedSimulationResult loaded;
    ASSERT_EQ(store.loadPhased(key, loaded), core::StoreStatus::Hit);
    ASSERT_EQ(loaded.per_phase.size(), fresh.per_phase.size());
    for (std::size_t k = 0; k < fresh.per_phase.size(); ++k)
        expectBitIdentical(fresh.per_phase[k], loaded.per_phase[k]);
    std::filesystem::remove_all(dir);
}

// The exact bytes of one pair and one phased entry, pinned.  The
// round-trip tests only prove the codec agrees with itself; this one
// proves it still writes the format existing stores hold.  Only a
// deliberate format change (a new counter, a kStoreEngineVersion bump)
// may move these digests.
TEST(CampaignStore, EntryBytesArePinned)
{
    const std::string dir = storeDir("pinned_bytes");
    core::CampaignStore store(dir);

    core::StoreKey key;
    key.fingerprint = 0x0123456789abcdefull;
    key.benchmark = "500.perlbench_r";
    key.machine = "Pinned Machine";
    key.instructions = 100'000;
    key.warmup = 20'000;
    key.seed_salt = 3;
    const uarch::SimulationResult pair = fixedResult(1);
    ASSERT_TRUE(store.save(key, pair));
    EXPECT_EQ(fnvHex(readFile(store.entryPath(key))), "7655217828a6bf04");
    uarch::SimulationResult pair_loaded;
    ASSERT_EQ(store.load(key, pair_loaded), core::StoreStatus::Hit);
    expectBitIdentical(pair, pair_loaded);

    core::StoreKey phased_key = key;
    phased_key.fingerprint = 0xfedcba9876543210ull;
    uarch::PhasedSimulationResult phased;
    phased.per_phase = {fixedResult(1), fixedResult(3)};
    for (const uarch::SimulationResult &phase : phased.per_phase)
        phased.combined_counters += phase.counters;
    phased.combined_cpi = 2.5625;
    ASSERT_TRUE(store.savePhased(phased_key, phased));
    EXPECT_EQ(fnvHex(readFile(store.entryPath(phased_key))),
              "7d533d4fdfe8722b");
    uarch::PhasedSimulationResult phased_loaded;
    ASSERT_EQ(store.loadPhased(phased_key, phased_loaded),
              core::StoreStatus::Hit);
    ASSERT_EQ(phased_loaded.per_phase.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k)
        expectBitIdentical(phased.per_phase[k], phased_loaded.per_phase[k]);
    EXPECT_EQ(phased_loaded.combined_cpi, phased.combined_cpi);
    std::filesystem::remove_all(dir);
}

// The acceptance criterion behind `--store`: a second campaign over a
// populated directory executes zero simulations.
TEST(CampaignStore, WarmCampaignRunsZeroSimulations)
{
    const std::string dir = storeDir("warm");
    core::ServiceConfig config;
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    config.store_dir = dir;
    std::vector<suites::BenchmarkInfo> benchmarks =
        suites::spec2017RateInt();

    {
        core::ServiceContext cold(config);
        core::Characterizer &characterizer =
            cold.characterizerFor(cold.profilingMachines());
        characterizer.prepare(benchmarks);
        EXPECT_GT(characterizer.simulationsRun(), 0u);
        EXPECT_EQ(cold.store()->counters().computed,
                  characterizer.simulationsRun());
    }

    core::ServiceContext warm(config);
    core::Characterizer &characterizer =
        warm.characterizerFor(warm.profilingMachines());
    characterizer.prepare(benchmarks);
    EXPECT_EQ(characterizer.simulationsRun(), 0u);
    EXPECT_EQ(warm.store()->counters().computed, 0u);
    EXPECT_EQ(warm.store()->counters().misses, 0u);
    EXPECT_NE(warm.summary().find("simulations=0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// scan() classifies every seeded defect and invalidateStale() removes
// exactly the inconsistent entries.
TEST(CampaignStore, ScanAndInvalidateStale)
{
    const std::string dir = storeDir("scan");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &machine = suites::skylakeMachine();
    const char *names[] = {"500.perlbench_r", "502.gcc_r", "505.mcf_r",
                           "520.omnetpp_r"};

    core::CampaignStore store(dir);
    for (const char *name : names)
        core::storedSimulate(&store,
                             suites::spec2017Benchmark(name).profile,
                             machine, window);

    // Seed one defect of each class; names[3] stays healthy.
    core::StoreKey k0 = core::makeStoreKey(
        suites::spec2017Benchmark(names[0]).profile, machine, window);
    std::filesystem::resize_file(store.entryPath(k0), 12);

    core::StoreKey k1 = core::makeStoreKey(
        suites::spec2017Benchmark(names[1]).profile, machine, window);
    std::string bytes = readFile(store.entryPath(k1));
    bytes[8] = static_cast<char>(bytes[8] ^ 0xff);
    writeFile(store.entryPath(k1), bytes);

    core::StoreKey k2 = core::makeStoreKey(
        suites::spec2017Benchmark(names[2]).profile, machine, window);
    uarch::SimulationConfig salted = window;
    salted.seed_salt = 3;
    core::StoreKey misplaced = core::makeStoreKey(
        suites::spec2017Benchmark(names[2]).profile, machine, salted);
    std::filesystem::rename(store.entryPath(k2),
                            store.entryPath(misplaced));

    std::vector<core::StoreEntryInfo> entries =
        core::scanStore(dir).entries;
    ASSERT_EQ(entries.size(), 4u);
    std::size_t healthy = 0, corrupt = 0, stale = 0, mismatched = 0;
    for (const auto &entry : entries) {
        switch (entry.status) {
        case core::StoreStatus::Hit: ++healthy; break;
        case core::StoreStatus::Corrupt: ++corrupt; break;
        case core::StoreStatus::StaleVersion: ++stale; break;
        case core::StoreStatus::FingerprintMismatch:
            ++mismatched;
            break;
        default: break;
        }
    }
    EXPECT_EQ(healthy, 1u);
    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(stale, 1u);
    EXPECT_EQ(mismatched, 1u);

    EXPECT_EQ(store.invalidateStale(), 3u);
    EXPECT_EQ(store.entryCount(), 1u);
    for (const auto &entry : core::scanStore(dir).entries)
        EXPECT_EQ(entry.status, core::StoreStatus::Hit);

    EXPECT_EQ(store.invalidate(), 1u);
    EXPECT_EQ(store.entryCount(), 0u);
    std::filesystem::remove_all(dir);
}

// scan() accepts exactly the names entryPath() writes.  An upper-case
// copy of a healthy entry parses as the same fingerprint, but no load
// ever opens it, so it is a corrupt entry, not a healthy one.
TEST(CampaignStore, ScanRejectsNonCanonicalEntryNames)
{
    const std::string dir = storeDir("entry_names");
    core::CampaignStore store(dir);
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    core::storedSimulate(&store, benchmark.profile,
                         suites::skylakeMachine(), tinyWindow());
    std::filesystem::path path = store.entryPath(core::makeStoreKey(
        benchmark.profile, suites::skylakeMachine(), tinyWindow()));
    std::string upper = path.stem().string();
    for (char &c : upper)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    ASSERT_NE(upper, path.stem().string());
    std::filesystem::copy_file(
        path, path.parent_path() / (upper + core::kStoreEntrySuffix));

    std::size_t healthy = 0, corrupt = 0;
    for (const core::StoreEntryInfo &entry :
         core::scanStore(dir).entries) {
        healthy += entry.status == core::StoreStatus::Hit;
        corrupt += entry.status == core::StoreStatus::Corrupt;
    }
    EXPECT_EQ(healthy, 1u);
    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(store.invalidateStale(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path));
    std::filesystem::remove_all(dir);
}

// load() opens only the fingerprint's own shard, so an entry filed in
// another one is unreachable: the scan must not call it healthy, and
// invalidateStale() removes it.
TEST(CampaignStore, ScanClassifiesMisfiledEntries)
{
    const std::string dir = storeDir("misfiled");
    core::CampaignStore store(dir);
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    core::StoreKey key = core::makeStoreKey(
        benchmark.profile, suites::skylakeMachine(), tinyWindow());
    core::storedSimulate(&store, benchmark.profile,
                         suites::skylakeMachine(), tinyWindow());
    std::filesystem::path home = store.entryPath(key);
    std::filesystem::path away =
        std::filesystem::path(store.shardPath(
            (core::storeShardIndex(key.fingerprint) + 1) %
            core::kStoreShardCount)) /
        home.filename();
    std::filesystem::rename(home, away);

    std::vector<core::StoreEntryInfo> entries =
        core::scanStore(dir).entries;
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].status, core::StoreStatus::Misfiled);
    EXPECT_NE(entries[0].detail.find("belongs in"), std::string::npos)
        << entries[0].detail;
    EXPECT_EQ(store.invalidateStale(), 1u);
    EXPECT_FALSE(std::filesystem::exists(away));
    std::filesystem::remove_all(dir);
}

// scanStore() only reads: a missing directory is reported and stays
// missing, a writer's temp file survives, and each healthy entry comes
// back with its decoded result.
TEST(CampaignStore, ScanStoreReadsOnlyAndKeepsResults)
{
    const std::string dir = storeDir("read_only_scan");
    core::StoreScan missing = core::scanStore(dir);
    EXPECT_FALSE(missing.found);
    EXPECT_TRUE(missing.entries.empty());
    EXPECT_FALSE(std::filesystem::exists(dir));

    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    uarch::SimulationResult simulated;
    {
        core::CampaignStore store(dir);
        simulated = core::storedSimulate(&store, benchmark.profile,
                                         suites::skylakeMachine(),
                                         tinyWindow());
    }
    const std::string temp = dir + "/shard-0/deadbeef00000001.slart.tmp42";
    writeFile(temp, "in flight");
    core::StoreScan scan = core::scanStore(dir);
    EXPECT_TRUE(scan.found);
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(scan.entries[0].status, core::StoreStatus::Hit);
    expectBitIdentical(scan.entries[0].result, simulated);
    EXPECT_TRUE(std::filesystem::exists(temp));
    std::filesystem::remove_all(dir);
}

// A process killed mid-save leaves a half-written `.slart.tmp` behind
// (the atomic-rename protocol never publishes it).  Opening the store
// again must sweep the orphan, count it, and leave healthy entries
// alone.
TEST(CampaignStore, OrphanedTempFilesSweptOnOpen)
{
    const std::string dir = storeDir("orphans");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();

    {
        core::CampaignStore store(dir);
        EXPECT_EQ(store.counters().orphaned_temp, 0u);
        core::storedSimulate(&store, benchmark.profile, machine,
                             window);
    }

    // Seed two interrupted writes next to the healthy entry.
    writeOrphan(dir + "/deadbeef00000001.slart.tmp", "half-written");
    writeOrphan(dir + "/deadbeef00000002.slart.tmp.1234", "torn");

    core::CampaignStore reopened(dir);
    EXPECT_EQ(reopened.counters().orphaned_temp, 2u);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/deadbeef00000001.slart.tmp"));
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/deadbeef00000002.slart.tmp.1234"));

    // The published entry survives and still loads.
    EXPECT_EQ(reopened.entryCount(), 1u);
    core::StoreKey key =
        core::makeStoreKey(benchmark.profile, machine, window);
    uarch::SimulationResult out;
    EXPECT_EQ(reopened.load(key, out), core::StoreStatus::Hit);
    std::filesystem::remove_all(dir);
}

// Opening a store must not take the temp file of a live writer in
// another process: a fresh temp file (entry or manifest) survives a
// writer's open, and only the back-dated one is swept and counted.
TEST(CampaignStore, SweepLeavesALiveWritersTempFileAlone)
{
    const std::string dir = storeDir("live_temp");
    const std::string shard = dir + "/" + core::storeShardDirName(3);
    std::filesystem::create_directories(shard);
    const std::string live = shard + "/3000000000000001.slart.tmp777.1";
    const std::string live_manifest =
        obs::tempPathFor(dir + "/" + obs::kManifestFileName);
    const std::string dead = shard + "/3000000000000002.slart.tmp778.1";
    writeFile(live, "being written");
    writeFile(live_manifest, "{");
    writeOrphan(dead, "torn");

    core::CampaignStore store(dir);
    EXPECT_EQ(store.counters().orphaned_temp, 1u);
    EXPECT_TRUE(std::filesystem::exists(live));
    EXPECT_TRUE(std::filesystem::exists(live_manifest));
    EXPECT_FALSE(std::filesystem::exists(dead));
    std::filesystem::remove_all(dir);
}

// Temp names carry the writer's pid, so writers in two processes never
// write through one temp file.
TEST(CampaignStore, TempPathsCarryThePid)
{
    const std::string temp = obs::tempPathFor("/store/entry.slart");
    EXPECT_EQ(temp.rfind("/store/entry.slart.tmp" +
                             std::to_string(::getpid()) + ".",
                         0),
              0u)
        << temp;
}

// Swept orphans surface in the context's `rejected=` summary rather
// than disappearing silently.
TEST(CampaignStore, OrphanSweepCountsIntoSessionSummary)
{
    const std::string dir = storeDir("orphan_summary");
    std::filesystem::create_directories(dir);
    writeOrphan(dir + "/feedface00000001.slart.tmp", "torn write");

    core::ServiceConfig config;
    config.machines = {suites::skylakeMachine()};
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    config.store_dir = dir;
    core::ServiceContext context(config);
    EXPECT_EQ(context.store()->counters().orphaned_temp, 1u);
    EXPECT_NE(context.summary().find("rejected=1"), std::string::npos)
        << context.summary();
    std::filesystem::remove_all(dir);
}

// Every store-backed context leaves a run manifest in the store
// directory: well-formed JSON carrying the v1 schema keys and the
// context's configuration fingerprint.
TEST(ServiceContext, WritesRunManifestOnDestruction)
{
    const std::string dir = storeDir("manifest");
    std::string fingerprint;
    {
        core::ServiceConfig config;
        config.machines = suites::profilingMachines();
        config.characterization.instructions = 2'000;
        config.characterization.warmup = 500;
        config.store_dir = dir;
        core::ServiceContext context(config);
        context.characterizerFor(context.profilingMachines())
            .prepare(suites::spec2017RateInt());
        fingerprint = context.configFingerprint();
        EXPECT_EQ(fingerprint.size(), 16u);
    }

    const std::string path =
        dir + "/" + obs::kManifestFileName;
    ASSERT_TRUE(std::filesystem::exists(path));
    std::string body = readFile(path);
    EXPECT_TRUE(obs::parseJson(body).has_value());
    for (const char *key :
         {"\"manifest_version\": 1", "\"engine_version\"",
          "\"config_fingerprint\"", "\"run\"", "\"totals\"",
          "\"rejected\"", "\"metrics\""})
        EXPECT_NE(body.find(key), std::string::npos) << key;
    EXPECT_NE(body.find(fingerprint), std::string::npos);
    EXPECT_NE(body.find("\"orphaned_temp\": 0"), std::string::npos);

    // A warm rerun rewrites the manifest with the same identity block.
    {
        core::ServiceConfig config;
        config.machines = suites::profilingMachines();
        config.characterization.instructions = 2'000;
        config.characterization.warmup = 500;
        config.store_dir = dir;
        core::ServiceContext warm(config);
        warm.characterizerFor(warm.profilingMachines())
            .prepare(suites::spec2017RateInt());
        EXPECT_EQ(warm.configFingerprint(), fingerprint);
    }
    std::string warm_body = readFile(path);
    EXPECT_TRUE(obs::parseJson(warm_body).has_value());
    EXPECT_NE(warm_body.find(fingerprint), std::string::npos);
    std::filesystem::remove_all(dir);
}

// A different simulation window or machine set must change the
// manifest's configuration fingerprint.
TEST(ServiceContext, ConfigFingerprintCoversWindowAndMachines)
{
    core::ServiceConfig config;
    config.machines = {suites::skylakeMachine()};
    config.characterization.instructions = 2'000;
    config.characterization.warmup = 500;
    const std::string base =
        core::ServiceContext(config).configFingerprint();

    core::ServiceConfig wider = config;
    wider.characterization.instructions = 4'000;
    EXPECT_NE(core::ServiceContext(wider).configFingerprint(), base);

    core::ServiceConfig more = config;
    more.machines = suites::profilingMachines();
    EXPECT_NE(core::ServiceContext(more).configFingerprint(), base);

    // jobs is execution policy, not measurement configuration.
    core::ServiceConfig jobs = config;
    jobs.characterization.jobs = 7;
    EXPECT_EQ(core::ServiceContext(jobs).configFingerprint(), base);
}

// A store on an unwritable path degrades soft: analyses still run,
// saves report failure, nothing crashes.
TEST(CampaignStore, UnwritableDirectoryDegradesSoft)
{
    core::CampaignStore store("/proc/speclens_no_such_store");
    const uarch::SimulationConfig window = tinyWindow();
    const auto &benchmark = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();

    uarch::SimulationResult direct =
        uarch::simulate(benchmark.profile, machine, window);
    uarch::SimulationResult through = core::storedSimulate(
        &store, benchmark.profile, machine, window);
    expectBitIdentical(direct, through);
    EXPECT_EQ(store.counters().saves, 0u);
    EXPECT_EQ(store.entryCount(), 0u);
}
