/**
 * @file
 * Tests for the benchmark databases: CPU2017 (Table I fidelity),
 * CPU2006, emerging workloads, input sets, machines (Table IV
 * fidelity) and the score database.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "stats/fingerprint.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/score_database.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

namespace speclens {
namespace suites {
namespace {

// ---------------------------------------------------------------------
// CPU2017 database
// ---------------------------------------------------------------------

TEST(Spec2017Test, FortyThreeBenchmarksInFourCategories)
{
    EXPECT_EQ(spec2017().size(), 43u);
    EXPECT_EQ(spec2017SpeedInt().size(), 10u);
    EXPECT_EQ(spec2017RateInt().size(), 10u);
    EXPECT_EQ(spec2017SpeedFp().size(), 10u);
    EXPECT_EQ(spec2017RateFp().size(), 13u);
}

TEST(Spec2017Test, NamesAreUniqueAndProfilesValid)
{
    std::set<std::string> names;
    for (const BenchmarkInfo &b : spec2017()) {
        EXPECT_TRUE(names.insert(b.name).second) << b.name;
        EXPECT_NO_THROW(b.profile.validate()) << b.name;
        EXPECT_EQ(b.profile.name, b.name);
        EXPECT_EQ(b.suite, Suite::Cpu2017);
    }
}

TEST(Spec2017Test, TableOneCalibrationData)
{
    // Spot-check rows of Table I.
    const BenchmarkInfo &mcf = spec2017Benchmark("605.mcf_s");
    EXPECT_EQ(mcf.id, 605);
    EXPECT_NEAR(mcf.profile.dynamic_instructions_billions, 1775, 1);
    EXPECT_NEAR(mcf.profile.mix.load, 0.1855, 1e-4);
    EXPECT_NEAR(mcf.published_cpi, 1.22, 1e-9);

    const BenchmarkInfo &bwaves = spec2017Benchmark("603.bwaves_s");
    EXPECT_NEAR(bwaves.profile.dynamic_instructions_billions, 66395, 1);

    const BenchmarkInfo &xalan = spec2017Benchmark("523.xalancbmk_r");
    EXPECT_NEAR(xalan.profile.mix.branch, 0.3326, 1e-4);
}

TEST(Spec2017Test, SpeedIcountsExceedRateForFp)
{
    // Section II-B: speed FP benchmarks have ~8x (avg) higher dynamic
    // instruction counts than their rate versions.
    double ratio_sum = 0.0;
    int pairs = 0;
    for (const BenchmarkInfo &speed : spec2017SpeedFp()) {
        if (speed.partner.empty())
            continue;
        const BenchmarkInfo &rate = spec2017Benchmark(speed.partner);
        ratio_sum += speed.profile.dynamic_instructions_billions /
                     rate.profile.dynamic_instructions_billions;
        ++pairs;
    }
    EXPECT_GT(ratio_sum / pairs, 5.0);
}

TEST(Spec2017Test, PartnersAreMutual)
{
    for (const BenchmarkInfo &b : spec2017()) {
        if (b.partner.empty())
            continue;
        const BenchmarkInfo &partner = spec2017Benchmark(b.partner);
        EXPECT_EQ(partner.partner, b.name) << b.name;
    }
}

TEST(Spec2017Test, SpeedOnlyAndRateOnlyBenchmarks)
{
    // 628.pop2_s exists only in speed; namd/parest/povray/blender only
    // in rate (Section IV-D).
    EXPECT_TRUE(spec2017Benchmark("628.pop2_s").partner.empty());
    EXPECT_TRUE(spec2017Benchmark("508.namd_r").partner.empty());
    EXPECT_TRUE(spec2017Benchmark("510.parest_r").partner.empty());
    EXPECT_TRUE(spec2017Benchmark("511.povray_r").partner.empty());
    EXPECT_TRUE(spec2017Benchmark("526.blender_r").partner.empty());
}

TEST(Spec2017Test, NewBenchmarkFlags)
{
    // Section II-A: nine new FP benchmarks, AI domain expanded with
    // three, x264/xz new in INT.
    EXPECT_TRUE(spec2017Benchmark("507.cactuBSSN_r").new_in_2017);
    EXPECT_TRUE(spec2017Benchmark("541.leela_r").new_in_2017);
    EXPECT_TRUE(spec2017Benchmark("525.x264_r").new_in_2017);
    EXPECT_FALSE(spec2017Benchmark("505.mcf_r").new_in_2017);
    EXPECT_FALSE(spec2017Benchmark("503.bwaves_r").new_in_2017);

    int new_fp = 0;
    for (const BenchmarkInfo &b : spec2017RateFp())
        new_fp += b.new_in_2017;
    EXPECT_EQ(new_fp, 8); // 9 new FP programs; povray is retained
}

TEST(Spec2017Test, DomainsMatchTableEight)
{
    EXPECT_EQ(spec2017Benchmark("505.mcf_r").domain,
              Domain::CombinatorialOptimization);
    EXPECT_EQ(spec2017Benchmark("520.omnetpp_r").domain,
              Domain::DiscreteEventSimulation);
    EXPECT_EQ(spec2017Benchmark("510.parest_r").domain,
              Domain::Biomedical);
    EXPECT_EQ(spec2017Benchmark("654.roms_s").domain,
              Domain::Climatology);
    EXPECT_EQ(spec2017Benchmark("641.leela_s").domain,
              Domain::ArtificialIntelligence);
}

TEST(Spec2017Test, UnknownBenchmarkThrows)
{
    EXPECT_THROW(spec2017Benchmark("999.nothing"), std::out_of_range);
}

TEST(Spec2017Test, BranchSharesFollowSectionIIB)
{
    // "For the integer benchmarks the fraction of branch instructions
    // is roughly <= 15%" (xalancbmk at 33% is the stated outlier) and
    // "for the FP categories most benchmarks have much lower fraction
    // of control instructions (<= 9% on average)".
    double fp_sum = 0.0;
    int fp_count = 0;
    for (const BenchmarkInfo &b : spec2017()) {
        if (isFpCategory(b.category)) {
            fp_sum += b.profile.mix.branch;
            ++fp_count;
        } else if (b.name.find("xalancbmk") == std::string::npos) {
            EXPECT_LE(b.profile.mix.branch, 0.19) << b.name;
        }
    }
    EXPECT_LE(fp_sum / fp_count, 0.09);
}

TEST(Spec2017Test, MemoryIntensiveBenchmarksPerSectionIIB)
{
    // "several benchmarks (e.g. 602.gcc_s, 507.cactuBSSN_r) having
    // ~50% fraction of memory (load and store) instructions".
    for (const char *name : {"602.gcc_s", "507.cactuBSSN_r"}) {
        const BenchmarkInfo &b = spec2017Benchmark(name);
        EXPECT_GT(b.profile.mix.load + b.profile.mix.store, 0.45)
            << name;
    }
}

TEST(Spec2017Test, FpBenchmarksHaveFpContent)
{
    for (const BenchmarkInfo &b : spec2017()) {
        if (isFpCategory(b.category)) {
            EXPECT_GT(b.profile.mix.fp + b.profile.mix.simd, 0.1)
                << b.name;
        }
    }
}

// ---------------------------------------------------------------------
// CPU2006 database
// ---------------------------------------------------------------------

TEST(Spec2006Test, TwentyNineBenchmarks)
{
    EXPECT_EQ(spec2006().size(), 29u);
    EXPECT_EQ(spec2006Int().size(), 12u);
    EXPECT_EQ(spec2006Fp().size(), 17u);
}

TEST(Spec2006Test, IntBranchSharesAverageTwentyPercent)
{
    // Section II-B: CPU2006 INT averages ~20% branches, clearly above
    // CPU2017 INT.
    double sum06 = 0.0;
    for (const BenchmarkInfo &b : spec2006Int())
        sum06 += b.profile.mix.branch;
    double avg06 = sum06 / 12.0;

    double sum17 = 0.0;
    for (const BenchmarkInfo &b : spec2017RateInt())
        sum17 += b.profile.mix.branch;
    double avg17 = sum17 / 10.0;

    EXPECT_NEAR(avg06, 0.20, 0.04);
    EXPECT_GT(avg06, avg17);
}

TEST(Spec2006Test, RemovedBenchmarkList)
{
    auto removed = spec2006RemovedBenchmarks();
    EXPECT_EQ(removed.size(), 20u);
    std::set<std::string> names;
    for (const BenchmarkInfo &b : removed)
        names.insert(b.name);
    EXPECT_TRUE(names.count("429.mcf"));
    EXPECT_TRUE(names.count("445.gobmk"));
    EXPECT_TRUE(names.count("473.astar"));
    // Retained benchmarks are absent.
    EXPECT_FALSE(names.count("471.omnetpp"));
    EXPECT_FALSE(names.count("410.bwaves"));
}

TEST(Spec2006Test, ProfilesValid)
{
    for (const BenchmarkInfo &b : spec2006())
        EXPECT_NO_THROW(b.profile.validate()) << b.name;
}

// ---------------------------------------------------------------------
// Emerging workloads
// ---------------------------------------------------------------------

TEST(EmergingTest, CompositionMatchesFig13)
{
    EXPECT_EQ(edaBenchmarks().size(), 2u);
    EXPECT_EQ(databaseBenchmarks().size(), 2u);
    EXPECT_EQ(graphBenchmarks().size(), 4u);
    EXPECT_EQ(emergingBenchmarks().size(), 8u);
}

TEST(EmergingTest, CassandraHasServerCharacteristics)
{
    for (const BenchmarkInfo &b : databaseBenchmarks()) {
        EXPECT_GT(b.profile.memory.code_bytes, 1024.0 * 1024)
            << b.name;
        EXPECT_GT(b.profile.exec.kernel_fraction, 0.2) << b.name;
    }
}

TEST(EmergingTest, PageRankIsTlbHostile)
{
    for (const BenchmarkInfo &b : graphBenchmarks()) {
        if (b.name.rfind("pr-", 0) != 0)
            continue;
        // The vast working set must be page-stride (one line per page).
        EXPECT_DOUBLE_EQ(b.profile.memory.data[3].stride_bytes, 4096.0)
            << b.name;
    }
}

// ---------------------------------------------------------------------
// Input sets
// ---------------------------------------------------------------------

TEST(InputSetsTest, CountsMatchDistribution)
{
    EXPECT_EQ(inputSetCount("502.gcc_r"), 5);
    EXPECT_EQ(inputSetCount("525.x264_r"), 3);
    EXPECT_EQ(inputSetCount("500.perlbench_r"), 3);
    EXPECT_EQ(inputSetCount("503.bwaves_r"), 4);
    EXPECT_EQ(inputSetCount("605.mcf_s"), 1);
    EXPECT_EQ(inputSetCount("541.leela_r"), 1);
}

TEST(InputSetsTest, VariantsAreDeterministicAndDistinct)
{
    const BenchmarkInfo &gcc = spec2017Benchmark("502.gcc_r");
    BenchmarkInfo v1a = inputVariant(gcc, 1);
    BenchmarkInfo v1b = inputVariant(gcc, 1);
    BenchmarkInfo v2 = inputVariant(gcc, 2);
    EXPECT_EQ(v1a.profile.memory.data[0].bytes,
              v1b.profile.memory.data[0].bytes);
    EXPECT_NE(v1a.profile.memory.data[0].bytes,
              v2.profile.memory.data[0].bytes);
    EXPECT_EQ(v1a.name, "502.gcc_r#1");
    EXPECT_NO_THROW(v1a.profile.validate());
    EXPECT_NO_THROW(v2.profile.validate());
}

TEST(InputSetsTest, SpreadControlsPerturbationMagnitude)
{
    const BenchmarkInfo &gcc = spec2017Benchmark("502.gcc_r");
    double tight_dev = 0.0, wide_dev = 0.0;
    for (int k = 1; k <= 5; ++k) {
        BenchmarkInfo tight =
            inputVariant(gcc, k, kCpu2017InputSpread);
        BenchmarkInfo wide = inputVariant(gcc, k, kCpu2006GccSpread);
        tight_dev += std::fabs(std::log(
            tight.profile.memory.data[1].bytes /
            gcc.profile.memory.data[1].bytes));
        wide_dev += std::fabs(std::log(
            wide.profile.memory.data[1].bytes /
            gcc.profile.memory.data[1].bytes));
    }
    EXPECT_GT(wide_dev, tight_dev);
}

TEST(InputSetsTest, GroupsExpandCorrectly)
{
    auto int_groups = inputSetGroupsInt();
    EXPECT_EQ(int_groups.size(), 20u); // 10 rate + 10 speed
    std::size_t total = 0;
    for (const InputSetGroup &g : int_groups) {
        EXPECT_EQ(g.inputs.size(),
                  static_cast<std::size_t>(
                      inputSetCount(g.benchmark.name)));
        total += g.inputs.size();
        if (g.inputs.size() == 1) {
            EXPECT_EQ(g.inputs[0].name, g.benchmark.name);
        }
    }
    EXPECT_EQ(flattenGroups(int_groups).size(), total);

    auto fp_groups = inputSetGroupsFp();
    EXPECT_EQ(fp_groups.size(), 23u); // 13 rate + 10 speed
}

// ---------------------------------------------------------------------
// Machines (Table IV)
// ---------------------------------------------------------------------

TEST(MachinesTest, SevenMachinesMatchingTableFour)
{
    const auto &machines = profilingMachines();
    ASSERT_EQ(machines.size(), 7u);

    const auto &skylake = machineByShortName("skylake");
    EXPECT_EQ(skylake.caches.l1d.size_bytes, 32u * 1024);
    ASSERT_TRUE(skylake.caches.l3.has_value());
    EXPECT_EQ(skylake.caches.l3->size_bytes, 8u * 1024 * 1024);

    const auto &broadwell = machineByShortName("broadwell");
    EXPECT_EQ(broadwell.caches.l3->size_bytes, 30u * 1024 * 1024);

    const auto &harpertown = machineByShortName("harpertown");
    EXPECT_FALSE(harpertown.caches.l3.has_value());
    EXPECT_EQ(harpertown.caches.l2.size_bytes, 6u * 1024 * 1024);
    EXPECT_FALSE(harpertown.tlbs.l2tlb.has_value());

    const auto &sparc_iv = machineByShortName("sparc-iv");
    EXPECT_EQ(sparc_iv.isa, uarch::Isa::Sparc);
    EXPECT_EQ(sparc_iv.caches.l1d.size_bytes, 64u * 1024);
    EXPECT_EQ(sparc_iv.caches.l2.size_bytes, 2u * 1024 * 1024);

    const auto &t4 = machineByShortName("sparc-t4");
    EXPECT_EQ(t4.caches.l1d.size_bytes, 16u * 1024);
    EXPECT_EQ(t4.caches.l3->size_bytes, 4u * 1024 * 1024);

    const auto &opteron = machineByShortName("opteron");
    EXPECT_EQ(opteron.caches.l1d.size_bytes, 64u * 1024);
    EXPECT_EQ(opteron.caches.l2.size_bytes, 512u * 1024);
    EXPECT_EQ(opteron.caches.l3->size_bytes, 6u * 1024 * 1024);
}

TEST(MachinesTest, ThreeIsasRepresented)
{
    int x86 = 0, sparc = 0;
    for (const auto &m : profilingMachines()) {
        if (m.isa == uarch::Isa::X86)
            ++x86;
        else
            ++sparc;
    }
    EXPECT_EQ(x86, 5);
    EXPECT_EQ(sparc, 2);
}

TEST(MachinesTest, SubsetsAndLookup)
{
    EXPECT_EQ(sensitivityMachines().size(), 4u);
    EXPECT_EQ(skylakeMachine().short_name, "skylake");
    EXPECT_THROW(machineByShortName("pentium"), std::out_of_range);
}

TEST(MachinesTest, AllConfigsConstructSimulatableStructures)
{
    for (const auto &m : profilingMachines()) {
        EXPECT_NO_THROW(uarch::CacheHierarchy{m.caches}) << m.name;
        EXPECT_NO_THROW(uarch::TlbHierarchy{m.tlbs}) << m.name;
        EXPECT_NO_THROW(
            uarch::makePredictorVariant(m.predictor, m.predictor_size_log2))
            << m.name;
    }
}

/**
 * Store keys hash every machine model, enums included as integers
 * (MachineConfig::hashInto), so renumbering a PredictorKind or
 * ReplacementPolicy value would silently turn every warm store cold.
 * Pin the fingerprint of each of the 12 shipped machines: the seven
 * Table IV machines, the four memory-centric Skylake variants and the
 * prefetch ablation's degree-4 Skylake.
 */
TEST(MachineFingerprints, ShippedMachinesArePinned)
{
    std::vector<uarch::MachineConfig> machines = profilingMachines();
    for (const uarch::MachineConfig &m : memoryCentricMachines())
        machines.push_back(m);
    machines.push_back(prefetchAblationMachine());

    const std::pair<const char *, const char *> expected[] = {
        {"skylake", "6177a14c002189d2"},
        {"broadwell", "2de040803ca8bf31"},
        {"ivybridge", "c3324057a8aa5d63"},
        {"harpertown", "52a8b0e8ccd88ef4"},
        {"sparc-iv", "ab123b12c9837489"},
        {"sparc-t4", "29bf2c5fe1760b89"},
        {"opteron", "76dcce254e1b070b"},
        {"skylake-dram", "90b7b0281f0dce5d"},
        {"skylake-nl", "999104141b502bc1"},
        {"skylake-stride", "e0462db6e83a3b77"},
        {"skylake-stream", "0d092bc51529910e"},
        {"skylake", "6e62a6cd45b17c1e"}, // the prefetch ablation arm
    };
    ASSERT_EQ(machines.size(), std::size(expected));
    for (std::size_t i = 0; i < machines.size(); ++i) {
        stats::Fingerprinter fp;
        machines[i].hashInto(fp);
        EXPECT_EQ(machines[i].short_name, expected[i].first);
        EXPECT_EQ(stats::hex16(fp.value()), expected[i].second)
            << machines[i].short_name;
    }
}

// ---------------------------------------------------------------------
// Score database
// ---------------------------------------------------------------------

TEST(ScoreDatabaseTest, TraitsSpanTheUnitRange)
{
    WorkloadTraits mcf =
        deriveTraits(spec2017Benchmark("505.mcf_r").profile);
    WorkloadTraits exchange =
        deriveTraits(spec2017Benchmark("548.exchange2_r").profile);
    EXPECT_GT(mcf.memory_intensity, 0.5);
    EXPECT_LT(exchange.memory_intensity, 0.15);

    WorkloadTraits nab =
        deriveTraits(spec2017Benchmark("544.nab_r").profile);
    EXPECT_GT(nab.fp_intensity, 0.5);
    EXPECT_LT(deriveTraits(spec2017Benchmark("505.mcf_r").profile)
                  .fp_intensity,
              0.05);

    WorkloadTraits leela =
        deriveTraits(spec2017Benchmark("541.leela_r").profile);
    EXPECT_GT(leela.branch_limit, 0.3);
}

TEST(ScoreDatabaseTest, SpeedupsDeterministicAndPositive)
{
    ScoreDatabase db;
    const auto &systems = db.systemsFor(Category::SpeedInt);
    ASSERT_EQ(systems.size(), 4u);
    EXPECT_EQ(db.systemsFor(Category::RateFp).size(), 5u);

    const BenchmarkInfo &b = spec2017Benchmark("541.leela_r");
    double s1 = db.speedup(systems[0], b);
    double s2 = db.speedup(systems[0], b);
    EXPECT_DOUBLE_EQ(s1, s2);
    EXPECT_GT(s1, 1.0);
}

TEST(ScoreDatabaseTest, CoreBoundGainsMoreOnCoreSystem)
{
    ScoreDatabase db;
    // sys-A is the high-frequency core-gain system.
    const auto &sys_a = db.systemsFor(Category::SpeedInt)[0];
    double core_bound =
        db.speedup(sys_a, spec2017Benchmark("648.exchange2_s"));
    double memory_bound =
        db.speedup(sys_a, spec2017Benchmark("605.mcf_s"));
    EXPECT_GT(core_bound, memory_bound);
}

TEST(ScoreDatabaseTest, SuiteScoreIsGeomeanOfMembers)
{
    ScoreDatabase db;
    const auto &sys = db.systemsFor(Category::SpeedInt)[1];
    auto suite = spec2017SpeedInt();
    double score = db.suiteScore(sys, suite);
    double log_sum = 0.0;
    for (const BenchmarkInfo &b : suite)
        log_sum += std::log(db.speedup(sys, b));
    EXPECT_NEAR(score, std::exp(log_sum / suite.size()), 1e-9);
}

// ---------------------------------------------------------------------
// Metadata helpers
// ---------------------------------------------------------------------

TEST(BenchmarkInfoTest, EnumNames)
{
    EXPECT_EQ(suiteName(Suite::Cpu2017), "CPU2017");
    EXPECT_EQ(categoryName(Category::SpeedFp), "SPECspeed FP");
    EXPECT_EQ(domainName(Domain::Eda), "EDA");
    EXPECT_EQ(languageName(Language::CCppFortran), "C/C++/Fortran");
}

TEST(BenchmarkInfoTest, CategoryPredicates)
{
    EXPECT_TRUE(isSpeedCategory(Category::SpeedInt));
    EXPECT_FALSE(isSpeedCategory(Category::RateInt));
    EXPECT_TRUE(isFpCategory(Category::SpeedFp));
    EXPECT_FALSE(isFpCategory(Category::SpeedInt));
}

} // namespace
} // namespace suites
} // namespace speclens
