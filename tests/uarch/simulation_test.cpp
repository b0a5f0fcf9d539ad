/**
 * @file
 * Tests for machine transforms and the end-to-end simulation driver.
 */

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "trace/phased_workload.h"
#include "uarch/machine.h"
#include "uarch/simulation.h"

namespace speclens {
namespace uarch {
namespace {

TEST(MachineTransformTest, DeterministicPerPair)
{
    const auto &profile = suites::spec2017Benchmark("502.gcc_r").profile;
    const auto &machine = suites::machineByShortName("sparc-t4");
    trace::WorkloadProfile a = transformForMachine(profile, machine);
    trace::WorkloadProfile b = transformForMachine(profile, machine);
    EXPECT_EQ(a.mix.load, b.mix.load);
    EXPECT_EQ(a.memory.code_bytes, b.memory.code_bytes);
}

TEST(MachineTransformTest, DiffersAcrossMachines)
{
    const auto &profile = suites::spec2017Benchmark("502.gcc_r").profile;
    trace::WorkloadProfile skylake = transformForMachine(
        profile, suites::machineByShortName("skylake"));
    trace::WorkloadProfile sparc = transformForMachine(
        profile, suites::machineByShortName("sparc-t4"));
    EXPECT_NE(skylake.mix.load, sparc.mix.load);
}

TEST(MachineTransformTest, RiscScalesMemoryMixDown)
{
    const auto &profile = suites::spec2017Benchmark("502.gcc_r").profile;
    const auto &sparc = suites::machineByShortName("sparc-iv");
    trace::WorkloadProfile transformed =
        transformForMachine(profile, sparc);
    // memory_mix_scale 0.9 with jitter <= ~6%: clearly below original.
    EXPECT_LT(transformed.mix.load + transformed.mix.store,
              (profile.mix.load + profile.mix.store) * 1.02);
    // Result remains a valid profile.
    EXPECT_NO_THROW(transformed.validate());
}

TEST(MachineTransformTest, OverfullMixRenormalised)
{
    trace::WorkloadProfile p;
    p.name = "dense-mix";
    p.mix.load = 0.45;
    p.mix.store = 0.30;
    p.mix.branch = 0.18;
    MachineConfig machine = suites::machineByShortName("skylake");
    machine.transform.memory_mix_scale = 1.4;
    trace::WorkloadProfile t = transformForMachine(p, machine);
    EXPECT_NO_THROW(t.validate());
    EXPECT_LE(t.mix.load + t.mix.store + t.mix.branch + t.mix.fp +
                  t.mix.simd,
              0.951);
}

TEST(SimulationTest, DeterministicResults)
{
    const auto &b = suites::spec2017Benchmark("505.mcf_r");
    const auto &machine = suites::skylakeMachine();
    SimulationConfig config;
    config.instructions = 30'000;
    config.warmup = 5'000;
    SimulationResult r1 = simulate(b.profile, machine, config);
    SimulationResult r2 = simulate(b.profile, machine, config);
    EXPECT_EQ(r1.counters.l1d_misses, r2.counters.l1d_misses);
    EXPECT_EQ(r1.counters.branch_mispredictions,
              r2.counters.branch_mispredictions);
    EXPECT_DOUBLE_EQ(r1.cpi(), r2.cpi());
}

TEST(SimulationTest, CountersConsistent)
{
    const auto &b = suites::spec2017Benchmark("502.gcc_r");
    SimulationConfig config;
    config.instructions = 40'000;
    config.warmup = 10'000;
    SimulationResult r =
        simulate(b.profile, suites::skylakeMachine(), config);
    const PerfCounters &c = r.counters;

    EXPECT_EQ(c.instructions, 40'000u);
    EXPECT_EQ(c.l1d_accesses, c.loads + c.stores);
    EXPECT_EQ(c.l1i_accesses, c.instructions);
    EXPECT_GE(c.branches, c.taken_branches);
    EXPECT_GE(c.branches, c.branch_mispredictions);
    EXPECT_GE(c.l1d_misses, c.l2d_misses);
    EXPECT_GE(c.l1i_misses, c.l2i_misses);
    EXPECT_LE(c.l3_misses, c.l3_accesses);
    EXPECT_EQ(c.dtlb_accesses, c.l1d_accesses);
    EXPECT_GE(c.dtlb_misses + c.itlb_misses, c.l2tlb_misses);
    EXPECT_GE(c.l2tlb_misses, c.page_walks);
    EXPECT_GT(r.cpi(), 0.0);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_GT(r.power.total(), 0.0);
}

TEST(SimulationTest, PrewarmRemovesCompulsoryL3Misses)
{
    // gcc's working sets fit the Skylake LLC; without pre-warming the
    // short window charges cold misses at every level.
    const auto &b = suites::spec2017Benchmark("502.gcc_r");
    SimulationConfig warm;
    warm.instructions = 30'000;
    warm.warmup = 5'000;
    SimulationConfig cold = warm;
    cold.prewarm = false;

    SimulationResult warm_result =
        simulate(b.profile, suites::skylakeMachine(), warm);
    SimulationResult cold_result =
        simulate(b.profile, suites::skylakeMachine(), cold);
    EXPECT_LT(warm_result.counters.l3Mpki(),
              cold_result.counters.l3Mpki());
}

TEST(SimulationTest, SmallerCachesMissMore)
{
    const auto &b = suites::spec2017Benchmark("520.omnetpp_r");
    SimulationConfig config;
    config.instructions = 60'000;
    config.warmup = 10'000;
    config.apply_machine_transform = false;

    // SPARC T4 (16K L1D) versus Skylake (32K L1D).
    SimulationResult small_l1 = simulate(
        b.profile, suites::machineByShortName("sparc-t4"), config);
    SimulationResult big_l1 = simulate(
        b.profile, suites::machineByShortName("skylake"), config);
    EXPECT_GT(small_l1.counters.l1dMpki(), big_l1.counters.l1dMpki());
}

TEST(SimulationTest, BetterPredictorMispredictsLess)
{
    const auto &b = suites::spec2017Benchmark("541.leela_r");
    MachineConfig machine = suites::skylakeMachine();
    SimulationConfig config;
    config.instructions = 80'000;
    config.warmup = 20'000;
    config.apply_machine_transform = false;

    machine.predictor = PredictorKind::TageLite;
    double tage = simulate(b.profile, machine, config)
                      .counters.branchMpki();
    machine.predictor = PredictorKind::StaticTaken;
    double static_taken = simulate(b.profile, machine, config)
                              .counters.branchMpki();
    EXPECT_LT(tage, static_taken);
}

TEST(SimulationTest, TwoLevelMachineRuns)
{
    // Harpertown has no L3 and no second-level TLB.
    const auto &b = suites::spec2017Benchmark("505.mcf_r");
    SimulationConfig config;
    config.instructions = 30'000;
    config.warmup = 5'000;
    SimulationResult r = simulate(
        b.profile, suites::machineByShortName("harpertown"), config);
    EXPECT_GT(r.counters.l3_accesses, 0u);
    EXPECT_EQ(r.counters.l3_accesses, r.counters.l3_misses);
    EXPECT_EQ(r.counters.l2tlb_misses,
              r.counters.dtlb_misses + r.counters.itlb_misses);
}

#ifndef SPECLENS_METRICS_OFF
// Phased runs go through the same driver as simulate(), so they move
// the uarch.prefetch.fills manifest metric too — by exactly the run's
// combined fills, or manifests under-report memory-centric campaigns.
TEST(SimulationTest, PhasedRunMovesPrefetchFillsMetric)
{
    MachineConfig machine;
    for (const MachineConfig &m : suites::memoryCentricMachines())
        if (m.caches.l2_prefetch_degree > 0) {
            machine = m;
            break;
        }
    ASSERT_GT(machine.caches.l2_prefetch_degree, 0u);

    trace::PhasedWorkload workload = trace::derivePhases(
        suites::spec2017Benchmark("519.lbm_r").profile, 3);
    SimulationConfig config;
    config.instructions = 20'000;
    config.warmup = 5'000;

    obs::Counter &fills =
        obs::Registry::global().counter("uarch.prefetch.fills");
    const std::uint64_t before = fills.value();
    PhasedSimulationResult r = simulatePhased(workload, machine, config);
    ASSERT_GT(r.combined_counters.prefetch_fills, 0u);
    EXPECT_EQ(fills.value() - before, r.combined_counters.prefetch_fills);
}
#endif

} // namespace
} // namespace uarch
} // namespace speclens
