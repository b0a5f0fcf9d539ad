/**
 * @file
 * Driver-vs-reference-model parity contract.
 *
 * The simulation driver streams records through the structure models
 * in SoA batches, collapses same-line/same-page runs, resolves
 * branches with batch predictor kernels and prewarms with the
 * closed-form solver; the reference model (reference_model.h) does
 * none of that — one record, one full probe, one scalar predictor call
 * at a time, always the walking prewarm.  Both must produce
 * bit-identical results — every counter equal, every derived double
 * equal by bit pattern — for EVERY shipped workload on EVERY shipped
 * machine, and for phased runs.  A single differing bit here means a
 * fast path changed observable state, not just speed.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_model.h"
#include "suites/emerging.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
#include "trace/phased_workload.h"
#include "trace/record_batch.h"
#include "uarch/simulation.h"

using namespace speclens;

namespace {

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
expectParity(const suites::BenchmarkInfo &benchmark,
             const uarch::MachineConfig &machine,
             const uarch::SimulationConfig &config)
{
    uarch::SimulationResult fused =
        uarch::simulate(benchmark.profile, machine, config);
    uarch::SimulationResult expected =
        reference::simulate(benchmark.profile, machine, config);
    EXPECT_TRUE(uarch::bitIdentical(fused, expected))
        << benchmark.name << " on " << machine.name
        << " warmup=" << config.warmup;
}

void
expectSuiteParity(const std::vector<suites::BenchmarkInfo> &benchmarks)
{
    uarch::SimulationConfig config = tinyWindow();
    for (const suites::BenchmarkInfo &b : benchmarks)
        for (const uarch::MachineConfig &machine :
             suites::profilingMachines())
            expectParity(b, machine, config);
}

/** Phased driver vs the reference model over three derived phases. */
void
expectPhasedParity(const suites::BenchmarkInfo &benchmark,
                   const uarch::MachineConfig &machine)
{
    trace::PhasedWorkload workload =
        trace::derivePhases(benchmark.profile, 3);
    uarch::SimulationConfig config = tinyWindow();
    uarch::PhasedSimulationResult fused =
        uarch::simulatePhased(workload, machine, config);
    uarch::PhasedSimulationResult expected =
        reference::simulatePhased(workload, machine, config);

    const std::string where = benchmark.name + " on " + machine.name;
    ASSERT_EQ(fused.per_phase.size(), expected.per_phase.size()) << where;
    for (std::size_t i = 0; i < fused.per_phase.size(); ++i)
        EXPECT_TRUE(uarch::bitIdentical(fused.per_phase[i],
                                        expected.per_phase[i]))
            << where << " phase " << i;
    uarch::SimulationResult fused_combined, expected_combined;
    fused_combined.counters = fused.combined_counters;
    expected_combined.counters = expected.combined_counters;
    EXPECT_TRUE(uarch::bitIdentical(fused_combined, expected_combined))
        << where;
    EXPECT_EQ(fused.combined_cpi, expected.combined_cpi) << where;
}

TEST(StreamingParity, Cpu2017AllMachines)
{
    expectSuiteParity(suites::spec2017());
}

TEST(StreamingParity, Cpu2006AllMachines)
{
    expectSuiteParity(suites::spec2006());
}

TEST(StreamingParity, EmergingAllMachines)
{
    expectSuiteParity(suites::emergingBenchmarks());
}

// The tiny window above exercises the batch boundary only a few times;
// one full-size pair per special machine shape (TreePLRU L1s, the
// L3-less machine) catches anything that only shows up once runs span
// many batches.
TEST(StreamingParity, FullWindowSpotChecks)
{
    uarch::SimulationConfig config; // default window, prewarm on
    const std::vector<uarch::MachineConfig> &machines =
        suites::profilingMachines();
    const suites::BenchmarkInfo &mcf =
        suites::spec2017Benchmark("605.mcf_s");
    for (const uarch::MachineConfig &machine : machines)
        expectParity(mcf, machine, config);
}

// The driver plays records in chunks of trace::kRecordBatchCapacity;
// run-collapse state and predictor flushes must carry exactly across
// chunk ends and across the warm-up/measured seam.  Windows just
// below, at and above one chunk, and two chunks plus a tail, on a
// TreePLRU machine, the L3-less machine and a prefetching one.
// 538.imagick_r has pending same-line data runs at some of these
// chunk ends (most workloads have only pending fetch runs there).
TEST(StreamingParity, ChunkBoundaryWindows)
{
    constexpr std::uint64_t kChunk = trace::kRecordBatchCapacity;
    std::vector<uarch::MachineConfig> machines = {
        suites::machineByShortName("skylake"),
        suites::machineByShortName("harpertown")};
    for (const uarch::MachineConfig &m : suites::memoryCentricMachines())
        if (m.short_name == "skylake-nl")
            machines.push_back(m);
    ASSERT_EQ(machines.size(), 3u);
    ASSERT_EQ(machines[0].caches.l1d.policy,
              uarch::ReplacementPolicy::TreePlru);
    ASSERT_FALSE(machines[1].caches.l3.has_value());

    const suites::BenchmarkInfo &imagick =
        suites::spec2017Benchmark("538.imagick_r");
    for (const uarch::MachineConfig &machine : machines) {
        for (std::uint64_t warmup :
             {kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 7}) {
            for (std::uint64_t measured :
                 {kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 7}) {
                uarch::SimulationConfig config;
                config.warmup = warmup;
                config.instructions = measured;
                expectParity(imagick, machine, config);
            }
        }
    }
}

// The memory-centric machine variants light up every prefetcher
// engine plus the way predictors and the DRAM model; the
// run-collapsing fast paths must stay exact with all of them live.
// Between them the four variants cover each PrefetcherKind (including
// off) on every shipped workload.
TEST(StreamingParity, MemoryCentricAllEnginesAllWorkloads)
{
    uarch::SimulationConfig config = tinyWindow();
    for (const suites::BenchmarkInfo &b : suites::spec2017())
        for (const uarch::MachineConfig &machine :
             suites::memoryCentricMachines())
            expectParity(b, machine, config);
}

// One full-size window per engine so prefetch trains that only form
// over long streams cross many batch boundaries.
TEST(StreamingParity, MemoryCentricFullWindowSpotChecks)
{
    uarch::SimulationConfig config; // default window, prewarm on
    const suites::BenchmarkInfo &lbm =
        suites::spec2017Benchmark("519.lbm_r");
    for (const uarch::MachineConfig &machine :
         suites::memoryCentricMachines())
        expectParity(lbm, machine, config);
}

// Seed salt and disabled prewarm feed different streams through the
// same collapsing logic; parity must not depend on either.
TEST(StreamingParity, SaltedAndUnwarmedWindows)
{
    const suites::BenchmarkInfo &xz = suites::spec2017Benchmark("657.xz_s");
    const uarch::MachineConfig &machine = suites::profilingMachines()[0];

    uarch::SimulationConfig salted = tinyWindow();
    salted.seed_salt = 0xfeed;
    expectParity(xz, machine, salted);

    uarch::SimulationConfig unwarmed = tinyWindow();
    unwarmed.prewarm = false;
    expectParity(xz, machine, unwarmed);
}

// Degenerate warm-up windows (0 and 1 records) put the analytic
// prewarm's final state straight into the measured window, or one
// record ahead of it; the reference model always walks, so these pin
// the analytic solver to the walk on every shipped machine.
TEST(StreamingParity, DegenerateWarmupWindowsAllMachines)
{
    const suites::BenchmarkInfo &first = suites::spec2017().front();
    for (const uarch::MachineConfig &machine : suites::profilingMachines()) {
        for (std::uint64_t warmup : {std::uint64_t{0}, std::uint64_t{1},
                                     std::uint64_t{2'000}}) {
            uarch::SimulationConfig config;
            config.instructions = 2'000;
            config.warmup = warmup;
            expectParity(first, machine, config);
        }
    }
}

// Phases share one set of structures: phase 1 prewarms analytically,
// later phases fall back to the walk over a touched hierarchy.  The
// phased driver must match the reference on every profiling machine
// and on a prefetching memory-centric machine.
TEST(StreamingParity, PhasedAllProfilingMachinesAndOneMemoryCentric)
{
    const suites::BenchmarkInfo &gcc =
        suites::spec2017Benchmark("502.gcc_r");
    for (const uarch::MachineConfig &machine : suites::profilingMachines())
        expectPhasedParity(gcc, machine);
    for (const uarch::MachineConfig &machine :
         suites::memoryCentricMachines())
        if (machine.caches.l2_prefetch_degree > 0) {
            expectPhasedParity(gcc, machine);
            break;
        }
}

} // namespace
