/**
 * @file
 * Tests for phased workloads, phased simulation and the SimPoint-style
 * phase analysis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/phase_analysis.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "trace/phased_workload.h"
#include "uarch/simulation.h"

namespace speclens {
namespace core {
namespace {

trace::PhasedWorkload
gccPhases(std::size_t n, double drift = 0.35)
{
    return trace::derivePhases(
        suites::spec2017Benchmark("502.gcc_r").profile, n, drift);
}

// ---------------------------------------------------------------------
// PhasedWorkload
// ---------------------------------------------------------------------

TEST(PhasedWorkloadTest, DerivedPhasesAreValidAndWeighted)
{
    trace::PhasedWorkload workload = gccPhases(6);
    EXPECT_EQ(workload.phases.size(), 6u);
    EXPECT_NO_THROW(workload.validate());
    double total = 0.0;
    std::set<std::string> names;
    for (const trace::Phase &phase : workload.phases) {
        EXPECT_GT(phase.weight, 0.0);
        total += phase.weight;
        EXPECT_TRUE(names.insert(phase.profile.name).second);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PhasedWorkloadTest, DerivationIsDeterministic)
{
    trace::PhasedWorkload a = gccPhases(4);
    trace::PhasedWorkload b = gccPhases(4);
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(a.phases[k].weight, b.phases[k].weight);
        EXPECT_EQ(a.phases[k].profile.memory.data[0].bytes,
                  b.phases[k].profile.memory.data[0].bytes);
    }
}

TEST(PhasedWorkloadTest, DriftControlsPhaseDiversity)
{
    trace::PhasedWorkload tight = gccPhases(4, 0.02);
    trace::PhasedWorkload wide = gccPhases(4, 0.5);
    auto spread = [](const trace::PhasedWorkload &w) {
        double lo = w.phases[0].profile.mix.load;
        double hi = lo;
        for (const trace::Phase &p : w.phases) {
            lo = std::min(lo, p.profile.mix.load);
            hi = std::max(hi, p.profile.mix.load);
        }
        return hi - lo;
    };
    EXPECT_LT(spread(tight), spread(wide));
}

TEST(PhasedWorkloadTest, ValidationRejectsBadWeights)
{
    trace::PhasedWorkload workload = gccPhases(3);
    workload.phases[0].weight = 0.0;
    EXPECT_THROW(workload.validate(), std::invalid_argument);

    workload = gccPhases(3);
    workload.phases[0].weight += 0.5; // sum != 1
    EXPECT_THROW(workload.validate(), std::invalid_argument);

    EXPECT_THROW(trace::derivePhases(
                     suites::spec2017Benchmark("502.gcc_r").profile, 0),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Phased simulation
// ---------------------------------------------------------------------

TEST(PhasedSimulationTest, CombinesPhaseWindows)
{
    trace::PhasedWorkload workload = gccPhases(4);
    uarch::SimulationConfig config;
    config.instructions = 40'000;
    config.warmup = 8'000;
    uarch::PhasedSimulationResult result = uarch::simulatePhased(
        workload, suites::skylakeMachine(), config);

    ASSERT_EQ(result.per_phase.size(), 4u);
    std::uint64_t total_instructions = 0;
    for (const auto &phase : result.per_phase) {
        EXPECT_GT(phase.counters.instructions, 0u);
        total_instructions += phase.counters.instructions;
    }
    EXPECT_EQ(result.combined_counters.instructions,
              total_instructions);
    // Window shares follow weights within rounding.
    EXPECT_NEAR(static_cast<double>(total_instructions), 40'000.0,
                8.0);
    EXPECT_GT(result.combined_cpi, 0.0);
}

TEST(PhasedSimulationTest, SinglePhaseMatchesPlainSimulation)
{
    // A one-phase workload through the phased driver must equal the
    // plain driver bit for bit.
    const auto &base = suites::spec2017Benchmark("541.leela_r").profile;
    trace::PhasedWorkload single;
    single.name = base.name;
    single.phases.push_back({base, 1.0});

    uarch::SimulationConfig config;
    config.instructions = 30'000;
    config.warmup = 5'000;
    auto phased = uarch::simulatePhased(
        single, suites::skylakeMachine(), config);
    auto plain =
        uarch::simulate(base, suites::skylakeMachine(), config);
    EXPECT_EQ(phased.combined_counters.l1d_misses,
              plain.counters.l1d_misses);
    EXPECT_EQ(phased.combined_counters.branch_mispredictions,
              plain.counters.branch_mispredictions);
    EXPECT_DOUBLE_EQ(phased.combined_cpi, plain.cpi());
}

// ---------------------------------------------------------------------
// SimPoint estimation
// ---------------------------------------------------------------------

TEST(SimPointTest, EstimateBeatsChanceAndCoversWeights)
{
    trace::PhasedWorkload workload = gccPhases(6);
    SimPointConfig config;
    config.clusters = 3;
    config.instructions = 60'000;
    config.warmup = 12'000;
    config.probe_instructions = 20'000;
    config.probe_warmup = 5'000;
    SimPointResult result = simpointEstimate(
        workload, suites::skylakeMachine(), config);

    EXPECT_LE(result.representatives.size(), 3u);
    EXPECT_GE(result.representatives.size(), 1u);
    // Representative weights cover the whole run.
    double total_weight = 0.0;
    for (double w : result.weights)
        total_weight += w;
    EXPECT_NEAR(total_weight, 1.0, 1e-9);
    // The estimate is in the right ballpark (bench-scale windows
    // reach ~10% or better; the short test windows are noisier).
    EXPECT_LT(result.cpi_error_pct, 30.0);
    EXPECT_GT(result.full_cpi, 0.0);
    EXPECT_GT(result.simulated_fraction, 0.0);
    EXPECT_LT(result.simulated_fraction, 1.0);
}

TEST(SimPointTest, AllPhasesAsClustersIsNearExact)
{
    // One cluster per phase: the estimate degenerates to a full
    // per-phase measurement and must track the ground truth closely
    // (residual error comes only from window-size differences).
    trace::PhasedWorkload workload = gccPhases(4, 0.2);
    SimPointConfig config;
    config.clusters = 4;
    config.instructions = 80'000;
    config.warmup = 16'000;
    config.probe_instructions = 40'000;
    config.probe_warmup = 10'000;
    SimPointResult result = simpointEstimate(
        workload, suites::skylakeMachine(), config);
    EXPECT_EQ(result.representatives.size(), 4u);
    EXPECT_NEAR(result.simulated_fraction, 1.0, 1e-9);
    EXPECT_LT(result.cpi_error_pct, 15.0);
}

TEST(SimPointTest, InvalidClusterCountThrows)
{
    trace::PhasedWorkload workload = gccPhases(3);
    SimPointConfig config;
    config.clusters = 5;
    EXPECT_THROW(
        simpointEstimate(workload, suites::skylakeMachine(), config),
        std::invalid_argument);
}

} // namespace
} // namespace core
} // namespace speclens
