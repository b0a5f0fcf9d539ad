/**
 * @file
 * Unit tests for the higher-level analyses: input sets, rate/speed,
 * balance (coverage) and sensitivity.  Reduced simulation windows;
 * headline-scale checks live in the integration suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/balance.h"
#include "core/input_set_analysis.h"
#include "core/rate_speed.h"
#include "core/sensitivity.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {
namespace {

CharacterizationConfig
quickConfig()
{
    CharacterizationConfig config;
    config.instructions = 25'000;
    config.warmup = 5'000;
    return config;
}

// ---------------------------------------------------------------------
// Input sets
// ---------------------------------------------------------------------

TEST(InputSetAnalysisTest, RepresentativesForMultiInputBenchmarks)
{
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    auto groups = suites::inputSetGroupsInt();
    InputSetAnalysis analysis = analyzeInputSets(characterizer, groups);

    // 8 multi-input INT benchmarks: perlbench/gcc/x264/xz, each in
    // rate and speed.
    EXPECT_EQ(analysis.representatives.size(), 8u);
    for (const RepresentativeInput &rep : analysis.representatives) {
        EXPECT_GE(rep.input_index, 1);
        EXPECT_LE(rep.input_index,
                  suites::inputSetCount(rep.benchmark));
        EXPECT_EQ(rep.variant_name,
                  rep.benchmark + "#" +
                      std::to_string(rep.input_index));
        EXPECT_GE(rep.group_spread, rep.distance_to_aggregate);
    }
}

TEST(InputSetAnalysisTest, SameBenchmarkInputsClusterTightly)
{
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    InputSetAnalysis analysis = analyzeInputSets(
        characterizer, suites::inputSetGroupsInt());
    // The paper's core finding: input sets of one benchmark sit far
    // closer together than distinct benchmarks.
    EXPECT_LT(analysis.max_within_group_spread,
              analysis.median_cross_benchmark_distance);
}

TEST(InputSetAnalysisTest, TwoInputGroupsPickTheFirstInput)
{
    // Both inputs of a two-input group sit exactly halfway from their
    // midpoint, so the pick is a tie and must go to input 1 whatever
    // the rounding in the PC scores, including a flipped PC sign.
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    std::size_t two_input_groups = 0;
    for (const auto &groups :
         {suites::inputSetGroupsInt(), suites::inputSetGroupsFp()}) {
        InputSetAnalysis analysis = analyzeInputSets(characterizer, groups);
        const SimilarityResult &sim = analysis.similarity;
        for (const suites::InputSetGroup &group : groups) {
            if (group.inputs.size() != 2)
                continue;
            ++two_input_groups;
            auto rep = std::find_if(
                analysis.representatives.begin(),
                analysis.representatives.end(),
                [&](const RepresentativeInput &r) {
                    return r.benchmark == group.benchmark.name;
                });
            ASSERT_NE(rep, analysis.representatives.end());
            EXPECT_EQ(rep->input_index, 1) << group.benchmark.name;

            std::vector<std::size_t> rows = {
                sim.indexOf(group.inputs[0].name),
                sim.indexOf(group.inputs[1].name)};
            for (std::size_t pc = 0; pc < sim.scores.cols(); ++pc) {
                stats::Matrix flipped = sim.scores;
                for (std::size_t r = 0; r < flipped.rows(); ++r)
                    flipped(r, pc) = -flipped(r, pc);
                EXPECT_EQ(stats::nearestToCentroid(flipped, rows), 0u)
                    << group.benchmark.name << " pc" << pc + 1;
            }
        }
    }
    // 603.bwaves_s and 657.xz_s at least.
    EXPECT_GE(two_input_groups, 2u);
}

// ---------------------------------------------------------------------
// Rate vs speed
// ---------------------------------------------------------------------

TEST(RateSpeedTest, AllPairsCompared)
{
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    RateSpeedAnalysis int_pairs =
        analyzeRateSpeed(characterizer, /*fp=*/false);
    EXPECT_EQ(int_pairs.pairs.size(), 10u);
    RateSpeedAnalysis fp_pairs =
        analyzeRateSpeed(characterizer, /*fp=*/true);
    EXPECT_EQ(fp_pairs.pairs.size(), 9u); // 4 rate-FP have no partner

    // Sorted descending by distance.
    for (std::size_t i = 0; i + 1 < fp_pairs.pairs.size(); ++i)
        EXPECT_GE(fp_pairs.pairs[i].pc_distance,
                  fp_pairs.pairs[i + 1].pc_distance);
    EXPECT_GT(fp_pairs.median_distance, 0.0);
}

TEST(RateSpeedTest, PairsReferenceEachOther)
{
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    RateSpeedAnalysis analysis =
        analyzeRateSpeed(characterizer, /*fp=*/true);
    for (const RateSpeedPair &pair : analysis.pairs) {
        const auto &rate = suites::spec2017Benchmark(pair.rate);
        EXPECT_EQ(rate.partner, pair.speed);
        EXPECT_GE(pair.cophenetic, pair.pc_distance * 0.0);
    }
}

// ---------------------------------------------------------------------
// Balance / coverage
// ---------------------------------------------------------------------

TEST(BalanceTest, SelfComparisonIsFullyCovered)
{
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    auto suite = suites::spec2017SpeedInt();
    SuiteComparison cmp =
        compareSuites(characterizer, suite, suite);
    EXPECT_EQ(cmp.rows_a.size(), suite.size());
    EXPECT_EQ(cmp.rows_b.size(), suite.size());
    // Identical point sets: equal hull areas, nothing outside.
    EXPECT_NEAR(cmp.pc12.area_ratio, 1.0, 1e-6);
    EXPECT_DOUBLE_EQ(cmp.pc12.a_outside_b, 0.0);
}

TEST(BalanceTest, CandidatesIdenticalToReferenceAreCovered)
{
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    auto reference = suites::spec2017SpeedInt();
    std::vector<suites::BenchmarkInfo> candidates = {reference[0],
                                                     reference[5]};
    auto verdicts =
        coverageAnalysis(characterizer, reference, candidates);
    ASSERT_EQ(verdicts.size(), 2u);
    for (const CoverageVerdict &v : verdicts) {
        EXPECT_TRUE(v.covered) << v.benchmark;
        EXPECT_NEAR(v.nn_distance, 0.0, 1e-9);
    }
}

TEST(BalanceTest, FarOutlierIsNotCovered)
{
    Characterizer characterizer(suites::profilingMachines(),
                                quickConfig());
    // Cassandra's I-cache/I-TLB behaviour is the paper's canonical
    // uncovered workload, even against the full 43-benchmark suite.
    auto verdicts = coverageAnalysis(characterizer, suites::spec2017(),
                                     suites::databaseBenchmarks());
    for (const CoverageVerdict &v : verdicts)
        EXPECT_FALSE(v.covered) << v.benchmark;
}

// ---------------------------------------------------------------------
// Sensitivity
// ---------------------------------------------------------------------

TEST(SensitivityTest, ClassSharesFollowFractions)
{
    Characterizer characterizer(suites::sensitivityMachines(),
                                quickConfig());
    auto suite = suites::spec2017RateInt();
    SensitivityReport report = classifySensitivity(
        characterizer, suite, Metric::BranchMpki, 0.2, 0.3);
    EXPECT_EQ(report.entries.size(), 10u);
    EXPECT_EQ(report.names(SensitivityClass::High).size(), 2u);
    EXPECT_EQ(report.names(SensitivityClass::Medium).size(), 3u);
    EXPECT_EQ(report.names(SensitivityClass::Low).size(), 5u);

    // Entries sorted by descending rank spread, classes aligned.
    for (std::size_t i = 0; i + 1 < report.entries.size(); ++i)
        EXPECT_GE(report.entries[i].rank_spread,
                  report.entries[i + 1].rank_spread);
}

TEST(SensitivityTest, IdenticalMachinesGiveZeroSpread)
{
    // With four copies of the same machine there is no configuration
    // variation, so every benchmark's rank is stable.
    std::vector<uarch::MachineConfig> same(4,
                                           suites::skylakeMachine());
    Characterizer characterizer(same, quickConfig());
    auto suite = suites::spec2017SpeedInt();
    SensitivityReport report = classifySensitivity(
        characterizer, suite, Metric::L1dMpki);
    for (const SensitivityEntry &e : report.entries)
        EXPECT_DOUBLE_EQ(e.rank_spread, 0.0) << e.benchmark;
}

TEST(SensitivityTest, ClassNames)
{
    EXPECT_EQ(sensitivityClassName(SensitivityClass::High), "High");
    EXPECT_EQ(sensitivityClassName(SensitivityClass::Low), "Low");
}

} // namespace
} // namespace core
} // namespace speclens
