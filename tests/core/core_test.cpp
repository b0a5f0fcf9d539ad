/**
 * @file
 * Unit tests for the core analysis library: metrics, characterization,
 * similarity pipeline, subsetting, validation and reports.
 *
 * These tests use reduced simulation windows; the full-scale headline
 * reproductions live in tests/integration/paper_claims_test.cpp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/characterization.h"
#include "core/metrics.h"
#include "core/report.h"
#include "core/similarity.h"
#include "core/subsetting.h"
#include "core/validation.h"
#include "suites/machines.h"
#include "suites/score_database.h"
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

Characterizer
quickCharacterizer()
{
    return Characterizer(suites::profilingMachines(), quickConfig());
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(MetricsTest, CanonicalSelectionHasTwentyMetrics)
{
    EXPECT_EQ(metricsFor(MetricSelection::Canonical).size(),
              kCanonicalMetricCount);
    EXPECT_EQ(kCanonicalMetricCount, 20u);
}

TEST(MetricsTest, SelectionsAreSubsetsOfAllMetrics)
{
    for (MetricSelection sel :
         {MetricSelection::Canonical, MetricSelection::Branch,
          MetricSelection::DataCache, MetricSelection::InstrCache,
          MetricSelection::CacheAll, MetricSelection::Tlb,
          MetricSelection::Power}) {
        for (Metric m : metricsFor(sel))
            EXPECT_LT(static_cast<std::size_t>(m), kTotalMetricCount)
                << metricSelectionName(sel);
    }
}

TEST(MetricsTest, NamesAreUnique)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kTotalMetricCount; ++i)
        EXPECT_TRUE(
            names.insert(metricName(static_cast<Metric>(i))).second);
}

TEST(MetricsTest, ExtractionMatchesCounters)
{
    uarch::SimulationResult result;
    result.counters.instructions = 1'000'000;
    result.counters.l1d_misses = 12'000;
    result.counters.dtlb_misses = 3'000;
    result.counters.loads = 300'000;
    result.power.core_watts = 17.5;
    MetricVector mv = extractMetrics(result);
    EXPECT_DOUBLE_EQ(mv.get(Metric::L1dMpki), 12.0);
    EXPECT_DOUBLE_EQ(mv.get(Metric::DtlbMpmi), 3000.0);
    EXPECT_DOUBLE_EQ(mv.get(Metric::PctLoad), 30.0);
    EXPECT_DOUBLE_EQ(mv.get(Metric::CorePower), 17.5);
}

// ---------------------------------------------------------------------
// Characterizer
// ---------------------------------------------------------------------

TEST(CharacterizerTest, FeatureMatrixShape)
{
    Characterizer characterizer = quickCharacterizer();
    auto suite = suites::spec2017SpeedInt();
    stats::Matrix features = characterizer.featureMatrix(suite);
    EXPECT_EQ(features.rows(), 10u);
    EXPECT_EQ(features.cols(), 140u); // 7 machines x 20 metrics
    for (std::size_t r = 0; r < features.rows(); ++r)
        for (std::size_t c = 0; c < features.cols(); ++c)
            EXPECT_TRUE(std::isfinite(features(r, c)))
                << suite[r].name << " col " << c;
}

TEST(CharacterizerTest, MeasurementsAreMemoised)
{
    Characterizer characterizer = quickCharacterizer();
    auto suite = suites::spec2017SpeedInt();
    characterizer.featureMatrix(suite);
    std::size_t after_first = characterizer.cachedMeasurements();
    EXPECT_EQ(after_first, 70u);
    characterizer.featureMatrix(suite, MetricSelection::Branch);
    EXPECT_EQ(characterizer.cachedMeasurements(), after_first);
}

TEST(CharacterizerTest, MachineSubsetSelectsColumns)
{
    Characterizer characterizer = quickCharacterizer();
    auto suite = suites::spec2017SpeedInt();
    stats::Matrix power = characterizer.featureMatrix(
        suite, MetricSelection::Power, {0, 1, 2});
    EXPECT_EQ(power.cols(), 9u); // 3 machines x 3 power metrics
}

TEST(CharacterizerTest, FeatureNamesAlignWithColumns)
{
    Characterizer characterizer = quickCharacterizer();
    auto names = characterizer.featureNames();
    EXPECT_EQ(names.size(), 140u);
    EXPECT_EQ(names.front(), "skylake.l1d_mpki");
    EXPECT_EQ(names.back(), "opteron.dram_power");
}

TEST(CharacterizerTest, InvalidIndicesThrow)
{
    Characterizer characterizer = quickCharacterizer();
    const auto &b = suites::spec2017Benchmark("541.leela_r");
    EXPECT_THROW(characterizer.simulation(b, 99), std::out_of_range);
    EXPECT_THROW(characterizer.featureNames(
                     MetricSelection::Canonical, {99}),
                 std::out_of_range);
    EXPECT_THROW(Characterizer({}, quickConfig()),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Similarity pipeline
// ---------------------------------------------------------------------

TEST(SimilarityTest, PipelineProducesConsistentResult)
{
    Characterizer characterizer = quickCharacterizer();
    auto suite = suites::spec2017SpeedInt();
    SimilarityResult sim = analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));

    EXPECT_EQ(sim.labels.size(), 10u);
    EXPECT_EQ(sim.scores.rows(), 10u);
    EXPECT_EQ(sim.scores.cols(), sim.pca.retained);
    EXPECT_EQ(sim.dendrogram.numLeaves(), 10u);
    EXPECT_GT(sim.pca.variance_covered, 0.5);
    EXPECT_LE(sim.pca.variance_covered, 1.0 + 1e-9);
}

TEST(SimilarityTest, DistanceAndLookupHelpers)
{
    Characterizer characterizer = quickCharacterizer();
    auto suite = suites::spec2017SpeedInt();
    SimilarityResult sim = analyzeSimilarity(
        characterizer.featureMatrix(suite),
        suites::benchmarkNames(suite));

    std::size_t mcf = sim.indexOf("605.mcf_s");
    EXPECT_EQ(sim.labels[mcf], "605.mcf_s");
    EXPECT_THROW(sim.indexOf("nope"), std::out_of_range);
    EXPECT_DOUBLE_EQ(sim.pcDistance(mcf, mcf), 0.0);
    EXPECT_GT(sim.pcDistance(mcf, sim.indexOf("641.leela_s")), 0.0);

    std::string rendered = sim.renderDendrogram();
    EXPECT_NE(rendered.find("605.mcf_s"), std::string::npos);
}

TEST(SimilarityTest, InputValidation)
{
    stats::Matrix m(3, 4);
    EXPECT_THROW(analyzeSimilarity(m, {"a", "b"}),
                 std::invalid_argument);
    EXPECT_THROW(analyzeSimilarity(stats::Matrix(1, 4), {"a"}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Subsetting
// ---------------------------------------------------------------------

class SubsettingTest : public ::testing::Test
{
  protected:
    SubsettingTest()
        : characterizer_(suites::profilingMachines(), quickConfig()),
          suite_(suites::spec2017SpeedInt()),
          sim_(analyzeSimilarity(characterizer_.featureMatrix(suite_),
                                 suites::benchmarkNames(suite_)))
    {
    }

    Characterizer characterizer_;
    std::vector<suites::BenchmarkInfo> suite_;
    SimilarityResult sim_;
};

TEST_F(SubsettingTest, SubsetSizesRespected)
{
    for (std::size_t k : {1u, 2u, 3u, 5u, 10u}) {
        SubsetResult subset = selectSubset(sim_, k);
        EXPECT_EQ(subset.representatives.size(), k);
        EXPECT_EQ(subset.clusters.size(), k);
    }
    EXPECT_THROW(selectSubset(sim_, 0), std::invalid_argument);
    EXPECT_THROW(selectSubset(sim_, 11), std::invalid_argument);
}

TEST_F(SubsettingTest, RepresentativeBelongsToItsCluster)
{
    for (RepresentativeRule rule :
         {RepresentativeRule::ShortestLinkage,
          RepresentativeRule::Medoid}) {
        SubsetResult subset = selectSubset(sim_, 3, rule);
        for (std::size_t c = 0; c < 3; ++c) {
            const auto &cluster = subset.clusters[c];
            EXPECT_NE(std::find(cluster.begin(), cluster.end(),
                                subset.representatives[c]),
                      cluster.end())
                << representativeRuleName(rule);
        }
    }
}

TEST_F(SubsettingTest, PairClustersTakeTheFirstMemberUnderEitherRule)
{
    // The members of a pair are equidistant from its centroid, so the
    // medoid rule ties like the shortest-linkage rule does and must not
    // fall to rounding noise.  Ten leaves in nine clusters leave a pair.
    std::size_t pairs = 0;
    for (std::size_t k = 1; k <= 9; ++k)
        for (RepresentativeRule rule :
             {RepresentativeRule::ShortestLinkage,
              RepresentativeRule::Medoid}) {
            SubsetResult subset = selectSubset(sim_, k, rule);
            for (std::size_t c = 0; c < k; ++c)
                if (subset.clusters[c].size() == 2) {
                    ++pairs;
                    EXPECT_EQ(subset.representatives[c],
                              subset.clusters[c].front())
                        << representativeRuleName(rule) << " k=" << k;
                }
        }
    EXPECT_GE(pairs, 2u);
}

TEST_F(SubsettingTest, ClustersPartitionTheSuite)
{
    SubsetResult subset = selectSubset(sim_, 4);
    std::set<std::string> seen;
    for (const auto &cluster : subset.clusters)
        for (const std::string &name : cluster)
            EXPECT_TRUE(seen.insert(name).second) << name;
    EXPECT_EQ(seen.size(), suite_.size());
}

TEST_F(SubsettingTest, SimulationTimeReductionComputed)
{
    SubsetResult subset = selectSubset(
        sim_, 3, RepresentativeRule::ShortestLinkage, suite_);
    EXPECT_GT(subset.simulation_time_reduction, 1.0);
    // Without benchmark records the reduction is unavailable.
    SubsetResult bare = selectSubset(sim_, 3);
    EXPECT_DOUBLE_EQ(bare.simulation_time_reduction, 0.0);
}

TEST_F(SubsettingTest, FullSubsetIsWholeSuite)
{
    SubsetResult subset = selectSubset(
        sim_, suite_.size(), RepresentativeRule::ShortestLinkage,
        suite_);
    EXPECT_NEAR(subset.simulation_time_reduction, 1.0, 1e-9);
}

TEST_F(SubsettingTest, CutHeightMatchesDendrogram)
{
    SubsetResult subset = selectSubset(sim_, 3);
    EXPECT_DOUBLE_EQ(subset.cut_height,
                     sim_.dendrogram.heightForClusterCount(3));
}

TEST_F(SubsettingTest, KmeansSubsetIsWellFormed)
{
    SubsetResult subset = selectSubsetKmeans(sim_, 3, 1, suite_);
    EXPECT_EQ(subset.representatives.size(), 3u);
    EXPECT_DOUBLE_EQ(subset.cut_height, 0.0);
    EXPECT_GT(subset.simulation_time_reduction, 1.0);
    // Representatives belong to their clusters; clusters partition.
    std::set<std::string> seen;
    for (std::size_t c = 0; c < subset.clusters.size(); ++c) {
        EXPECT_NE(std::find(subset.clusters[c].begin(),
                            subset.clusters[c].end(),
                            subset.representatives[c]),
                  subset.clusters[c].end());
        for (const std::string &name : subset.clusters[c])
            EXPECT_TRUE(seen.insert(name).second);
    }
    EXPECT_EQ(seen.size(), suite_.size());
    // Deterministic per seed.
    SubsetResult again = selectSubsetKmeans(sim_, 3, 1, suite_);
    EXPECT_EQ(subset.representatives, again.representatives);
    EXPECT_THROW(selectSubsetKmeans(sim_, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

TEST(ValidationTest, PerfectSubsetOfWholeSuiteHasZeroError)
{
    suites::ScoreDatabase db;
    auto suite = suites::spec2017SpeedInt();
    ValidationResult result = validateSubset(
        suite, suites::benchmarkNames(suite),
        suites::Category::SpeedInt, db);
    EXPECT_NEAR(result.avg_error_pct, 0.0, 1e-9);
    EXPECT_EQ(result.per_system.size(), 4u);
}

TEST(ValidationTest, ErrorsAreConsistent)
{
    suites::ScoreDatabase db;
    auto suite = suites::spec2017RateFp();
    ValidationResult result =
        validateSubset(suite, {"507.cactuBSSN_r", "544.nab_r"},
                       suites::Category::RateFp, db);
    EXPECT_EQ(result.per_system.size(), 5u);
    double max_seen = 0.0, sum = 0.0;
    for (const SystemValidation &v : result.per_system) {
        EXPECT_GE(v.error_pct, 0.0);
        EXPECT_NEAR(v.error_pct,
                    100.0 *
                        std::fabs(v.subset_score - v.full_score) /
                        v.full_score,
                    1e-9);
        max_seen = std::max(max_seen, v.error_pct);
        sum += v.error_pct;
    }
    EXPECT_DOUBLE_EQ(result.max_error_pct, max_seen);
    EXPECT_NEAR(result.avg_error_pct, sum / 5.0, 1e-9);
}

TEST(ValidationTest, EmptySubsetRejected)
{
    suites::ScoreDatabase db;
    auto suite = suites::spec2017RateInt();
    EXPECT_THROW(
        validateSubset(suite, {}, suites::Category::RateInt, db),
        std::invalid_argument);
}

TEST(ValidationTest, RandomSubsetsDeterministicPerSeed)
{
    auto suite = suites::spec2017RateInt();
    auto s1 = randomSubset(suite, 3, 7);
    auto s2 = randomSubset(suite, 3, 7);
    auto s3 = randomSubset(suite, 3, 8);
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1, s3);
    EXPECT_EQ(s1.size(), 3u);
    std::set<std::string> unique(s1.begin(), s1.end());
    EXPECT_EQ(unique.size(), 3u);
    EXPECT_THROW(randomSubset(suite, 99, 1), std::invalid_argument);
}

TEST(ValidationTest, AverageRandomErrorIsFinite)
{
    suites::ScoreDatabase db;
    auto suite = suites::spec2017SpeedFp();
    double avg = averageRandomSubsetError(
        suite, 3, suites::Category::SpeedFp, db, 10, 42);
    EXPECT_GT(avg, 0.0);
    EXPECT_LT(avg, 100.0);
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

TEST(ReportTest, TextTableAlignment)
{
    TextTable table({"Name", "Value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22.5"});
    std::string out = table.render();
    EXPECT_NE(out.find("| Name "), std::string::npos);
    EXPECT_NE(out.find("| alpha "), std::string::npos);
    EXPECT_NE(out.find("|-"), std::string::npos);
    EXPECT_THROW(table.addRow({"only-one"}), std::invalid_argument);
    EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(ReportTest, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(ReportTest, ScatterPlotBounds)
{
    std::vector<ScatterPoint> points{{0, 0, "origin", 'a'},
                                     {10, 5, "far", 'b'}};
    std::string out = renderScatter(points, "x", "y", 40, 10);
    EXPECT_NE(out.find('a'), std::string::npos);
    EXPECT_NE(out.find('b'), std::string::npos);
    EXPECT_NE(out.find("x: [0.00, 10.00]"), std::string::npos);
    EXPECT_EQ(renderScatter({}, "x", "y"), "(no points)\n");
}

TEST(ReportTest, StackedBars)
{
    std::string out = renderStackedBars(
        {"one", "two"}, {{1.0, 2.0}, {0.5, 0.5}}, {"base", "mem"}, 30);
    EXPECT_NE(out.find("one"), std::string::npos);
    EXPECT_NE(out.find("legend:"), std::string::npos);
    EXPECT_NE(out.find("(3.00)"), std::string::npos);
    EXPECT_THROW(renderStackedBars({"a"}, {}, {}, 10),
                 std::invalid_argument);
}

} // namespace
} // namespace core
} // namespace speclens
