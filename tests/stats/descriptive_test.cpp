/**
 * @file
 * Unit tests for descriptive statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.h"

namespace speclens {
namespace stats {
namespace {

TEST(DescriptiveTest, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(DescriptiveTest, VarianceAndStddev)
{
    // Sample variance of {2, 4, 4, 4, 5, 5, 7, 9} is 32/7.
    std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(variance({5.0}), 0.0);
}

TEST(DescriptiveTest, GeometricMean)
{
    EXPECT_NEAR(geometricMean({1, 4, 16}), 4.0, 1e-12);
    EXPECT_NEAR(geometricMean({2.0}), 2.0, 1e-12);
}

TEST(DescriptiveTest, GeometricMeanRejectsNonPositive)
{
    EXPECT_THROW(geometricMean({1.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(geometricMean({-1.0}), std::invalid_argument);
    EXPECT_THROW(geometricMean({}), std::invalid_argument);
}

TEST(DescriptiveTest, GeometricMeanIsScoreAggregation)
{
    // SPEC aggregates speedups by geomean: scaling one benchmark's
    // speedup by k scales the n-benchmark score by k^(1/n).
    double base = geometricMean({2, 2, 2, 2});
    double scaled = geometricMean({4, 2, 2, 2});
    EXPECT_NEAR(scaled / base, std::pow(2.0, 0.25), 1e-12);
}

TEST(DescriptiveTest, MinMax)
{
    EXPECT_DOUBLE_EQ(minValue({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(maxValue({3, 1, 2}), 3.0);
    EXPECT_THROW(minValue({}), std::invalid_argument);
    EXPECT_THROW(maxValue({}), std::invalid_argument);
}

TEST(DescriptiveTest, Median)
{
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(DescriptiveTest, RanksSimple)
{
    EXPECT_EQ(ranks({10, 30, 20}), (std::vector<double>{1, 3, 2}));
}

TEST(DescriptiveTest, RanksWithTies)
{
    // Tied values share the average of their positions.
    EXPECT_EQ(ranks({5, 5, 1}), (std::vector<double>{2.5, 2.5, 1}));
    EXPECT_EQ(ranks({7, 7, 7}), (std::vector<double>{2, 2, 2}));
}

TEST(DescriptiveTest, PearsonPerfectCorrelation)
{
    EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
    EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(DescriptiveTest, PearsonDegenerate)
{
    EXPECT_DOUBLE_EQ(pearson({1, 2, 3}, {5, 5, 5}), 0.0);
    EXPECT_THROW(pearson({1}, {2}), std::invalid_argument);
    EXPECT_THROW(pearson({1, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(DescriptiveTest, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(11.0, 10.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(9.0, 10.0), 0.1);
    EXPECT_THROW(relativeError(1.0, 0.0), std::invalid_argument);
}

} // namespace
} // namespace stats
} // namespace speclens
