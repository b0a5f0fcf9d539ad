/**
 * @file
 * Unit tests for normalization and PCA.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/normalize.h"
#include "stats/pca.h"
#include "stats/rng.h"

namespace speclens {
namespace stats {
namespace {

TEST(NormalizeTest, ColumnStats)
{
    Matrix m{{1, 10}, {3, 30}};
    ColumnStats stats = columnStats(m);
    EXPECT_DOUBLE_EQ(stats.means[0], 2.0);
    EXPECT_DOUBLE_EQ(stats.means[1], 20.0);
    EXPECT_NEAR(stats.stddevs[0], std::sqrt(2.0), 1e-12);
}

TEST(NormalizeTest, ZscoreHasZeroMeanUnitVariance)
{
    Matrix m{{1, 100}, {2, 200}, {3, 300}, {4, 400}};
    Matrix z = zscore(m);
    ColumnStats stats = columnStats(z);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_NEAR(stats.means[c], 0.0, 1e-12);
        EXPECT_NEAR(stats.stddevs[c], 1.0, 1e-12);
    }
}

TEST(NormalizeTest, ConstantColumnMapsToZero)
{
    Matrix m{{5, 1}, {5, 2}, {5, 3}};
    Matrix z = zscore(m);
    EXPECT_DOUBLE_EQ(z(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(z(2, 0), 0.0);
}

TEST(NormalizeTest, ZscoreWithExternalStats)
{
    Matrix train{{0.0}, {10.0}};
    ColumnStats stats = columnStats(train);
    Matrix z = zscoreWith(Matrix{{5.0}}, stats);
    EXPECT_DOUBLE_EQ(z(0, 0), 0.0); // 5 is the training mean
}

TEST(NormalizeTest, CovarianceOfIndependentColumns)
{
    // Columns are orthogonal patterns: covariance should be ~0.
    Matrix m{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}};
    Matrix cov = covarianceMatrix(m);
    EXPECT_NEAR(cov(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(cov(0, 0), 4.0 / 3.0, 1e-12); // n-1 denominator
}

TEST(PcaTest, FirstComponentCapturesDominantDirection)
{
    // Points along y = 2x with tiny noise: PC1 should explain almost
    // all variance.
    Rng rng(42);
    Matrix m(50, 2);
    for (std::size_t i = 0; i < 50; ++i) {
        double x = rng.gaussian();
        m(i, 0) = x;
        m(i, 1) = 2.0 * x + 0.01 * rng.gaussian();
    }
    PcaResult pca = fitPca(m, RetentionPolicy::fixedCount(2));
    EXPECT_GT(pca.variance_per_component[0], 0.99);
}

TEST(PcaTest, EigenvaluesSumToDimensionForFullRankData)
{
    // For a correlation matrix, total variance equals the number of
    // (non-constant) metrics.
    Rng rng(7);
    Matrix m(100, 5);
    for (std::size_t r = 0; r < 100; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            m(r, c) = rng.gaussian();
    PcaResult pca = fitPca(m);
    double total = 0.0;
    for (double v : pca.eigenvalues)
        total += v;
    EXPECT_NEAR(total, 5.0, 1e-8);
}

TEST(PcaTest, KaiserRetainsEigenvaluesAtLeastOne)
{
    Rng rng(11);
    Matrix m(60, 8);
    for (std::size_t r = 0; r < 60; ++r) {
        double shared = rng.gaussian();
        for (std::size_t c = 0; c < 8; ++c)
            m(r, c) = shared + 0.5 * rng.gaussian();
    }
    PcaResult pca = fitPca(m, RetentionPolicy::kaiser());
    ASSERT_GE(pca.retained, 1u);
    for (std::size_t i = 0; i < pca.retained; ++i)
        EXPECT_GE(pca.eigenvalues[i], 1.0);
    if (pca.retained < pca.eigenvalues.size()) {
        EXPECT_LT(pca.eigenvalues[pca.retained], 1.0);
    }
}

TEST(PcaTest, VarianceCoveredPolicy)
{
    Rng rng(13);
    Matrix m(40, 6);
    for (std::size_t r = 0; r < 40; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            m(r, c) = rng.gaussian() * static_cast<double>(c + 1);
    PcaResult pca = fitPca(m, RetentionPolicy::varianceCovered(0.8));
    EXPECT_GE(pca.variance_covered, 0.8);
    // Minimality: dropping the last retained PC goes below target.
    double without_last =
        pca.variance_covered - pca.variance_per_component.back();
    EXPECT_LT(without_last, 0.8);
}

TEST(PcaTest, FixedCountClampsToAvailable)
{
    Matrix m{{1, 2}, {2, 4}, {3, 7}};
    PcaResult pca = fitPca(m, RetentionPolicy::fixedCount(10));
    EXPECT_LE(pca.retained, 2u);
}

TEST(PcaTest, ScoresAreUncorrelated)
{
    Rng rng(17);
    Matrix m(80, 4);
    for (std::size_t r = 0; r < 80; ++r) {
        double a = rng.gaussian(), b = rng.gaussian();
        m(r, 0) = a;
        m(r, 1) = a + 0.3 * rng.gaussian();
        m(r, 2) = b;
        m(r, 3) = b - a + 0.3 * rng.gaussian();
    }
    PcaResult pca = fitPca(m, RetentionPolicy::fixedCount(4));
    Matrix cov = covarianceMatrix(pca.scores);
    for (std::size_t i = 0; i < cov.rows(); ++i)
        for (std::size_t j = 0; j < cov.cols(); ++j)
            if (i != j) {
                EXPECT_NEAR(cov(i, j), 0.0, 1e-8);
            }
}

TEST(PcaTest, ScoreVarianceEqualsEigenvalue)
{
    Rng rng(19);
    Matrix m(60, 3);
    for (std::size_t r = 0; r < 60; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            m(r, c) = rng.gaussian() * static_cast<double>(c + 1);
    PcaResult pca = fitPca(m, RetentionPolicy::fixedCount(3));
    Matrix cov = covarianceMatrix(pca.scores);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(cov(i, i), pca.eigenvalues[i], 1e-8);
}

TEST(PcaTest, ProjectionMatchesTrainingScores)
{
    Rng rng(23);
    Matrix m(30, 4);
    for (std::size_t r = 0; r < 30; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            m(r, c) = rng.gaussian();
    PcaResult pca = fitPca(m);
    Matrix projected = pca.project(m);
    EXPECT_TRUE(projected.approxEquals(pca.scores, 1e-9));
}

TEST(PcaTest, DominantMetricIdentifiesLoudFeature)
{
    // Metrics 0 and 1 share a direction, so PC1 is loaded on them;
    // metric 2 is independent noise.
    Matrix m2(50, 3);
    Rng rng2(31);
    for (std::size_t r = 0; r < 50; ++r) {
        double shared = rng2.gaussian();
        m2(r, 0) = shared;
        m2(r, 1) = shared + 0.1 * rng2.gaussian();
        m2(r, 2) = rng2.gaussian();
    }
    PcaResult pca2 = fitPca(m2, RetentionPolicy::fixedCount(2));
    std::size_t dom = pca2.dominantMetric(0);
    EXPECT_TRUE(dom == 0 || dom == 1);
    EXPECT_THROW(pca2.dominantMetric(5), std::out_of_range);
}

TEST(PcaTest, RejectsDegenerateInput)
{
    EXPECT_THROW(fitPca(Matrix{{1.0, 2.0}}), std::invalid_argument);
    EXPECT_THROW(fitPca(Matrix()), std::invalid_argument);
    // Every column constant: no component has a defined loading.
    EXPECT_THROW(fitPca(Matrix(4, 6, 2.5)), std::invalid_argument);
}

TEST(PcaTest, RetentionCappedAtNumericalRank)
{
    // Ten centered observations span at most nine directions.
    Rng rng(37);
    Matrix m(10, 140);
    for (std::size_t r = 0; r < 10; ++r)
        for (std::size_t c = 0; c < 140; ++c)
            m(r, c) = rng.gaussian();
    for (RetentionPolicy policy :
         {RetentionPolicy::fixedCount(50),
          RetentionPolicy::varianceCovered(1.0)}) {
        PcaResult pca = fitPca(m, policy);
        EXPECT_LE(pca.retained, 9u);
        EXPECT_EQ(pca.loadings.cols(), pca.retained);
        Matrix gram = pca.loadings.transposed().multiply(pca.loadings);
        EXPECT_TRUE(gram.approxEquals(Matrix::identity(pca.retained), 1e-9))
            << gram.toString();
    }
}

TEST(PcaTest, WideFitPadsEigenvaluesWithExactZeros)
{
    Rng rng(41);
    Matrix m(8, 30);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 30; ++c)
            m(r, c) = rng.gaussian();
    PcaResult pca = fitPca(m);
    ASSERT_EQ(pca.eigenvalues.size(), 30u);
    for (std::size_t i = 8; i < 30; ++i)
        EXPECT_EQ(pca.eigenvalues[i], 0.0);
    double total = 0.0;
    for (double v : pca.eigenvalues)
        total += v;
    EXPECT_NEAR(total, 30.0, 1e-9);
}

TEST(PcaTest, CanonicalSignMakesDominantLoadingPositive)
{
    Rng rng(43);
    for (std::size_t rows : {6u, 40u}) {
        Matrix m(rows, 12);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < 12; ++c)
                m(r, c) = rng.gaussian();
        PcaResult pca = fitPca(m, RetentionPolicy::fixedCount(4));
        for (std::size_t c = 0; c < pca.retained; ++c)
            EXPECT_GT(pca.loadings(pca.dominantMetric(c), c), 0.0);

        // Negating the data negates no component: the sign is a
        // property of the subspace, not of the solver's starting point.
        PcaResult flipped = fitPca(m.scaled(-1.0),
                                   RetentionPolicy::fixedCount(4));
        EXPECT_TRUE(flipped.loadings.approxEquals(pca.loadings, 1e-9));
    }
}

} // namespace
} // namespace stats
} // namespace speclens
