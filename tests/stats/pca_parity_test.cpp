/**
 * @file
 * Parity of stats::fitPca() with the naive correlation-side oracle.
 *
 * fitPca() solves the n x n Gram matrix whenever a feature matrix has
 * fewer rows than columns.  These tests hold it to the p x p
 * correlation-side answer (tests/stats/pca_reference.h) on the suite
 * matrices a reproduction pass fits, at the pinned bench window, and
 * on synthetic wide matrices chosen to be awkward for the mapping:
 * random, duplicated rows, constant columns and two rows.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/characterization.h"
#include "pca_reference.h"
#include "stats/clustering.h"
#include "stats/pca.h"
#include "stats/rng.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"

namespace speclens {
namespace stats {
namespace {

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        worst = std::fmax(worst, std::fabs(a.data()[i] - b.data()[i]));
    return worst;
}

/** fitPca() and the oracle agree on @p raw under @p policy. */
void
expectParity(const Matrix &raw, const RetentionPolicy &policy,
             const std::string &what)
{
    SCOPED_TRACE(what);
    PcaResult fast = fitPca(raw, policy);
    PcaResult slow = reference::fitPca(raw, policy);

    std::size_t p = raw.cols();
    ASSERT_EQ(fast.eigenvalues.size(), p);
    ASSERT_EQ(slow.eigenvalues.size(), p);
    for (std::size_t i = 0; i < p; ++i)
        EXPECT_NEAR(fast.eigenvalues[i], slow.eigenvalues[i],
                    1e-9 * static_cast<double>(p))
            << "eigenvalue " << i;

    ASSERT_EQ(fast.retained, slow.retained);
    ASSERT_EQ(fast.loadings.cols(), slow.loadings.cols());
    ASSERT_EQ(fast.scores.cols(), slow.scores.cols());
    EXPECT_LE(maxAbsDiff(fast.loadings, slow.loadings), 1e-8);
    EXPECT_LE(maxAbsDiff(fast.scores, slow.scores), 1e-8);

    Dendrogram a = clusterPoints(fast.scores, Linkage::Ward);
    Dendrogram b = clusterPoints(slow.scores, Linkage::Ward);
    ASSERT_EQ(a.merges().size(), b.merges().size());
    for (std::size_t s = 0; s < a.merges().size(); ++s) {
        EXPECT_EQ(a.merges()[s].left, b.merges()[s].left) << "merge " << s;
        EXPECT_EQ(a.merges()[s].right, b.merges()[s].right)
            << "merge " << s;
    }
}

Matrix
gaussian(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.gaussian() * static_cast<double>(1 + c % 7);
    return m;
}

const std::vector<RetentionPolicy> &
policies()
{
    static const std::vector<RetentionPolicy> all = {
        RetentionPolicy::kaiser(), RetentionPolicy::fixedCount(2),
        RetentionPolicy::fixedCount(50),
        RetentionPolicy::varianceCovered(0.9),
        RetentionPolicy::varianceCovered(1.0)};
    return all;
}

TEST(PcaParity, RandomWideMatrices)
{
    for (std::size_t rows : {3u, 10u, 29u, 43u})
        for (const RetentionPolicy &policy : policies())
            expectParity(gaussian(rows, 140, rows), policy,
                         "random " + std::to_string(rows) + "x140");
}

TEST(PcaParity, DuplicatedRows)
{
    // Six distinct rows, each present twice: rank 5.
    Matrix distinct = gaussian(6, 90, 101);
    Matrix m(12, 90);
    for (std::size_t r = 0; r < 12; ++r)
        m.setRow(r, distinct.row(r % 6));
    for (const RetentionPolicy &policy : policies())
        expectParity(m, policy, "duplicated rows");
    EXPECT_EQ(fitPca(m, RetentionPolicy::fixedCount(50)).retained, 5u);
}

TEST(PcaParity, ConstantColumns)
{
    Matrix m = gaussian(15, 80, 202);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); c += 4)
            m(r, c) = 3.5;
    for (const RetentionPolicy &policy : policies())
        expectParity(m, policy, "constant columns");

    PcaResult pca = fitPca(m, RetentionPolicy::fixedCount(50));
    for (std::size_t c = 0; c < pca.retained; ++c)
        for (std::size_t r = 0; r < m.cols(); r += 4)
            EXPECT_EQ(pca.loadings(r, c), 0.0);
}

TEST(PcaParity, TwoRows)
{
    for (const RetentionPolicy &policy : policies())
        expectParity(gaussian(2, 30, 303), policy, "two rows");
    EXPECT_EQ(fitPca(gaussian(2, 30, 303)).retained, 1u);
}

TEST(PcaParity, TallMatrices)
{
    for (const RetentionPolicy &policy : policies())
        expectParity(gaussian(60, 12, 404), policy, "tall 60x12");
}

// The suite matrices of a reproduction pass, at the pinned bench
// window.  One test, so the campaign is simulated once.
TEST(PcaParity, ReproductionSuiteMatrices)
{
    core::CharacterizationConfig config;
    config.instructions = 150'000;
    config.warmup = 40'000;
    core::Characterizer characterizer(suites::profilingMachines(), config);

    auto join = [](std::vector<suites::BenchmarkInfo> a,
                   const std::vector<suites::BenchmarkInfo> &b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    const std::vector<std::pair<std::string,
                                std::vector<suites::BenchmarkInfo>>>
        matrices = {
            {"cpu2017", suites::spec2017()},
            {"speed-int", suites::spec2017SpeedInt()},
            {"rate-int", suites::spec2017RateInt()},
            {"speed-fp", suites::spec2017SpeedFp()},
            {"rate-fp", suites::spec2017RateFp()},
            {"cpu2006", suites::spec2006()},
            {"emerging", suites::emergingBenchmarks()},
            {"cpu2017+cpu2006", join(suites::spec2017(), suites::spec2006())},
            {"cpu2017+emerging",
             join(suites::spec2017(), suites::emergingBenchmarks())},
            {"inputs-int", suites::flattenGroups(suites::inputSetGroupsInt())},
            {"inputs-fp", suites::flattenGroups(suites::inputSetGroupsFp())},
        };

    std::vector<suites::BenchmarkInfo> all;
    for (const auto &[name, suite] : matrices)
        all = join(std::move(all), suite);
    characterizer.prepare(all);

    for (const auto &[name, suite] : matrices) {
        Matrix features = characterizer.featureMatrix(suite);
        ASSERT_LT(features.rows(), features.cols()) << name;
        expectParity(features, RetentionPolicy::kaiser(), name);

        // The Kaiser count would hinge on rounding if an eigenvalue sat
        // at the threshold; none is near it.
        PcaResult pca = fitPca(features);
        for (double v : pca.eigenvalues)
            EXPECT_GT(std::fabs(v - 1.0), 1e-6) << name;
    }
}

} // namespace
} // namespace stats
} // namespace speclens
