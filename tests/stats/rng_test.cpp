/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats/rng.h"

namespace speclens {
namespace stats {
namespace {

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c;
    }
    Rng d(42), e(43);
    EXPECT_NE(d.next(), e.next());
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(5.0, 10.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 10.0);
    }
}

TEST(RngTest, UniformMeanConverges)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowStaysBelow)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.drawBelow(Rng::cut(0.3));
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(19);
    double sum = 0.0, sum2 = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, GeometricMean)
{
    // Mean of geometric(p) starting at 0 is (1-p)/p.
    Rng rng(23);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(0.25));
    EXPECT_NEAR(sum / n, 3.0, 0.1);
    EXPECT_EQ(Rng(1).geometric(1.0), 0u);
}

TEST(RngTest, HashNameStableAndDistinct)
{
    constexpr std::uint64_t h1 = hashName("505.mcf_r");
    constexpr std::uint64_t h2 = hashName("505.mcf_r");
    constexpr std::uint64_t h3 = hashName("605.mcf_s");
    static_assert(h1 == h2);
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, h3);
    EXPECT_NE(hashName(""), hashName("a"));
}

TEST(RngTest, CombineSeedsOrderSensitive)
{
    EXPECT_NE(combineSeeds(1, 2), combineSeeds(2, 1));
    EXPECT_EQ(combineSeeds(1, 2), combineSeeds(1, 2));
}

/** SplitMix64 as first written: one mix per call, nothing ahead. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST(RngTest, NextIsSplitMix64)
{
    // Mixing one draw ahead must not change the output sequence.
    for (std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
          ~std::uint64_t{0}, std::uint64_t{0x9e3779b97f4a7c15}}) {
        Rng rng(seed);
        std::uint64_t state = seed;
        for (int i = 0; i < 10000; ++i)
            ASSERT_EQ(rng.next(), splitMix64(state)) << seed << " @" << i;
    }
}

/** k * 2^-53 < p, the double compare a cut replaces. */
bool
doubleBelow(std::uint64_t k, double p)
{
    return static_cast<double>(k) * 0x1.0p-53 < p;
}

TEST(RngTest, CutMatchesDoubleCompareAtBoundaries)
{
    constexpr std::uint64_t kUnit = 1ull << 53;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> ps = {0.0,
                              -0.0,
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::min(),
                              0.005,
                              0.995,
                              1.0,
                              std::nextafter(1.0, 0.0),
                              std::nextafter(1.0, 2.0),
                              1.5,
                              1e300,
                              inf,
                              -std::numeric_limits<double>::denorm_min(),
                              -0.005,
                              -1.0,
                              -inf,
                              nan,
                              -nan};
    // Every draw value is k * 2^-53: probabilities on that grid and one
    // ulp either side of it are where a cut could be off by one.
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{3}, std::uint64_t{45035996273704},
                            kUnit / 2, kUnit / 2 + 1, kUnit - 2,
                            kUnit - 1}) {
        double grid = static_cast<double>(k) * 0x1.0p-53;
        ps.push_back(grid);
        ps.push_back(std::nextafter(grid, 0.0));
        ps.push_back(std::nextafter(grid, 1.0));
    }
    for (double p : ps) {
        const std::uint64_t cut = Rng::cut(p);
        ASSERT_LE(cut, kUnit) << p;
        std::vector<std::uint64_t> ks = {0, 1, 2, kUnit / 2, kUnit - 2,
                                         kUnit - 1};
        for (std::uint64_t d : {2, 1, 0})
            if (cut >= d && cut - d < kUnit) // draws are below 2^53
                ks.push_back(cut - d);
        ks.push_back(std::min(cut + 1, kUnit - 1));
        for (std::uint64_t k : ks)
            EXPECT_EQ(k < cut, doubleBelow(k, p))
                << "p=" << p << " (" << std::hexfloat << p
                << std::defaultfloat << ") k=" << k << " cut=" << cut;
    }
    static_assert(Rng::cut(0.0) == 0 && Rng::cut(1.0) == kUnit);
    EXPECT_EQ(Rng::cut(nan), 0u);
    EXPECT_EQ(Rng::cut(std::numeric_limits<double>::denorm_min()), 1u);
}

TEST(RngTest, CutMatchesDoubleCompareOnRandomPairs)
{
    // Probabilities from three families — any double in [0, 1), exact
    // grid points k * 2^-53 and their one-ulp neighbours — each
    // compared on the same draw both ways: two generators seeded alike
    // stay in lockstep only while both consume one draw per trial.
    Rng pick(2024);
    Rng by_cut(77), by_double(77);
    for (int i = 0; i < 1'000'000; ++i) {
        double p = pick.uniform();
        switch (i % 3) {
          case 1:
            p = static_cast<double>(pick.draw()) * 0x1.0p-53;
            break;
          case 2:
            p = std::nextafter(static_cast<double>(pick.draw()) * 0x1.0p-53,
                               (i & 4) ? 1.0 : 0.0);
            break;
        }
        ASSERT_EQ(by_cut.drawBelow(Rng::cut(p)), by_double.uniform() < p)
            << "p=" << std::hexfloat << p << " trial " << i;
    }
    // Near-boundary draws: a cut right at each draw's own value.
    Rng draws(5);
    for (int i = 0; i < 100'000; ++i) {
        std::uint64_t k = draws.draw();
        double at = static_cast<double>(k) * 0x1.0p-53;
        for (double p : {at, std::nextafter(at, 0.0), std::nextafter(at, 1.0)})
            ASSERT_EQ(k < Rng::cut(p), doubleBelow(k, p)) << k;
    }
}

} // namespace
} // namespace stats
} // namespace speclens
