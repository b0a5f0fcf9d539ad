/**
 * @file
 * Unit tests for the banked DRAM row-buffer model, the cache way
 * predictors and the derived memory-centric PerfCounters metrics.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "uarch/cache.h"
#include "uarch/dram_model.h"
#include "uarch/perf_counters.h"

namespace speclens {
namespace uarch {
namespace {

// Default geometry: 8 KiB rows, 16 banks, so bank = (addr >> 13) & 15
// and row = (addr >> 13) >> 4.

TEST(DramModelTest, SameRowStreakHitsAfterActivate)
{
    DramModel dram{DramConfig{}};
    for (int i = 0; i < 4; ++i)
        dram.access(i * 64);
    EXPECT_EQ(dram.accesses(), 4u);
    EXPECT_EQ(dram.rowHits(), 3u); // first access opens the row
    // 1 miss * (24 + 4) + 3 hits * 4.
    EXPECT_EQ(dram.busyCycles(), 40u);
    EXPECT_EQ(dram.budgetCycles(), 4u * 6u);
}

TEST(DramModelTest, BanksHoldIndependentOpenRows)
{
    DramModel dram{DramConfig{}};
    dram.access(0);        // bank 0, row 0: activate
    dram.access(8192);     // bank 1, row 0: activate
    dram.access(0);        // bank 0 still open
    dram.access(8192);     // bank 1 still open
    EXPECT_EQ(dram.rowHits(), 2u);
}

TEST(DramModelTest, RowConflictThrashesTheBank)
{
    DramModel dram{DramConfig{}};
    // Rows 0 and 1 of bank 0 (16 banks: +16 row-addresses apart).
    for (int i = 0; i < 5; ++i) {
        dram.access(0);
        dram.access(16ull * 8192);
    }
    EXPECT_EQ(dram.accesses(), 10u);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.busyCycles(), 10u * 28u);
}

TEST(DramModelTest, FreshModelHasRowsClosedAndZeroCounters)
{
    DramModel dram{DramConfig{}};
    EXPECT_EQ(dram.accesses(), 0u);
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.busyCycles(), 0u);
    EXPECT_EQ(dram.budgetCycles(), 0u);
    dram.access(0);
    EXPECT_EQ(dram.rowHits(), 0u); // every row starts closed
}

TEST(DramModelTest, ValidateRejectsMalformedGeometry)
{
    DramConfig bad_banks;
    bad_banks.banks = 12; // not a power of two
    EXPECT_THROW(bad_banks.validate(), std::invalid_argument);

    DramConfig bad_row;
    bad_row.row_bytes = 5000;
    EXPECT_THROW(bad_row.validate(), std::invalid_argument);

    DramConfig bad_budget;
    bad_budget.cycles_per_burst_budget = 0;
    EXPECT_THROW(bad_budget.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Way prediction.

CacheConfig
predictedCache(WayPredictionKind kind)
{
    CacheConfig config{"test", 1024, 4, 64, ReplacementPolicy::Lru};
    config.way_prediction = kind;
    return config;
}

TEST(WayPredictionTest, OffByDefaultAndCountersStayZero)
{
    Cache cache{CacheConfig{"test", 1024, 4, 64, ReplacementPolicy::Lru}};
    for (std::uint64_t i = 0; i < 100; ++i)
        cache.access((i % 8) * 64);
    EXPECT_EQ(cache.wayPredHits(), 0u);
    EXPECT_EQ(cache.wayPredMispredicts(), 0u);
}

TEST(WayPredictionTest, EveryHitIsPredictedExactlyOnce)
{
    for (WayPredictionKind kind :
         {WayPredictionKind::Mru, WayPredictionKind::MultiMru}) {
        Cache cache(predictedCache(kind));
        // Each line is touched twice in a row so even plain MRU lands
        // some predictions (a pure within-set round-robin defeats it).
        for (std::uint64_t i = 0; i < 5000; ++i)
            cache.access(((i / 2) % 12) * 64);
        EXPECT_EQ(cache.wayPredHits() + cache.wayPredMispredicts(),
                  cache.hits())
            << wayPredictionKindName(kind);
        EXPECT_GT(cache.wayPredHits(), 0u);
    }
}

TEST(WayPredictionTest, MruPredictsRepeatedLinePerfectly)
{
    Cache cache(predictedCache(WayPredictionKind::Mru));
    cache.access(0);
    for (int i = 0; i < 50; ++i)
        cache.access(0);
    EXPECT_EQ(cache.wayPredHits(), 50u);
    EXPECT_EQ(cache.wayPredMispredicts(), 0u);
}

TEST(WayPredictionTest, MultiMruTracksTwoAlternatingLines)
{
    // Two lines of the same set with opposite low tag bits
    // alternating: plain MRU mispredicts every steady-state access,
    // the two-partition predictor holds both (4 sets here, so
    // addresses 0 and 256 are set 0 with tags 0 and 1).
    Cache mru(predictedCache(WayPredictionKind::Mru));
    Cache multi(predictedCache(WayPredictionKind::MultiMru));
    for (int i = 0; i < 400; ++i) {
        std::uint64_t addr = (i % 2) * 256;
        mru.access(addr);
        multi.access(addr);
    }
    EXPECT_GT(multi.wayPredHits(), mru.wayPredHits());
    EXPECT_EQ(multi.wayPredMispredicts(), 0u);
}

// ---------------------------------------------------------------------
// Derived metrics.

TEST(MemoryMetricsTest, ZeroDenominatorsAreDefined)
{
    PerfCounters c;
    EXPECT_EQ(c.prefetchCoverage(), 0.0);
    EXPECT_EQ(c.prefetchAccuracy(), 0.0);
    EXPECT_EQ(c.prefetchTimeliness(), 1.0);
    EXPECT_EQ(c.wayPredAccuracy(), 0.0);
    EXPECT_EQ(c.rowBufferHitRate(), 0.0);
    EXPECT_EQ(c.dramBwUtilization(), 0.0);
}

TEST(MemoryMetricsTest, RatiosMatchTheirCounters)
{
    PerfCounters c;
    c.prefetch_fills = 100;
    c.prefetch_useful = 60;
    c.prefetch_evicted_unused = 30;
    c.l2d_misses = 40;
    c.way_pred_hits = 90;
    c.way_pred_mispredicts = 10;
    c.dram_accesses = 50;
    c.dram_row_hits = 20;
    c.dram_busy_cycles = 920;
    c.dram_budget_cycles = 300;
    EXPECT_DOUBLE_EQ(c.prefetchCoverage(), 0.6);
    EXPECT_DOUBLE_EQ(c.prefetchAccuracy(), 0.6);
    EXPECT_DOUBLE_EQ(c.prefetchTimeliness(), 0.7);
    EXPECT_DOUBLE_EQ(c.wayPredAccuracy(), 0.9);
    EXPECT_DOUBLE_EQ(c.rowBufferHitRate(), 0.4);
    EXPECT_DOUBLE_EQ(c.dramBwUtilization(), 920.0 / 300.0);
}

} // namespace
} // namespace uarch
} // namespace speclens
