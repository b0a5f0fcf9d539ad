/**
 * @file
 * Parameterized geometry sweeps over the uarch substrate: TLB reach,
 * predictor capacity and latency models must respond monotonically to
 * their parameters, machine by machine.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <type_traits>
#include <variant>

#include "stats/rng.h"
#include "uarch/branch_predictor.h"
#include "uarch/cpi_model.h"
#include "uarch/tlb.h"

namespace speclens {
namespace uarch {
namespace {

// ---------------------------------------------------------------------
// TLB geometry sweep
// ---------------------------------------------------------------------

class TlbReachSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(TlbReachSweep, MoreEntriesNeverMissMore)
{
    auto [entries, assoc] = GetParam();
    TlbHierarchyConfig small_config;
    small_config.dtlb = TlbConfig{"DTLB",
                                  static_cast<std::uint32_t>(entries),
                                  static_cast<std::uint32_t>(assoc),
                                  4096};
    small_config.l2tlb.reset();
    TlbHierarchyConfig big_config = small_config;
    big_config.dtlb.entries *= 4;

    TlbHierarchy small_tlb(small_config), big_tlb(big_config);
    stats::Rng rng(41);
    // Random pages over 4x the small TLB's reach.
    std::uint64_t pages = static_cast<std::uint64_t>(entries) * 4;
    for (int i = 0; i < 40000; ++i) {
        std::uint64_t addr = rng.below(pages) * 4096;
        small_tlb.accessData(addr);
        big_tlb.accessData(addr);
    }
    EXPECT_LE(big_tlb.dtlbMisses(), small_tlb.dtlbMisses());
    // The larger TLB covers the whole footprint: near-zero steady-state
    // misses.
    EXPECT_LT(static_cast<double>(big_tlb.dtlbMisses()) /
                  static_cast<double>(big_tlb.dtlbAccesses()),
              0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbReachSweep,
    ::testing::Combine(::testing::Values(16, 32, 64, 128),
                       ::testing::Values(4, 8)));

// ---------------------------------------------------------------------
// Predictor capacity sweep
// ---------------------------------------------------------------------

class PredictorCapacitySweep
    : public ::testing::TestWithParam<PredictorKind>
{
};

TEST_P(PredictorCapacitySweep, BiggerTablesNeverClearlyWorse)
{
    // Many distinct biased branches: small tables alias, large tables
    // separate them.
    PredictorVariant small_variant = makePredictorVariant(GetParam(), 6);
    PredictorVariant large_variant = makePredictorVariant(GetParam(), 14);

    stats::Rng rng(43);
    int small_misses = 0, large_misses = 0;
    const int n = 60000;
    std::visit(
        [&](auto &small_predictor) {
            auto &large_predictor =
                std::get<std::decay_t<decltype(small_predictor)>>(
                    large_variant);
            for (int i = 0; i < n; ++i) {
                auto id = static_cast<std::uint32_t>(rng.below(2048));
                bool taken = (id % 2) == 0;
                if (small_predictor.predict(0, id) != taken)
                    ++small_misses;
                small_predictor.update(0, id, taken);
                if (large_predictor.predict(0, id) != taken)
                    ++large_misses;
                large_predictor.update(0, id, taken);
            }
        },
        small_variant);
    // Allow a little noise; the large predictor must not lose by more
    // than 1% absolute.
    EXPECT_LE(large_misses, small_misses + n / 100)
        << predictorKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PredictorCapacitySweep,
    ::testing::Values(PredictorKind::Bimodal, PredictorKind::Gshare,
                      PredictorKind::Tournament, PredictorKind::TageLite),
    [](const auto &info) {
        std::string name = predictorKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Latency model sweep
// ---------------------------------------------------------------------

TEST(LatencySweepTest, CpiMonotoneInEveryLatency)
{
    PerfCounters counters;
    counters.instructions = 1'000'000;
    counters.branches = 100'000;
    counters.branch_mispredictions = 5'000;
    counters.l1d_misses = 30'000;
    counters.l2d_misses = 10'000;
    counters.l3_accesses = 10'000;
    counters.l3_misses = 2'000;
    counters.l1i_misses = 3'000;
    counters.dtlb_misses = 4'000;
    counters.l2tlb_misses = 1'000;
    counters.page_walks = 1'000;

    trace::ExecutionModel exec;
    LatencyModel base;
    double base_cpi = computeCpiStack(counters, base, exec).total();

    // Doubling any single latency must raise (or at worst not lower)
    // the total CPI.
    auto bump = [&](auto member) {
        LatencyModel changed = base;
        changed.*member *= 2.0;
        return computeCpiStack(counters, changed, exec).total();
    };
    EXPECT_GT(bump(&LatencyModel::l2_hit_cycles), base_cpi);
    EXPECT_GT(bump(&LatencyModel::l3_hit_cycles), base_cpi);
    EXPECT_GT(bump(&LatencyModel::memory_cycles), base_cpi);
    EXPECT_GT(bump(&LatencyModel::mispredict_penalty), base_cpi);
    EXPECT_GT(bump(&LatencyModel::icache_l2_penalty), base_cpi);
    EXPECT_GT(bump(&LatencyModel::l2tlb_hit_cycles), base_cpi);
    EXPECT_GT(bump(&LatencyModel::page_walk_cycles), base_cpi);
}

TEST(LatencySweepTest, MemoryLatencyDominatesForMemoryBoundCounters)
{
    PerfCounters counters;
    counters.instructions = 1'000'000;
    counters.l1d_misses = 100'000;
    counters.l2d_misses = 100'000;
    counters.l3_accesses = 100'000;
    counters.l3_misses = 100'000; // everything goes to DRAM

    trace::ExecutionModel exec;
    LatencyModel lat;
    CpiStack stack = computeCpiStack(counters, lat, exec);
    EXPECT_GT(stack.backend_memory, stack.backend_l2);
    EXPECT_GT(stack.backend_memory, stack.base);
}

} // namespace
} // namespace uarch
} // namespace speclens
