/**
 * @file
 * Unit tests for the optional L2 stream prefetcher.
 */

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/simulation.h"

namespace speclens {
namespace uarch {
namespace {

CacheHierarchyConfig
smallHierarchy(unsigned prefetch_degree)
{
    CacheHierarchyConfig config;
    config.l1d = {"L1D", 1024, 2, 64, ReplacementPolicy::Lru};
    config.l1i = {"L1I", 1024, 2, 64, ReplacementPolicy::Lru};
    config.l2 = {"L2", 16 * 1024, 4, 64, ReplacementPolicy::Lru};
    config.l3 = CacheConfig{"L3", 256 * 1024, 8, 64,
                            ReplacementPolicy::Lru};
    config.l2_prefetch_degree = prefetch_degree;
    return config;
}

TEST(PrefetcherTest, DisabledByDefault)
{
    CacheHierarchy hierarchy{CacheHierarchyConfig{}};
    hierarchy.accessData(0x100000);
    EXPECT_EQ(hierarchy.prefetchFills(), 0u);
}

TEST(PrefetcherTest, FillsSuccessorLinesOnL2Miss)
{
    CacheHierarchy hierarchy(smallHierarchy(2));
    hierarchy.accessData(0x100000); // demand miss; prefetch +64, +128
    EXPECT_EQ(hierarchy.prefetchFills(), 2u);
    // The successor lines now hit in L2 (they were never in L1).
    EXPECT_EQ(hierarchy.accessData(0x100000 + 64), ServiceLevel::L2);
    EXPECT_EQ(hierarchy.accessData(0x100000 + 128), ServiceLevel::L2);
}

TEST(PrefetcherTest, SequentialStreamMostlyHitsL2)
{
    CacheHierarchy with(smallHierarchy(4));
    CacheHierarchy without(smallHierarchy(0));
    // Stream far beyond every capacity.
    for (std::uint64_t addr = 0; addr < 4 * 1024 * 1024; addr += 64) {
        with.accessData(addr);
        without.accessData(addr);
    }
    // Every streamed line misses L1 either way...
    EXPECT_EQ(with.l1d().misses, without.l1d().misses);
    // ...but the prefetcher converts most L2 misses into hits.
    EXPECT_LT(with.l2d().misses, without.l2d().misses / 3);
}

TEST(PrefetcherTest, DoesNotHelpRandomAccess)
{
    CacheHierarchy with(smallHierarchy(4));
    CacheHierarchy without(smallHierarchy(0));
    stats::Rng rng(17);
    for (int i = 0; i < 60000; ++i) {
        // Random lines over 16 MiB: successors are never used.
        std::uint64_t addr = rng.below(1 << 18) * 64;
        std::uint64_t addr2 = addr; // same stream for both
        with.accessData(addr);
        without.accessData(addr2);
    }
    double with_ratio = static_cast<double>(with.l2d().misses) /
                        static_cast<double>(with.l2d().accesses);
    double without_ratio =
        static_cast<double>(without.l2d().misses) /
        static_cast<double>(without.l2d().accesses);
    EXPECT_NEAR(with_ratio, without_ratio, 0.05);
}

TEST(PrefetcherTest, AccountingIdentityHoldsPastTheOldWipeThreshold)
{
    // Regression: the first implementation tracked prefetched lines in
    // an unordered_set that was wiped wholesale once it held 65536
    // entries.  Past the wipe, demand hits on prefetched lines were no
    // longer counted useful and evictions of prefetched lines were no
    // longer counted at all, so fills - useful - evicted drifted
    // without bound.  With the per-slot bits, that difference is
    // exactly the number of prefetched lines still resident in L2 and
    // can never exceed the L2 slot count.
    CacheHierarchy hierarchy(smallHierarchy(4));
    for (std::uint64_t addr = 0; addr < (130'000ull * 64); addr += 64)
        hierarchy.accessData(addr);
    ASSERT_GT(hierarchy.prefetchFills(), 65'536u);
    std::uint64_t accounted =
        hierarchy.prefetchUseful() + hierarchy.prefetchEvictedUnused();
    ASSERT_LE(accounted, hierarchy.prefetchFills());
    // smallHierarchy's L2 is 16 KiB of 64-byte lines: 256 slots.
    EXPECT_LE(hierarchy.prefetchFills() - accounted, 256u);
}

TEST(PrefetcherTest, BoundaryRetireClosesTheAccountingExactly)
{
    // simulate() retires unconsumed prefetches at the warmup ->
    // measurement boundary so measured snapshot deltas never show more
    // useful + evicted than fills.  After the retire the identity is
    // exact: every fill has been consumed, overwritten, or retired.
    CacheHierarchy hierarchy(smallHierarchy(4));
    for (std::uint64_t addr = 0; addr < (10'000ull * 64); addr += 64)
        hierarchy.accessData(addr);
    ASSERT_GT(hierarchy.prefetchFills(), 0u);
    hierarchy.retireUnusedPrefetches();
    EXPECT_EQ(hierarchy.prefetchFills(),
              hierarchy.prefetchUseful() +
                  hierarchy.prefetchEvictedUnused());
    // Retiring twice is a no-op: the bits are already clear.
    std::uint64_t evicted = hierarchy.prefetchEvictedUnused();
    hierarchy.retireUnusedPrefetches();
    EXPECT_EQ(hierarchy.prefetchEvictedUnused(), evicted);
}

TEST(PrefetcherTest, StrideEngineCoversConstantStrides)
{
    // A fixed 3-line stride from one PC: next-line prefetching fetches
    // the wrong successors, the stride engine locks on.
    auto strided = [](PrefetcherKind kind) {
        CacheHierarchyConfig config = smallHierarchy(2);
        config.prefetcher = kind;
        CacheHierarchy hierarchy(config);
        for (std::uint64_t i = 0; i < 20'000; ++i)
            hierarchy.accessData(i * 3 * 64, /*pc=*/0x401000);
        return hierarchy.prefetchUseful();
    };
    EXPECT_GT(strided(PrefetcherKind::Stride),
              strided(PrefetcherKind::NextLine) * 2);
}

TEST(PrefetcherTest, StreamEngineConfirmsAscendingStreams)
{
    CacheHierarchyConfig config = smallHierarchy(4);
    config.prefetcher = PrefetcherKind::Stream;
    CacheHierarchy hierarchy(config);
    for (std::uint64_t addr = 0; addr < (50'000ull * 64); addr += 64)
        hierarchy.accessData(addr);
    // The detector needs one window allocation plus one confirming
    // miss, then runs ahead of the stream.
    EXPECT_GT(hierarchy.prefetchUseful(),
              hierarchy.prefetchFills() / 2);
    std::uint64_t accounted =
        hierarchy.prefetchUseful() + hierarchy.prefetchEvictedUnused();
    EXPECT_LE(hierarchy.prefetchFills() - accounted, 256u);
}

TEST(PrefetcherTest, InstructionSideUnaffected)
{
    CacheHierarchy hierarchy(smallHierarchy(4));
    hierarchy.accessInstr(0x4000000);
    EXPECT_EQ(hierarchy.prefetchFills(), 0u);
}

TEST(PrefetcherTest, FreshHierarchyHasNoFills)
{
    CacheHierarchy used(smallHierarchy(2));
    used.accessData(0x100000);
    EXPECT_GT(used.prefetchFills(), 0u);
    CacheHierarchy fresh(smallHierarchy(2));
    EXPECT_EQ(fresh.prefetchFills(), 0u);
    EXPECT_EQ(fresh.prefetchUseful(), 0u);
    EXPECT_EQ(fresh.prefetchEvictedUnused(), 0u);
}

TEST(PrefetcherTest, HelpsStreamingBenchmarkEndToEnd)
{
    // lbm (streaming stencil) should lose L2D misses when the machine
    // gains a prefetcher; mcf (pointer chasing) should not care much.
    const auto &lbm = suites::spec2017Benchmark("519.lbm_r");
    const auto &mcf = suites::spec2017Benchmark("505.mcf_r");

    MachineConfig base = suites::skylakeMachine();
    MachineConfig prefetching = base;
    prefetching.caches.l2_prefetch_degree = 4;

    SimulationConfig config;
    config.instructions = 60'000;
    config.warmup = 15'000;
    config.apply_machine_transform = false;

    double lbm_base =
        simulate(lbm.profile, base, config).counters.l2dMpki();
    double lbm_pf =
        simulate(lbm.profile, prefetching, config).counters.l2dMpki();
    double mcf_base =
        simulate(mcf.profile, base, config).counters.l2dMpki();
    double mcf_pf =
        simulate(mcf.profile, prefetching, config).counters.l2dMpki();

    double lbm_gain = (lbm_base - lbm_pf) / lbm_base;
    double mcf_gain = (mcf_base - mcf_pf) / mcf_base;
    // The calibrated workloads already fold prefetching into their
    // streaming parameters, so the absolute benefit is small — but the
    // stream-friendliness *ordering* must hold: lbm gains (or loses
    // least), mcf pays for the pollution.
    EXPECT_GT(lbm_gain, mcf_gain);
    EXPECT_LT(mcf_gain, 0.0);
}

} // namespace
} // namespace uarch
} // namespace speclens
