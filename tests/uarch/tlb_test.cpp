/**
 * @file
 * Unit tests for the TLB hierarchy.
 */

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "uarch/tlb.h"

namespace speclens {
namespace uarch {
namespace {

TEST(TlbConfigTest, AsCacheConfig)
{
    TlbConfig config{"DTLB", 64, 4, 4096};
    CacheConfig cache = config.asCacheConfig();
    EXPECT_EQ(cache.size_bytes, 64u * 4096u);
    EXPECT_EQ(cache.associativity, 4u);
    EXPECT_EQ(cache.line_bytes, 4096u);
    EXPECT_EQ(cache.sets(), 16u);
}

TEST(TlbHierarchyTest, FirstTouchWalksThenHits)
{
    TlbHierarchy tlbs{TlbHierarchyConfig{}};
    TlbAccessResult first = tlbs.accessData(0x1000);
    EXPECT_FALSE(first.l1_hit);
    EXPECT_TRUE(first.page_walk);
    TlbAccessResult second = tlbs.accessData(0x1000);
    EXPECT_TRUE(second.l1_hit);
    EXPECT_EQ(tlbs.pageWalks(), 1u);
    EXPECT_EQ(tlbs.dtlbAccesses(), 2u);
    EXPECT_EQ(tlbs.dtlbMisses(), 1u);
}

TEST(TlbHierarchyTest, SamePageDifferentOffsetsHit)
{
    TlbHierarchy tlbs{TlbHierarchyConfig{}};
    tlbs.accessData(0x4000);
    EXPECT_TRUE(tlbs.accessData(0x4abc).l1_hit);
    EXPECT_TRUE(tlbs.accessData(0x4fff).l1_hit);
}

TEST(TlbHierarchyTest, InstrAndDataSidesIndependent)
{
    TlbHierarchy tlbs{TlbHierarchyConfig{}};
    tlbs.accessInstr(0x8000);
    // Same page via the data side must miss the D-TLB...
    TlbAccessResult result = tlbs.accessData(0x8000);
    EXPECT_FALSE(result.l1_hit);
    // ...but hit the shared second level, avoiding a walk.
    EXPECT_TRUE(result.l2_hit);
    EXPECT_FALSE(result.page_walk);
    EXPECT_EQ(tlbs.pageWalks(), 1u);
}

TEST(TlbHierarchyTest, EvictedL1EntryCaughtByL2)
{
    TlbHierarchyConfig config;
    config.dtlb = TlbConfig{"DTLB", 4, 4, 4096}; // tiny L1 TLB
    config.l2tlb = TlbConfig{"STLB", 64, 4, 4096};
    TlbHierarchy tlbs(config);
    // Touch 16 pages: L1 TLB holds only 4.
    for (std::uint64_t p = 0; p < 16; ++p)
        tlbs.accessData(p * 4096);
    std::uint64_t walks_after_warmup = tlbs.pageWalks();
    EXPECT_EQ(walks_after_warmup, 16u);
    for (std::uint64_t p = 0; p < 16; ++p) {
        TlbAccessResult result = tlbs.accessData(p * 4096);
        EXPECT_TRUE(result.l1_hit || result.l2_hit);
    }
    EXPECT_EQ(tlbs.pageWalks(), walks_after_warmup);
}

TEST(TlbHierarchyTest, NoSecondLevelMeansEveryL1MissWalks)
{
    TlbHierarchyConfig config;
    config.dtlb = TlbConfig{"DTLB", 4, 4, 4096};
    config.l2tlb.reset();
    TlbHierarchy tlbs(config);
    for (std::uint64_t p = 0; p < 8; ++p)
        tlbs.accessData(p * 4096);
    // 8 cold walks; revisiting the early pages walks again (evicted,
    // no second level to catch them).
    std::uint64_t cold_walks = tlbs.pageWalks();
    EXPECT_EQ(cold_walks, 8u);
    tlbs.accessData(0);
    EXPECT_EQ(tlbs.pageWalks(), cold_walks + 1);
    EXPECT_EQ(tlbs.l2tlbMisses(), tlbs.pageWalks());
}

TEST(TlbHierarchyTest, LargerPagesCoverMoreAddressSpace)
{
    // SPARC machines use 8 KiB pages: the same footprint needs half
    // the entries.
    TlbHierarchyConfig small_pages;
    small_pages.dtlb = TlbConfig{"DTLB", 8, 8, 4096};
    small_pages.l2tlb.reset();
    TlbHierarchyConfig big_pages;
    big_pages.dtlb = TlbConfig{"DTLB", 8, 8, 8192};
    big_pages.l2tlb.reset();

    TlbHierarchy tlb4k(small_pages), tlb8k(big_pages);
    stats::Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t addr = rng.below(16) * 4096; // 64 KiB footprint
        tlb4k.accessData(addr);
        tlb8k.accessData(addr);
    }
    EXPECT_LT(tlb8k.dtlbMisses(), tlb4k.dtlbMisses());
}

TEST(TlbHierarchyTest, FreshHierarchyStartsEmpty)
{
    {
        TlbHierarchy used{TlbHierarchyConfig{}};
        used.accessData(0x1000);
    }
    TlbHierarchy tlbs{TlbHierarchyConfig{}};
    EXPECT_EQ(tlbs.dtlbAccesses(), 0u);
    EXPECT_EQ(tlbs.pageWalks(), 0u);
    EXPECT_TRUE(tlbs.accessData(0x1000).page_walk);
}

} // namespace
} // namespace uarch
} // namespace speclens
