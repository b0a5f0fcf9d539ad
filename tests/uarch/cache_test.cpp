/**
 * @file
 * Unit tests for the set-associative cache model and the hierarchy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "suites/machines.h"
#include "uarch/cache.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/machine.h"
#include "verify/state_audit.h"

#include "../verify/test_access.h"

namespace speclens {
namespace uarch {
namespace {

CacheConfig
smallCache(std::uint32_t assoc = 2,
           ReplacementPolicy policy = ReplacementPolicy::Lru)
{
    // 8 sets x assoc ways x 64B lines.
    CacheConfig c;
    c.name = "test";
    c.size_bytes = 8ull * assoc * 64;
    c.associativity = assoc;
    c.line_bytes = 64;
    c.policy = policy;
    return c;
}

TEST(CacheConfigTest, SetsComputation)
{
    EXPECT_EQ(smallCache().sets(), 8u);
    CacheConfig big{"L3", 8 * 1024 * 1024, 16, 64,
                    ReplacementPolicy::Lru};
    EXPECT_EQ(big.sets(), 8192u);
}

TEST(CacheConfigTest, ValidationRejectsBadGeometry)
{
    CacheConfig c = smallCache();
    c.line_bytes = 48; // not a power of two
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = smallCache();
    c.associativity = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    // A zero line size throws from the Cache constructor too, rather
    // than dividing by zero while sizing the cache.
    c = smallCache();
    c.line_bytes = 0;
    EXPECT_EQ(c.sets(), 0u);
    EXPECT_THROW(c.validate(), std::invalid_argument);
    EXPECT_THROW(Cache{c}, std::invalid_argument);

    c = smallCache();
    c.size_bytes = 1000; // not divisible by way size
    EXPECT_THROW(c.validate(), std::invalid_argument);

    // Tree-PLRU needs power-of-two ways.
    c = smallCache(3, ReplacementPolicy::TreePlru);
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(CacheConfigTest, NonPowerOfTwoSetCountAccepted)
{
    // Broadwell's 30 MB / 20-way L3 (Table IV) has 24576 sets.
    CacheConfig c{"L3", 30 * 1024 * 1024, 20, 64,
                  ReplacementPolicy::Lru};
    EXPECT_NO_THROW(c.validate());
    EXPECT_NO_THROW(Cache{c});
}

TEST(CacheTest, ColdMissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1004)); // same line
    EXPECT_EQ(cache.accesses(), 3u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, ContainsDoesNotFill)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.contains(0x2000));
    EXPECT_EQ(cache.accesses(), 0u);
    cache.access(0x2000);
    EXPECT_TRUE(cache.contains(0x2000));
}

TEST(CacheTest, LruEvictionOrder)
{
    // 2-way set: fill two lines mapping to set 0, touch the first,
    // then insert a third — the second (least recent) must be evicted.
    Cache cache(smallCache(2, ReplacementPolicy::Lru));
    std::uint64_t set_stride = 8 * 64; // addresses mapping to set 0
    cache.access(0 * set_stride);
    cache.access(1 * set_stride);
    cache.access(0 * set_stride); // refresh line 0
    cache.access(2 * set_stride); // evicts line 1
    EXPECT_TRUE(cache.contains(0 * set_stride));
    EXPECT_FALSE(cache.contains(1 * set_stride));
    EXPECT_TRUE(cache.contains(2 * set_stride));
}

TEST(CacheTest, TreePlruProtectsMostRecent)
{
    Cache cache(smallCache(4, ReplacementPolicy::TreePlru));
    std::uint64_t set_stride = 8 * 64;
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.access(i * set_stride);
    // Line 3 was touched last; inserting a fifth line must not evict
    // it (tree-PLRU always points away from the most recent way).
    cache.access(4 * set_stride);
    EXPECT_TRUE(cache.contains(3 * set_stride));
}

TEST(CacheTest, WorkingSetBelowCapacityAlwaysHitsAfterWarmup)
{
    CacheConfig config = smallCache(4); // 2 KiB
    Cache cache(config);
    EXPECT_EQ(cache.accesses(), 0u);
    for (std::uint64_t addr = 0; addr < 2048; addr += 64)
        EXPECT_FALSE(cache.access(addr)); // cold
    for (int round = 0; round < 3; ++round)
        for (std::uint64_t addr = 0; addr < 2048; addr += 64)
            EXPECT_TRUE(cache.access(addr));
}

TEST(CacheTest, CyclicOverCapacityThrashesLru)
{
    // The classic LRU pathology: cycling over capacity + 1 set-worth
    // of lines misses every time.
    Cache cache(smallCache(2)); // 16 lines
    for (int round = 0; round < 4; ++round)
        for (std::uint64_t i = 0; i < 24; ++i)
            cache.access(i * 64);
    // After the first cold round, every access still misses.
    EXPECT_DOUBLE_EQ(cache.missRatio(), 1.0);
}

TEST(CacheTest, MissRatioTracksWorkingSetSize)
{
    // Random access to a working set W in a cache of capacity C
    // misses at roughly (W - C) / W.
    CacheConfig config;
    config.name = "ratio";
    config.size_bytes = 32 * 1024;
    config.associativity = 8;
    Cache cache(config);
    stats::Rng rng(3);
    const std::uint64_t lines = 1024; // 64 KiB working set
    for (int i = 0; i < 200000; ++i)
        cache.access(rng.below(lines) * 64);
    EXPECT_NEAR(cache.missRatio(), 0.5, 0.05);
}

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometrySweep, LargerCachesNeverMissMore)
{
    auto [size_kib, assoc] = GetParam();
    CacheConfig small;
    small.name = "small";
    small.size_bytes = static_cast<std::uint64_t>(size_kib) * 1024;
    small.associativity = static_cast<std::uint32_t>(assoc);
    CacheConfig large = small;
    large.name = "large";
    large.size_bytes *= 4;

    Cache small_cache(small), large_cache(large);
    stats::Rng rng(11);
    const std::uint64_t lines = 4096; // 256 KiB uniform working set
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t addr = rng.below(lines) * 64;
        small_cache.access(addr);
        large_cache.access(addr);
    }
    EXPECT_LE(large_cache.missRatio(), small_cache.missRatio() + 0.01)
        << "size " << size_kib << " KiB, " << assoc << "-way";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Combine(::testing::Values(8, 16, 32, 64),
                       ::testing::Values(1, 2, 4, 8)));

// ---------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------

TEST(CacheHierarchyTest, ServiceLevelEscalation)
{
    CacheHierarchyConfig config; // default Skylake-ish
    CacheHierarchy hierarchy(config);
    // First touch goes to memory, second hits L1.
    EXPECT_EQ(hierarchy.accessData(0x10000), ServiceLevel::Memory);
    EXPECT_EQ(hierarchy.accessData(0x10000), ServiceLevel::L1);
}

TEST(CacheHierarchyTest, CountsSplitBySide)
{
    CacheHierarchy hierarchy{CacheHierarchyConfig{}};
    hierarchy.accessData(0x1000);
    hierarchy.accessInstr(0x2000);
    hierarchy.accessInstr(0x2000);
    EXPECT_EQ(hierarchy.l1d().accesses, 1u);
    EXPECT_EQ(hierarchy.l1d().misses, 1u);
    EXPECT_EQ(hierarchy.l1i().accesses, 2u);
    EXPECT_EQ(hierarchy.l1i().misses, 1u);
    EXPECT_EQ(hierarchy.l2d().accesses, 1u);
    EXPECT_EQ(hierarchy.l2i().accesses, 1u);
    EXPECT_EQ(hierarchy.l3().accesses, 2u);
}

TEST(CacheHierarchyTest, L1EvictionServedByL2)
{
    CacheHierarchyConfig config;
    config.l1d = {"L1D", 1024, 2, 64, ReplacementPolicy::Lru}; // tiny L1
    config.l2 = {"L2", 64 * 1024, 8, 64, ReplacementPolicy::Lru};
    CacheHierarchy hierarchy(config);
    // Touch 64 lines (4 KiB): far beyond L1, inside L2.
    for (std::uint64_t a = 0; a < 4096; a += 64)
        hierarchy.accessData(a);
    for (std::uint64_t a = 0; a < 4096; a += 64) {
        ServiceLevel level = hierarchy.accessData(a);
        EXPECT_TRUE(level == ServiceLevel::L1 ||
                    level == ServiceLevel::L2);
    }
    EXPECT_EQ(hierarchy.l2d().misses, 64u); // only the cold pass
}

TEST(CacheHierarchyTest, TwoLevelMachineMirrorsL2MissesToL3Counters)
{
    CacheHierarchyConfig config;
    config.l3.reset();
    CacheHierarchy hierarchy(config);
    EXPECT_FALSE(hierarchy.hasL3());
    EXPECT_EQ(hierarchy.accessData(0x5000), ServiceLevel::Memory);
    EXPECT_EQ(hierarchy.l3().accesses, 1u);
    EXPECT_EQ(hierarchy.l3().misses, 1u);
}

TEST(CacheHierarchyTest, FreshHierarchyStartsEmpty)
{
    // A fresh hierarchy is empty whether its storage is new, reused
    // after another hierarchy released it, or taken while another one
    // still holds storage on this thread.
    {
        CacheHierarchy used{CacheHierarchyConfig{}};
        used.accessData(0x1000);
    }
    CacheHierarchy held{CacheHierarchyConfig{}};
    held.accessData(0x1000);
    CacheHierarchy hierarchy{CacheHierarchyConfig{}};
    EXPECT_EQ(hierarchy.l1d().accesses, 0u);
    EXPECT_EQ(hierarchy.l3().accesses, 0u);
    // The line the other hierarchies cached is not present here.
    EXPECT_EQ(hierarchy.accessData(0x1000), ServiceLevel::Memory);
}

// ---------------------------------------------------------------------
// 32-bit stamps: the rebase before the tick passes Cache::kMaxStamp.

using Access = verify::StateAuditor::TestAccess;

/**
 * A seeded stream over 1.5x the lines of @p config: three quarters of
 * the accesses go to a hot half of the capacity, so the stream mixes
 * hits, cold fills and evictions.
 */
std::vector<std::uint64_t>
mixedStream(const CacheConfig &config, std::size_t length)
{
    const std::uint64_t lines = config.size_bytes / config.line_bytes;
    stats::Rng rng(0x5eed);
    std::vector<std::uint64_t> out(length);
    for (std::uint64_t &address : out) {
        std::uint64_t line =
            rng.below(4) != 0 ? rng.below(lines / 2) : rng.below(lines * 3 / 2);
        address = line * config.line_bytes + rng.below(config.line_bytes);
    }
    return out;
}

std::vector<verify::Violation>
auditOf(const Cache &cache)
{
    std::vector<verify::Violation> out;
    verify::StateAuditor::auditCache(cache, out);
    return out;
}

/**
 * Play a mixed stream of 4x the lines of @p config through a cache of
 * that config and a twin: the first half from tick 0 in both, then the
 * cache's valid stamps and tick are shifted so the tick sits 3 below
 * Cache::kMaxStamp (order kept), and the second half runs with
 * reserveTicks(1) before every access, so the cache writes the largest
 * stamp and rebases at the last legal moment.  Both must agree on
 * every hit, every lastIndex() and every counter.
 */
void
expectRebaseExact(const CacheConfig &config)
{
    const std::uint64_t lines = config.size_bytes / config.line_bytes;
    const std::vector<std::uint64_t> stream =
        mixedStream(config, static_cast<std::size_t>(4 * lines));
    const std::size_t half = stream.size() / 2;
    Cache cache(config), twin(config);
    for (std::size_t i = 0; i < half; ++i) {
        cache.access(stream[i]);
        twin.access(stream[i]);
    }

    const std::uint64_t shift = Cache::kMaxStamp - 3 - Access::tick(cache);
    const std::uint64_t sets = config.sets();
    for (std::uint64_t set = 0; set < sets; ++set)
        for (std::uint32_t way = 0; way < config.associativity; ++way)
            if (Access::tag(cache, set, way) != Cache::kInvalidTag)
                Access::stamp(cache, set, way) = static_cast<std::uint32_t>(
                    Access::stamp(cache, set, way) + shift);
    Access::tick(cache) += shift;
    ASSERT_TRUE(auditOf(cache).empty()) << config.name;

    for (std::size_t i = half; i < stream.size(); ++i) {
        cache.reserveTicks(1);
        twin.reserveTicks(1);
        ASSERT_EQ(cache.access(stream[i]), twin.access(stream[i]))
            << config.name << " access " << i;
        ASSERT_EQ(cache.lastIndex(), twin.lastIndex())
            << config.name << " access " << i;
    }
    // The cache rebased (its tick restarted from a rank), the twin,
    // far from the limit, did not.
    EXPECT_LT(Access::tick(cache), Access::tick(twin)) << config.name;
    EXPECT_EQ(cache.accesses(), twin.accesses()) << config.name;
    EXPECT_EQ(cache.hits(), twin.hits()) << config.name;
    EXPECT_GT(cache.hits(), 0u) << config.name;
    // Every miss beyond the lines still resident evicted one.
    std::uint64_t resident = 0;
    for (std::uint64_t set = 0; set < sets; ++set)
        for (std::uint32_t way = 0; way < config.associativity; ++way)
            resident += Access::tag(cache, set, way) != Cache::kInvalidTag;
    EXPECT_GT(cache.misses(), resident) << config.name;
    EXPECT_TRUE(auditOf(cache).empty()) << config.name;
    EXPECT_TRUE(auditOf(twin).empty()) << config.name;
}

CacheConfig
broadwellL3()
{
    for (const MachineConfig &m : suites::profilingMachines())
        if (m.short_name == "broadwell")
            return *m.caches.l3;
    ADD_FAILURE() << "no broadwell machine";
    return {};
}

TEST(CacheStampRebase, ExactAcrossTheBoundary)
{
    const CacheConfig l3 = broadwellL3();
    ASSERT_EQ(l3.associativity, 20u);
    ASSERT_NE(l3.sets() & (l3.sets() - 1), 0u); // non-power-of-two sets
    ASSERT_EQ(l3.policy, ReplacementPolicy::Lru);
    expectRebaseExact({"L1D-8way", 32 * 1024, 8, 64, ReplacementPolicy::Lru});
    expectRebaseExact(l3);
}

TEST(CacheStampRebase, RanksKeepEachSetsOrder)
{
    // Two sets of four ways, stamps given out of way order: each set's
    // valid stamps become 1..k in the same order, and the tick the
    // largest rank.
    Cache cache(smallCache(4));
    for (std::uint64_t line : {0, 8, 16, 24, 1, 9})
        cache.access(line * 64);
    const std::uint32_t stamps[2][4] = {{900, 70, 4000, 12}, {55, 54, 0, 0}};
    for (std::size_t set = 0; set < 2; ++set)
        for (std::size_t way = 0; way < (set == 0 ? 4u : 2u); ++way)
            Access::stamp(cache, set, way) = stamps[set][way];
    Access::tick(cache) = Cache::kMaxStamp;
    cache.reserveTicks(1);
    EXPECT_EQ(Access::tick(cache), 4u);
    const std::uint32_t ranks[2][4] = {{3, 2, 4, 1}, {2, 1, 0, 0}};
    for (std::size_t set = 0; set < 2; ++set)
        for (std::size_t way = 0; way < (set == 0 ? 4u : 2u); ++way)
            EXPECT_EQ(Access::stamp(cache, set, way), ranks[set][way])
                << "set " << set << " way " << way;
    // Well inside the range nothing moves.
    cache.reserveTicks(Cache::kMaxStamp - 5);
    EXPECT_EQ(Access::tick(cache), 4u);
    EXPECT_TRUE(auditOf(cache).empty());
}

// ---------------------------------------------------------------------
// Tag width: over the address domain every tag of an accepted machine
// fits the 32-bit tag word below Cache::kInvalidTag.  Every built
// machine passes (MachineConfigAgreement.EveryBuiltMachinePasses).

/** The tag-width violations checkMachineConfig() finds on @p machine. */
std::vector<verify::Violation>
tagWidthViolations(const MachineConfig &machine)
{
    std::vector<verify::Violation> found;
    for (const verify::Violation &v : checkMachineConfig(machine))
        if (v.invariant == "tag-width")
            found.push_back(v);
    return found;
}

TEST(TagWidth, EightSetL1dIsRejected)
{
    // 8 sets of 64-byte lines: 2^35 lines / 8 = 2^32 reaches the
    // sentinel.  16 sets (2^31) are the smallest that fit.
    MachineConfig machine = suites::skylakeMachine();
    machine.caches.l1d.size_bytes = 16 * machine.caches.l1d.associativity * 64;
    EXPECT_TRUE(tagWidthViolations(machine).empty());

    machine.caches.l1d.size_bytes = 8 * machine.caches.l1d.associativity * 64;
    ASSERT_EQ(machine.caches.l1d.sets(), 8u);
    const std::vector<verify::Violation> found = tagWidthViolations(machine);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found.front().structure, "cache-geometry");
    EXPECT_EQ(found.front().location, "caches.L1D");
    try {
        validateMachineConfig(machine);
        ADD_FAILURE() << "validateMachineConfig accepted an 8-set L1D";
    } catch (const std::invalid_argument &ex) {
        EXPECT_NE(std::string(ex.what()).find("tag-width @ caches.L1D"),
                  std::string::npos)
            << ex.what();
    }
}

TEST(TagWidth, OneSetTlbWithSmallPagesIsAccepted)
{
    // 2^41 bytes / 4 KiB pages = 2^29 tags in one set: far inside.
    MachineConfig machine = suites::skylakeMachine();
    machine.tlbs.dtlb = TlbConfig{"DTLB", 64, 64, 4096};
    ASSERT_EQ(machine.tlbs.dtlb.asCacheConfig().sets(), 1u);
    EXPECT_TRUE(checkMachineConfig(machine).empty());
}

} // namespace
} // namespace uarch
} // namespace speclens
