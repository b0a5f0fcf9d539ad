/**
 * @file
 * Seeded-corruption tests for the structural invariant prover.
 *
 * Mirrors the lint-rule test discipline: every invariant is exercised
 * both ways — clean structures audit silent, and a single poked field
 * must trip exactly its invariant.  The pokes go through the
 * StateAuditor *ForTest helpers, so production state stays private.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "suites/machines.h"
#include "suites/spec2017.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/simulation.h"
#include "uarch/tlb.h"
#include "verify/state_audit.h"

namespace speclens {
namespace verify {
namespace {

std::size_t
countInvariant(const std::vector<Violation> &violations,
               const std::string &invariant)
{
    std::size_t n = 0;
    for (const Violation &v : violations)
        if (v.invariant == invariant)
            ++n;
    return n;
}

/** A small warmed LRU cache: 4 sets x 4 ways of 64-byte lines. */
uarch::Cache
warmedCache(uarch::ReplacementPolicy policy)
{
    uarch::Cache cache(
        uarch::CacheConfig{"test", 1024, 4, 64, policy});
    for (std::uint64_t i = 0; i < 64; ++i)
        cache.access(i * 64);
    return cache;
}

std::vector<Violation>
audit(const uarch::Cache &cache)
{
    std::vector<Violation> out;
    StateAuditor::auditCache(cache, out);
    return out;
}

TEST(StateAudit, CleanCacheAuditsSilent)
{
    for (uarch::ReplacementPolicy policy :
         {uarch::ReplacementPolicy::Lru, uarch::ReplacementPolicy::Fifo,
          uarch::ReplacementPolicy::TreePlru,
          uarch::ReplacementPolicy::Random}) {
        uarch::Cache cache = warmedCache(policy);
        EXPECT_TRUE(audit(cache).empty())
            << "policy " << static_cast<int>(policy);
    }
}

TEST(StateAudit, DuplicateLineTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    std::vector<Violation> before = audit(cache);
    // Copy way 0's tag into way 1 of set 0.
    StateAuditor::pokeTagForTest(
        cache, 0, 1,
        /* same tag as the line at way 0: reconstructable from the
           last lines accessed, but simplest to just force both */
        42);
    StateAuditor::pokeTagForTest(cache, 0, 0, 42);
    std::vector<Violation> after = audit(cache);
    EXPECT_EQ(countInvariant(after, "duplicate-line"), 1u);
}

TEST(StateAudit, InvalidSuffixTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    // Invalidate way 0 while ways 1..3 stay valid.
    StateAuditor::pokeTagForTest(cache, 0, 0, ~0ull);
    EXPECT_EQ(countInvariant(audit(cache), "invalid-suffix"), 3u);
}

TEST(StateAudit, TagDomainTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    StateAuditor::pokeTagForTest(cache, 0, 0, ~0ull - 1);
    EXPECT_EQ(countInvariant(audit(cache), "tag-domain"), 1u);
}

TEST(StateAudit, StampBoundTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    StateAuditor::pokeStampForTest(cache, 0, 0, 0);
    EXPECT_EQ(countInvariant(audit(cache), "stamp-bound"), 1u);
}

TEST(StateAudit, StampUniqueTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Fifo);
    StateAuditor::pokeStampForTest(cache, 1, 0, 7);
    StateAuditor::pokeStampForTest(cache, 1, 1, 7);
    EXPECT_EQ(countInvariant(audit(cache), "stamp-unique"), 1u);
}

TEST(StateAudit, PlruDomainTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::TreePlru);
    // A 4-way tree has 3 node bits; bit 3 must never be set.
    StateAuditor::pokePlruForTest(cache, 0, 1u << 3);
    EXPECT_EQ(countInvariant(audit(cache), "plru-domain"), 1u);
}

TEST(StateAudit, HitsBoundTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    StateAuditor::pokeHitsForTest(cache, cache.accesses() + 1);
    EXPECT_EQ(countInvariant(audit(cache), "hits-bound"), 1u);
}

TEST(StateAudit, PageAlignmentTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    StateAuditor::pokeLineBytesForTest(cache, 48);
    EXPECT_EQ(countInvariant(audit(cache), "page-alignment"), 1u);
}

TEST(StateAudit, FillCounterTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Random);
    StateAuditor::pokeColdFillForTest(cache, 0, 5); // assoc is 4
    EXPECT_EQ(countInvariant(audit(cache), "fill-counter"), 1u);
}

// ---------------------------------------------------------------------
// TLB hierarchy.

TEST(StateAudit, CleanTlbsAuditSilent)
{
    uarch::TlbHierarchy tlbs(uarch::TlbHierarchyConfig{});
    for (std::uint64_t page = 0; page < 2000; ++page)
        tlbs.accessData(page * 4096);
    std::vector<Violation> out;
    StateAuditor::auditTlbs(tlbs, out);
    EXPECT_TRUE(out.empty());
}

TEST(StateAudit, WalkConsistencyTrips)
{
    uarch::TlbHierarchy tlbs(uarch::TlbHierarchyConfig{});
    for (std::uint64_t page = 0; page < 2000; ++page)
        tlbs.accessData(page * 4096);
    ASSERT_GT(tlbs.l2tlbMisses(), 0u);
    StateAuditor::pokePageWalksForTest(tlbs, 0);
    std::vector<Violation> out;
    StateAuditor::auditTlbs(tlbs, out);
    EXPECT_EQ(countInvariant(out, "walk-consistency"), 1u);
    EXPECT_EQ(countInvariant(out, "walk-bound"), 0u);
}

TEST(StateAudit, WalkBoundTrips)
{
    uarch::TlbHierarchy tlbs(uarch::TlbHierarchyConfig{});
    for (std::uint64_t page = 0; page < 100; ++page)
        tlbs.accessData(page * 4096);
    StateAuditor::pokePageWalksForTest(
        tlbs, tlbs.itlbMisses() + tlbs.dtlbMisses() + 1);
    std::vector<Violation> out;
    StateAuditor::auditTlbs(tlbs, out);
    EXPECT_EQ(countInvariant(out, "walk-bound"), 1u);
}

// ---------------------------------------------------------------------
// Branch predictors.

TEST(StateAudit, CleanPredictorsAuditSilent)
{
    for (uarch::PredictorKind kind :
         {uarch::PredictorKind::StaticTaken,
          uarch::PredictorKind::Bimodal, uarch::PredictorKind::Gshare,
          uarch::PredictorKind::Tournament,
          uarch::PredictorKind::Perceptron,
          uarch::PredictorKind::TageLite}) {
        uarch::PredictorVariant predictor =
            uarch::makePredictorVariant(kind, 6);
        std::vector<Violation> out;
        StateAuditor::auditPredictor(predictor, out);
        EXPECT_TRUE(out.empty()) << predictorKindName(kind);
    }
}

TEST(StateAudit, BimodalCounterRangeTrips)
{
    uarch::PredictorVariant predictor = uarch::BimodalPredictor(4);
    StateAuditor::pokeBimodalCounterForTest(
        std::get<uarch::BimodalPredictor>(predictor), 3, 7);
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "counter-range"), 1u);
}

TEST(StateAudit, GshareHistoryWidthTrips)
{
    uarch::PredictorVariant predictor = uarch::GsharePredictor(4, 8);
    StateAuditor::pokeGshareHistoryForTest(
        std::get<uarch::GsharePredictor>(predictor), ~0ull);
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "history-width"), 1u);
}

TEST(StateAudit, TournamentChooserRangeTrips)
{
    uarch::PredictorVariant predictor = uarch::TournamentPredictor(4);
    StateAuditor::pokeChooserCounterForTest(
        std::get<uarch::TournamentPredictor>(predictor), 0, 9);
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "counter-range"), 1u);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].structure, "predictor/tournament");
}

TEST(StateAudit, PerceptronWeightRangeTrips)
{
    uarch::PredictorVariant predictor = uarch::PerceptronPredictor(4, 8);
    StateAuditor::pokePerceptronWeightForTest(
        std::get<uarch::PerceptronPredictor>(predictor), 0, 0, 300);
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "weight-range"), 1u);
}

TEST(StateAudit, TageTagWidthTrips)
{
    uarch::PredictorVariant predictor = uarch::TageLitePredictor(4);
    StateAuditor::pokeTageEntryForTest(
        std::get<uarch::TageLitePredictor>(predictor), 0, 0, 0x7ff, 0,
        0);
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "tag-width"), 1u);
}

TEST(StateAudit, TageCounterAndUsefulRangesTrip)
{
    uarch::PredictorVariant predictor = uarch::TageLitePredictor(4);
    StateAuditor::pokeTageEntryForTest(
        std::get<uarch::TageLitePredictor>(predictor), 1, 2, 0, -5, 9);
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "counter-range"), 1u);
    EXPECT_EQ(countInvariant(out, "useful-range"), 1u);
}

TEST(StateAudit, ShrunkTableTrips)
{
    uarch::PredictorVariant predictor =
        uarch::makePredictorVariant(uarch::PredictorKind::Bimodal, 5);
    StateAuditor::shrinkTableForTest(predictor);
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "table-size"), 1u);
}

// ---------------------------------------------------------------------
// Prewarm fill-state legality.

TEST(StateAudit, CleanColdFillAuditsSilent)
{
    uarch::CacheHierarchy caches(uarch::CacheHierarchyConfig{});
    uarch::TlbHierarchy tlbs(uarch::TlbHierarchyConfig{});
    ASSERT_TRUE(caches.coldFillEligible());
    for (std::uint64_t i = 0; i < 600; ++i)
        caches.prewarmFillData(i * 64);
    std::vector<Violation> out;
    StateAuditor::auditPrewarm(caches, tlbs, out);
    EXPECT_TRUE(out.empty());
}

TEST(StateAudit, FillConsistencyTrips)
{
    uarch::CacheHierarchy caches(uarch::CacheHierarchyConfig{});
    uarch::TlbHierarchy tlbs(uarch::TlbHierarchyConfig{});
    // Three distinct lines of L1D set 0 (64 sets, 8 ways): the set
    // stays partially filled, so the counter must equal the survivor
    // count exactly.
    for (std::uint64_t i = 0; i < 3; ++i)
        caches.prewarmFillData(i * 64 * 64);
    StateAuditor::pokeColdFillForTest(
        StateAuditor::l1dForTest(caches), 0, 2);
    std::vector<Violation> out;
    StateAuditor::auditPrewarm(caches, tlbs, out);
    EXPECT_EQ(countInvariant(out, "fill-consistency"), 1u);
}

TEST(StateAudit, FillOrderTrips)
{
    uarch::CacheHierarchy caches(uarch::CacheHierarchyConfig{});
    uarch::TlbHierarchy tlbs(uarch::TlbHierarchyConfig{});
    // Fill L1D set 0 completely (8 ways), then swap two stamps: the
    // survivor set is no longer reachable by a pure fill stream.
    for (std::uint64_t i = 0; i < 8; ++i)
        caches.prewarmFillData(i * 64 * 64);
    uarch::Cache &l1d = StateAuditor::l1dForTest(caches);
    StateAuditor::pokeStampForTest(l1d, 0, 0, 2);
    StateAuditor::pokeStampForTest(l1d, 0, 1, 1);
    std::vector<Violation> out;
    StateAuditor::auditPrewarm(caches, tlbs, out);
    EXPECT_EQ(countInvariant(out, "fill-order"), 1u);
}

// ---------------------------------------------------------------------
// Memory-centric model: prefetcher accounting, way predictor, DRAM.

uarch::CacheHierarchyConfig
memoryHierarchyConfig(uarch::PrefetcherKind kind, unsigned degree)
{
    uarch::CacheHierarchyConfig config;
    config.l1d = {"L1D", 1024, 2, 64, uarch::ReplacementPolicy::Lru};
    config.l1i = {"L1I", 1024, 2, 64, uarch::ReplacementPolicy::Lru};
    config.l2 = {"L2", 16 * 1024, 4, 64, uarch::ReplacementPolicy::Lru};
    config.l3 = uarch::CacheConfig{"L3", 256 * 1024, 8, 64,
                                   uarch::ReplacementPolicy::Lru};
    config.l1d.way_prediction = uarch::WayPredictionKind::Mru;
    config.l1i.way_prediction = uarch::WayPredictionKind::MultiMru;
    config.l2_prefetch_degree = degree;
    config.prefetcher = kind;
    config.dram = uarch::DramConfig{};
    return config;
}

uarch::CacheHierarchy
warmedMemoryHierarchy(uarch::PrefetcherKind kind)
{
    uarch::CacheHierarchy caches(memoryHierarchyConfig(kind, 2));
    for (std::uint64_t i = 0; i < 4000; ++i)
        caches.accessData(i * 64, /*pc=*/0x400000 + (i % 16) * 4);
    for (std::uint64_t i = 0; i < 500; ++i)
        caches.accessInstr(0x400000 + (i % 64) * 64);
    return caches;
}

std::vector<Violation>
auditHierarchy(const uarch::CacheHierarchy &caches)
{
    std::vector<Violation> out;
    StateAuditor::auditCaches(caches, out);
    return out;
}

TEST(StateAudit, CleanMemoryHierarchyAuditsSilent)
{
    for (uarch::PrefetcherKind kind :
         {uarch::PrefetcherKind::NextLine, uarch::PrefetcherKind::Stride,
          uarch::PrefetcherKind::Stream}) {
        uarch::CacheHierarchy caches = warmedMemoryHierarchy(kind);
        std::vector<Violation> out = auditHierarchy(caches);
        for (const Violation &v : out)
            ADD_FAILURE() << uarch::prefetcherKindName(kind) << ": "
                          << renderViolation(v);
    }
}

TEST(StateAudit, PrefetchBitDomainTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    StateAuditor::pokePrefetchBitForTest(caches, 0, 2);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "bit-domain"), 1u);
}

TEST(StateAudit, PrefetchBitOnInvalidWayTrips)
{
    // Fresh hierarchy: every L2 way is invalid, so a set bit cannot
    // mark a resident prefetched line.
    uarch::CacheHierarchy caches(
        memoryHierarchyConfig(uarch::PrefetcherKind::NextLine, 2));
    StateAuditor::pokePrefetchBitForTest(caches, 0, 1);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "bit-on-invalid"),
              1u);
}

TEST(StateAudit, PrefetchFillIdentityTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    ASSERT_TRUE(auditHierarchy(caches).empty());
    StateAuditor::pokePrefetchFillsForTest(caches,
                                           caches.prefetchFills() + 1);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "fill-identity"),
              1u);
}

TEST(StateAudit, PrefetchCountersOffTrips)
{
    uarch::CacheHierarchy caches(
        memoryHierarchyConfig(uarch::PrefetcherKind::NextLine, 0));
    StateAuditor::pokePrefetchFillsForTest(caches, 1);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "counters-off"),
              1u);
}

TEST(StateAudit, StrideConfidenceRangeTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::Stride);
    StateAuditor::pokeStrideConfidenceForTest(caches, 0, 5);
    EXPECT_EQ(
        countInvariant(auditHierarchy(caches), "stride-confidence"),
        1u);
}

TEST(StateAudit, StreamRingCursorTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::Stream);
    StateAuditor::pokeStreamNextForTest(caches, 8);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "stream-ring"),
              1u);
}

TEST(StateAudit, WayPredDomainTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    // L1D is 2-way; a predicted way of 7 is unreachable.
    StateAuditor::pokeWayPredEntryForTest(
        StateAuditor::l1dForTest(caches), 0, 7);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "waypred-domain"),
              1u);
}

TEST(StateAudit, WayPredBoundTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    uarch::Cache &l1d = StateAuditor::l1dForTest(caches);
    StateAuditor::pokeWayPredHitsForTest(l1d, l1d.hits() + 1);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "waypred-bound"),
              1u);
}

TEST(StateAudit, WayPredCountersOffTrips)
{
    // Prediction disabled (warmedCache's config): any counter motion
    // is illegal, independent of the bound against hits.
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    cache.access(0);
    cache.access(0); // one hit so the bound check stays quiet
    StateAuditor::pokeWayPredHitsForTest(cache, 1);
    std::vector<Violation> out = audit(cache);
    EXPECT_EQ(countInvariant(out, "waypred-counters"), 1u);
    EXPECT_EQ(countInvariant(out, "waypred-bound"), 0u);
}

TEST(StateAudit, DramRowDomainTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    StateAuditor::pokeDramOpenRowForTest(caches, 0, ~0ull);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "row-domain"), 1u);
}

TEST(StateAudit, DramBusyIdentityTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    ASSERT_GT(caches.dramAccesses(), 0u);
    StateAuditor::pokeDramBusyForTest(caches,
                                      caches.dramBusyCycles() + 1);
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "busy-identity"),
              1u);
}

// ---------------------------------------------------------------------
// End to end: real simulations audit clean, with evidence recorded.

TEST(StateAudit, SimulateAuditedRunsCleanOnShippedModels)
{
    uarch::SimulationConfig config;
    config.instructions = 20'000;
    config.warmup = 5'000;
    const auto &benchmark = suites::spec2017()[0];
    for (const uarch::MachineConfig &machine :
         suites::profilingMachines()) {
        AuditTrail trail;
        uarch::SimulationResult result =
            uarch::simulate(benchmark.profile, machine, config, &trail);
        EXPECT_GT(result.counters.instructions, 0u);
        EXPECT_GE(trail.audits, 2u) << machine.name;
        for (const Violation &v : trail.violations)
            ADD_FAILURE() << machine.name << ": "
                          << renderViolation(v);
    }
}

// Every measured window on every profiling and memory-centric machine
// satisfies the counter identities the store enforces on load, with
// the machine's topology identities on top.
TEST(StateAudit, SimulateTrailHoldsCounterIdentitiesOnEveryMachine)
{
    uarch::SimulationConfig config;
    config.instructions = 20'000;
    config.warmup = 5'000;
    const auto &benchmark = suites::spec2017()[0];
    std::vector<uarch::MachineConfig> machines =
        suites::profilingMachines();
    for (uarch::MachineConfig &m : suites::memoryCentricMachines())
        machines.push_back(std::move(m));
    for (const uarch::MachineConfig &machine : machines) {
        AuditTrail trail;
        uarch::simulate(benchmark.profile, machine, config, &trail);
        for (const Violation &v : trail.violations)
            ADD_FAILURE() << machine.name << ": " << renderViolation(v);
    }
}

/** Invariant names checkCounterIdentities() reports for @p c. */
std::vector<std::string>
brokenIdentities(const uarch::PerfCounters &c,
                 const uarch::MachineConfig *machine = nullptr)
{
    std::vector<std::string> names;
    for (const Violation &v : uarch::checkCounterIdentities(c, machine))
        names.push_back(v.invariant);
    return names;
}

TEST(StateAudit, CounterIdentitiesTripOnSeededCorruption)
{
    uarch::SimulationConfig config;
    config.instructions = 5'000;
    config.warmup = 1'000;
    const auto &benchmark = suites::spec2017()[0];
    const uarch::MachineConfig &skylake = suites::skylakeMachine();
    const uarch::PerfCounters clean =
        uarch::simulate(benchmark.profile, skylake, config).counters;
    ASSERT_TRUE(brokenIdentities(clean, &skylake).empty());

    const struct
    {
        const char *invariant;
        void (*corrupt)(uarch::PerfCounters &);
    } rows[] = {
        {"class-sum",
         [](uarch::PerfCounters &c) { c.loads = c.instructions + 1; }},
        {"branch-bound",
         [](uarch::PerfCounters &c) { c.taken_branches = c.branches + 1; }},
        {"kernel-bound",
         [](uarch::PerfCounters &c) {
             c.kernel_instructions = c.instructions + 1;
         }},
        {"miss-bound",
         [](uarch::PerfCounters &c) { c.dtlb_misses = c.dtlb_accesses + 1; }},
        {"walk-consistency", [](uarch::PerfCounters &c) { ++c.page_walks; }},
        {"l2-plumbing", [](uarch::PerfCounters &c) { ++c.l2i_accesses; }},
        {"l3-plumbing", [](uarch::PerfCounters &c) { ++c.l3_accesses; }},
        {"prefetch-fill-bound",
         [](uarch::PerfCounters &c) { c.prefetch_useful = 1; }},
        {"row-hit-bound", [](uarch::PerfCounters &c) { c.dram_row_hits = 1; }},
    };
    for (const auto &row : rows) {
        uarch::PerfCounters c = clean;
        row.corrupt(c);
        std::vector<std::string> names = brokenIdentities(c);
        EXPECT_NE(std::find(names.begin(), names.end(), row.invariant),
                  names.end())
            << row.invariant;
    }

    // Topology identities need the machine: Skylake has neither a
    // prefetcher nor a way predictor nor a DRAM model.
    uarch::PerfCounters c = clean;
    c.prefetch_fills = 1;
    c.way_pred_hits = 1;
    c.dram_accesses = 1;
    EXPECT_TRUE(brokenIdentities(c).empty());
    EXPECT_EQ(brokenIdentities(c, &skylake),
              (std::vector<std::string>{"prefetch-off", "waypred-off",
                                        "dram-off"}));
}

TEST(StateAudit, SimulateAuditedMatchesSimulateBitForBit)
{
    uarch::SimulationConfig config;
    config.instructions = 20'000;
    config.warmup = 5'000;
    const auto &benchmark = suites::spec2017()[1];
    const uarch::MachineConfig machine = suites::skylakeMachine();
    AuditTrail trail;
    uarch::SimulationResult audited =
        uarch::simulate(benchmark.profile, machine, config, &trail);
    uarch::SimulationResult plain =
        uarch::simulate(benchmark.profile, machine, config);
    EXPECT_TRUE(uarch::bitIdentical(audited, plain));
    EXPECT_TRUE(trail.clean());
}

} // namespace
} // namespace verify
} // namespace speclens
