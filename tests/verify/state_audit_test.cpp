/**
 * @file
 * Seeded-corruption tests for the structural invariant prover.
 *
 * Mirrors the lint-rule test discipline: every invariant is exercised
 * both ways — clean structures audit silent, and a single poked field
 * must trip exactly its invariant.  The pokes write private fields
 * through StateAuditor::TestAccess (test_access.h), so production
 * state stays private.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "suites/machines.h"
#include "suites/spec2017.h"
#include "trace/address_stream.h"
#include "trace/phased_workload.h"
#include "trace/record_batch.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/simulation.h"
#include "uarch/tlb.h"
#include "verify/state_audit.h"

#include "test_access.h"

namespace speclens {
namespace verify {
namespace {

using Access = StateAuditor::TestAccess;

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

/** A small warmed cache: 4 sets x 4 ways of 64-byte lines. */
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
         {uarch::ReplacementPolicy::Lru,
          uarch::ReplacementPolicy::TreePlru}) {
        uarch::Cache cache = warmedCache(policy);
        EXPECT_TRUE(audit(cache).empty())
            << "policy " << static_cast<int>(policy);
    }
}

TEST(StateAudit, DuplicateLineTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    std::vector<Violation> before = audit(cache);
    // The same tag in ways 0 and 1 of set 0 (simplest to force both
    // rather than reconstruct way 0's tag from the lines accessed).
    Access::tag(cache, 0, 1) = 42;
    Access::tag(cache, 0, 0) = 42;
    std::vector<Violation> after = audit(cache);
    EXPECT_EQ(countInvariant(after, "duplicate-line"), 1u);
}

TEST(StateAudit, InvalidSuffixTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    // Invalidate way 0 while ways 1..3 stay valid.
    Access::tag(cache, 0, 0) = uarch::Cache::kInvalidTag;
    EXPECT_EQ(countInvariant(audit(cache), "invalid-suffix"), 3u);
}

TEST(StateAudit, TagDomainTrips)
{
    // 16 sets of 64-byte lines: set 0's first tag past the address
    // domain, 2^35 lines / 16, fits the 32-bit tag word (on fewer sets
    // only the sentinel would lie past the domain).
    uarch::Cache cache(uarch::CacheConfig{"test", 4096, 4, 64,
                                          uarch::ReplacementPolicy::Lru});
    for (std::uint64_t i = 0; i < 64; ++i)
        cache.access(i * 64);
    const std::uint64_t first = (trace::kAddressLimit >> 6) / 16;
    Access::tag(cache, 0, 0) = static_cast<std::uint32_t>(first - 1);
    EXPECT_EQ(countInvariant(audit(cache), "tag-domain"), 0u);
    Access::tag(cache, 0, 0) = static_cast<std::uint32_t>(first);
    EXPECT_EQ(countInvariant(audit(cache), "tag-domain"), 1u);
}

TEST(StateAudit, StampBoundTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    Access::stamp(cache, 0, 0) = 0;
    EXPECT_EQ(countInvariant(audit(cache), "stamp-bound"), 1u);
}

TEST(StateAudit, StampUniqueTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    Access::stamp(cache, 1, 0) = 7;
    Access::stamp(cache, 1, 1) = 7;
    EXPECT_EQ(countInvariant(audit(cache), "stamp-unique"), 1u);
}

TEST(StateAudit, StampWidthTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    Access::tick(cache) = uarch::Cache::kMaxStamp;
    EXPECT_TRUE(audit(cache).empty()); // the largest legal tick
    Access::tick(cache) = uarch::Cache::kMaxStamp + 1; // missed rebase
    std::vector<Violation> found = audit(cache);
    ASSERT_EQ(countInvariant(found, "stamp-width"), 1u);
    EXPECT_EQ(found.size(), 1u);
    EXPECT_EQ(found.front().structure, "test");
    EXPECT_EQ(found.front().location, "tick");
}

TEST(StateAudit, PlruDomainTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::TreePlru);
    // A 4-way tree has 3 node bits; bit 3 must never be set.
    Access::plru(cache)[0] = 1u << 3;
    EXPECT_EQ(countInvariant(audit(cache), "plru-domain"), 1u);
}

TEST(StateAudit, HitsBoundTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    Access::hits(cache) = cache.accesses() + 1;
    EXPECT_EQ(countInvariant(audit(cache), "hits-bound"), 1u);
}

TEST(StateAudit, PageAlignmentTrips)
{
    uarch::Cache cache = warmedCache(uarch::ReplacementPolicy::Lru);
    Access::config(cache).line_bytes = 48;
    EXPECT_EQ(countInvariant(audit(cache), "page-alignment"), 1u);
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
    Access::pageWalks(tlbs) = 0;
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
    Access::pageWalks(tlbs) = tlbs.itlbMisses() + tlbs.dtlbMisses() + 1;
    std::vector<Violation> out;
    StateAuditor::auditTlbs(tlbs, out);
    EXPECT_EQ(countInvariant(out, "walk-bound"), 1u);
}

// ---------------------------------------------------------------------
// Branch predictors.

TEST(StateAudit, CleanPredictorsAuditSilent)
{
    for (uarch::PredictorKind kind :
         {uarch::PredictorKind::Bimodal, uarch::PredictorKind::Gshare,
          uarch::PredictorKind::Tournament,
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
    Access::counters(std::get<uarch::BimodalPredictor>(predictor))[3] = 7;
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "counter-range"), 1u);
}

TEST(StateAudit, GshareHistoryWidthTrips)
{
    uarch::PredictorVariant predictor = uarch::GsharePredictor(4, 8);
    Access::history(std::get<uarch::GsharePredictor>(predictor)) = ~0ull;
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "history-width"), 1u);
}

TEST(StateAudit, TournamentChooserRangeTrips)
{
    uarch::PredictorVariant predictor = uarch::TournamentPredictor(4);
    Access::chooser(std::get<uarch::TournamentPredictor>(predictor))[0] = 9;
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "counter-range"), 1u);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].structure, "predictor/tournament");
}

TEST(StateAudit, TageTagWidthTrips)
{
    uarch::PredictorVariant predictor = uarch::TageLitePredictor(4);
    Access::tables(std::get<uarch::TageLitePredictor>(predictor))[0][0]
        .tag = 0x7ff;
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "tag-width"), 1u);
}

TEST(StateAudit, TageCounterAndUsefulRangesTrip)
{
    uarch::PredictorVariant predictor = uarch::TageLitePredictor(4);
    auto &entry =
        Access::tables(std::get<uarch::TageLitePredictor>(predictor))[1][2];
    entry.counter = -5;
    entry.useful = 9;
    std::vector<Violation> out;
    StateAuditor::auditPredictor(predictor, out);
    EXPECT_EQ(countInvariant(out, "counter-range"), 1u);
    EXPECT_EQ(countInvariant(out, "useful-range"), 1u);
}

TEST(StateAudit, ShrunkTableTrips)
{
    uarch::PredictorVariant predictor =
        uarch::makePredictorVariant(uarch::PredictorKind::Bimodal, 5);
    Access::counters(std::get<uarch::BimodalPredictor>(predictor))
        .pop_back();
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
    ASSERT_TRUE(caches.prewarmFillEligible());
    for (std::uint64_t i = 0; i < 600; ++i)
        caches.prewarmFillData(i * 64);
    std::vector<Violation> out;
    StateAuditor::auditPrewarm(caches, tlbs, out);
    EXPECT_TRUE(out.empty());
}

TEST(StateAudit, FillOrderTrips)
{
    uarch::CacheHierarchy caches(uarch::CacheHierarchyConfig{});
    uarch::TlbHierarchy tlbs(uarch::TlbHierarchyConfig{});
    // Fill L1D set 0 completely (8 ways), then swap two stamps: the
    // survivor set is no longer reachable by a pure fill stream.
    for (std::uint64_t i = 0; i < 8; ++i)
        caches.prewarmFillData(i * 64 * 64);
    uarch::Cache &l1d = Access::l1d(caches);
    Access::stamp(l1d, 0, 0) = 2;
    Access::stamp(l1d, 0, 1) = 1;
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
    Access::prefetchBits(caches)[0] = 2;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "bit-domain"), 1u);
}

TEST(StateAudit, PrefetchBitOnInvalidWayTrips)
{
    // Fresh hierarchy: every L2 way is invalid, so a set bit cannot
    // mark a resident prefetched line.
    uarch::CacheHierarchy caches(
        memoryHierarchyConfig(uarch::PrefetcherKind::NextLine, 2));
    Access::prefetchBits(caches)[0] = 1;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "bit-on-invalid"),
              1u);
}

TEST(StateAudit, PrefetchFillIdentityTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    ASSERT_TRUE(auditHierarchy(caches).empty());
    Access::prefetchFills(caches) = caches.prefetchFills() + 1;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "fill-identity"),
              1u);
}

TEST(StateAudit, PrefetchCountersOffTrips)
{
    uarch::CacheHierarchy caches(
        memoryHierarchyConfig(uarch::PrefetcherKind::NextLine, 0));
    Access::prefetchFills(caches) = 1;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "counters-off"),
              1u);
}

TEST(StateAudit, StrideConfidenceRangeTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::Stride);
    Access::strideTable(caches)[0].confidence = 5;
    EXPECT_EQ(
        countInvariant(auditHierarchy(caches), "stride-confidence"),
        1u);
}

TEST(StateAudit, StreamRingCursorTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::Stream);
    Access::streamNext(caches) = 8;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "stream-ring"),
              1u);
}

TEST(StateAudit, WayPredDomainTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    // L1D is 2-way; a predicted way of 7 is unreachable.
    Access::wayPred(Access::l1d(caches))[0] = 7;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "waypred-domain"),
              1u);
}

TEST(StateAudit, WayPredBoundTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    uarch::Cache &l1d = Access::l1d(caches);
    Access::wayPredHits(l1d) = l1d.hits() + 1;
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
    Access::wayPredHits(cache) = 1;
    std::vector<Violation> out = audit(cache);
    EXPECT_EQ(countInvariant(out, "waypred-counters"), 1u);
    EXPECT_EQ(countInvariant(out, "waypred-bound"), 0u);
}

TEST(StateAudit, DramRowDomainTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    uarch::DramModel &dram = Access::dram(caches);
    Access::openRow(dram)[0] = ~0ull;
    Access::rowOpen(dram)[0] = 1;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "row-domain"), 1u);
}

TEST(StateAudit, DramBusyIdentityTrips)
{
    uarch::CacheHierarchy caches =
        warmedMemoryHierarchy(uarch::PrefetcherKind::NextLine);
    ASSERT_GT(caches.dramAccesses(), 0u);
    Access::busyCycles(Access::dram(caches)) = caches.dramBusyCycles() + 1;
    EXPECT_EQ(countInvariant(auditHierarchy(caches), "busy-identity"),
              1u);
}

// ---------------------------------------------------------------------
// End to end: real simulations audit clean, with evidence recorded.

TEST(StateAudit, SimulateAuditedRunsCleanOnShippedModels)
{
    // Chunks are counted per play and carry across the warm-up and
    // measured plays: 2 warm-up chunks (4096 + 1) and 30 measured ones
    // (29 full + 1) make 32, so the every-16th-chunk sample fires
    // twice.  Counting records instead (30 chunks' worth) would fire
    // once.
    constexpr std::uint64_t kChunk = trace::kRecordBatchCapacity;
    uarch::SimulationConfig config;
    config.warmup = kChunk + 1;
    config.instructions = 29 * kChunk + 1;
    // Post-prewarm, two sampled, the window audit and the final one.
    constexpr std::uint64_t kExpectedAudits = 1 + 2 + 1 + 1;
    const auto &benchmark = suites::spec2017()[0];
    for (const uarch::MachineConfig &machine :
         suites::profilingMachines()) {
        AuditTrail trail;
        uarch::SimulationResult result =
            uarch::simulate(benchmark.profile, machine, config, &trail);
        EXPECT_GT(result.counters.instructions, 0u);
        EXPECT_EQ(trail.audits, kExpectedAudits) << machine.name;
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

// Phased runs carry cache, TLB and predictor state across phase
// boundaries, so only an audit trail proves the structures stay legal
// there.  Every 7th CPU2017 model (the `speclens audit` sample), split
// into 8 phases at drift 0.35, on every profiling and memory-centric
// machine: each run is audited and none may break an invariant.
TEST(StateAudit, PhasedRunsAuditCleanOnShippedMachines)
{
    uarch::SimulationConfig config;
    config.instructions = 20'000;
    config.warmup = 5'000;
    std::vector<uarch::MachineConfig> machines =
        suites::profilingMachines();
    for (uarch::MachineConfig &m : suites::memoryCentricMachines())
        machines.push_back(std::move(m));
    const std::vector<suites::BenchmarkInfo> &all = suites::spec2017();
    std::uint64_t audits = 0;
    for (std::size_t i = 0; i < all.size(); i += 7) {
        const trace::PhasedWorkload workload =
            trace::derivePhases(all[i].profile, 8, 0.35);
        for (const uarch::MachineConfig &machine : machines) {
            AuditTrail trail;
            uarch::simulatePhased(workload, machine, config, &trail);
            EXPECT_GT(trail.audits, 0u) << all[i].name << " on "
                                        << machine.name;
            audits += trail.audits;
            for (const Violation &v : trail.violations)
                ADD_FAILURE() << all[i].name << " on " << machine.name
                              << ": " << renderViolation(v);
        }
    }
    EXPECT_GT(audits, 0u);
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
