/**
 * @file
 * Analytic-vs-walking prewarm equivalence.
 *
 * PrewarmSolver::apply() claims to reconstruct the EXACT state the
 * walking prewarm leaves — tags, replacement stamps, tree-PLRU words,
 * ticks, last-access indices and every statistic — or to mutate
 * nothing and return false.  These tests compare the two paths' full
 * state digests across both replacement policies, TLB
 * geometry and stride regime, every shipped machine and model, way
 * prediction and the three L2 prefetch engines, and pin the
 * all-or-nothing fallback contract for patterns outside the provable
 * regime.  End to end, the reference-model parity sweep
 * (parity_test.cpp) always walks, so it holds the analytic path to the
 * walk on every shipped machine, including degenerate warm-up windows.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "suites/emerging.h"
#include "suites/input_sets.h"
#include "suites/machines.h"
#include "suites/spec2006.h"
#include "suites/spec2017.h"
#include "trace/address_stream.h"
#include "trace/phased_workload.h"
#include "uarch/machine.h"
#include "uarch/prewarm.h"
#include "uarch/simulation.h"

#include "../verify/test_access.h"

using namespace speclens;
using uarch::CacheConfig;
using uarch::ReplacementPolicy;

namespace {

/** Every prewarm-written field of a hierarchy pair, flattened. */
constexpr auto stateDigest = &verify::StateAuditor::TestAccess::stateDigest;

/** Small all-@p policy hierarchy so sweeps stay fast. */
uarch::CacheHierarchyConfig
cacheConfigFor(ReplacementPolicy policy)
{
    uarch::CacheHierarchyConfig config;
    config.l1i = CacheConfig{"L1I", 4 * 1024, 4, 64, policy};
    config.l1d = CacheConfig{"L1D", 4 * 1024, 4, 64, policy};
    config.l2 = CacheConfig{"L2", 32 * 1024, 8, 64, policy};
    config.l3 = CacheConfig{"L3", 256 * 1024, 16, 64, policy};
    return config;
}

/** TLB geometry variants the solver must prove or refuse. */
uarch::TlbHierarchyConfig
tlbConfigFor(int variant)
{
    uarch::TlbHierarchyConfig config;
    switch (variant) {
      case 0: // Default two-level, 4 KiB pages.
        break;
      case 1: // No second level (harpertown shape).
        config.l2tlb.reset();
        break;
      case 2: // Fully associative L1 TLBs, 8 KiB pages (SPARC shape).
        config.itlb = uarch::TlbConfig{"ITLB", 64, 64, 8192};
        config.dtlb = uarch::TlbConfig{"DTLB", 64, 64, 8192};
        config.l2tlb = uarch::TlbConfig{"L2TLB", 1024, 2, 8192};
        break;
      default:
        ADD_FAILURE() << "unknown tlb variant " << variant;
    }
    return config;
}

/**
 * Profile whose prewarm stream exercises @p stride on
 * @p active_regions data regions plus the code walk.  Inactive
 * regions get footprints beyond any LLC here, so both paths skip
 * them — which is itself part of the contract under test.  The region
 * bases sit 2^38 apart (all alias set 0 of every modelled structure).
 */
trace::WorkloadProfile
profileFor(double stride, double bytes, double code_bytes,
           int active_regions = 4)
{
    trace::WorkloadProfile profile;
    profile.name = "prewarm-equivalence";
    int region = 0;
    for (auto &ws : profile.memory.data) {
        ws.bytes = region++ < active_regions ? bytes : 1e12;
        ws.stride_bytes = stride;
    }
    profile.memory.code_bytes = code_bytes;
    return profile;
}

/** Digest-compare the analytic and walking paths on cold hierarchies. */
void
expectStateEquivalence(const uarch::CacheHierarchyConfig &caches,
                       const uarch::TlbHierarchyConfig &tlbs,
                       const trace::WorkloadProfile &profile,
                       const std::string &label)
{
    std::uint64_t llc_lines =
        (caches.l3 ? caches.l3->size_bytes : caches.l2.size_bytes) / 64;

    uarch::CacheHierarchy analytic_caches(caches);
    uarch::TlbHierarchy analytic_tlbs(tlbs);
    ASSERT_TRUE(uarch::PrewarmSolver::apply(analytic_caches,
                                            analytic_tlbs, profile,
                                            llc_lines))
        << label << ": expected the pattern to be provable";

    uarch::CacheHierarchy walked_caches(caches);
    uarch::TlbHierarchy walked_tlbs(tlbs);
    uarch::PrewarmSolver::walk(walked_caches, walked_tlbs, profile,
                               llc_lines);

    EXPECT_EQ(stateDigest(analytic_caches, analytic_tlbs),
              stateDigest(walked_caches, walked_tlbs))
        << label << ": analytic state differs from the walk";
}

constexpr ReplacementPolicy kPolicies[] = {ReplacementPolicy::Lru,
                                           ReplacementPolicy::TreePlru};

const char *
policyName(ReplacementPolicy policy)
{
    return policy == ReplacementPolicy::Lru ? "lru" : "treeplru";
}

TEST(PrewarmEquivalence, EveryPolicyEveryTlbGeometryEveryStride)
{
    // Strides covering every provable regime: line-sized, sub-line
    // (64 % s == 0, several elements per line), multi-line, page-sized
    // and multi-page.
    const double strides[] = {64, 16, 128, 4096, 8192};
    for (ReplacementPolicy policy : kPolicies) {
        for (int tlb_variant = 0; tlb_variant < 3; ++tlb_variant) {
            for (double stride : strides) {
                // Eviction-heavy footprints: the four region bases all
                // alias set 0 of every power-of-two structure here.
                expectStateEquivalence(
                    cacheConfigFor(policy), tlbConfigFor(tlb_variant),
                    profileFor(stride, 48 * 1024, 24 * 1024),
                    std::string(policyName(policy)) + "/tlb" +
                        std::to_string(tlb_variant) + "/stride" +
                        std::to_string(static_cast<int>(stride)));
            }
        }
    }
}

TEST(PrewarmEquivalence, NonPowerOfTwoSetCounts)
{
    // 20-way 15 MB-style LLC: 12288 sets, not a power of two, so the
    // per-set congruence solving runs the general gcd path.  Tree-PLRU
    // needs a power-of-two way count; 16 ways still gives it 15360
    // sets.
    for (ReplacementPolicy policy : kPolicies) {
        uarch::CacheHierarchyConfig caches = cacheConfigFor(policy);
        unsigned ways = policy == ReplacementPolicy::TreePlru ? 16 : 20;
        caches.l3 = CacheConfig{"L3", 15 * 1024 * 1024, ways, 64, policy};
        expectStateEquivalence(caches, tlbConfigFor(0),
                               profileFor(64, 48 * 1024, 8192),
                               std::string("np2/") + policyName(policy));
    }
}

TEST(PrewarmEquivalence, EmptyAndDegenerateStreams)
{
    // Working sets larger than the LLC are skipped by both paths; a
    // zero-byte code region contributes nothing.  The solver must
    // still succeed (there is nothing unprovable about an empty
    // stream) and leave both hierarchies identical.
    expectStateEquivalence(cacheConfigFor(ReplacementPolicy::Lru),
                           tlbConfigFor(0),
                           profileFor(64, 64.0 * 1024 * 1024, 0),
                           "empty");

    // One element per region (bytes < stride clamps to one element).
    expectStateEquivalence(cacheConfigFor(ReplacementPolicy::TreePlru),
                           tlbConfigFor(0), profileFor(64, 32, 64),
                           "single-element");
}

TEST(PrewarmEquivalence, UnprovableStrideFallsBackUntouched)
{
    // 96 neither divides nor is divided by the 64-byte line: outside
    // the provable regime.  apply() must refuse AND leave the
    // hierarchy byte-identical to a fresh one (all-or-nothing).
    uarch::CacheHierarchyConfig caches =
        cacheConfigFor(ReplacementPolicy::Lru);
    uarch::TlbHierarchyConfig tlbs = tlbConfigFor(0);
    trace::WorkloadProfile profile = profileFor(96, 16 * 1024, 4096);

    uarch::CacheHierarchy hierarchy(caches);
    uarch::TlbHierarchy tlb_hierarchy(tlbs);
    std::vector<std::uint64_t> fresh = stateDigest(hierarchy, tlb_hierarchy);
    EXPECT_FALSE(uarch::PrewarmSolver::apply(hierarchy, tlb_hierarchy,
                                             profile, 4096));
    EXPECT_EQ(stateDigest(hierarchy, tlb_hierarchy), fresh);
}

/** Every shipped machine: profiling, memory-centric, prefetch ablation. */
std::vector<uarch::MachineConfig>
shippedMachines()
{
    std::vector<uarch::MachineConfig> machines = suites::profilingMachines();
    for (const uarch::MachineConfig &m : suites::memoryCentricMachines())
        machines.push_back(m);
    machines.push_back(suites::prefetchAblationMachine());
    return machines;
}

/** Every shipped workload model: CPU2017, CPU2006, emerging and both
 *  input-set groups. */
std::vector<suites::BenchmarkInfo>
shippedProfiles()
{
    std::vector<suites::BenchmarkInfo> all = suites::spec2017();
    for (const auto &b : suites::spec2006())
        all.push_back(b);
    for (const auto &b : suites::emergingBenchmarks())
        all.push_back(b);
    for (const auto &groups :
         {suites::inputSetGroupsInt(), suites::inputSetGroupsFp()})
        for (const auto &b : suites::flattenGroups(groups))
            all.push_back(b);
    return all;
}

/** Digest-compare both paths for @p machine as simulate() runs it. */
void
expectMachineEquivalence(const uarch::MachineConfig &machine,
                         const trace::WorkloadProfile &profile)
{
    expectStateEquivalence(machine.caches, machine.tlbs,
                           uarch::transformForMachine(profile, machine),
                           machine.short_name + "/" + profile.name);
}

TEST(PrewarmEquivalence, EveryShippedMachineEveryShippedProfile)
{
    // No silent fallback: expectStateEquivalence asserts apply()
    // succeeds for every pair before comparing it with the walk.
    const std::vector<suites::BenchmarkInfo> profiles = shippedProfiles();
    for (const uarch::MachineConfig &machine : shippedMachines()) {
        for (const suites::BenchmarkInfo &benchmark : profiles) {
            expectMachineEquivalence(machine, benchmark.profile);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(PrewarmEquivalence, MultiMruPartitionOutlivesItsLine)
{
    // 16-set L1D: region 1 walks one set with consecutive tags (both
    // parities), then region 0 walks the same set with even tags only,
    // evicting every odd-tag line.  The odd partition's predictor entry
    // must still name the way of its last (evicted) fill, so the scan
    // has to carry on past the survivors.
    trace::WorkloadProfile profile = profileFor(64, 1e12, 4096, 0);
    profile.memory.data[1].bytes = 8 * 1024;
    profile.memory.data[1].stride_bytes = 1024;
    profile.memory.data[0].bytes = 16 * 1024;
    profile.memory.data[0].stride_bytes = 2048;
    for (ReplacementPolicy policy : kPolicies) {
        for (auto kind : {uarch::WayPredictionKind::Mru,
                          uarch::WayPredictionKind::MultiMru}) {
            uarch::CacheHierarchyConfig caches = cacheConfigFor(policy);
            caches.l1d.way_prediction = kind;
            caches.l1i.way_prediction = kind;
            caches.l2.way_prediction = kind;
            expectStateEquivalence(caches, tlbConfigFor(0), profile,
                                   std::string(policyName(policy)) + "/" +
                                       uarch::wayPredictionKindName(kind));
        }
    }
}

/** Skylake-shaped prefetching hierarchy with a small L3, so working
 *  sets overflow both L2 and L3. */
uarch::CacheHierarchyConfig
prefetchConfigFor(uarch::PrefetcherKind kind, unsigned degree)
{
    uarch::CacheHierarchyConfig config;
    config.l1i = CacheConfig{"L1I", 32 * 1024, 8, 64,
                             ReplacementPolicy::TreePlru};
    config.l1d = CacheConfig{"L1D", 32 * 1024, 8, 64,
                             ReplacementPolicy::TreePlru};
    config.l1i.way_prediction = uarch::WayPredictionKind::MultiMru;
    config.l1d.way_prediction = uarch::WayPredictionKind::Mru;
    config.l2 = CacheConfig{"L2", 256 * 1024, 4, 64, ReplacementPolicy::Lru};
    config.l3 = CacheConfig{"L3", 1024 * 1024, 16, 64,
                            ReplacementPolicy::Lru};
    config.prefetcher = kind;
    config.l2_prefetch_degree = degree;
    config.dram = uarch::DramConfig{};
    return config;
}

/** apply() refuses @p profile for @p reason and mutates nothing. */
void
expectRefusedUntouched(const uarch::CacheHierarchyConfig &caches,
                       const trace::WorkloadProfile &profile,
                       uarch::PrewarmSolver::Refusal reason)
{
    uarch::CacheHierarchy hierarchy(caches);
    uarch::TlbHierarchy tlb_hierarchy(tlbConfigFor(0));
    std::vector<std::uint64_t> fresh = stateDigest(hierarchy, tlb_hierarchy);
    uarch::PrewarmSolver::Refusal why{};
    EXPECT_FALSE(uarch::PrewarmSolver::apply(hierarchy, tlb_hierarchy,
                                             profile, 1 << 14, &why));
    EXPECT_EQ(why, reason);
    EXPECT_EQ(stateDigest(hierarchy, tlb_hierarchy), fresh);
}

TEST(PrewarmEquivalence, PrefetchEngineEdgeCases)
{
    using uarch::PrefetcherKind;
    const PrefetcherKind kinds[] = {PrefetcherKind::NextLine,
                                    PrefetcherKind::Stride,
                                    PrefetcherKind::Stream};
    // Element counts: shorter than the stride engine's confidence ramp
    // (1-3), just past it, a few stream periods, and footprints that
    // overflow L2 (4096 lines) and, over four regions, L3 (16384).
    const double elements[] = {1, 2, 3, 5, 70, 3000, 9000};
    const double strides[] = {16, 64, 128, 4096, 8192};
    for (PrefetcherKind kind : kinds) {
        for (unsigned degree : {1u, 4u, 8u}) {
            for (double stride : strides) {
                for (double n : elements) {
                    // Code walks from one line to past L2, so the code
                    // fills evict prefetched overshoot lines.
                    for (double code : {64.0, 300.0 * 1024}) {
                        expectStateEquivalence(
                            prefetchConfigFor(kind, degree),
                            tlbConfigFor(0),
                            profileFor(stride, stride * n, code),
                            uarch::prefetcherKindName(kind) + "/d" +
                                std::to_string(degree) + "/stride" +
                                std::to_string(static_cast<int>(stride)) +
                                "/n" + std::to_string(static_cast<int>(n)) +
                                "/code" +
                                std::to_string(static_cast<int>(code)));
                        if (::testing::Test::HasFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(PrewarmEquivalence, PrefetchRunningOffTheAddressDomain)
{
    // The last data region filled up to trace::kAddressLimit, one L2 set
    // count (2^14 lines) per element: the stride engine runs one
    // element ahead, so the replay repeats a period over the region and
    // the last demand's target is the limit itself.  Both paths must
    // drop it, and count it, alike.
    uarch::CacheHierarchyConfig caches =
        prefetchConfigFor(uarch::PrefetcherKind::Stride, 1);
    caches.l2 = CacheConfig{"L2", 1024 * 1024, 1, 64, ReplacementPolicy::Lru};
    caches.l3 =
        CacheConfig{"L3", 16 * 1024 * 1024, 16, 64, ReplacementPolicy::Lru};
    trace::WorkloadProfile profile = profileFor(1 << 20, 0, 64, 0);
    profile.memory.data[3].bytes =
        static_cast<double>(trace::kDataRegionStride);

    obs::Counter &drops =
        obs::Registry::global().counter("uarch.prefetch.out_of_domain");
    const std::uint64_t before = drops.value();
    expectStateEquivalence(caches, tlbConfigFor(0), profile, "domain-top");
    // One drop on each path.
    EXPECT_EQ(drops.value() - before, 2u);
}

TEST(PrewarmEquivalence, PrefetchRegionsOfMixedStrides)
{
    // The shipped shape — three line-stride sets below one page-stride
    // set — with the engines' state carried across region boundaries,
    // plus a two-level machine whose L2 misses go straight to DRAM.
    for (auto kind : {uarch::PrefetcherKind::NextLine,
                      uarch::PrefetcherKind::Stride,
                      uarch::PrefetcherKind::Stream}) {
        trace::WorkloadProfile profile;
        profile.name = "mixed";
        const double bytes[] = {8 * 1024, 96 * 1024, 700 * 1024,
                                40.0 * 4096};
        const double strides[] = {64, 64, 64, 4096};
        for (std::size_t i = 0; i < profile.memory.data.size(); ++i) {
            profile.memory.data[i].bytes = i < 4 ? bytes[i] : 1e12;
            profile.memory.data[i].stride_bytes = i < 4 ? strides[i] : 64;
        }
        profile.memory.code_bytes = 96 * 1024;
        uarch::CacheHierarchyConfig caches =
            prefetchConfigFor(kind, 4);
        expectStateEquivalence(caches, tlbConfigFor(0), profile,
                               uarch::prefetcherKindName(kind));
        caches.l3.reset();
        caches.l2 = CacheConfig{"L2", 4 * 1024 * 1024, 16, 64,
                                ReplacementPolicy::Lru};
        expectStateEquivalence(caches, tlbConfigFor(1), profile,
                               uarch::prefetcherKindName(kind) + "/no-l3");
    }
}

TEST(PrewarmEquivalence, PrefetchOutsideTheProofFallsBackUntouched)
{
    // A 64-set L2 cannot hold the stream engine's run-ahead window:
    // a prefetched line could be evicted before its demand, so apply()
    // must refuse and mutate nothing.
    uarch::CacheHierarchyConfig caches =
        prefetchConfigFor(uarch::PrefetcherKind::Stream, 4);
    caches.l2 = CacheConfig{"L2", 16 * 1024, 4, 64, ReplacementPolicy::Lru};
    trace::WorkloadProfile profile = profileFor(64, 64 * 1024, 4096);
    expectRefusedUntouched(caches, profile,
                           uarch::PrewarmSolver::Refusal::PrefetchShape);

    // A tree-PLRU L2 would be touched by the demand hits.
    caches.l2 = CacheConfig{"L2", 256 * 1024, 4, 64,
                            ReplacementPolicy::TreePlru};
    expectRefusedUntouched(caches, profile,
                           uarch::PrewarmSolver::Refusal::PrefetchPolicy);
}

/** Every refusal reason's counter, in enum order. */
std::vector<obs::Counter *>
refusalCounters()
{
    using Refusal = uarch::PrewarmSolver::Refusal;
    std::vector<obs::Counter *> counters;
    for (auto reason = static_cast<int>(Refusal::Touched);
         reason <= static_cast<int>(Refusal::TickRange); ++reason)
        counters.push_back(&obs::Registry::global().counter(
            std::string("uarch.prewarm.refused.") +
            uarch::PrewarmSolver::refusalName(
                static_cast<Refusal>(reason))));
    return counters;
}

std::vector<std::uint64_t>
counterValues(const std::vector<obs::Counter *> &counters)
{
    std::vector<std::uint64_t> values;
    for (const obs::Counter *counter : counters)
        values.push_back(counter->value());
    return values;
}

TEST(PrewarmEquivalence, ObsCountersRecordTheDecision)
{
    obs::Counter &analytic =
        obs::Registry::global().counter("uarch.prewarm.analytic");
    obs::Counter &walked =
        obs::Registry::global().counter("uarch.prewarm.walked");
    obs::Counter &touched =
        obs::Registry::global().counter("uarch.prewarm.refused.touched");
    const std::vector<obs::Counter *> refused = refusalCounters();

    const trace::WorkloadProfile &profile =
        suites::spec2017().front().profile;
    uarch::SimulationConfig config;
    config.instructions = 1'000;
    config.warmup = 200;

    // Every shipped machine — profiling, memory-centric (way
    // prediction, DRAM, the three prefetch engines) and the prefetch
    // ablation — is in the provable regime for a cold hierarchy.
    for (const uarch::MachineConfig &machine : shippedMachines()) {
        std::uint64_t analytic_before = analytic.value();
        std::uint64_t walked_before = walked.value();
        std::vector<std::uint64_t> refused_before = counterValues(refused);
        uarch::simulate(profile, machine, config);
        EXPECT_EQ(analytic.value(), analytic_before + 1) << machine.name;
        EXPECT_EQ(walked.value(), walked_before) << machine.name;
        EXPECT_EQ(counterValues(refused), refused_before) << machine.name;
    }

    // Phased runs walk from phase 2 on (touched hierarchy): shipped
    // fallback coverage, counted per phase and attributed to its
    // reason.
    for (const uarch::MachineConfig &machine :
         {suites::profilingMachines().front(),
          suites::memoryCentricMachines().back()}) {
        trace::PhasedWorkload phased = trace::derivePhases(profile, 3);
        std::uint64_t analytic_before = analytic.value();
        std::uint64_t walked_before = walked.value();
        std::uint64_t touched_before = touched.value();
        std::vector<std::uint64_t> refused_before = counterValues(refused);
        uarch::simulatePhased(phased, machine, config);
        EXPECT_EQ(analytic.value(), analytic_before + 1) << machine.name;
        EXPECT_EQ(walked.value(), walked_before + 2) << machine.name;
        EXPECT_EQ(touched.value(), touched_before + 2) << machine.name;
        std::vector<std::uint64_t> refused_after = counterValues(refused);
        refused_after.front() -= 2; // Touched is the first reason
        EXPECT_EQ(refused_after, refused_before) << machine.name;
    }
}

TEST(PrewarmEquivalence, ReproSizedCampaignRecordsNoRefusals)
{
    // Every machine the reproductions simulate, over the CPU2017,
    // CPU2006 and emerging models: 12 x 80 = 960 cold prewarms, the
    // size of a repro-cold pass (949).  None may fall back.
    obs::Counter &analytic =
        obs::Registry::global().counter("uarch.prewarm.analytic");
    obs::Counter &walked =
        obs::Registry::global().counter("uarch.prewarm.walked");
    const std::vector<obs::Counter *> refused = refusalCounters();
    std::vector<suites::BenchmarkInfo> models = suites::spec2017();
    for (const auto &b : suites::spec2006())
        models.push_back(b);
    for (const auto &b : suites::emergingBenchmarks())
        models.push_back(b);

    uarch::SimulationConfig config;
    config.instructions = 500;
    config.warmup = 100;
    std::uint64_t analytic_before = analytic.value();
    std::uint64_t walked_before = walked.value();
    std::vector<std::uint64_t> refused_before = counterValues(refused);
    std::uint64_t runs = 0;
    for (const uarch::MachineConfig &machine : shippedMachines()) {
        for (const suites::BenchmarkInfo &model : models) {
            uarch::simulate(model.profile, machine, config);
            ++runs;
        }
    }
    EXPECT_EQ(analytic.value(), analytic_before + runs);
    EXPECT_EQ(walked.value(), walked_before);
    EXPECT_EQ(counterValues(refused), refused_before);
}

} // namespace
