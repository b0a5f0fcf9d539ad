/**
 * @file
 * Analytic-vs-walking prewarm equivalence.
 *
 * PrewarmSolver::apply() claims to reconstruct the EXACT state the
 * walking prewarm leaves — tags, replacement stamps, tree-PLRU words,
 * cold-fill counters, ticks, last-access indices and every statistic —
 * or to mutate nothing and return false.  These tests compare the two
 * paths' full state digests across every replacement policy, TLB
 * geometry and stride regime, and pin the all-or-nothing fallback
 * contract for patterns outside the provable regime.  End to end, the
 * reference-model parity sweep (parity_test.cpp) always walks, so it
 * holds the analytic path to the walk on every shipped machine,
 * including degenerate warm-up windows.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "trace/phased_workload.h"
#include "uarch/prewarm.h"
#include "uarch/simulation.h"

using namespace speclens;
using uarch::CacheConfig;
using uarch::ReplacementPolicy;

namespace {

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
 * bases sit 2^38 apart (all alias set 0 of every modelled structure),
 * so Random-policy sweeps need a single small active region to stay
 * below the no-eviction provability bound.
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

    EXPECT_EQ(uarch::PrewarmSolver::stateDigest(analytic_caches,
                                                analytic_tlbs),
              uarch::PrewarmSolver::stateDigest(walked_caches,
                                                walked_tlbs))
        << label << ": analytic state differs from the walk";
}

constexpr ReplacementPolicy kPolicies[] = {
    ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
    ReplacementPolicy::TreePlru, ReplacementPolicy::Random};

const char *
policyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru: return "lru";
      case ReplacementPolicy::Fifo: return "fifo";
      case ReplacementPolicy::TreePlru: return "treeplru";
      case ReplacementPolicy::Random: return "random";
    }
    return "?";
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
                // Random replacement is only provable without
                // evictions.  The four region bases all alias set 0 of
                // every power-of-two structure here, so Random gets a
                // single tiny active region (1-2 elements) to stay
                // under each set's associativity; eviction-heavy
                // footprints for the rest.
                bool random = policy == ReplacementPolicy::Random;
                int elements = stride <= 128 ? 2 : 1;
                double bytes = random ? stride * elements : 48 * 1024;
                double code = random ? 512 : 24 * 1024;
                expectStateEquivalence(
                    cacheConfigFor(policy), tlbConfigFor(tlb_variant),
                    profileFor(stride, bytes, code, random ? 1 : 4),
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
        bool random = policy == ReplacementPolicy::Random;
        expectStateEquivalence(
            caches, tlbConfigFor(0),
            profileFor(64, random ? 512 : 48 * 1024, random ? 512 : 8192),
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
    std::vector<std::uint64_t> fresh =
        uarch::PrewarmSolver::stateDigest(hierarchy, tlb_hierarchy);
    EXPECT_FALSE(uarch::PrewarmSolver::apply(hierarchy, tlb_hierarchy,
                                             profile, 4096));
    EXPECT_EQ(uarch::PrewarmSolver::stateDigest(hierarchy, tlb_hierarchy),
              fresh);
}

TEST(PrewarmEquivalence, RandomOverflowFallsBackUntouched)
{
    // A footprint that overflows a Random set's ways would need RNG
    // draws the closed form cannot reproduce: refuse, mutate nothing.
    uarch::CacheHierarchyConfig caches =
        cacheConfigFor(ReplacementPolicy::Random);
    uarch::TlbHierarchyConfig tlbs = tlbConfigFor(0);
    trace::WorkloadProfile profile = profileFor(64, 16 * 1024, 16 * 1024);

    uarch::CacheHierarchy hierarchy(caches);
    uarch::TlbHierarchy tlb_hierarchy(tlbs);
    std::vector<std::uint64_t> fresh =
        uarch::PrewarmSolver::stateDigest(hierarchy, tlb_hierarchy);
    EXPECT_FALSE(uarch::PrewarmSolver::apply(hierarchy, tlb_hierarchy,
                                             profile, 1 << 20));
    EXPECT_EQ(uarch::PrewarmSolver::stateDigest(hierarchy, tlb_hierarchy),
              fresh);
}

#ifndef SPECLENS_METRICS_OFF
TEST(PrewarmEquivalence, ObsCountersRecordTheDecision)
{
    obs::Counter &analytic =
        obs::Registry::global().counter("uarch.prewarm.analytic");
    obs::Counter &walked =
        obs::Registry::global().counter("uarch.prewarm.walked");

    const trace::WorkloadProfile &profile =
        suites::spec2017().front().profile;
    const uarch::MachineConfig &machine =
        suites::profilingMachines().front();
    uarch::SimulationConfig config;
    config.instructions = 1'000;
    config.warmup = 200;

    // Shipped machines and profiles are fully in the provable regime.
    std::uint64_t analytic_before = analytic.value();
    std::uint64_t walked_before = walked.value();
    uarch::simulate(profile, machine, config);
    EXPECT_EQ(analytic.value(), analytic_before + 1);
    EXPECT_EQ(walked.value(), walked_before);

    // Phased runs walk from phase 2 on (touched hierarchy): shipped
    // fallback coverage, counted per phase.
    trace::PhasedWorkload phased = trace::derivePhases(profile, 3);
    analytic_before = analytic.value();
    walked_before = walked.value();
    uarch::simulatePhased(phased, machine, config);
    EXPECT_EQ(analytic.value(), analytic_before + 1);
    EXPECT_EQ(walked.value(), walked_before + 2);
}
#endif

} // namespace
