/**
 * @file
 * Per-thread reuse of cache tag/stamp storage (Cache::reserveStorage).
 *
 * A thread that simulates many times hands its caches the same region
 * each time, so the stamp words a simulation starts with are whatever
 * the previous cache — of any geometry — left there.  Results must not
 * depend on that: every run here is held bit-identical to the same
 * pair simulated on a fresh thread, whose region starts out empty.
 * Labelled `parallel` so the ThreadSanitizer job runs it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "suites/machines.h"
#include "suites/spec2017.h"
#include "trace/address_stream.h"
#include "trace/phased_workload.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/prewarm.h"
#include "uarch/simulation.h"
#include "uarch/tlb.h"

#include "../verify/test_access.h"

namespace speclens {
namespace uarch {
namespace {

/** Every prewarm-written field of a hierarchy pair, flattened. */
constexpr auto stateDigest = &verify::StateAuditor::TestAccess::stateDigest;

/** Every shipped machine: 7 profiling, then 4 memory-centric. */
std::vector<MachineConfig>
shippedMachines()
{
    std::vector<MachineConfig> machines = suites::profilingMachines();
    for (const MachineConfig &m : suites::memoryCentricMachines())
        machines.push_back(m);
    return machines;
}

SimulationConfig
window()
{
    SimulationConfig config;
    config.instructions = 12'000;
    config.warmup = 3'000;
    return config;
}

/** @p f's result, computed on a thread that has simulated nothing. */
template <typename F>
auto
onFreshThread(F f)
{
    decltype(f()) out{};
    std::thread([&] { out = f(); }).join();
    return out;
}

const trace::WorkloadProfile &
mcf()
{
    return suites::spec2017Benchmark("505.mcf_r").profile;
}

TEST(LineStorage, OneThreadEveryMachineForwardAndBack)
{
    const std::vector<MachineConfig> machines = shippedMachines();
    std::vector<SimulationResult> fresh;
    for (const MachineConfig &machine : machines)
        fresh.push_back(onFreshThread(
            [&] { return simulate(mcf(), machine, window()); }));

    // A, B, ..., A, then the same list reversed, all on one thread.
    std::vector<std::size_t> order(machines.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    order.push_back(0);
    std::vector<std::size_t> back(order.rbegin(), order.rend());
    order.insert(order.end(), back.begin(), back.end());

    std::vector<SimulationResult> reused(order.size());
    std::thread([&] {
        for (std::size_t i = 0; i < order.size(); ++i)
            reused[i] = simulate(mcf(), machines[order[i]], window());
    }).join();
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_TRUE(bitIdentical(reused[i], fresh[order[i]]))
            << "step " << i << ": " << machines[order[i]].name;
}

TEST(LineStorage, FourThreadsLeaveStaleStampsOfOtherGeometries)
{
    const std::vector<MachineConfig> machines = shippedMachines();
    const std::vector<suites::BenchmarkInfo> benchmarks = {
        suites::spec2017Benchmark("505.mcf_r"),
        suites::spec2017Benchmark("500.perlbench_r"),
        suites::spec2017Benchmark("519.lbm_r")};
    const std::size_t pairs = benchmarks.size() * machines.size();

    std::vector<SimulationResult> fresh(pairs);
    for (std::size_t p = 0; p < pairs; ++p)
        fresh[p] = onFreshThread([&] {
            return simulate(benchmarks[p / machines.size()].profile,
                            machines[p % machines.size()], window());
        });

    // Each thread walks every pair from its own starting point, so the
    // regions hold other geometries' stamps at every step.
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<SimulationResult>> got(
        kThreads, std::vector<SimulationResult>(pairs));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < pairs; ++i) {
                std::size_t p = (i * 7 + t * 5) % pairs;
                got[t][p] =
                    simulate(benchmarks[p / machines.size()].profile,
                             machines[p % machines.size()], window());
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        for (std::size_t p = 0; p < pairs; ++p)
            EXPECT_TRUE(bitIdentical(got[t][p], fresh[p]))
                << "thread " << t << ": "
                << benchmarks[p / machines.size()].profile.name << " on "
                << machines[p % machines.size()].name;
}

TEST(LineStorage, PhasedRunAfterOtherMachines)
{
    const std::vector<MachineConfig> machines = shippedMachines();
    const trace::PhasedWorkload phased = trace::derivePhases(mcf(), 3);
    for (const MachineConfig &machine :
         {machines.front(), machines.back()}) {
        PhasedSimulationResult fresh = onFreshThread(
            [&] { return simulatePhased(phased, machine, window()); });
        PhasedSimulationResult reused;
        std::thread([&] {
            for (const MachineConfig &other : machines)
                simulate(mcf(), other, window());
            reused = simulatePhased(phased, machine, window());
        }).join();
        ASSERT_EQ(reused.per_phase.size(), fresh.per_phase.size());
        for (std::size_t k = 0; k < fresh.per_phase.size(); ++k)
            EXPECT_TRUE(
                bitIdentical(reused.per_phase[k], fresh.per_phase[k]))
                << machine.name << " phase " << k;
    }
}

TEST(LineStorage, TwoHierarchiesAliveAtOnce)
{
    // While one hierarchy holds the thread's region, a second one (and
    // a simulation's own structures) take what room is left, else the
    // heap; the prewarm solver and the walk still agree on them, and
    // the simulation still matches a fresh thread's.
    const std::vector<MachineConfig> machines = shippedMachines();
    for (const MachineConfig &machine : machines) {
        const trace::WorkloadProfile profile =
            transformForMachine(mcf(), machine);
        const std::uint64_t llc_lines =
            (machine.caches.l3 ? machine.caches.l3->size_bytes
                               : machine.caches.l2.size_bytes) /
            trace::kLineBytes;
        SimulationResult fresh = onFreshThread(
            [&] { return simulate(mcf(), machine, window()); });
        std::thread([&] {
            simulate(mcf(), machines.back(), window()); // stale stamps
            CacheHierarchy solved_caches(machine.caches);
            TlbHierarchy solved_tlbs(machine.tlbs);
            CacheHierarchy walked_caches(machine.caches);
            TlbHierarchy walked_tlbs(machine.tlbs);
            ASSERT_TRUE(PrewarmSolver::apply(solved_caches, solved_tlbs,
                                             profile, llc_lines))
                << machine.name;
            PrewarmSolver::walk(walked_caches, walked_tlbs, profile,
                                llc_lines);
            EXPECT_EQ(stateDigest(solved_caches, solved_tlbs),
                      stateDigest(walked_caches, walked_tlbs))
                << machine.name;
            EXPECT_TRUE(
                bitIdentical(simulate(mcf(), machine, window()), fresh))
                << machine.name;
        }).join();
    }
}

TEST(LineStorage, GrowsOncePerThreadAndSize)
{
    obs::Counter &grows =
        obs::Registry::global().counter("uarch.line_storage.grows");
    obs::Gauge &bytes =
        obs::Registry::global().gauge("uarch.line_storage.bytes");
    const std::vector<MachineConfig> machines = shippedMachines();
    std::thread([&] {
        const std::uint64_t before = grows.value();
        for (const MachineConfig &machine : machines)
            simulate(mcf(), machine, window());
        const std::uint64_t first_pass = grows.value() - before;
        EXPECT_GE(first_pass, 1u);
        EXPECT_LE(first_pass, machines.size());
        // Every size is reserved now: a second pass never grows.
        for (const MachineConfig &machine : machines)
            simulate(mcf(), machine, window());
        EXPECT_EQ(grows.value() - before, first_pass);
    }).join();
    EXPECT_GT(bytes.value(), 0.0);
}

/** Every cache and TLB level of @p machine, as cache configs. */
std::vector<CacheConfig>
levelsOf(const MachineConfig &machine)
{
    std::vector<CacheConfig> levels = {machine.caches.l1i,
                                       machine.caches.l1d, machine.caches.l2,
                                       machine.tlbs.itlb.asCacheConfig(),
                                       machine.tlbs.dtlb.asCacheConfig()};
    if (machine.caches.l3)
        levels.push_back(*machine.caches.l3);
    if (machine.tlbs.l2tlb)
        levels.push_back(machine.tlbs.l2tlb->asCacheConfig());
    return levels;
}

TEST(LineStorage, EightBytesPerLine)
{
    // A 32-bit tag and a 32-bit stamp per line, rounded up to 64 bytes.
    std::vector<MachineConfig> machines = shippedMachines();
    for (const MachineConfig &m : suites::sensitivityMachines())
        machines.push_back(m);
    for (const MachineConfig &machine : machines) {
        for (const CacheConfig &level : levelsOf(machine)) {
            const std::uint64_t bytes =
                8 * level.sets() * level.associativity;
            EXPECT_EQ(Cache::storageWords(level) * 8, (bytes + 63) / 64 * 64)
                << machine.name << " " << level.name;
        }
    }

    // A fresh thread maps the machine's summed words once, rounded up
    // to a 4 KiB page.  The gauge is a process-wide high-water, so the
    // exact growth shows only while nothing has reserved before.
    obs::Gauge &bytes =
        obs::Registry::global().gauge("uarch.line_storage.bytes");
    obs::Counter &grows =
        obs::Registry::global().counter("uarch.line_storage.grows");
    const MachineConfig *sparc = nullptr;
    for (const MachineConfig &machine : machines)
        if (machine.short_name == "sparc-iv")
            sparc = &machine;
    ASSERT_NE(sparc, nullptr);
    std::uint64_t words = 0;
    for (const CacheConfig &level : levelsOf(*sparc))
        words += Cache::storageWords(level);
    const double before = bytes.value();
    const std::uint64_t grows_before = grows.value();
    std::thread([&] { simulate(mcf(), *sparc, window()); }).join();
    EXPECT_EQ(grows.value() - grows_before, 1u);
    if (before == 0.0) {
        EXPECT_EQ(bytes.value(),
                  static_cast<double>((words * 8 + 4095) / 4096 * 4096));
    }
}

} // namespace
} // namespace uarch
} // namespace speclens
