/**
 * @file
 * Tests for the parallel simulation engine: parallelFor, bit-identical
 * campaign results for any job count, thread safety of the
 * Characterizer memo cache, and independence of concurrent campaigns.
 *
 * These tests carry the ctest label `parallel` so tier-1 verification
 * can run them under ThreadSanitizer:
 *   cmake -B build-tsan -DSPECLENS_SANITIZE=thread
 *   ctest --test-dir build-tsan -L parallel
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/parallel.h"
#include "core/service_context.h"
#include "suites/machines.h"
#include "suites/spec2017.h"

namespace speclens {
namespace core {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> visits(kCount);
    parallelFor(kCount, 8, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, SingleJobRunsInOrderOnCallingThread)
{
    std::vector<std::size_t> order;
    std::thread::id caller = std::this_thread::get_id();
    parallelFor(64, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, ZeroCountIsANoop)
{
    parallelFor(0, 8, [&](std::size_t) { FAIL(); });
}

TEST(ParallelForTest, PropagatesBodyException)
{
    EXPECT_THROW(
        parallelFor(100, 4,
                    [](std::size_t i) {
                        if (i == 37)
                            throw std::runtime_error("body failed");
                    }),
        std::runtime_error);
}

/** Small campaign: first benchmarks of CPU2017 on all 7 machines. */
std::vector<suites::BenchmarkInfo>
smallSuite(std::size_t n)
{
    std::vector<suites::BenchmarkInfo> suite = suites::spec2017();
    suite.resize(n);
    return suite;
}

CharacterizationConfig
smallConfig(std::size_t jobs)
{
    CharacterizationConfig config;
    config.instructions = 8'000;
    config.warmup = 2'000;
    config.jobs = jobs;
    return config;
}

/** Byte-level equality, strictest possible determinism check. */
bool
byteIdentical(const stats::Matrix &a, const stats::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(double)) == 0;
}

// Results are bit-identical for any job count (1, 2, 8 and 0, one per
// hardware thread) at each of two seed salts, and the salt reaches the
// generator: the two salts' matrices differ.
TEST(CharacterizerParallelTest, FeatureMatrixBitIdenticalAcrossJobCounts)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(6);
    auto matrixFor = [&suite](std::size_t jobs, std::uint64_t salt) {
        CharacterizationConfig config = smallConfig(jobs);
        config.seed_salt = salt;
        Characterizer characterizer(suites::profilingMachines(), config);
        return characterizer.featureMatrix(suite);
    };
    std::vector<stats::Matrix> by_salt;
    for (std::uint64_t salt : {0u, 1u}) {
        stats::Matrix jobs1 = matrixFor(1, salt);
        for (std::size_t jobs : {2u, 8u, 0u})
            EXPECT_TRUE(byteIdentical(jobs1, matrixFor(jobs, salt)))
                << "salt " << salt << ", jobs " << jobs;
        by_salt.push_back(std::move(jobs1));
    }
    EXPECT_FALSE(byteIdentical(by_salt[0], by_salt[1]));
}

// The old unordered_set prefetch tracker made the memory-centric
// counters depend on traversal order once its wipe threshold landed;
// the per-slot bits must stay bit-identical for any job count.
TEST(CharacterizerParallelTest, PrefetchCountersBitIdenticalAcrossJobCounts)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(4);
    auto countersFor = [&suite](std::size_t jobs) {
        Characterizer characterizer(suites::memoryCentricMachines(),
                                    smallConfig(jobs));
        characterizer.prepare(suite);
        std::vector<std::uint64_t> out;
        for (const suites::BenchmarkInfo &b : suite)
            for (std::size_t m = 0; m < characterizer.machines().size();
                 ++m) {
                const uarch::PerfCounters &c =
                    characterizer.simulation(b, m).counters;
                out.insert(out.end(),
                           {c.prefetch_fills, c.prefetch_useful,
                            c.prefetch_evicted_unused, c.way_pred_hits,
                            c.way_pred_mispredicts, c.dram_accesses,
                            c.dram_row_hits, c.dram_busy_cycles,
                            c.dram_budget_cycles});
            }
        return out;
    };
    std::vector<std::uint64_t> jobs1 = countersFor(1);
    EXPECT_EQ(jobs1, countersFor(2));
    EXPECT_EQ(jobs1, countersFor(6));
}

TEST(CharacterizerParallelTest, PrepareFillsCacheAndMatchesOnDemand)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(4);

    Characterizer parallel(suites::profilingMachines(), smallConfig(8));
    parallel.prepare(suite);
    EXPECT_EQ(parallel.cachedMeasurements(),
              suite.size() * parallel.machines().size());

    Characterizer serial(suites::profilingMachines(), smallConfig(1));
    for (std::size_t b = 0; b < suite.size(); ++b) {
        for (std::size_t m = 0; m < parallel.machines().size(); ++m) {
            MetricVector expected = serial.metrics(suite[b], m);
            MetricVector got = parallel.metrics(suite[b], m);
            EXPECT_EQ(std::memcmp(expected.values.data(),
                                  got.values.data(),
                                  sizeof(expected.values)),
                      0)
                << suite[b].name << " machine " << m;
        }
    }
}

TEST(CharacterizerParallelTest, PrepareRejectsBadMachineIndex)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(1);
    Characterizer characterizer(suites::profilingMachines(),
                                smallConfig(2));
    EXPECT_THROW(characterizer.prepare(suite, {99}, 2),
                 std::out_of_range);
}

TEST(CharacterizerParallelTest, ConcurrentMetricsCallsAreSafe)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(3);
    std::size_t n_machines = suites::profilingMachines().size();

    // Serial reference values, from an independent characterizer.
    Characterizer reference(suites::profilingMachines(),
                            smallConfig(1));
    std::vector<MetricVector> expected;
    for (const suites::BenchmarkInfo &benchmark : suite)
        for (std::size_t m = 0; m < n_machines; ++m)
            expected.push_back(reference.metrics(benchmark, m));

    // Eight threads hammer one shared characterizer, starting cold so
    // cache misses, concurrent inserts and hits all happen, each
    // thread walking the pairs from a different starting offset.
    Characterizer shared(suites::profilingMachines(), smallConfig(1));
    constexpr int kThreads = 8;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    std::size_t n_pairs = suite.size() * n_machines;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (std::size_t k = 0; k < n_pairs; ++k) {
                std::size_t pair =
                    (k + static_cast<std::size_t>(t) * 3) % n_pairs;
                std::size_t b = pair / n_machines;
                std::size_t m = pair % n_machines;
                MetricVector got = shared.metrics(suite[b], m);
                if (std::memcmp(got.values.data(),
                                expected[pair].values.data(),
                                sizeof(got.values)) != 0)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(shared.cachedMeasurements(), n_pairs);
}

/** Run @p a and @p b on two threads released together. */
template <typename A, typename B>
void
runTogether(A a, B b)
{
    std::atomic<int> ready{0};
    auto start = [&ready]() {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        } // spin: maximise overlap
    };
    std::thread first([&]() {
        start();
        a();
    });
    std::thread second([&]() {
        start();
        b();
    });
    first.join();
    second.join();
}

// Two callers preparing overlapping pair sets at once run each distinct
// pair exactly once.
TEST(MemoProtocolTest, OverlappingPreparesRunEachPairOnce)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(4);
    const std::vector<suites::BenchmarkInfo> front(suite.begin(),
                                                   suite.begin() + 3);
    const std::vector<suites::BenchmarkInfo> back(suite.begin() + 1,
                                                  suite.end());
    Characterizer characterizer(suites::profilingMachines(),
                                smallConfig(3));
    runTogether([&]() { characterizer.prepare(front); },
                [&]() { characterizer.prepare(back); });
    const std::size_t pairs =
        suite.size() * characterizer.machines().size();
    EXPECT_EQ(characterizer.simulationsRun(), pairs);
    EXPECT_EQ(characterizer.cachedMeasurements(), pairs);

    // Everything is memoised now: another overlapping round runs
    // nothing.
    runTogether([&]() { characterizer.prepare(back); },
                [&]() { characterizer.prepare(front); });
    EXPECT_EQ(characterizer.simulationsRun(), pairs);
}

// Campaigns on one context share no work queue: a small campaign
// started while a large one is running returns once its own pairs are
// done, long before the large one finishes.
TEST(MemoProtocolTest, ConcurrentCampaignsOnOneContextDoNotWaitOnEachOther)
{
    ServiceConfig config;
    config.characterization.instructions = 20'000;
    config.characterization.warmup = 5'000;
    config.characterization.jobs = 2;
    ServiceContext context(config);
    Characterizer &big = context.characterizerFor(context.profilingMachines());
    Characterizer &small = context.characterizerFor(context.memoryMachines());
    const std::size_t big_pairs =
        context.cpu2017().size() * big.machines().size();

    std::thread campaign([&]() { big.prepare(context.cpu2017()); });
    while (big.simulationsRun() == 0)
        std::this_thread::yield();
    small.prepare({context.cpu2017().front()});
    const std::size_t big_done = big.simulationsRun();
    campaign.join();

    EXPECT_EQ(small.simulationsRun(), small.machines().size());
    EXPECT_LT(big_done, big_pairs);
    EXPECT_EQ(big.simulationsRun(), big_pairs);
}

// A pair whose measurement throws fails every caller that asked for it,
// the one that ran it and the one that awaited it, releases its claim
// (the other pairs of the batch still land), and is measured afresh by
// a later call.
TEST(MemoProtocolTest, ThrowingPairRethrowsInEveryCallerAndIsRetried)
{
    const uarch::MachineConfig good = suites::profilingMachines().front();
    uarch::MachineConfig broken = good;
    broken.short_name = "broken";
    // No predictor has this kind: simulate() throws building it.
    broken.predictor = static_cast<uarch::PredictorKind>(99);
    Characterizer characterizer({good, broken}, smallConfig(2));
    const std::vector<suites::BenchmarkInfo> suite = smallSuite(1);

    std::atomic<int> failures{0};
    auto attempt = [&]() {
        try {
            characterizer.prepare(suite);
        } catch (const std::invalid_argument &) {
            failures.fetch_add(1);
        }
    };
    runTogether(attempt, attempt);
    EXPECT_EQ(failures.load(), 2);
    EXPECT_EQ(characterizer.cachedMeasurements(), 1u);
    EXPECT_EQ(characterizer.simulationsRun(), 1u);
    EXPECT_THROW(characterizer.simulation(suite[0], 1),
                 std::invalid_argument);

    // Give the retry something to find: a store entry under the broken
    // pair's key.  A later call claims the pair again and loads it.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "speclens_memo_protocol_retry_test";
    std::filesystem::remove_all(dir);
    auto store = std::make_shared<CampaignStore>(dir.string());
    const uarch::SimulationResult stored = uarch::simulate(
        suite[0].profile, good, smallConfig(1).simulationConfig());
    ASSERT_TRUE(store->save(characterizer.storeKey(suite[0], 1), stored));
    characterizer.attachStore(store);
    EXPECT_TRUE(uarch::bitIdentical(characterizer.simulation(suite[0], 1),
                                    stored));
    EXPECT_EQ(characterizer.cachedMeasurements(), 2u);
    EXPECT_EQ(characterizer.simulationsRun(), 1u);
    characterizer.attachStore(nullptr);
    std::filesystem::remove_all(dir);
}

// ----- One memo per ServiceContext -----------------------------------

/** A context at the small window over a fresh store named @p test. */
ServiceConfig
sharingConfig(const std::string &test)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("speclens_memo_sharing_" + test);
    std::filesystem::remove_all(dir);
    ServiceConfig config;
    config.characterization = smallConfig(2);
    config.store_dir = dir.string();
    return config;
}

// Every sensitivity machine is a profiling machine, so once the
// profiling pool has measured a suite, the sensitivity pool finds all
// its pairs in the context's memo: the store is not read, nothing is
// simulated, and the memo does not grow.
TEST(MemoSharingTest, SensitivityPoolReusesProfilingTwins)
{
    const ServiceConfig config = sharingConfig("twins");
    {
        ServiceContext context(config);
        const std::vector<suites::BenchmarkInfo> suite = smallSuite(3);
        context.characterizerFor(context.profilingMachines()).prepare(suite);
        const StoreCounters before = context.store()->counters();
        const std::size_t simulated = context.simulationsRun();
        const std::size_t cached = context.cachedMeasurements();
        EXPECT_EQ(simulated, suite.size() * 7);

        Characterizer &sensitivity =
            context.characterizerFor(context.sensitivityMachines());
        sensitivity.prepare(suite);
        const StoreCounters after = context.store()->counters();
        EXPECT_EQ(after.hits, before.hits);
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_EQ(after.computed, before.computed);
        EXPECT_EQ(context.simulationsRun(), simulated);
        EXPECT_EQ(sensitivity.simulationsRun(), 0u);
        EXPECT_EQ(context.cachedMeasurements(), cached);
    }
    std::filesystem::remove_all(config.store_dir);
}

// Two threads preparing the profiling and the sensitivity pool over the
// same suite at once, cold and then warm: the cold context simulates
// each distinct pair once (a twin the other pool has in flight is
// awaited), and a second context over the filled store reads each
// stored pair exactly once.
TEST(MemoSharingTest, ConcurrentPoolsMeasureEachDistinctPairOnce)
{
    const ServiceConfig config = sharingConfig("concurrent");
    const std::vector<suites::BenchmarkInfo> suite = smallSuite(4);
    const std::size_t distinct = suite.size() * 7;
    auto bothPools = [&suite](ServiceContext &context) {
        Characterizer &profiling =
            context.characterizerFor(context.profilingMachines());
        Characterizer &sensitivity =
            context.characterizerFor(context.sensitivityMachines());
        runTogether([&]() { profiling.prepare(suite); },
                    [&]() { sensitivity.prepare(suite); });
    };
    {
        ServiceContext cold(config);
        bothPools(cold);
        EXPECT_EQ(cold.simulationsRun(), distinct);
        EXPECT_EQ(cold.cachedMeasurements(), distinct);
        EXPECT_EQ(cold.store()->counters().computed, distinct);
        EXPECT_EQ(cold.store()->entryCount(), distinct);
    }
    {
        ServiceContext warm(config);
        bothPools(warm);
        EXPECT_EQ(warm.simulationsRun(), 0u);
        EXPECT_EQ(warm.store()->counters().hits, distinct);
        EXPECT_EQ(warm.store()->counters().misses, 0u);
        EXPECT_EQ(warm.cachedMeasurements(), distinct);
    }
    std::filesystem::remove_all(config.store_dir);
}

// A memo is only shared at one window: a Characterizer at another
// window would read results measured at the wrong length.
TEST(MemoSharingTest, SharedMemoRejectsAnotherWindow)
{
    auto memo = std::make_shared<ResultMemo>(smallConfig(1));
    EXPECT_NO_THROW(
        Characterizer(suites::profilingMachines(), smallConfig(4), memo));
    CharacterizationConfig longer = smallConfig(1);
    longer.instructions *= 2;
    EXPECT_THROW(Characterizer(suites::profilingMachines(), longer, memo),
                 std::invalid_argument);
}

} // namespace
} // namespace core
} // namespace speclens
