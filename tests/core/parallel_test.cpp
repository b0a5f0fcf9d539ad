/**
 * @file
 * Tests for the parallel simulation engine: the parallelFor/ThreadPool
 * utilities, bit-identical campaign results for any job count, and
 * thread safety of the Characterizer memo cache.
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
#include <thread>
#include <vector>

#include "core/artifact_store.h"
#include "core/characterization.h"
#include "core/parallel.h"
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

TEST(ThreadPoolTest, RunsAllSubmittedTasksAndIsReusable)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> done{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&done]() {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        pool.wait();
        EXPECT_EQ(done.load(), (batch + 1) * 50);
    }
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    pool.submit([]() { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed; the pool keeps working.
    std::atomic<int> done{0};
    pool.submit([&done]() { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 1);
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

TEST(CharacterizerParallelTest, FeatureMatrixBitIdenticalAcrossJobCounts)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(6);
    auto matrixFor = [&suite](std::size_t jobs) {
        Characterizer characterizer(suites::profilingMachines(),
                                    smallConfig(jobs));
        return characterizer.featureMatrix(suite);
    };
    stats::Matrix jobs1 = matrixFor(1);
    stats::Matrix jobs2 = matrixFor(2);
    stats::Matrix jobs8 = matrixFor(8);
    EXPECT_TRUE(byteIdentical(jobs1, jobs2));
    EXPECT_TRUE(byteIdentical(jobs1, jobs8));
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
// pair exactly once, on prepare()'s own threads and on a shared pool.
TEST(MemoProtocolTest, OverlappingPreparesRunEachPairOnce)
{
    std::vector<suites::BenchmarkInfo> suite = smallSuite(4);
    const std::vector<suites::BenchmarkInfo> front(suite.begin(),
                                                   suite.begin() + 3);
    const std::vector<suites::BenchmarkInfo> back(suite.begin() + 1,
                                                  suite.end());
    ThreadPool pool(3);
    for (ThreadPool *shared :
         {static_cast<ThreadPool *>(nullptr), &pool}) {
        Characterizer characterizer(suites::profilingMachines(),
                                    smallConfig(3));
        characterizer.setWorkerPool(shared);
        runTogether([&]() { characterizer.prepare(front); },
                    [&]() { characterizer.prepare(back); });
        const std::size_t pairs =
            suite.size() * characterizer.machines().size();
        EXPECT_EQ(characterizer.simulationsRun(), pairs)
            << (shared ? "pool" : "own threads");
        EXPECT_EQ(characterizer.cachedMeasurements(), pairs);

        // Everything is memoised now: another overlapping round runs
        // nothing.
        runTogether([&]() { characterizer.prepare(back); },
                    [&]() { characterizer.prepare(front); });
        EXPECT_EQ(characterizer.simulationsRun(), pairs);
    }
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

} // namespace
} // namespace core
} // namespace speclens
