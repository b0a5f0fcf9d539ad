/**
 * @file
 * Parallelism utilities implementation.
 */

#include "parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace speclens {
namespace core {

namespace {

/**
 * Instruments for the fan-out engine, resolved once per process.
 * Wrapped in a struct so one function-local static covers them all.
 */
struct ParallelInstruments
{
    obs::Counter &batches;
    obs::Counter &tasks;
    obs::Timing &task_time;
    obs::Timing &batch_time;
    obs::Gauge &utilization;

    static const ParallelInstruments &
    get()
    {
        static ParallelInstruments instruments{
            obs::Registry::global().counter("core.parallel.batches"),
            obs::Registry::global().counter("core.parallel.tasks"),
            obs::Registry::global().timing("core.parallel.task"),
            obs::Registry::global().timing("core.parallel.batch"),
            obs::Registry::global().gauge("core.parallel.utilization"),
        };
        return instruments;
    }
};

} // namespace

std::size_t
defaultJobCount()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

std::size_t
resolveJobCount(std::size_t jobs)
{
    return jobs == 0 ? defaultJobCount() : jobs;
}

void
parallelFor(std::size_t count, std::size_t jobs,
            const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return; // Nothing to fan out: no batch to record.
    std::size_t threads = std::min(resolveJobCount(jobs), count);
    const ParallelInstruments &instruments = ParallelInstruments::get();
    instruments.batches.add();
    instruments.tasks.add(count);
    std::uint64_t batch_start = obs::nowNs();
    std::atomic<std::uint64_t> busy_ns{0};

    auto timedBody = [&](std::size_t i) {
        std::uint64_t t0 = obs::nowNs();
        body(i);
        std::uint64_t elapsed = obs::nowNs() - t0;
        instruments.task_time.record(elapsed);
        busy_ns.fetch_add(elapsed, std::memory_order_relaxed);
    };

    auto finishBatch = [&]() {
        std::uint64_t wall = obs::nowNs() - batch_start;
        instruments.batch_time.record(wall);
        // Fraction of worker wall-time spent inside task bodies —
        // 1.0 means no claim/join overhead and no idle tail.
        if (wall > 0 && threads > 0)
            instruments.utilization.set(
                static_cast<double>(
                    busy_ns.load(std::memory_order_relaxed)) /
                (static_cast<double>(wall) *
                 static_cast<double>(threads)));
    };

    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            timedBody(i);
        finishBatch();
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto work = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count || failed.load(std::memory_order_relaxed))
                return;
            try {
                timedBody(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 0; t + 1 < threads; ++t)
        helpers.emplace_back(work);
    work(); // The caller is worker zero.
    for (std::thread &helper : helpers)
        helper.join();
    finishBatch();

    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace core
} // namespace speclens
