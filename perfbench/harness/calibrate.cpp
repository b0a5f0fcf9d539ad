/**
 * @file
 * Calibration-loop implementation.
 */

#include "calibrate.h"

#include <cstdint>
#include <thread>
#include <vector>

#include "tracer.h"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = 1u << 16; // 256 KiB of uint32
constexpr std::uint64_t kSteps = 6'000'000;

/** One run of the loop on the calling thread; returns its seconds. */
double
loopSeconds()
{
    std::vector<std::uint32_t> table(kTableWords, 1u);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint32_t acc = 0;
    std::uint64_t start = nowNs();
    for (std::uint64_t k = 0; k < kSteps; ++k) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        auto index = static_cast<std::size_t>(x >> 46) & (kTableWords - 1);
        table[index] += static_cast<std::uint32_t>(x) ^ acc;
        acc += table[(index * 7 + 3) & (kTableWords - 1)];
    }
    double seconds = static_cast<double>(nowNs() - start) * 1e-9;
    // Keep the result observable so the loop is not optimized away.
    volatile std::uint32_t sink = acc;
    (void)sink;
    return seconds;
}

} // namespace

double
calibrationSeconds(std::size_t threads)
{
    if (threads <= 1)
        return loopSeconds();
    std::vector<double> seconds(threads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back([&seconds, t] { seconds[t] = loopSeconds(); });
    for (std::thread &worker : workers)
        worker.join();
    double total = 0.0;
    for (double s : seconds)
        total += s;
    return total / static_cast<double>(threads);
}

} // namespace perfbench
