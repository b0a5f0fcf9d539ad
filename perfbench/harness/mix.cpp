/**
 * @file
 * Request-mix implementation.
 */

#include "mix.h"

#include <utility>

namespace perfbench {

namespace serve = speclens::serve;

namespace {

/** SplitMix64 step: advances @p state and returns the next value. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

serve::Request
mixedRequest(std::size_t client, std::size_t index)
{
    static const char *kBenchmarks[] = {
        "505.mcf_r", "519.lbm_r", "557.xz_r", "605.mcf_s",
        "523.xalancbmk_r", "508.namd_r", "531.deepsjeng_r",
        "541.leela_r",
    };
    static const char *kCategories[] = {"rate-int", "speed-int",
                                        "rate-fp", "speed-fp"};
    static const char *kMetrics[] = {"branch", "l1d", "dtlb"};

    serve::Request request;
    std::size_t roll = (client * 7 + index) % kMixBlock;
    if (roll < 6) {
        request.op = serve::Op::Characterize;
        request.benchmarks = {kBenchmarks[(client + index) % 8]};
    } else if (roll < 8) {
        request.op = serve::Op::Subset;
        request.category = kCategories[(client + index) % 4];
        request.k = 3;
    } else if (roll < 9) {
        request.op = serve::Op::Sensitivity;
        request.metric = kMetrics[(client + index) % 3];
    } else {
        request.op = serve::Op::Stats;
    }
    return request;
}

std::vector<serve::Request>
clientSchedule(std::uint64_t seed, std::size_t client, std::size_t blocks)
{
    std::uint64_t state = seed * 0x100000001b3ull + client;
    std::vector<serve::Request> schedule;
    schedule.reserve(blocks * kMixBlock);
    for (std::size_t b = 0; b < blocks; ++b) {
        std::size_t first = schedule.size();
        for (std::size_t i = 0; i < kMixBlock; ++i)
            schedule.push_back(mixedRequest(client, b * kMixBlock + i));
        for (std::size_t i = kMixBlock - 1; i > 0; --i) {
            std::size_t j = static_cast<std::size_t>(splitmix64(state) %
                                                     (i + 1));
            std::swap(schedule[first + i], schedule[first + j]);
        }
    }
    return schedule;
}

} // namespace perfbench
