/**
 * @file
 * The serve-warm request mix: the bench_serve_loadtest traffic (60%
 * characterize, 20% subset, 10% sensitivity, 10% stats), with each
 * client's order shuffled by the workload seed.
 */

#ifndef PERFBENCH_MIX_H
#define PERFBENCH_MIX_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

/** Requests per mix block: every block holds the exact 6/2/1/1 mix. */
inline constexpr std::size_t kMixBlock = 10;

/**
 * Request @p index of client @p client in bench/bench_serve_loadtest's
 * deterministic mix (same formula, so the two load the daemon alike).
 */
speclens::serve::Request mixedRequest(std::size_t client, std::size_t index);

/**
 * @p blocks blocks of client @p client's mix, each block's kMixBlock
 * requests shuffled (Fisher-Yates over SplitMix64) by a stream keyed by
 * (@p seed, @p client).  The same arguments give the same schedule.
 */
std::vector<speclens::serve::Request>
clientSchedule(std::uint64_t seed, std::size_t client, std::size_t blocks);

} // namespace perfbench

#endif // PERFBENCH_MIX_H
