/**
 * @file
 * Reference model of the synthetic trace generator: the record stream
 * as TraceGenerator produced it with double compares (uniform() < p)
 * over a plain SplitMix64, before probabilities became integer cuts
 * (stats::Rng::cut) and the generator mixed its output one draw ahead.
 * Test oracle only: TraceGenerator must emit exactly this stream.
 */

#ifndef SPECLENS_TESTS_TRACE_REFERENCE_GENERATOR_H
#define SPECLENS_TESTS_TRACE_REFERENCE_GENERATOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "trace/instruction.h"
#include "trace/workload_profile.h"

namespace speclens {
namespace trace {
namespace reference {

/** SplitMix64, one mix per call, as the generator first drew it. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    bool bernoulli(double p) { return uniform() < p; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** The double-compare generator (see file comment). */
class ReferenceGenerator
{
  public:
    explicit ReferenceGenerator(const WorkloadProfile &profile,
                                std::uint64_t seed_salt = 0);

    Instruction next();

  private:
    struct Region
    {
        std::uint64_t base;
        std::uint64_t elements;
        std::uint64_t stride;
        double cumulative_weight;
        double sequential;
        std::uint64_t cursor = 0;
    };

    struct StaticBranch
    {
        double taken_prob;
        bool patterned;
        std::uint8_t period;
        std::uint16_t pattern;
        std::uint32_t position;
    };

    std::uint64_t dataAddress();
    void takeBranch();
    bool branchOutcome(std::uint32_t &id);

    WorkloadProfile profile_;
    SplitMix64 rng_;

    std::array<Region, 4> regions_{};

    std::uint64_t code_base_;
    std::uint64_t code_size_;
    std::uint64_t hot_size_;
    double locality_;
    std::uint64_t pc_;

    std::vector<StaticBranch> branches_;
    std::vector<std::uint32_t> sequence_;
    std::size_t position_ = 0;
    std::uint64_t step_ = 0;

    double p_load_, p_store_, p_branch_, p_fp_, p_simd_, p_other_;
};

} // namespace reference
} // namespace trace
} // namespace speclens

#endif // SPECLENS_TESTS_TRACE_REFERENCE_GENERATOR_H
