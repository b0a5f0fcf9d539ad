/**
 * @file
 * Trace generator implementation.
 */

#include "trace_generator.h"

#include <algorithm>

namespace speclens {
namespace trace {

namespace {

/**
 * Share of the non-load/store/branch/fp/simd remainder modelled as
 * OpClass::Other (moves, system instructions) rather than integer ALU.
 */
constexpr double kOtherShareOfRemainder = 0.05;

} // namespace

TraceGenerator::TraceGenerator(const WorkloadProfile &profile,
                               std::uint64_t seed_salt)
    : profile_(profile),
      rng_(stats::combineSeeds(profile.seed(), seed_salt)),
      data_(profile.memory),
      code_(profile.memory),
      branches_(profile.branch, rng_)
{
    profile_.validate();
    const InstructionMix &mix = profile_.mix;
    p_load_ = mix.load;
    p_store_ = p_load_ + mix.store;
    p_branch_ = p_store_ + mix.branch;
    p_fp_ = p_branch_ + mix.fp;
    p_simd_ = p_fp_ + mix.simd;
    p_other_ = p_simd_ + mix.remainder() * kOtherShareOfRemainder;
}

Instruction
TraceGenerator::next()
{
    Instruction inst;
    step(inst.pc, inst.op, inst.address, inst.branch_id, inst.taken,
         inst.kernel);
    return inst;
}

std::size_t
TraceGenerator::fill(RecordBatch &batch, std::uint64_t count)
{
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(count, kRecordBatchCapacity));
    for (std::size_t i = 0; i < n; ++i) {
        bool taken = false, kernel = false;
        step(batch.pc[i], batch.op[i], batch.address[i],
             batch.branch_id[i], taken, kernel);
        batch.flags[i] =
            static_cast<std::uint8_t>((taken ? RecordBatch::kTakenBit : 0) |
                                      (kernel ? RecordBatch::kKernelBit : 0));
    }
    batch.size = n;
    return n;
}

} // namespace trace
} // namespace speclens
