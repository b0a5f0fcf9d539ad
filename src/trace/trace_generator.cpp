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
    // The thresholds accumulate in double, exactly as the double
    // compares they replace did, then each becomes its cut.
    const InstructionMix &mix = profile_.mix;
    double p_load = mix.load;
    double p_store = p_load + mix.store;
    double p_branch = p_store + mix.branch;
    double p_fp = p_branch + mix.fp;
    double p_simd = p_fp + mix.simd;
    double p_other = p_simd + mix.remainder() * kOtherShareOfRemainder;
    kernel_cut_ = stats::Rng::cut(profile_.exec.kernel_fraction);
    load_cut_ = stats::Rng::cut(p_load);
    store_cut_ = stats::Rng::cut(p_store);
    branch_cut_ = stats::Rng::cut(p_branch);
    fp_cut_ = stats::Rng::cut(p_fp);
    simd_cut_ = stats::Rng::cut(p_simd);
    other_cut_ = stats::Rng::cut(p_other);
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
