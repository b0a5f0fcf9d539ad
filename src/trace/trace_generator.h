/**
 * @file
 * Streaming synthetic instruction-trace generator.
 *
 * Combines the instruction-mix, address-stream and branch-stream models
 * of a WorkloadProfile into a single deterministic stream of
 * Instruction records.  The stream for a given (profile, seed) pair is
 * bit-identical across runs and platforms, so every table and figure
 * the benchmark harness regenerates is exactly reproducible.
 */

#ifndef SPECLENS_TRACE_TRACE_GENERATOR_H
#define SPECLENS_TRACE_TRACE_GENERATOR_H

#include <cstdint>

#include "stats/rng.h"
#include "trace/address_stream.h"
#include "trace/branch_stream.h"
#include "trace/instruction.h"
#include "trace/record_batch.h"
#include "trace/workload_profile.h"

namespace speclens {
namespace trace {

/** Deterministic generator of synthetic dynamic instruction streams. */
class TraceGenerator
{
  public:
    /**
     * @param profile Validated workload model (validate() is called).
     * @param seed_salt Extra entropy mixed into the profile's own seed;
     *        pass different salts to obtain statistically independent
     *        re-runs of the same workload.
     */
    explicit TraceGenerator(const WorkloadProfile &profile,
                            std::uint64_t seed_salt = 0);

    /**
     * Emit the next record into the out-parameters (fields as in
     * Instruction).  This is the one record primitive: next() and
     * fill() wrap it, and the simulation driver calls it directly,
     * once per record.
     */
    void step(std::uint64_t &pc, OpClass &op, std::uint64_t &address,
              std::uint32_t &branch_id, bool &taken, bool &kernel);

    /** Generate the next dynamic instruction. */
    Instruction next();

    /**
     * Generate up to min(@p count, capacity) records into @p batch,
     * overwriting its previous contents, and return the number
     * produced.  The record stream is bit-identical to repeated next()
     * calls — both are emitted by step().
     */
    std::size_t fill(RecordBatch &batch, std::uint64_t count);

    /** The profile this generator draws from. */
    const WorkloadProfile &profile() const { return profile_; }

  private:
    WorkloadProfile profile_;
    stats::Rng rng_;
    DataAddressStream data_;
    CodeAddressStream code_;
    BranchStream branches_;

    // Integer cuts (stats::Rng::cut) of the kernel fraction and of the
    // cumulative op-class thresholds, precomputed from the profile.
    std::uint64_t kernel_cut_;
    std::uint64_t load_cut_;
    std::uint64_t store_cut_;
    std::uint64_t branch_cut_;
    std::uint64_t fp_cut_;
    std::uint64_t simd_cut_;
    std::uint64_t other_cut_;
};

// Hot-path definition, in the header so it inlines into the
// simulation driver's per-record loop.  Every probability compare is
// an integer compare of one draw against a precomputed cut: the same
// answer as the double compare uniform() < p (see stats::Rng::cut),
// so the record stream is unchanged.
inline void
TraceGenerator::step(std::uint64_t &pc, OpClass &op, std::uint64_t &address,
                     std::uint32_t &branch_id, bool &taken, bool &kernel)
{
    pc = code_.nextPc();
    kernel = rng_.drawBelow(kernel_cut_);
    address = 0;
    branch_id = 0;
    taken = false;

    std::uint64_t u = rng_.draw();
    if (u < load_cut_) {
        op = OpClass::Load;
        address = data_.next(rng_);
    } else if (u < store_cut_) {
        op = OpClass::Store;
        address = data_.next(rng_);
    } else if (u < branch_cut_) {
        op = OpClass::Branch;
        BranchStream::Outcome outcome = branches_.next(rng_);
        branch_id = outcome.id;
        taken = outcome.taken;
        if (outcome.taken)
            code_.takeBranch(rng_);
    } else if (u < fp_cut_) {
        op = OpClass::FpAlu;
    } else if (u < simd_cut_) {
        op = OpClass::Simd;
    } else if (u < other_cut_) {
        op = OpClass::Other;
    } else {
        op = OpClass::IntAlu;
    }
}

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_TRACE_GENERATOR_H
