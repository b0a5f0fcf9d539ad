/**
 * @file
 * Structure-of-arrays batch of dynamic instruction records.
 *
 * The batch form of the trace stream: TraceGenerator::fill() writes a
 * chunk of records into one, for tests and for tools that time
 * generation on its own.  The simulation driver stores no records —
 * it plays each one straight from TraceGenerator::step() — but it
 * still works in chunks of kRecordBatchCapacity records (one predictor
 * batch and one audit sample per chunk).
 *
 * Field semantics are identical to trace::Instruction.
 */

#ifndef SPECLENS_TRACE_RECORD_BATCH_H
#define SPECLENS_TRACE_RECORD_BATCH_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "trace/instruction.h"

namespace speclens {
namespace trace {

/**
 * Records per batch, and per simulation chunk.  Large enough that
 * per-chunk overhead (predictor batch call, audit test) is noise
 * against thousands of records, small enough that a batch (~90 KiB)
 * or a chunk's branch lanes stay cache-resident.
 */
inline constexpr std::size_t kRecordBatchCapacity = 4096;

/** One batch of dynamic instructions in structure-of-arrays form. */
struct RecordBatch
{
    /** Packed boolean flags (flags array). */
    static constexpr std::uint8_t kTakenBit = 1u << 0;
    static constexpr std::uint8_t kKernelBit = 1u << 1;

    std::array<std::uint64_t, kRecordBatchCapacity> pc;
    std::array<std::uint64_t, kRecordBatchCapacity> address;
    std::array<std::uint32_t, kRecordBatchCapacity> branch_id;
    std::array<OpClass, kRecordBatchCapacity> op;
    std::array<std::uint8_t, kRecordBatchCapacity> flags;

    /** Valid records (a prefix of every array). */
    std::size_t size = 0;

    bool taken(std::size_t i) const { return (flags[i] & kTakenBit) != 0; }
    bool kernel(std::size_t i) const
    {
        return (flags[i] & kKernelBit) != 0;
    }
};

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_RECORD_BATCH_H
