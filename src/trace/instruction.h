/**
 * @file
 * Instruction record produced by the synthetic trace generator and
 * consumed by the micro-architecture simulators.
 *
 * SPEC CPU binaries are proprietary, so SpecLens replaces real dynamic
 * instruction streams with synthetic streams drawn from per-benchmark
 * statistical models (see trace/workload_profile.h).  The record below
 * carries exactly the information the trace-driven simulators need:
 * what kind of operation it is, which code address it was fetched from,
 * and — for memory and branch operations — the data address or the
 * branch identity/outcome.
 */

#ifndef SPECLENS_TRACE_INSTRUCTION_H
#define SPECLENS_TRACE_INSTRUCTION_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace speclens {
namespace trace {

/** Operation class of a dynamic instruction. */
enum class OpClass : std::uint8_t {
    IntAlu,  //!< Integer arithmetic / logic.
    FpAlu,   //!< Scalar floating-point arithmetic.
    Simd,    //!< Vector (SIMD) arithmetic.
    Load,    //!< Memory read.
    Store,   //!< Memory write.
    Branch,  //!< Conditional branch.
    Other,   //!< Everything else (moves, system, ...).
};

/** Number of OpClass values (Other is the last). */
inline constexpr std::size_t kOpClassCount =
    static_cast<std::size_t>(OpClass::Other) + 1;

/** Human-readable op-class name, for reports and test diagnostics. */
std::string opClassName(OpClass op);

/** One dynamic instruction. */
struct Instruction
{
    /** Virtual address the instruction was fetched from. */
    std::uint64_t pc = 0;

    /** Operation class. */
    OpClass op = OpClass::IntAlu;

    /** Effective virtual address for Load/Store; 0 otherwise. */
    std::uint64_t address = 0;

    /** Static-branch identifier for Branch; 0 otherwise. */
    std::uint32_t branch_id = 0;

    /** Resolved direction for Branch; false otherwise. */
    bool taken = false;

    /** True when the instruction executes in kernel mode. */
    bool kernel = false;

    bool isLoad() const { return op == OpClass::Load; }
    bool isStore() const { return op == OpClass::Store; }
    bool isMemory() const { return isLoad() || isStore(); }
    bool isBranch() const { return op == OpClass::Branch; }
    bool isFloat() const { return op == OpClass::FpAlu; }
    bool isSimd() const { return op == OpClass::Simd; }
};

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_INSTRUCTION_H
