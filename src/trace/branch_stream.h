/**
 * @file
 * Synthetic conditional-branch outcome generation.
 *
 * A workload's control flow is modelled as a population of static
 * branches with three behaviour classes:
 *
 *  - strongly biased branches (taken or not-taken ~98% of the time),
 *    which every predictor captures;
 *  - patterned branches that repeat a short deterministic history
 *    pattern — mispredicted by a bimodal predictor but learnable by
 *    history-based predictors (gshare/TAGE/perceptron);
 *  - weakly biased "hard" branches that behave like a biased coin and
 *    bound every predictor's accuracy.
 *
 * The class shares are the BranchModel knobs; they position a benchmark
 * on the paper's branch-behaviour spectrum (Fig. 9) and create the
 * machine-to-machine misprediction variation behind the branch row of
 * the sensitivity table (Table IX).
 *
 * Dynamic branch selection is skewed (a handful of static branches
 * dominates real instruction streams) and, crucially, *repetitive*:
 * the stream walks a loop-structured control-flow sequence rather than
 * sampling branches independently.  Without repeating branch
 * sequences, global-history predictors (gshare, TAGE, perceptron)
 * could never train — every (branch, history) pair would be unique —
 * and the decade of predictor improvements between the Table IV
 * machines would be invisible.
 */

#ifndef SPECLENS_TRACE_BRANCH_STREAM_H
#define SPECLENS_TRACE_BRANCH_STREAM_H

#include <cstdint>
#include <vector>

#include "stats/rng.h"
#include "trace/workload_profile.h"

namespace speclens {
namespace trace {

/** Generator of (static branch id, outcome) pairs. */
class BranchStream
{
  public:
    /**
     * Build the static branch population.
     *
     * @param model Behaviour-class shares and bias targets.
     * @param rng Used to draw the static population; the same generator
     *            is typically reused for the dynamic stream.
     */
    BranchStream(const BranchModel &model, stats::Rng &rng);

    /** One dynamic branch. */
    struct Outcome
    {
        std::uint32_t id;  //!< Static branch identifier.
        bool taken;        //!< Resolved direction.
    };

    /** Produce the next dynamic branch (inline below; hot path). */
    Outcome next(stats::Rng &rng);

    /** Number of static branches in the population. */
    std::size_t staticCount() const { return branches_.size(); }

    /** Population statistics for tests: fraction of patterned branches. */
    double patternedShare() const;

  private:
    struct StaticBranch
    {
        std::uint64_t taken_cut;  //!< Rng::cut of the bias when not patterned.
        bool patterned;           //!< Follows a deterministic pattern.
        std::uint8_t period;      //!< Pattern period (2..8).
        std::uint16_t pattern;    //!< Pattern bits (bit i = outcome i).
        std::uint32_t position;   //!< Current index into the pattern.
    };

    std::vector<StaticBranch> branches_;

    /**
     * Loop-structured dynamic sequence of static-branch ids; next()
     * mostly walks this cyclically and occasionally restarts at a
     * random position (an outer-loop iteration or an indirect call).
     */
    std::vector<std::uint32_t> sequence_;
    std::size_t position_ = 0;
    std::uint64_t step_ = 0; //!< Global dynamic-branch counter.
};

// ---------------------------------------------------------------------
// Hot-path definition, in the header so the per-branch draw inlines
// into the generator's batch fill loop.  The RNG draw sequence and the
// produced outcomes are part of the bit-identical contract.

inline BranchStream::Outcome
BranchStream::next(stats::Rng &rng)
{
    // Mostly walk the loop body; occasionally take an irregular jump
    // to a random sequence position (outer loop restart, call through
    // a pointer), which perturbs global history realistically.  Kept
    // rare: every jump invalidates ~one history-window of context for
    // all history-based predictors.
    constexpr std::uint64_t kJumpCut = stats::Rng::cut(0.005);
    if (rng.drawBelow(kJumpCut))
        position_ = static_cast<std::size_t>(rng.below(sequence_.size()));
    std::uint32_t id = sequence_[position_];
    // position_ + 1 <= size, so the cyclic wrap is a compare, not the
    // modulo it used to be; the stored value is identical.
    ++position_;
    if (position_ == sequence_.size())
        position_ = 0;

    StaticBranch &b = branches_[id];
    bool taken;
    if (b.patterned) {
        // The pattern phase advances with the *global* control-flow
        // walk, so a patterned branch's outcome is a deterministic
        // function of where the loop nest currently is — exactly the
        // correlation global-history predictors exploit.  A per-branch
        // starting phase keeps distinct branches out of lockstep.
        taken = (b.pattern >>
                 ((step_ + b.position) % b.period)) & 1u;
    } else {
        taken = rng.drawBelow(b.taken_cut);
    }
    ++step_;
    return {id, taken};
}

} // namespace trace
} // namespace speclens

#endif // SPECLENS_TRACE_BRANCH_STREAM_H
