/**
 * @file
 * Branch outcome stream implementation.
 */

#include "branch_stream.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace speclens {
namespace trace {

BranchStream::BranchStream(const BranchModel &model, stats::Rng &rng)
{
    std::uint32_t n = model.static_branches;

    // Build the loop-structured dynamic sequence first, Zipf-skewed:
    // squaring a uniform variate concentrates the sequence on
    // low-numbered static branches, matching the heavy-tailed
    // execution frequency of real branch sites.  Building it before
    // the class assignment lets the assignment stratify against the
    // *realized* per-id frequencies — a single 64-1024 entry sequence
    // deviates from the Zipf ideal enough to skew dynamic class shares
    // otherwise.
    std::size_t sequence_length = std::max<std::size_t>(64, n / 4);
    sequence_.reserve(sequence_length);
    std::vector<double> frequency(n, 0.0);
    for (std::size_t i = 0; i < sequence_length; ++i) {
        double u = rng.uniform();
        auto id =
            static_cast<std::uint32_t>(u * u * static_cast<double>(n));
        if (id >= n)
            id = n - 1;
        sequence_.push_back(id);
        frequency[id] += 1.0 / static_cast<double>(sequence_length);
    }

    // The dynamic stream is heavily skewed, so behaviour classes are
    // assigned greedily against each id's dynamic weight rather than
    // by independent coin flips — otherwise a single unlucky
    // assignment of a hard branch to the hottest id would dominate the
    // whole stream.
    branches_.reserve(n);
    double cum_all = 0.0;
    double cum_hard = 0.0;
    double cum_patterned = 0.0;
    double cum_taken = 0.0;
    double hard_share = 1.0 - model.biased_fraction;
    for (std::uint32_t i = 0; i < n; ++i) {
        double p_i = frequency[i];
        cum_all += p_i;

        StaticBranch b{};
        // Midpoint rule: take the class only when doing so keeps the
        // running dynamic share closest to the target — comparing with
        // half of p_i included prevents a hot id (several % of the
        // whole stream) from blowing straight through a small quota.
        bool hard = cum_hard + 0.5 * p_i < hard_share * cum_all;
        if (!hard) {
            // Strongly biased branch; directions are balanced against
            // the global taken fraction the same stratified way.
            bool taken_dir =
                cum_taken + 0.5 * p_i < model.taken_fraction * cum_all;
            if (taken_dir)
                cum_taken += p_i;
            b.taken_cut = stats::Rng::cut(taken_dir ? 0.995 : 0.005);
            b.patterned = false;
        } else {
            cum_hard += p_i;
            bool patterned = cum_patterned + 0.5 * p_i <
                             model.patterned_fraction * cum_hard;
            if (patterned) {
                cum_patterned += p_i;
                // Patterned branch: deterministic repeating history.
                b.patterned = true;
                b.period = static_cast<std::uint8_t>(2 + rng.below(7));
                b.pattern =
                    static_cast<std::uint16_t>(rng.next() & 0xffff);
                // Guarantee the pattern is not constant over its
                // period, otherwise it degenerates into a biased
                // branch.
                std::uint16_t mask =
                    static_cast<std::uint16_t>((1u << b.period) - 1);
                if ((b.pattern & mask) == 0 || (b.pattern & mask) == mask)
                    b.pattern ^= 0x5555;
                b.position =
                    static_cast<std::uint32_t>(rng.below(b.period));
                // Account the pattern's own taken share toward the
                // global taken-fraction budget.
                int taken_bits = 0;
                for (unsigned bit = 0; bit < b.period; ++bit)
                    taken_bits += (b.pattern >> bit) & 1u;
                cum_taken += p_i * static_cast<double>(taken_bits) /
                             static_cast<double>(b.period);
            } else {
                // Hard branch: weak bias centred near the taken
                // fraction.
                double centre = std::clamp(model.taken_fraction, 0.35,
                                           0.65);
                double taken_prob = std::clamp(
                    centre + rng.uniform(-0.2, 0.2), 0.3, 0.7);
                b.taken_cut = stats::Rng::cut(taken_prob);
                b.patterned = false;
                cum_taken += p_i * taken_prob;
            }
        }
        branches_.push_back(b);
    }
}

double
BranchStream::patternedShare() const
{
    if (branches_.empty())
        return 0.0;
    std::size_t count = std::count_if(branches_.begin(), branches_.end(),
                                      [](const StaticBranch &b) {
                                          return b.patterned;
                                      });
    return static_cast<double>(count) /
           static_cast<double>(branches_.size());
}

} // namespace trace
} // namespace speclens
