/**
 * @file
 * Branch predictor implementations.
 */

#include "branch_predictor.h"

#include <algorithm>
#include <stdexcept>

namespace speclens {
namespace uarch {

std::string
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Bimodal: return "bimodal";
      case PredictorKind::Gshare: return "gshare";
      case PredictorKind::Tournament: return "tournament";
      case PredictorKind::TageLite: return "tage-lite";
    }
    return "unknown";
}

PredictorVariant
makePredictorVariant(PredictorKind kind, unsigned size_log2)
{
    switch (kind) {
      case PredictorKind::Bimodal:
        return BimodalPredictor(size_log2);
      case PredictorKind::Gshare:
        return GsharePredictor(size_log2, std::min(size_log2, 16u));
      case PredictorKind::Tournament:
        return TournamentPredictor(size_log2);
      case PredictorKind::TageLite:
        return TageLitePredictor(size_log2 > 2 ? size_log2 - 2 : 1);
    }
    throw std::invalid_argument("makePredictorVariant: unknown kind");
}

// ---------------------------------------------------------------------
// Batch kernels.  Shared shape: one or more contiguous autovectorizable
// loops precompute per-branch table indices (and, for history-based
// designs, the global-history value each branch observes — a prefix
// scan over the outcomes), then a tight ordered loop applies the
// inherently sequential counter updates branchlessly.  Each kernel is
// bit-exact against n scalar predict()/update() pairs: the index each
// branch uses depends only on (id, prior outcomes), both of which are
// known up front, and the counter loop applies the updates in stream
// order so intra-batch aliasing behaves identically.
// ---------------------------------------------------------------------

namespace {

/**
 * Branchless 2-bit saturating counter step: the prediction and the
 * post-update value of @p counter for outcome @p taken (0 or 1).
 * @return the counter's prediction (1 = taken) before the update.
 */
inline std::uint8_t
stepCounter2(std::uint8_t &counter, std::uint8_t taken)
{
    std::uint8_t predicted = counter >= 2 ? 1 : 0;
    std::uint8_t up = counter < 3 ? 1 : 0;
    std::uint8_t down = counter > 0 ? 1 : 0;
    counter = static_cast<std::uint8_t>(taken ? counter + up
                                              : counter - down);
    return predicted;
}

} // namespace

// ---------------------------------------------------------------------
// Bimodal
// ---------------------------------------------------------------------

BimodalPredictor::BimodalPredictor(unsigned size_log2)
    : counters_(std::size_t{1} << size_log2, 2), // weakly taken
      mask_((std::size_t{1} << size_log2) - 1)
{
}

void
BimodalPredictor::updateBatch(const std::uint64_t *pc,
                              const std::uint32_t *id,
                              const std::uint8_t *taken,
                              std::uint8_t *mispred, std::size_t n)
{
    if (batch_idx_.size() < n)
        batch_idx_.resize(n);
    std::uint32_t *idx = batch_idx_.data();
    for (std::size_t k = 0; k < n; ++k)
        idx[k] = static_cast<std::uint32_t>(
            predictor_detail::mixPcId(pc[k], id[k]) & mask_);

    std::uint8_t *counters = counters_.data();
    for (std::size_t k = 0; k < n; ++k)
        mispred[k] = stepCounter2(counters[idx[k]], taken[k]) ^ taken[k];
}

// ---------------------------------------------------------------------
// Gshare
// ---------------------------------------------------------------------

GsharePredictor::GsharePredictor(unsigned size_log2, unsigned history_bits)
    : counters_(std::size_t{1} << size_log2, 2),
      mask_((std::size_t{1} << size_log2) - 1),
      history_mask_((std::uint64_t{1} << history_bits) - 1)
{
}

void
GsharePredictor::updateBatch(const std::uint64_t *pc, const std::uint32_t *id,
                             const std::uint8_t *taken,
                             std::uint8_t *mispred, std::size_t n)
{
    if (batch_idx_.size() < n) {
        batch_idx_.resize(n);
        batch_hist_.resize(n);
    }
    std::uint32_t *idx = batch_idx_.data();
    std::uint64_t *hist = batch_hist_.data();

    // hist[k]: the history branch k observes — predict() reads it and
    // update() indexes with it (the shift happens after the counter
    // write), so one value serves both.
    std::uint64_t h = history_;
    for (std::size_t k = 0; k < n; ++k) {
        hist[k] = h;
        h = ((h << 1) | taken[k]) & history_mask_;
    }
    history_ = h;

    for (std::size_t k = 0; k < n; ++k)
        idx[k] = static_cast<std::uint32_t>(
            (predictor_detail::mixPcId(pc[k], id[k]) ^ hist[k]) & mask_);

    std::uint8_t *counters = counters_.data();
    for (std::size_t k = 0; k < n; ++k)
        mispred[k] = stepCounter2(counters[idx[k]], taken[k]) ^ taken[k];
}

// ---------------------------------------------------------------------
// Tournament
// ---------------------------------------------------------------------

TournamentPredictor::TournamentPredictor(unsigned size_log2)
    : bimodal_(size_log2),
      gshare_(size_log2, std::min(size_log2, 14u)),
      chooser_(std::size_t{1} << size_log2, 2), // weakly prefer gshare
      mask_((std::size_t{1} << size_log2) - 1)
{
}

void
TournamentPredictor::updateBatch(const std::uint64_t *pc,
                                 const std::uint32_t *id,
                                 const std::uint8_t *taken,
                                 std::uint8_t *mispred, std::size_t n)
{
    if (n == 0)
        return; // keep last_bimodal_/last_gshare_ untouched
    if (batch_mix_.size() < n) {
        batch_mix_.resize(n);
        batch_ghist_.resize(n);
        batch_bidx_.resize(n);
        batch_gidx_.resize(n);
        batch_cidx_.resize(n);
    }
    std::uint64_t *mix = batch_mix_.data();
    std::uint64_t *ghist = batch_ghist_.data();
    std::uint32_t *bidx = batch_bidx_.data();
    std::uint32_t *gidx = batch_gidx_.data();
    std::uint32_t *cidx = batch_cidx_.data();

    std::uint64_t h = gshare_.history_;
    for (std::size_t k = 0; k < n; ++k) {
        ghist[k] = h;
        h = ((h << 1) | taken[k]) & gshare_.history_mask_;
    }
    gshare_.history_ = h;

    for (std::size_t k = 0; k < n; ++k)
        mix[k] = predictor_detail::mixPcId(pc[k], id[k]);
    for (std::size_t k = 0; k < n; ++k)
        bidx[k] = static_cast<std::uint32_t>(mix[k] & bimodal_.mask_);
    for (std::size_t k = 0; k < n; ++k)
        gidx[k] =
            static_cast<std::uint32_t>((mix[k] ^ ghist[k]) & gshare_.mask_);
    for (std::size_t k = 0; k < n; ++k)
        cidx[k] = static_cast<std::uint32_t>(mix[k] & mask_);

    std::uint8_t *bim = bimodal_.counters_.data();
    std::uint8_t *gsh = gshare_.counters_.data();
    std::uint8_t *cho = chooser_.data();
    std::uint8_t bp = 0, gp = 0;
    for (std::size_t k = 0; k < n; ++k) {
        std::uint8_t t = taken[k];
        std::uint8_t chooser = cho[cidx[k]];
        bp = stepCounter2(bim[bidx[k]], t);
        gp = stepCounter2(gsh[gidx[k]], t);
        std::uint8_t predicted = chooser >= 2 ? gp : bp;
        mispred[k] = predicted ^ t;
        // The chooser trains only when the components disagree, toward
        // whichever was right.
        if ((bp == t) != (gp == t))
            predictor_detail::updateCounter2(cho[cidx[k]], gp == t);
    }
    last_bimodal_ = bp != 0;
    last_gshare_ = gp != 0;
}

// ---------------------------------------------------------------------
// TAGE-lite
// ---------------------------------------------------------------------

TageLitePredictor::TageLitePredictor(unsigned size_log2, unsigned num_tables)
    : base_(size_log2 + 2),
      mask_((std::size_t{1} << size_log2) - 1)
{
    // Geometric history lengths: 4, 8, 16, 32, ...
    unsigned length = 4;
    for (unsigned t = 0; t < num_tables; ++t) {
        tables_.emplace_back(std::size_t{1} << size_log2);
        history_lengths_.push_back(length);
        length = std::min(length * 2, 63u);
    }
}

void
TageLitePredictor::update(std::uint64_t pc, std::uint32_t id, bool taken)
{
    bool mispredicted = provider_pred_ != taken;

    if (provider_ >= 0) {
        unsigned t = static_cast<unsigned>(provider_);
        Entry &e = tables_[t][tableIndex(t, pc, id)];
        e.counter = static_cast<std::int8_t>(
            std::clamp<int>(e.counter + (taken ? 1 : -1), -4, 3));
        if (!mispredicted && provider_pred_ != base_pred_ && e.useful < 3)
            ++e.useful;
    }

    // On a misprediction, allocate in a longer-history table.
    if (mispredicted) {
        unsigned start = provider_ >= 0 ? static_cast<unsigned>(provider_)
                                        + 1 : 0;
        for (unsigned t = start; t < tables_.size(); ++t) {
            Entry &e = tables_[t][tableIndex(t, pc, id)];
            if (e.useful == 0) {
                e.tag = tableTag(t, pc, id);
                e.counter = taken ? 0 : -1; // weak in the right direction
                break;
            }
            // Age useful counters when no free entry was found.
            --e.useful;
        }
    }

    base_.update(pc, id, taken);
    history_ = (history_ << 1) | (taken ? 1u : 0u);
}

void
TageLitePredictor::updateBatch(const std::uint64_t *pc,
                               const std::uint32_t *id,
                               const std::uint8_t *taken,
                               std::uint8_t *mispred, std::size_t n)
{
    if (n == 0)
        return; // keep provider bookkeeping untouched
    const std::size_t num_tables = tables_.size();
    if (batch_hist_.size() < n) {
        batch_hist_.resize(n);
        batch_base_idx_.resize(n);
    }
    if (batch_idx_.size() < num_tables * n) {
        batch_idx_.resize(num_tables * n);
        batch_tag_.resize(num_tables * n);
    }
    std::uint64_t *hist = batch_hist_.data();
    std::uint32_t *base_idx = batch_base_idx_.data();

    std::uint64_t h = history_;
    for (std::size_t k = 0; k < n; ++k) {
        hist[k] = h;
        h = (h << 1) | taken[k];
    }
    history_ = h;

    for (std::size_t k = 0; k < n; ++k)
        base_idx[k] = static_cast<std::uint32_t>(
            predictor_detail::mixPcId(pc[k], id[k]) & base_.mask_);

    // Per-table index/tag arrays; predict() and update() both index
    // with the branch's own history value, so one array serves both.
    for (unsigned table = 0; table < num_tables; ++table) {
        std::uint32_t *idx = batch_idx_.data() + table * n;
        std::uint16_t *tag = batch_tag_.data() + table * n;
        std::uint64_t h_mask =
            (std::uint64_t{1} << history_lengths_[table]) - 1;
        for (std::size_t k = 0; k < n; ++k) {
            std::uint64_t folded = hist[k] & h_mask;
            folded ^= folded >> 13;
            folded ^= folded >> 7;
            idx[k] = static_cast<std::uint32_t>(
                (predictor_detail::mixPcId(pc[k], id[k]) ^ folded ^
                 (table * 0x9e3779b9ull)) &
                mask_);
            tag[k] = static_cast<std::uint16_t>(
                (predictor_detail::mixPcId(pc[k] * 31 + 7, id[k]) ^
                 (hist[k] & h_mask) ^ (table * 0x2545f491ull)) &
                0x3ff);
        }
    }

    std::uint8_t *base_counters = base_.counters_.data();
    int provider = -1;
    bool provider_pred = false, base_pred = false;
    for (std::size_t k = 0; k < n; ++k) {
        std::uint8_t t8 = taken[k];
        std::uint8_t base_counter = base_counters[base_idx[k]];
        base_pred = base_counter >= 2;
        provider = -1;
        provider_pred = base_pred;
        for (int t = static_cast<int>(num_tables) - 1; t >= 0; --t) {
            const Entry &e =
                tables_[static_cast<unsigned>(t)]
                       [batch_idx_[static_cast<std::size_t>(t) * n + k]];
            if (e.tag == batch_tag_[static_cast<std::size_t>(t) * n + k]) {
                provider = t;
                bool weak = e.counter == 0 || e.counter == -1;
                provider_pred = weak ? base_pred : e.counter >= 0;
                break;
            }
        }
        bool mispredicted = provider_pred != (t8 != 0);
        mispred[k] = mispredicted ? 1 : 0;

        if (provider >= 0) {
            unsigned t = static_cast<unsigned>(provider);
            Entry &e = tables_[t][batch_idx_[t * n + k]];
            e.counter = static_cast<std::int8_t>(
                std::clamp<int>(e.counter + (t8 ? 1 : -1), -4, 3));
            if (!mispredicted && provider_pred != base_pred && e.useful < 3)
                ++e.useful;
        }
        if (mispredicted) {
            unsigned start =
                provider >= 0 ? static_cast<unsigned>(provider) + 1 : 0;
            for (unsigned t = start; t < num_tables; ++t) {
                Entry &e = tables_[t][batch_idx_[t * n + k]];
                if (e.useful == 0) {
                    e.tag = batch_tag_[t * n + k];
                    e.counter = t8 ? 0 : -1;
                    break;
                }
                --e.useful;
            }
        }
        // base_.update, on the value read above (tagged-table writes
        // never alias the base table).
        base_counters[base_idx[k]] =
            t8 ? base_counter + (base_counter < 3 ? 1 : 0)
               : base_counter - (base_counter > 0 ? 1 : 0);
    }
    provider_ = provider;
    provider_pred_ = provider_pred;
    base_pred_ = base_pred;
}

} // namespace uarch
} // namespace speclens
