/**
 * @file
 * Structural invariant prover implementation.
 *
 * Every check here proves a property the hot-path equivalence tricks
 * (run collapsing, cold fill, the closed-form prewarm solver, batched
 * predictor kernels) rely on but never re-verify at run time.  The
 * checks read private structure state through friendship and never
 * mutate it; the only writers are the *ForTest corruption helpers used
 * by the seeded-violation tests.
 */

#include "verify/state_audit.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>
#include <variant>

namespace speclens {
namespace verify {

namespace {

/**
 * Appends violations for one structure, enforcing the per-audit cap so
 * a corrupted array cannot emit millions of records.
 */
class Emitter
{
  public:
    Emitter(std::string structure, std::vector<Violation> &out)
        : structure_(std::move(structure)), out_(out),
          base_(out.size())
    {
    }

    void
    emit(const char *invariant, std::string location, std::string detail)
    {
        if (out_.size() - base_ >= StateAuditor::kMaxViolationsPerAudit)
            return;
        out_.push_back(Violation{structure_, invariant,
                                 std::move(location), std::move(detail)});
    }

    bool
    saturated() const
    {
        return out_.size() - base_ >= StateAuditor::kMaxViolationsPerAudit;
    }

  private:
    std::string structure_;
    std::vector<Violation> &out_;
    std::size_t base_;
};

std::string
setWay(std::uint64_t set, std::uint32_t way)
{
    return "set " + std::to_string(set) + " way " + std::to_string(way);
}

std::string
setOnly(std::uint64_t set)
{
    return "set " + std::to_string(set);
}

/** Check the 2-bit saturating counter table shared by four designs. */
void
auditCounterTable(Emitter &em, const char *table,
                  const std::vector<std::uint8_t> &counters,
                  std::size_t mask)
{
    if (counters.size() != mask + 1 ||
        !std::has_single_bit(counters.size())) {
        em.emit("table-size", table,
                "size " + std::to_string(counters.size()) +
                    " != mask+1 " + std::to_string(mask + 1));
        return;
    }
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (counters[i] > 3) {
            em.emit("counter-range",
                    std::string(table) + "[" + std::to_string(i) + "]",
                    "2-bit counter holds " +
                        std::to_string(counters[i]));
            if (em.saturated())
                return;
        }
    }
}

} // namespace

std::string
renderViolation(const Violation &v)
{
    std::string line = v.structure + ": " + v.invariant;
    if (!v.location.empty())
        line += " @ " + v.location;
    if (!v.detail.empty())
        line += ": " + v.detail;
    return line;
}

void
StateAuditor::auditCache(const uarch::Cache &cache,
                         std::vector<Violation> &out)
{
    const uarch::CacheConfig &cfg = cache.config_;
    Emitter em(cfg.name, out);
    const std::uint32_t assoc = cfg.associativity;
    const bool stamped = cfg.policy == uarch::ReplacementPolicy::Lru ||
                         cfg.policy == uarch::ReplacementPolicy::Fifo;

    if (cache.hits_ > cache.accesses_) {
        em.emit("hits-bound", "",
                std::to_string(cache.hits_) + " hits > " +
                    std::to_string(cache.accesses_) + " accesses");
    }

    // Way-predictor invariants.  The table exists exactly when the
    // config enables prediction (one partition for MRU, two for
    // multi-MRU), every trained entry is a legal way, and each
    // hit/mispredict tally corresponds to one cache hit (misses never
    // verify a prediction).
    {
        std::uint32_t expected_parts =
            cfg.way_prediction == uarch::WayPredictionKind::None ? 0u
            : cfg.way_prediction == uarch::WayPredictionKind::Mru ? 1u
                                                                  : 2u;
        if (cache.way_pred_parts_ != expected_parts ||
            cache.way_pred_.size() !=
                cache.num_sets_ * expected_parts) {
            em.emit("waypred-shape", "",
                    std::to_string(cache.way_pred_.size()) +
                        " entries / " +
                        std::to_string(cache.way_pred_parts_) +
                        " partitions for policy " +
                        uarch::wayPredictionKindName(
                            cfg.way_prediction));
        } else {
            for (std::size_t i = 0; i < cache.way_pred_.size(); ++i) {
                if (cache.way_pred_[i] >= assoc) {
                    em.emit("waypred-domain",
                            "entry " + std::to_string(i),
                            "predicted way " +
                                std::to_string(cache.way_pred_[i]) +
                                " of " + std::to_string(assoc));
                    if (em.saturated())
                        return;
                }
            }
        }
        if (expected_parts == 0 && (cache.way_pred_hits_ != 0 ||
                                    cache.way_pred_mispredicts_ != 0)) {
            em.emit("waypred-counters", "",
                    "prediction counters nonzero with prediction off");
        }
        if (cache.way_pred_hits_ + cache.way_pred_mispredicts_ >
            cache.hits_) {
            em.emit("waypred-bound", "",
                    std::to_string(cache.way_pred_hits_ +
                                   cache.way_pred_mispredicts_) +
                        " predictions > " +
                        std::to_string(cache.hits_) + " hits");
        }
    }

    if (cfg.line_bytes == 0 ||
        !std::has_single_bit(std::uint64_t{cfg.line_bytes})) {
        em.emit("page-alignment", "",
                "line/page size " + std::to_string(cfg.line_bytes) +
                    " not a power of two");
        return; // line_shift_-derived checks below would be garbage
    }

    // Largest representable line address: tags are line_addr / sets, so
    // a stored tag must reconstruct to a line address within 64 bits.
    const std::uint64_t max_line = ~0ull >> cache.line_shift_;

    for (std::uint64_t set = 0; set < cache.num_sets_ && !em.saturated();
         ++set) {
        const std::uint64_t *tags = &cache.tags_[set * assoc];
        const std::uint64_t *stamps = &cache.stamps_[set * assoc];

        bool saw_invalid = false;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (tags[w] == uarch::Cache::kInvalidTag) {
                saw_invalid = true;
                continue;
            }
            // Fills always take the first invalid way and nothing
            // invalidates an individual line (see Cache::access), so
            // invalid ways must form a suffix of the set.
            if (saw_invalid) {
                em.emit("invalid-suffix", setWay(set, w),
                        "valid way after an invalid way");
            }
            if (tags[w] > (max_line - set) / cache.num_sets_) {
                em.emit("tag-domain", setWay(set, w),
                        "tag " + std::to_string(tags[w]) +
                            " reconstructs past the address space");
            }
            for (std::uint32_t v = w + 1; v < assoc; ++v) {
                if (tags[v] != uarch::Cache::kInvalidTag &&
                    tags[v] == tags[w]) {
                    em.emit("duplicate-line", setWay(set, v),
                            "tag " + std::to_string(tags[w]) +
                                " also in way " + std::to_string(w));
                }
            }
            if (stamped) {
                // Every valid way was filled, and filling writes the
                // stamp first, so the stamp is defined and bounded by
                // the monotonic tick.
                std::uint64_t stamp = stamps[w];
                if (stamp == 0 || stamp > cache.tick_) {
                    em.emit("stamp-bound", setWay(set, w),
                            "stamp " + std::to_string(stamp) +
                                " outside [1, " +
                                std::to_string(cache.tick_) + "]");
                }
                for (std::uint32_t v = w + 1; v < assoc; ++v) {
                    if (tags[v] != uarch::Cache::kInvalidTag &&
                        stamps[v] == stamp) {
                        em.emit("stamp-unique", setWay(set, v),
                                "stamp " + std::to_string(stamp) +
                                    " also on way " + std::to_string(w));
                    }
                }
            }
        }

        if (cfg.policy == uarch::ReplacementPolicy::TreePlru &&
            assoc > 1 && cache.plru_[set] >= (1u << (assoc - 1))) {
            // The decision tree of an assoc-way set has assoc-1 nodes;
            // higher bits are never written by plruTouchState.
            em.emit("plru-domain", setOnly(set),
                    "state " + std::to_string(cache.plru_[set]) +
                        " uses bits past node " +
                        std::to_string(assoc - 1));
        }

        if (!cache.cold_fills_.empty()) {
            std::uint32_t fills = cache.cold_fills_[set];
            bool bad = stamped ? fills >= assoc : fills > assoc;
            if (bad) {
                em.emit("fill-counter", setOnly(set),
                        "fill counter " + std::to_string(fills) +
                            " out of range for " + std::to_string(assoc) +
                            " ways");
            }
        }
    }
}

void
StateAuditor::auditCaches(const uarch::CacheHierarchy &caches,
                          std::vector<Violation> &out)
{
    auditCache(caches.l1i_cache_, out);
    auditCache(caches.l1d_cache_, out);
    auditCache(caches.l2_cache_, out);
    if (caches.l3_cache_)
        auditCache(*caches.l3_cache_, out);
    auditPrefetcher(caches, out);
    if (caches.dram_)
        auditDram(*caches.dram_, out);
}

void
StateAuditor::auditPrefetcher(const uarch::CacheHierarchy &caches,
                              std::vector<Violation> &out)
{
    Emitter em("prefetcher", out);
    const uarch::Cache &l2 = caches.l2_cache_;
    const std::size_t slots =
        l2.num_sets_ * l2.config_.associativity;

    if (caches.prefetch_degree_ == 0) {
        // Off: no tracking state may exist and no counter may move.
        if (!caches.l2_prefetch_bits_.empty())
            em.emit("bit-shape", "",
                    std::to_string(caches.l2_prefetch_bits_.size()) +
                        " tracking bits with the prefetcher off");
        if (caches.prefetch_fills_ != 0 ||
            caches.prefetch_useful_ != 0 ||
            caches.prefetch_evicted_unused_ != 0)
            em.emit("counters-off", "",
                    "prefetch counters nonzero with the prefetcher "
                    "off");
        return;
    }

    if (caches.l2_prefetch_bits_.size() != slots) {
        em.emit("bit-shape", "",
                std::to_string(caches.l2_prefetch_bits_.size()) +
                    " tracking bits for " + std::to_string(slots) +
                    " L2 slots");
        return; // the identity below would read out of bounds
    }

    std::uint64_t resident = 0;
    for (std::size_t slot = 0; slot < slots; ++slot) {
        std::uint8_t bit = caches.l2_prefetch_bits_[slot];
        if (bit > 1) {
            em.emit("bit-domain", "slot " + std::to_string(slot),
                    "tracking bit holds " + std::to_string(bit));
            if (em.saturated())
                return;
            continue;
        }
        if (bit == 0)
            continue;
        ++resident;
        // A set bit marks a resident prefetched line; eviction paths
        // clear or reclassify it, so it can never sit on an invalid
        // way.
        if (l2.tags_[slot] == uarch::Cache::kInvalidTag) {
            em.emit("bit-on-invalid", "slot " + std::to_string(slot),
                    "tracking bit set on an invalid way");
            if (em.saturated())
                return;
        }
    }

    // The accounting identity the 65536-entry wipe of the old
    // unordered_set implementation silently broke: every fill is
    // consumed, evicted unused, or still resident.
    if (caches.prefetch_fills_ !=
        caches.prefetch_useful_ + caches.prefetch_evicted_unused_ +
            resident) {
        em.emit("fill-identity", "",
                std::to_string(caches.prefetch_fills_) + " fills != " +
                    std::to_string(caches.prefetch_useful_) +
                    " useful + " +
                    std::to_string(caches.prefetch_evicted_unused_) +
                    " evicted + " + std::to_string(resident) +
                    " resident");
    }

    // Engine tables exist exactly for the configured kind.
    const bool is_stride =
        caches.prefetcher_kind_ == uarch::PrefetcherKind::Stride;
    if (caches.stride_table_.size() !=
        (is_stride ? uarch::CacheHierarchy::kStrideEntries : 0u)) {
        em.emit("stride-shape", "",
                std::to_string(caches.stride_table_.size()) +
                    " stride entries for engine " +
                    uarch::prefetcherKindName(caches.prefetcher_kind_));
    } else {
        for (std::size_t i = 0; i < caches.stride_table_.size(); ++i) {
            const auto &entry = caches.stride_table_[i];
            if (entry.confidence > 3)
                em.emit("stride-confidence",
                        "entry " + std::to_string(i),
                        "2-bit confidence holds " +
                            std::to_string(entry.confidence));
            if (entry.valid > 1)
                em.emit("stride-valid", "entry " + std::to_string(i),
                        "valid flag holds " +
                            std::to_string(entry.valid));
            if (em.saturated())
                return;
        }
    }

    if (caches.stream_next_ >= uarch::CacheHierarchy::kStreamWindows) {
        em.emit("stream-ring", "",
                "allocation cursor " +
                    std::to_string(caches.stream_next_) + " of " +
                    std::to_string(
                        uarch::CacheHierarchy::kStreamWindows) +
                    " windows");
    }
    const bool is_stream =
        caches.prefetcher_kind_ == uarch::PrefetcherKind::Stream;
    for (std::size_t i = 0; i < caches.stream_windows_.size(); ++i) {
        const auto &window = caches.stream_windows_[i];
        if (window.valid > 1)
            em.emit("stream-valid", "window " + std::to_string(i),
                    "valid flag holds " + std::to_string(window.valid));
        else if (!is_stream && window.valid != 0)
            em.emit("stream-shape", "window " + std::to_string(i),
                    "active window for engine " +
                        uarch::prefetcherKindName(
                            caches.prefetcher_kind_));
        if (em.saturated())
            return;
    }
}

void
StateAuditor::auditDram(const uarch::DramModel &dram,
                        std::vector<Violation> &out)
{
    Emitter em("dram", out);
    const uarch::DramConfig &cfg = dram.config_;

    if (dram.open_row_.size() != cfg.banks ||
        dram.row_open_.size() != cfg.banks) {
        em.emit("bank-shape", "",
                std::to_string(dram.open_row_.size()) + " rows / " +
                    std::to_string(dram.row_open_.size()) +
                    " flags for " + std::to_string(cfg.banks) +
                    " banks");
        return;
    }

    // Rows are (addr >> row_shift) >> bank_shift, so an open row above
    // this bound cannot be produced by any 64-bit address.
    const std::uint64_t max_row =
        (~0ull >> dram.row_shift_) >> dram.bank_shift_;
    for (std::size_t bank = 0; bank < cfg.banks; ++bank) {
        if (dram.row_open_[bank] > 1) {
            em.emit("flag-domain", "bank " + std::to_string(bank),
                    "open flag holds " +
                        std::to_string(dram.row_open_[bank]));
        } else if (dram.row_open_[bank] == 1 &&
                   dram.open_row_[bank] > max_row) {
            em.emit("row-domain", "bank " + std::to_string(bank),
                    "open row " +
                        std::to_string(dram.open_row_[bank]) +
                        " past the address space");
        }
        if (em.saturated())
            return;
    }

    // Open-page policy cycle identities: every access costs exactly a
    // burst (row hit) or an activate plus a burst (row miss), and the
    // budget grants a fixed allowance per access.
    if (dram.row_hits_ > dram.accesses_) {
        em.emit("hit-bound", "",
                std::to_string(dram.row_hits_) + " row hits > " +
                    std::to_string(dram.accesses_) + " accesses");
    } else if (dram.busy_cycles_ !=
               cfg.busyCycles(dram.accesses_, dram.row_hits_)) {
        em.emit("busy-identity", "",
                std::to_string(dram.busy_cycles_) +
                    " busy cycles, expected " +
                    std::to_string(
                        cfg.busyCycles(dram.accesses_, dram.row_hits_)));
    }
    if (dram.budget_cycles_ != cfg.budgetCycles(dram.accesses_)) {
        em.emit("budget-identity", "",
                std::to_string(dram.budget_cycles_) +
                    " budget cycles for " +
                    std::to_string(dram.accesses_) + " accesses");
    }
}

void
StateAuditor::auditTlbs(const uarch::TlbHierarchy &tlbs,
                        std::vector<Violation> &out)
{
    auditCache(tlbs.itlb_, out);
    auditCache(tlbs.dtlb_, out);
    if (tlbs.l2tlb_)
        auditCache(*tlbs.l2tlb_, out);

    Emitter em("tlb", out);

    // Every path that counts a page walk counts a last-level TLB miss
    // in the same statement (accessCommon, prewarmFill*, the solver)
    // and reset() zeroes both, so the counters move in lockstep.
    if (tlbs.page_walks_ != tlbs.l2tlb_misses_) {
        em.emit("walk-consistency", "",
                std::to_string(tlbs.page_walks_) + " walks != " +
                    std::to_string(tlbs.l2tlb_misses_) +
                    " last-level misses");
    }
    std::uint64_t l1_misses = tlbs.itlb_.misses() + tlbs.dtlb_.misses();
    if (tlbs.page_walks_ > l1_misses) {
        em.emit("walk-bound", "",
                std::to_string(tlbs.page_walks_) + " walks > " +
                    std::to_string(l1_misses) + " first-level misses");
    }

    // Geometry: all levels translate the same page size, and a shared
    // second level must cover (reach at least) each first-level TLB,
    // mirroring the configured-machine rule SL009 on the live state.
    std::uint64_t ipage = tlbs.itlb_.config().line_bytes;
    std::uint64_t dpage = tlbs.dtlb_.config().line_bytes;
    if (ipage != dpage) {
        em.emit("page-geometry", "",
                "ITLB page " + std::to_string(ipage) + " != DTLB page " +
                    std::to_string(dpage));
    }
    if (tlbs.l2tlb_) {
        const uarch::CacheConfig &l2 = tlbs.l2tlb_->config();
        if (l2.line_bytes != ipage) {
            em.emit("page-geometry", "L2TLB",
                    "page " + std::to_string(l2.line_bytes) +
                        " != L1 page " + std::to_string(ipage));
        }
        std::uint64_t reach = l2.size_bytes;
        std::uint64_t l1_reach =
            std::max(tlbs.itlb_.config().size_bytes,
                     tlbs.dtlb_.config().size_bytes);
        if (reach < l1_reach) {
            em.emit("tlb-reach", "L2TLB",
                    "reach " + std::to_string(reach) +
                        " bytes below first-level reach " +
                        std::to_string(l1_reach));
        }
    }
}

void
StateAuditor::auditBimodal(const char *structure,
                           const uarch::BimodalPredictor &p,
                           std::vector<Violation> &out)
{
    Emitter em(structure, out);
    auditCounterTable(em, "counters", p.counters_, p.mask_);
}

void
StateAuditor::auditGshare(const char *structure,
                          const uarch::GsharePredictor &p,
                          std::vector<Violation> &out)
{
    Emitter em(structure, out);
    auditCounterTable(em, "counters", p.counters_, p.mask_);
    // update() masks the shifted history every time, so no bit above
    // the configured width can ever be set.
    if ((p.history_ & ~p.history_mask_) != 0) {
        em.emit("history-width", "",
                "history " + std::to_string(p.history_) +
                    " exceeds mask " + std::to_string(p.history_mask_));
    }
}

void
StateAuditor::auditPredictor(const uarch::PredictorVariant &predictor,
                             std::vector<Violation> &out)
{
    std::visit(
        [&out](const auto &p) {
            using P = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<P, uarch::StaticTakenPredictor>) {
                // Stateless; nothing to prove.
            } else if constexpr (std::is_same_v<P,
                                                uarch::BimodalPredictor>) {
                auditBimodal("predictor/bimodal", p, out);
            } else if constexpr (std::is_same_v<P,
                                                uarch::GsharePredictor>) {
                auditGshare("predictor/gshare", p, out);
            } else if constexpr (std::is_same_v<
                                     P, uarch::TournamentPredictor>) {
                auditBimodal("predictor/tournament/bimodal", p.bimodal_,
                             out);
                auditGshare("predictor/tournament/gshare", p.gshare_, out);
                Emitter em("predictor/tournament", out);
                auditCounterTable(em, "chooser", p.chooser_, p.mask_);
            } else if constexpr (std::is_same_v<
                                     P, uarch::PerceptronPredictor>) {
                Emitter em("predictor/perceptron", out);
                if (p.weights_.size() != p.mask_ + 1) {
                    em.emit("table-size", "weights",
                            "size " + std::to_string(p.weights_.size()) +
                                " != mask+1 " +
                                std::to_string(p.mask_ + 1));
                    return;
                }
                for (std::size_t i = 0;
                     i < p.weights_.size() && !em.saturated(); ++i) {
                    const std::vector<int> &row = p.weights_[i];
                    if (row.size() != p.history_bits_ + 1) {
                        em.emit("table-shape",
                                "weights[" + std::to_string(i) + "]",
                                "row size " + std::to_string(row.size()) +
                                    " != bias + " +
                                    std::to_string(p.history_bits_) +
                                    " history bits");
                        continue;
                    }
                    for (std::size_t j = 0; j < row.size(); ++j) {
                        // update() clamps every weight to +/-127
                        // (branch_predictor.cpp weight_cap).
                        if (row[j] > 127 || row[j] < -127) {
                            em.emit("weight-range",
                                    "weights[" + std::to_string(i) +
                                        "][" + std::to_string(j) + "]",
                                    "weight " + std::to_string(row[j]) +
                                        " outside +/-127");
                            if (em.saturated())
                                return;
                        }
                    }
                }
            } else if constexpr (std::is_same_v<P,
                                                uarch::TageLitePredictor>) {
                auditBimodal("predictor/tage-lite/base", p.base_, out);
                Emitter em("predictor/tage-lite", out);
                if (p.tables_.size() != p.history_lengths_.size()) {
                    em.emit("table-count", "",
                            std::to_string(p.tables_.size()) +
                                " tables vs " +
                                std::to_string(p.history_lengths_.size()) +
                                " history lengths");
                    return;
                }
                for (std::size_t t = 0; t < p.history_lengths_.size();
                     ++t) {
                    unsigned len = p.history_lengths_[t];
                    // Geometric series capped at 63 bits (the history
                    // register is one 64-bit word).
                    bool ordered =
                        t == 0 || len >= p.history_lengths_[t - 1];
                    if (len == 0 || len > 63 || !ordered) {
                        em.emit("history-geometric",
                                "table " + std::to_string(t),
                                "length " + std::to_string(len));
                    }
                }
                for (std::size_t t = 0;
                     t < p.tables_.size() && !em.saturated(); ++t) {
                    const auto &table = p.tables_[t];
                    if (table.size() != p.mask_ + 1) {
                        em.emit("table-size", "table " + std::to_string(t),
                                "size " + std::to_string(table.size()) +
                                    " != mask+1 " +
                                    std::to_string(p.mask_ + 1));
                        continue;
                    }
                    for (std::size_t i = 0; i < table.size(); ++i) {
                        const auto &e = table[i];
                        std::string loc = "table " + std::to_string(t) +
                                          "[" + std::to_string(i) + "]";
                        if (e.tag > 0x3ff) // tableTag masks to 10 bits
                            em.emit("tag-width", loc,
                                    "tag " + std::to_string(e.tag));
                        if (e.counter < -4 || e.counter > 3)
                            em.emit("counter-range", loc,
                                    "3-bit counter holds " +
                                        std::to_string(e.counter));
                        if (e.useful > 3)
                            em.emit("useful-range", loc,
                                    "useful " + std::to_string(e.useful));
                        if (em.saturated())
                            return;
                    }
                }
            }
        },
        predictor);
}

/**
 * Post-prewarm fill-state audit of one cache: the survivor set must be
 * a legal end-state of a pure fill stream.  Only meaningful right
 * after prewarm — demand accesses fill ways without updating the
 * cold-fill counters (and LRU hits re-stamp arbitrary ways).
 */
void
StateAuditor::auditCacheFillState(const uarch::Cache &cache,
                                  std::vector<Violation> &out)
{
    // An empty counter array means this cache was warmed through the
    // general access() path (walk fallback) or not at all; the fill
    // invariants below are only defined for the cold-fill fast path.
    if (cache.cold_fills_.empty())
        return;

    const uarch::CacheConfig &cfg = cache.config_;
    Emitter em(cfg.name, out);
    const std::uint32_t assoc = cfg.associativity;
    const bool stamped = cfg.policy == uarch::ReplacementPolicy::Lru ||
                         cfg.policy == uarch::ReplacementPolicy::Fifo;

    for (std::uint64_t set = 0; set < cache.num_sets_ && !em.saturated();
         ++set) {
        const std::uint64_t *tags = &cache.tags_[set * assoc];
        const std::uint64_t *stamps = &cache.stamps_[set * assoc];
        std::uint32_t valid = 0;
        while (valid < assoc &&
               tags[valid] != uarch::Cache::kInvalidTag)
            ++valid;

        std::uint32_t fills = cache.cold_fills_[set];
        if (valid < assoc) {
            // The set never filled up, so the counter never wrapped
            // and must equal the per-set survivor count exactly.
            if (fills != valid) {
                em.emit("fill-consistency", setOnly(set),
                        "counter " + std::to_string(fills) + " vs " +
                            std::to_string(valid) + " survivors");
            }
        } else if (!stamped && fills != assoc) {
            // Tree-PLRU/Random hold the counter at assoc once full.
            em.emit("fill-consistency", setOnly(set),
                    "counter " + std::to_string(fills) +
                        " on a full set of " + std::to_string(assoc));
        }
        // (Full LRU/FIFO sets: the wrap residue is checked by the
        // general fill-counter bound; the order check below pins it.)

        if (!stamped)
            continue;

        // Newest-first legality: a pure fill stream fills ways round-
        // robin, so stamps must increase cyclically starting from the
        // oldest way — way 0 while filling, way `fills` after the
        // wrap.  A trailing repeat-hit re-stamp only raises the newest
        // way, which preserves the order.
        std::uint32_t start = valid < assoc ? 0 : fills % assoc;
        std::uint64_t prev = 0;
        for (std::uint32_t k = 0; k < valid; ++k) {
            std::uint32_t w = (start + k) % assoc;
            if (stamps[w] <= prev) {
                em.emit("fill-order", setWay(set, w),
                        "stamp " + std::to_string(stamps[w]) +
                            " not newer than predecessor " +
                            std::to_string(prev));
                break;
            }
            prev = stamps[w];
        }
    }
}

void
StateAuditor::auditPrewarm(const uarch::CacheHierarchy &caches,
                           const uarch::TlbHierarchy &tlbs,
                           std::vector<Violation> &out)
{
    auditCaches(caches, out);
    auditTlbs(tlbs, out);
    auditCacheFillState(caches.l1i_cache_, out);
    auditCacheFillState(caches.l1d_cache_, out);
    auditCacheFillState(caches.l2_cache_, out);
    if (caches.l3_cache_)
        auditCacheFillState(*caches.l3_cache_, out);
    auditCacheFillState(tlbs.itlb_, out);
    auditCacheFillState(tlbs.dtlb_, out);
    if (tlbs.l2tlb_)
        auditCacheFillState(*tlbs.l2tlb_, out);
}

void
StateAuditor::auditAll(const uarch::CacheHierarchy &caches,
                       const uarch::TlbHierarchy &tlbs,
                       const uarch::PredictorVariant &predictor,
                       std::vector<Violation> &out)
{
    auditCaches(caches, out);
    auditTlbs(tlbs, out);
    auditPredictor(predictor, out);
}

// ---------------------------------------------------------------------
// Seeded-corruption helpers (tests only).

void
StateAuditor::pokeTagForTest(uarch::Cache &cache, std::size_t set,
                             std::size_t way, std::uint64_t tag)
{
    cache.tags_[set * cache.config_.associativity + way] = tag;
}

void
StateAuditor::pokeStampForTest(uarch::Cache &cache, std::size_t set,
                               std::size_t way, std::uint64_t stamp)
{
    cache.stamps_[set * cache.config_.associativity + way] = stamp;
}

void
StateAuditor::pokePlruForTest(uarch::Cache &cache, std::size_t set,
                              std::uint32_t state)
{
    cache.plru_[set] = state;
}

void
StateAuditor::pokeColdFillForTest(uarch::Cache &cache, std::size_t set,
                                  std::uint32_t fills)
{
    if (cache.cold_fills_.empty())
        cache.cold_fills_.assign(cache.num_sets_, 0);
    cache.cold_fills_[set] = fills;
}

void
StateAuditor::pokeHitsForTest(uarch::Cache &cache, std::uint64_t hits)
{
    cache.hits_ = hits;
}

void
StateAuditor::pokeLineBytesForTest(uarch::Cache &cache,
                                   std::uint32_t line_bytes)
{
    cache.config_.line_bytes = line_bytes;
}

void
StateAuditor::pokePageWalksForTest(uarch::TlbHierarchy &tlbs,
                                   std::uint64_t walks)
{
    tlbs.page_walks_ = walks;
}

uarch::Cache &
StateAuditor::l1dForTest(uarch::CacheHierarchy &caches)
{
    return caches.l1d_cache_;
}

uarch::Cache &
StateAuditor::dtlbForTest(uarch::TlbHierarchy &tlbs)
{
    return tlbs.dtlb_;
}

void
StateAuditor::pokePrefetchBitForTest(uarch::CacheHierarchy &caches,
                                     std::size_t slot,
                                     std::uint8_t value)
{
    caches.l2_prefetch_bits_[slot] = value;
}

void
StateAuditor::pokePrefetchFillsForTest(uarch::CacheHierarchy &caches,
                                       std::uint64_t fills)
{
    caches.prefetch_fills_ = fills;
}

void
StateAuditor::pokeStrideConfidenceForTest(uarch::CacheHierarchy &caches,
                                          std::size_t entry,
                                          std::uint8_t confidence)
{
    caches.stride_table_[entry].confidence = confidence;
}

void
StateAuditor::pokeStreamNextForTest(uarch::CacheHierarchy &caches,
                                    std::size_t next)
{
    caches.stream_next_ = next;
}

void
StateAuditor::pokeWayPredEntryForTest(uarch::Cache &cache,
                                      std::size_t index,
                                      std::uint32_t way)
{
    cache.way_pred_[index] = way;
}

void
StateAuditor::pokeWayPredHitsForTest(uarch::Cache &cache,
                                     std::uint64_t hits)
{
    cache.way_pred_hits_ = hits;
}

void
StateAuditor::pokeDramOpenRowForTest(uarch::CacheHierarchy &caches,
                                     std::size_t bank,
                                     std::uint64_t row)
{
    caches.dram_->open_row_[bank] = row;
    caches.dram_->row_open_[bank] = 1;
}

void
StateAuditor::pokeDramBusyForTest(uarch::CacheHierarchy &caches,
                                  std::uint64_t busy_cycles)
{
    caches.dram_->busy_cycles_ = busy_cycles;
}

void
StateAuditor::pokeBimodalCounterForTest(uarch::BimodalPredictor &predictor,
                                        std::size_t index,
                                        std::uint8_t value)
{
    predictor.counters_[index] = value;
}

void
StateAuditor::pokeGshareHistoryForTest(uarch::GsharePredictor &predictor,
                                       std::uint64_t history)
{
    predictor.history_ = history;
}

void
StateAuditor::pokeChooserCounterForTest(uarch::TournamentPredictor &predictor,
                                        std::size_t index,
                                        std::uint8_t value)
{
    predictor.chooser_[index] = value;
}

void
StateAuditor::pokePerceptronWeightForTest(
    uarch::PerceptronPredictor &predictor, std::size_t row,
    std::size_t column, int weight)
{
    predictor.weights_[row][column] = weight;
}

void
StateAuditor::pokeTageEntryForTest(uarch::TageLitePredictor &predictor,
                                   std::size_t table, std::size_t index,
                                   std::uint16_t tag, std::int8_t counter,
                                   std::uint8_t useful)
{
    auto &e = predictor.tables_[table][index];
    e.tag = tag;
    e.counter = counter;
    e.useful = useful;
}

void
StateAuditor::shrinkTableForTest(uarch::PredictorVariant &predictor)
{
    std::visit(
        [](auto &p) {
            using P = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<P, uarch::BimodalPredictor>)
                p.counters_.pop_back();
            else if constexpr (std::is_same_v<P, uarch::GsharePredictor>)
                p.counters_.pop_back();
            else if constexpr (std::is_same_v<P,
                                              uarch::TournamentPredictor>)
                p.chooser_.pop_back();
            else if constexpr (std::is_same_v<P,
                                              uarch::PerceptronPredictor>)
                p.weights_.pop_back();
            else if constexpr (std::is_same_v<P,
                                              uarch::TageLitePredictor>)
                p.tables_.back().pop_back();
        },
        predictor);
}

} // namespace verify
} // namespace speclens
