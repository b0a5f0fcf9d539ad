/**
 * @file
 * Set-associative cache model.
 *
 * A functional (hit/miss) cache simulator: no timing, no coherence,
 * no prefetching — exactly what is needed to produce the MPKI metrics
 * the paper's analysis consumes.  Four replacement policies are
 * provided; the Table IV machines use LRU or tree-PLRU depending on
 * generation, and the remaining policies support the ablation
 * benchmarks.
 */

#ifndef SPECLENS_UARCH_CACHE_H
#define SPECLENS_UARCH_CACHE_H

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats/fingerprint.h"
#include "stats/rng.h"
#include "verify/violation.h"

namespace speclens {
namespace verify {
class StateAuditor;
}
namespace uarch {

class PrewarmSolver;

/** Replacement policy for a set-associative cache. */
enum class ReplacementPolicy {
    Lru,      //!< True least-recently-used.
    TreePlru, //!< Tree pseudo-LRU (binary decision tree per set).
    Fifo,     //!< First-in first-out (round-robin per set).
    Random,   //!< Uniformly random victim.
};

/** Human-readable policy name. */
std::string replacementPolicyName(ReplacementPolicy policy);

/**
 * Way-prediction policy of one cache level.
 *
 * A way predictor guesses the hit way before the tag compare finishes;
 * a correct guess saves the parallel way reads.  The model is purely
 * statistical — it tracks predictor hit/mispredict counts without
 * changing hit/miss behaviour — mirroring how MRU-family predictors
 * are evaluated in the literature.
 */
enum class WayPredictionKind : std::uint8_t {
    None,     //!< No way predictor (the default everywhere).
    Mru,      //!< One most-recently-used way per set.
    MultiMru, //!< Two MRU partitions per set, selected by a tag bit.
};

/** Human-readable way-prediction policy name. */
std::string wayPredictionKindName(WayPredictionKind kind);

/** Geometry and policy of one cache level. */
struct CacheConfig
{
    std::string name = "cache"; //!< For diagnostics ("L1D", ...).
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t associativity = 8;
    std::uint32_t line_bytes = 64;
    ReplacementPolicy policy = ReplacementPolicy::Lru;
    WayPredictionKind way_prediction = WayPredictionKind::None;

    /** Number of sets implied by the geometry. */
    std::uint64_t sets() const;

    /**
     * Geometry violations (power-of-two line size, ways divide the
     * capacity, tree-PLRU way count), family "cache-geometry".  Set
     * counts need not be powers of two — real LLCs such as the 30 MB /
     * 20-way Broadwell L3 of Table IV have non-power-of-two set
     * counts, so indexing is modulo.  TLBs reuse this check with the
     * page size as the line size, so no line-size range is imposed.
     */
    std::vector<verify::Violation> checkGeometry() const;

    /** @throws std::invalid_argument naming the first checkGeometry()
     *  violation. */
    void validate() const;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/**
 * Functional set-associative cache.
 *
 * access() probes the cache and, on a miss, fills the line (allocate on
 * read and write; write-allocate matches the inclusive write-back
 * behaviour of all the modelled machines closely enough for miss-rate
 * purposes).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Probe (and on miss, fill) the line containing @p address.
     * @return true on hit.
     *
     * Defined inline below: this is called several times per simulated
     * instruction (L1 + L2 + L3 + both TLB levels route through it),
     * so it must inline into the hierarchy wrappers and from there
     * into the playback loop.
     */
    bool access(std::uint64_t address);

    /**
     * Apply @p count repeat accesses to the line touched by the last
     * access(), all hits, in one step.  Exactly equivalent to calling
     * access() @p count more times with the same address, PROVIDED no
     * other access to this cache intervened since (the caller
     * guarantees this by tracking consecutive same-line probes): the
     * line is still resident, each probe hits the same way, and the
     * policy effects collapse — k LRU stamp writes equal one write at
     * the final tick, tree-PLRU hit touches are idempotent, FIFO and
     * Random ignore hits.  This is what lets the playback loop skip
     * the probe work for instruction streams that fetch the same line
     * (or page, for TLBs) many times in a row.
     */
    void
    repeatLastHit(std::uint64_t count)
    {
        accesses_ += count;
        hits_ += count;
        if (config_.policy == ReplacementPolicy::Lru) {
            tick_ += count;
            stamps_[last_index_] = tick_;
        }
        // The preceding access left the predictor entry pointing at
        // the way it touched, so every repeat predicts correctly.
        if (way_pred_parts_ != 0)
            way_pred_hits_ += count;
    }

    /**
     * Fill the line containing @p address, asserting it cannot be a
     * hit.  Exactly equivalent to access() whenever the line is
     * guaranteed absent — the cold prewarm walk qualifies (distinct
     * lines streamed into a never-touched cache) — minus the futile
     * tag-match scan.  Defined inline below.
     */
    void coldFill(std::uint64_t address);

    /** True when the line containing @p address is present (no fill). */
    bool contains(std::uint64_t address) const;

    /** Invalidate all lines and zero statistics. */
    void reset();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return accesses_ - hits_; }

    /** Miss ratio in [0, 1]; 0 when the cache was never accessed. */
    double missRatio() const;

    const CacheConfig &config() const { return config_; }

    /** Hits whose way the predictor guessed right (0 without one). */
    std::uint64_t wayPredHits() const { return way_pred_hits_; }

    /** Hits whose way the predictor guessed wrong. */
    std::uint64_t wayPredMispredicts() const
    {
        return way_pred_mispredicts_;
    }

    /**
     * Flat index (set * associativity + way) of the line touched by
     * the most recent access()/coldFill().  The hierarchy's prefetch
     * accounting keys its per-slot bits on this.
     */
    std::size_t lastIndex() const { return last_index_; }

  private:
    /**
     * Tag value marking an invalid way.  Real tags are line addresses
     * divided by the set count, and the modelled address spaces top out
     * far below 2^64, so the sentinel can never collide — which lets
     * the hit scan drop the separate valid flag and run over one
     * contiguous tag array (one cache line for an 8-way set) instead of
     * a 24-byte AoS Line record.
     */
    static constexpr std::uint64_t kInvalidTag = ~0ull;

    /** Set index and tag of @p address (pow2 fast path or modulo). */
    void splitAddress(std::uint64_t address, std::uint64_t &set,
                      std::uint64_t &tag) const;

    /** Victim way in @p set according to the replacement policy. */
    std::uint32_t victimWay(std::uint64_t set);

    /** Policy metadata update on hit or fill. */
    void touch(std::uint64_t set, std::uint32_t way, bool is_fill);

    CacheConfig config_;
    std::uint64_t num_sets_;
    std::uint32_t line_shift_;

    /**
     * Power-of-two set-count fast path: when num_sets_ is a power of
     * two (every modelled structure except a few non-pow2 LLCs),
     * set = line_addr & set_mask_ and tag = line_addr >> set_shift_
     * produce exactly the modulo/division values without the per-access
     * integer divide — the single largest cost in the playback loop.
     */
    bool sets_pow2_ = false;
    std::uint64_t set_mask_ = 0;
    std::uint32_t set_shift_ = 0;

    // Structure-of-arrays line metadata, num_sets * associativity
    // each, indexed set * associativity + way.
    std::vector<std::uint64_t> tags_; //!< kInvalidTag when invalid.

    /**
     * LRU/FIFO ordering stamps.  Deliberately left uninitialized at
     * construction (make_unique_for_overwrite): a stamp is only ever
     * read by the LRU/FIFO victim scan, which runs when the set is
     * full — and filling a way always writes its stamp first.  The
     * big LLC arrays (4 MB for a 30 MB L3) are built fresh for every
     * simulation, so skipping the zero pass is a measurable win.
     */
    std::unique_ptr<std::uint64_t[]> stamps_;

    std::vector<std::uint32_t> plru_; //!< Tree-PLRU state per set.

    /**
     * Per-set fill counts for coldFill(), allocated on first use.  In
     * a pure fill stream both the first-invalid way and — for LRU and
     * FIFO, whose per-set stamps are strictly increasing when nothing
     * hits — the min-stamp victim are provably round-robin, so a
     * counter replaces both way scans.
     */
    std::vector<std::uint32_t> cold_fills_;
    std::uint64_t tick_ = 0;            //!< Monotonic stamp source.
    stats::Rng rng_;                    //!< For Random replacement.

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;

    /** Flat index (set * assoc + way) touched by the last access(). */
    std::size_t last_index_ = 0;

    /**
     * Way-prediction table: num_sets * way_pred_parts_ entries, each
     * the way to guess for that (set, partition).  Empty (parts == 0)
     * when the config disables prediction, which is also the hot-path
     * gate.  MRU keeps one partition per set; multi-MRU keeps two,
     * selected by the low tag bit, so interleaved lines stop evicting
     * each other's prediction.
     */
    std::vector<std::uint32_t> way_pred_;
    std::uint32_t way_pred_parts_ = 0;
    std::uint64_t way_pred_hits_ = 0;
    std::uint64_t way_pred_mispredicts_ = 0;

    /** Predictor entry for (set, tag); only valid when parts != 0. */
    std::uint32_t &
    wayPredEntry(std::uint64_t set, std::uint64_t tag)
    {
        std::size_t part =
            way_pred_parts_ == 2 ? static_cast<std::size_t>(tag & 1) : 0;
        return way_pred_[set * way_pred_parts_ + part];
    }

    /**
     * The closed-form prewarm solver (src/uarch/prewarm.{h,cpp})
     * reconstructs the exact state a cold-fill walk would leave —
     * tags, stamps, tree-PLRU words, fill counters, tick and the
     * access statistics — directly from the warmup stream's summary,
     * so it writes every private array a walk would have written.
     */
    friend class PrewarmSolver;

    /** The invariant prover (src/verify/state_audit.h) reads — never
     *  writes — the private arrays to prove structural invariants. */
    friend class verify::StateAuditor;
};

// ---------------------------------------------------------------------
// Tree-PLRU primitives, shared by Cache::victimWay()/touch() and the
// closed-form prewarm solver (which replays them on a scratch state to
// derive — and verify — the cold-fill victim schedule).

/** Victim way selected by tree-PLRU @p state for a @p assoc -way set. */
inline std::uint32_t
plruVictimWay(std::uint32_t state, std::uint32_t assoc)
{
    // Walk the binary decision tree; each bit points away from the
    // most recently used half.
    std::uint32_t node = 0; // root of the implicit tree
    std::uint32_t index = 0;
    std::uint32_t span = assoc;
    while (span > 1) {
        bool right = (state >> node) & 1u;
        span /= 2;
        if (right)
            index += span;
        node = 2 * node + (right ? 2 : 1);
    }
    return index;
}

/** Tree-PLRU @p state after touching @p way (hit or fill). */
inline std::uint32_t
plruTouchState(std::uint32_t state, std::uint32_t assoc, std::uint32_t way)
{
    // Flip the path bits to point away from this way.
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t span = assoc;
    while (span > 1) {
        span /= 2;
        bool went_right = way >= lo + span;
        if (went_right) {
            state &= ~(1u << node); // point left next time
            lo += span;
            node = 2 * node + 2;
        } else {
            state |= (1u << node);  // point right next time
            node = 2 * node + 1;
        }
    }
    return state;
}

// ---------------------------------------------------------------------
// Hot-path definitions.  Kept in the header so the per-access chain
// (hierarchy wrapper -> access -> touch/victimWay) inlines into the
// playback loop; out-of-line these are the single largest cost in a
// campaign.

inline void
Cache::splitAddress(std::uint64_t address, std::uint64_t &set,
                    std::uint64_t &tag) const
{
    std::uint64_t line_addr = address >> line_shift_;
    if (sets_pow2_) {
        // Exactly the modulo/division values below, minus the integer
        // divide.
        set = line_addr & set_mask_;
        tag = line_addr >> set_shift_;
    } else {
        set = line_addr % num_sets_;
        tag = line_addr / num_sets_;
    }
}

inline std::uint32_t
Cache::victimWay(std::uint64_t set)
{
    const std::uint64_t *stamps = &stamps_[set * config_.associativity];
    switch (config_.policy) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        // Smallest stamp is the least-recently used / first inserted.
        std::uint32_t victim = 0;
        std::uint64_t oldest = stamps[0];
        for (std::uint32_t w = 1; w < config_.associativity; ++w) {
            if (stamps[w] < oldest) {
                oldest = stamps[w];
                victim = w;
            }
        }
        return victim;
      }
      case ReplacementPolicy::TreePlru:
        return plruVictimWay(plru_[set], config_.associativity);
      case ReplacementPolicy::Random:
        return static_cast<std::uint32_t>(
            rng_.below(config_.associativity));
    }
    return 0;
}

inline void
Cache::touch(std::uint64_t set, std::uint32_t way, bool is_fill)
{
    switch (config_.policy) {
      case ReplacementPolicy::Lru:
        stamps_[set * config_.associativity + way] = ++tick_;
        break;
      case ReplacementPolicy::Fifo:
        // Only insertion order matters; hits do not refresh the stamp.
        if (is_fill)
            stamps_[set * config_.associativity + way] = ++tick_;
        break;
      case ReplacementPolicy::TreePlru:
        plru_[set] =
            plruTouchState(plru_[set], config_.associativity, way);
        break;
      case ReplacementPolicy::Random:
        break;
    }
}

inline bool
Cache::access(std::uint64_t address)
{
    ++accesses_;
    std::uint64_t set, tag;
    splitAddress(address, set, tag);

    std::uint64_t *tags = &tags_[set * config_.associativity];
    std::uint32_t assoc = config_.associativity;

    // Early-exit scan over the contiguous tag array (one cache line
    // for an 8-way set).  The exit branch is well-predicted in
    // practice: instruction-side streams re-probe the same line many
    // times in a row, so the matching way repeats.  Branchless
    // full-scan variants measure slower here for exactly that reason.
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (tags[w] == tag) {
            ++hits_;
            last_index_ = set * assoc + w;
            touch(set, w, /*is_fill=*/false);
            if (way_pred_parts_ != 0) {
                std::uint32_t &entry = wayPredEntry(set, tag);
                if (entry == w)
                    ++way_pred_hits_;
                else
                    ++way_pred_mispredicts_;
                entry = w;
            }
            return true;
        }
    }

    // Miss: fill into the first invalid way if one exists, else evict.
    // Fills always take the first invalid way and nothing invalidates
    // an individual line, so invalid ways form a suffix of the set —
    // one look at the last way answers "is the set full?" and the
    // common steady-state miss skips the scan entirely.
    std::uint32_t way;
    if (tags[assoc - 1] != kInvalidTag) {
        way = victimWay(set);
    } else {
        way = 0;
        while (tags[way] != kInvalidTag)
            ++way;
    }

    tags[way] = tag;
    last_index_ = set * assoc + way;
    touch(set, way, /*is_fill=*/true);
    // A miss is resolved by the full tag scan, so it never verifies a
    // way prediction; the fill only trains the entry.
    if (way_pred_parts_ != 0)
        wayPredEntry(set, tag) = way;
    return false;
}

inline void
Cache::coldFill(std::uint64_t address)
{
    ++accesses_;
    std::uint64_t set, tag;
    splitAddress(address, set, tag);

    std::uint32_t assoc = config_.associativity;
    if (cold_fills_.empty())
        cold_fills_.assign(num_sets_, 0);
    std::uint32_t &fills = cold_fills_[set];

    std::uint32_t way;
    switch (config_.policy) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo:
        // Invalid ways fill in order, and once the set is full the
        // min-stamp victim of a hit-free stream is round-robin too,
        // so the fill count mod assoc IS the way — no scans.
        way = fills;
        fills = fills + 1 == assoc ? 0 : fills + 1;
        stamps_[set * assoc + way] = ++tick_; // touch(), fill case
        break;
      default:
        // Tree-PLRU / Random: the counter still covers the invalid
        // suffix; after that the policy picks the victim.
        if (fills < assoc)
            way = fills++;
        else
            way = victimWay(set);
        touch(set, way, /*is_fill=*/true);
        break;
    }

    tags_[set * assoc + way] = tag;
    last_index_ = set * assoc + way;
    // Mirror access()'s fill case so the cold walk leaves the exact
    // predictor state the general path would have.
    if (way_pred_parts_ != 0)
        wayPredEntry(set, tag) = way;
}

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_CACHE_H
